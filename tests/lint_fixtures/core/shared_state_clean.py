"""HL101 clean fixture: frozen constant tables (never mutated,
CONSTANT_STYLED) and per-instance state are both fine."""

DISPATCH_TABLE = {"join": 1, "relay": 2}

WINDOW_SIZES = [64, 128, 256]

__all__ = ["Registry"]


class Registry:
    """Mutable state belongs on instances the run owns."""

    def __init__(self):
        self._pending = {}

    def enqueue(self, message_id, message):
        self._pending[message_id] = message
