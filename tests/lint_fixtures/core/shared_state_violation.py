"""HL101 violation fixture: mutable module-level state in protocol
scope — mutated tables, non-constant-styled containers, an advanced
module-level id counter and an int rebound under ``global``."""

import itertools

_pending = {}

SESSIONS = dict()

route_cache = []


def enqueue(message_id, message):
    _pending[message_id] = message


def register(session_id, session):
    SESSIONS.update({session_id: session})


def remember(route):
    route_cache.append(route)


_ticket_ids = itertools.count(1)

_rounds_seen = 0


def next_ticket():
    return next(_ticket_ids)


def count_round():
    global _rounds_seen
    _rounds_seen += 1
