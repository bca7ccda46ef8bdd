"""The round drain's steady-round path, against a drain that always
rebuilds.

:meth:`CellTransport._drain_round` reuses the last round's run table,
``order`` and per-link deltas when a round repeats the last round's
shape (header bytes, link ids, counts and payload lengths — constant-
rate emission, invariant I6).  :class:`_Oracle` is the full drain run
on every round: the rows grouped by a stable sort on their link's
first position, totals added with ``np.add.at``.  Each test spies on a
real fabric's drain and checks every round's table, ``runs()``,
per-link totals, ``cells_carried`` and ``_segments``, every
``finalize()`` report, and what a :class:`TallyTap` and a
:class:`LinkObserver` saw, against the oracle fed the same rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import transport
from repro.core.transport import CellTransport
from repro.execution import create_wire_fabric
from repro.netsim.observer import LinkObserver
from repro.netsim.packet import IP_UDP_HEADER_BYTES
from repro.netsim.taps import TallyTap
from repro.simulation.live import LiveZone
from repro.simulation.roundsync import DEFAULT_ROUND_INTERVAL_S


class _Oracle:
    """The drain as a full rebuild on every round."""

    def __init__(self):
        self.cells = np.zeros(0, np.int64)
        self.bytes = np.zeros(0, np.int64)
        self.segments = 0
        self.carried = 0

    def drain(self, rows, header_bytes, links):
        n = len(rows)
        if not n:
            return [], [], [], (), (), []
        link_ids, payloads, kinds, counts = zip(*rows)
        ids = np.fromiter(link_ids, np.intp, n)
        seen, first = np.unique(ids, return_index=True)
        position = np.empty(len(links), np.intp)
        position[seen] = first
        order = np.argsort(position[ids], kind="stable")
        count_col = np.fromiter(counts, np.int64, n)
        size_col = np.fromiter(map(len, payloads), np.int64, n)
        size_col += header_bytes
        grow = len(links) - len(self.cells)
        self.cells = np.concatenate((self.cells,
                                     np.zeros(grow, np.int64)))
        self.bytes = np.concatenate((self.bytes,
                                     np.zeros(grow, np.int64)))
        np.add.at(self.cells, ids, count_col)
        np.add.at(self.bytes, ids, size_col * count_col)
        self.segments += n
        self.carried += int(count_col.sum())
        return ([links[i] for i in ids[order].tolist()],
                size_col[order].tolist(), count_col[order].tolist(),
                payloads, kinds, order.tolist())

    def finalize(self, links):
        used = np.flatnonzero(self.cells)
        report = {"cells": int(self.cells.sum()),
                  "bytes": int(self.bytes.sum()),
                  "segments": self.segments,
                  "link_stats": {
                      links[i]: (int(self.cells[i]), int(self.bytes[i]))
                      for i in used.tolist()}}
        self.cells = np.zeros_like(self.cells)
        self.bytes = np.zeros_like(self.bytes)
        self.segments = 0
        return report


class _Checked:
    """A fabric whose every drain is checked against :class:`_Oracle`,
    with a :class:`TallyTap` and a :class:`LinkObserver` beside a
    reference observer fed the oracle's tables."""

    def __init__(self, engine):
        self.observer = LinkObserver()
        self.fabric = create_wire_fabric(engine, seed=1,
                                         observer=self.observer)
        self.tally = TallyTap()
        self.fabric.add_tap(self.tally)
        self.want_observer = LinkObserver()
        self.want_tally = [0, 0]
        self.oracle = _Oracle()
        self.engine = engine
        self.round = 0
        drain = self.fabric._drain_round

        def checked_drain(header_bytes):
            rows = list(zip(*[iter(self.fabric._queue)] * 4))
            table = drain(header_bytes)
            self._check(table, self.oracle.drain(
                rows, header_bytes, self.fabric._link_keys))
            return table

        self.fabric._drain_round = checked_drain

    def _check(self, table, want):
        keys, sizes, counts, payloads, kinds, order = want
        assert type(table.keys) is type(table.sizes) \
            is type(table.counts) is list
        assert (table.keys, table.sizes, table.counts) == \
            (keys, sizes, counts)
        assert table.payloads == list(payloads)
        assert table.kinds == list(kinds)
        assert table.order.tolist() == order
        assert table.runs() == [(key, payloads[i], kinds[i], count)
                                for key, i, count in zip(keys, order,
                                                         counts)]
        fabric, oracle = self.fabric, self.oracle
        assert fabric._link_cells.tolist() == oracle.cells.tolist()
        assert fabric._link_bytes.tolist() == oracle.bytes.tolist()
        assert fabric._segments == oracle.segments
        assert fabric.cells_carried == oracle.carried
        self.want_observer.record_round_runs(
            self.round * DEFAULT_ROUND_INTERVAL_S, keys, sizes, counts)
        self.want_tally[0] += sum(counts)
        self.want_tally[1] += sum(s * c for s, c in zip(sizes, counts))

    def flush(self):
        self.fabric.flush_round(self.round)
        self.round += 1
        assert [self.tally.cells, self.tally.bytes] == self.want_tally
        assert list(self.observer.observations) == \
            list(self.want_observer.observations)

    def finalize(self):
        report = self.fabric.finalize()
        want = self.oracle.finalize(self.fabric._link_keys)
        assert report == (None if self.engine == "event" else want)
        assert self.fabric._link_cells.tolist() == \
            self.oracle.cells.tolist()


# -- round scripts --------------------------------------------------------------

_NODES = ("sp-0", "mix", "client-0", "client-1")
_LINK = st.tuples(st.sampled_from(_NODES), st.sampled_from(_NODES)) \
    .filter(lambda link: link[0] != link[1])
_SIZE = st.integers(0, 40)
_OP = st.one_of(
    st.tuples(st.just("emit"), _LINK, _SIZE),
    st.tuples(st.just("each"), st.lists(st.tuples(_LINK, _SIZE),
                                        max_size=4)),
    st.tuples(st.just("repeated"), _LINK, _SIZE, st.integers(0, 4)))
#: A step: the base round it replays, how it changes it, the payload
#: byte and kind it emits with, and whether ``finalize()`` follows.
_STEP = st.tuples(st.integers(0, 2),
                  st.sampled_from(["same", "same", "same", "count",
                                   "size", "new-link", "empty"]),
                  st.integers(0, 255), st.sampled_from(["up", "chaff"]),
                  st.booleans())
_SCRIPT = st.tuples(st.lists(st.lists(_OP, min_size=1, max_size=6),
                             min_size=3, max_size=3),
                    st.lists(_STEP, min_size=1, max_size=10))


def _changed(ops, change, step):
    """``ops`` with the change ``change`` names (none for ``"same"``)."""
    ops = list(ops)
    if change == "empty":
        return []
    if change == "new-link":
        return ops + [("emit", (f"new-{step}", "mix"), 3)]
    op = ops[0]
    if change == "count":
        if op[0] == "repeated":
            return [op[:3] + (op[3] + 1,)] + ops[1:]
        return ops + [("repeated", ("mix", "sp-0"), 1, 2)]
    if change == "size":
        if op[0] == "each":
            op = ("each", [(link, size + 1) for link, size in op[1]])
        else:
            op = op[:2] + (op[2] + 1,) + op[3:]
        return [op] + ops[1:]
    return ops


def _emit(fabric, ops, byte, kind):
    payload = bytes([byte])
    for op in ops:
        if op[0] == "emit":
            fabric.emit(*op[1], payload * op[2], kind=kind)
        elif op[0] == "each":
            fabric.emit_each([link for link, _ in op[1]],
                             [payload * size for _, size in op[1]],
                             kind=kind)
        else:
            fabric.emit_repeated(*op[1], payload * op[2], op[3],
                                 kind=kind)


def _run(engine, script):
    bases, steps = script
    checked = _Checked(engine)
    for step, (base, change, byte, kind, finalize) in enumerate(steps):
        _emit(checked.fabric, _changed(bases[base], change, step), byte,
              kind)
        checked.flush()
        if finalize:
            checked.finalize()
    checked.finalize()
    return checked


class TestSteadyRounds:
    @pytest.mark.parametrize("engine", ["batch-v2", "event"])
    @given(script=_SCRIPT)
    @settings(max_examples=60, deadline=None)
    def test_every_round_matches_a_full_rebuild(self, engine, script):
        _run(engine, script)

    @pytest.mark.filterwarnings("error::ResourceWarning")
    def test_socket_plane_matches_a_full_rebuild(self):
        base = [("emit", ("client-0", "sp-0"), 8),
                ("repeated", ("sp-0", "mix"), 3, 2),
                ("each", [(("client-1", "sp-0"), 4),
                          (("client-0", "sp-0"), 5)])]
        steps = [(0, "same", 1, "up", False),
                 (0, "same", 2, "chaff", False),
                 (0, "count", 3, "up", True),
                 (0, "same", 4, "up", False),
                 (0, "size", 5, "up", False),
                 (0, "empty", 6, "up", False),
                 (0, "new-link", 7, "up", True),
                 (0, "same", 8, "up", False)]
        _run("asyncio", ([base, base, base], steps))

    def test_a_changed_header_rebuilds(self):
        fabric, oracle = CellTransport(), _Oracle()
        for header in (IP_UDP_HEADER_BYTES, IP_UDP_HEADER_BYTES, 0, 0):
            fabric.emit("a", "b", b"xy")
            fabric.emit_repeated("b", "a", b"z", 3)
            rows = list(zip(*[iter(fabric._queue)] * 4))
            table = fabric._drain_round(header)
            want = oracle.drain(rows, header, fabric._link_keys)
            assert (table.keys, table.sizes, table.counts) == want[:3]
            assert fabric._link_bytes.tolist() == oracle.bytes.tolist()

    def test_a_steady_round_hands_back_the_last_rounds_lists(self):
        fabric = CellTransport()
        tables = []
        for byte in (1, 2):
            fabric.emit("a", "b", bytes([byte]) * 4, kind=str(byte))
            tables.append(fabric._drain_round(IP_UDP_HEADER_BYTES))
        first, second = tables
        assert second.keys is first.keys and second.sizes is first.sizes
        assert second.counts is first.counts
        assert second.runs() == [(("a", "b"), b"\x02" * 4, "2", 1)]

    def test_the_tally_sums_new_lists_and_reuses_repeated_ones(self):
        tap = TallyTap()
        keys, sizes, counts = [("a", "b")], [10], [3]
        tap.record_round_runs(0.0, keys, sizes, counts)
        tap.record_round_runs(0.02, keys, sizes, counts)
        tap.record_round_runs(0.04, keys, [10], [4])
        assert (tap.cells, tap.bytes) == (10, 100)


def _queued(ops, payload, kind):
    """The ``(link, payload, kind, count)`` entries that ``_emit(...,
    ops, ...)`` queues, in emission order."""
    entries = []
    for op in ops:
        if op[0] == "emit":
            entries.append((op[1], payload * op[2], kind, 1))
        elif op[0] == "each":
            entries += [(link, payload * size, kind, 1)
                        for link, size in op[1]]
        elif op[3]:
            entries.append((op[1], payload * op[2], kind, op[3]))
    return entries


class TestEmission:
    """The flat queue and the link index behind ``emit``,
    ``emit_each`` and ``emit_repeated``."""

    @given(rounds=st.lists(st.lists(_OP, max_size=8), min_size=1,
                           max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_a_link_has_one_id_whichever_call_first_saw_it(self, rounds):
        fabric, plain = CellTransport(), CellTransport()
        first_seen = {}
        for ops in rounds:
            entries = _queued(ops, b"\x07", "up")
            _emit(fabric, ops, 7, "up")
            for link, _, _, _ in entries:
                plain.emit(*link, b"")
                first_seen.setdefault(link, len(first_seen))
            queue = fabric._queue
            assert [(fabric._link_keys[link_id], payload, kind, count)
                    for link_id, payload, kind, count
                    in zip(*[iter(queue)] * 4)] == entries
            assert queue[0::4] == plain._queue[0::4]
            fabric._drain_round(0)
            plain._drain_round(0)
        assert fabric._link_keys == list(first_seen)
        assert {(src, dst): link_id
                for src, dsts in fabric._link_index.items()
                for dst, link_id in dsts.items()} == first_seen

    def test_emit_repeated_of_no_cells_queues_nothing(self):
        fabric = CellTransport()
        fabric.emit_repeated("a", "b", b"x", 0)
        assert (fabric._queue, fabric._link_keys) == ([], [])
        fabric.emit("b", "a", b"y")
        fabric.emit_repeated("b", "a", b"x", 0)
        assert fabric._queue == [0, b"y", "data", 1]
        for link in (("a", "b"), ("b", "a")):
            with pytest.raises(ValueError, match="negative"):
                fabric.emit_repeated(*link, b"x", -1)
        assert fabric._queue == [0, b"y", "data", 1]
        assert fabric._link_keys == [("b", "a")]

    def test_an_emit_each_length_mismatch_queues_nothing(self):
        fabric = CellTransport()
        fabric.emit("a", "b", b"x")
        for links, payloads in (([("a", "b"), ("c", "d")], [b"y"]),
                                ([("c", "d")], [b"y", b"z"])):
            with pytest.raises(ValueError, match="emit_each"):
                fabric.emit_each(links, payloads)
        assert fabric._queue == [0, b"x", "data", 1]
        assert fabric._link_keys == [("a", "b")]
        assert fabric._link_index == {"a": {"b": 0}}


class _CountingNumpy:
    """``numpy`` as :mod:`repro.core.transport` sees it, counting the
    full drain's ``unique`` and ``argsort`` calls."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def unique(self, *args, **kwargs):
        self.calls += 1
        return np.unique(*args, **kwargs)

    def argsort(self, *args, **kwargs):
        self.calls += 1
        return np.argsort(*args, **kwargs)


def test_a_steady_live_round_takes_the_reuse_path(monkeypatch):
    spy = _CountingNumpy()
    monkeypatch.setattr(transport, "np", spy)
    zone = LiveZone(n_clients=12, n_channels=4, seed=3,
                    execution="batch-v2")
    zone.attach_wire()
    zone.start_call("client-0", "client-1")
    zone.run(4)
    assert spy.calls > 0
    before = spy.calls
    zone.say("client-0", b"hello")
    zone.run(6)
    assert spy.calls == before
    assert zone.wire.cells_carried > 0
