"""Round-synchronous execution on the network simulator.

Covers the determinism contract that motivated moving packet-id
allocation off a module global and onto the
:class:`~repro.netsim.engine.EventLoop`, the one round clock every
wire plane stamps its taps with (round ``r`` at ``r * interval``),
and the wire queue every round plane drains
(:class:`~repro.core.transport.CellTransport`): random scripts of
``emit`` / ``emit_each`` / ``emit_repeated`` checked against a plain
dict-of-lists grouping on every engine.
"""

import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.execution import create_wire_fabric

from repro.netsim.engine import EventLoop
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.netsim.observer import LinkObserver
from repro.netsim.packet import IP_UDP_HEADER_BYTES, Packet


def _pair(loop, **link_kwargs):
    a, b = Node("a", loop), Node("b", loop)
    link = Link(loop, a, b, **link_kwargs)
    return a, b, link


class _TimeTap:
    """A ``record``-only tap: the virtual time of every cell."""

    def __init__(self):
        self.times = []

    def record(self, time, cell, src, dst):
        self.times.append(time)


class TestRoundClock:
    @pytest.mark.parametrize("engine", ["event", "batch-v2", "asyncio"])
    @pytest.mark.filterwarnings("error::ResourceWarning")
    def test_a_tap_sees_round_r_at_r_intervals(self, engine):
        fabric = create_wire_fabric(engine, seed=1, interval=0.05)
        tap = _TimeTap()
        fabric.add_tap(tap)
        rounds = [0, 1, 2, 5, 20]
        for r in rounds:
            fabric.emit("client-0", "sp-0", b"\x01" * 8)
            fabric.emit_repeated("sp-0", "mix", b"\x02" * 8, 2)
            fabric.flush_round(r)
        fabric.finalize()
        want = [r * 0.05 for r in rounds for _ in range(3)]
        assert tap.times == want
        assert [o.time for o in fabric.observer.observations] == want


class TestPacketIdDeterminism:
    """Packet ids are loop-local: two identically-seeded runs in ONE
    process are byte-identical (the old module-global counter kept
    counting across runs)."""

    def _run(self):
        loop = EventLoop(seed=5)
        a, b, link = _pair(loop)
        ids = []
        b.on_packet(lambda p: ids.append(p.packet_id))
        for payload in (b"x", b"y", b"z"):
            link.transmit(a, Packet(payload, "a", "b"))
        loop.run()
        return ids

    def test_two_runs_one_process_identical_ids(self):
        assert self._run() == self._run() == [0, 1, 2]

    def test_explicit_ids_are_not_restamped(self):
        loop = EventLoop()
        a, b, link = _pair(loop)
        got = []
        b.on_packet(lambda p: got.append(p.packet_id))
        link.transmit(a, Packet(b"x", "a", "b", packet_id=99))
        loop.run()
        assert got == [99]

    def test_call_ids_are_manager_local(self):
        # Same regression at the core layer: MixCallManager used a
        # module-global call-id counter; GRANTs of a second seeded run
        # must carry the same ids as the first.
        from repro.simulation.live import LiveZone

        def call_ids():
            zone = LiveZone(n_clients=4, n_channels=2, seed=3)
            zone.start_call("client-0", "client-1")
            zone.run(6)
            return sorted(c.call_id for c in zone.manager.calls.values())

        first = call_ids()
        assert first and first == call_ids()

    def test_per_packet_transmit_is_warning_free(self):
        loop = EventLoop()
        a, b, link = _pair(loop)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            link.transmit(a, Packet(b"x", "a", "b"))
            loop.run()


# -- the wire queue ----------------------------------------------------------

_NODES = ("sp-0", "mix", "client-0", "client-1")
_LINK = st.tuples(st.sampled_from(_NODES), st.sampled_from(_NODES)) \
    .filter(lambda link: link[0] != link[1])
_SIZE = st.integers(0, 40)
#: One emission: ``("emit", link, size)``, ``("each", [(link, size),
#: ...])`` or ``("repeated", link, size, n)`` with ``n`` possibly 0.
_OP = st.one_of(
    st.tuples(st.just("emit"), _LINK, _SIZE),
    st.tuples(st.just("each"), st.lists(st.tuples(_LINK, _SIZE),
                                        max_size=5)),
    st.tuples(st.just("repeated"), _LINK, _SIZE, st.integers(0, 4)))
#: A run: rounds of emissions, each round followed by a ``finalize()``
#: or not (a last one always follows the run).
_SCRIPT = st.lists(st.tuples(st.lists(_OP, max_size=8), st.booleans()),
                   min_size=1, max_size=6)


def _cells(op):
    """An emission as ``(link, payload size, count)`` rows."""
    if op[0] == "emit":
        return [(op[1], op[2], 1)]
    if op[0] == "each":
        return [(link, size, 1) for link, size in op[1]]
    return [(op[1], op[2], op[3])]


def _reference(script):
    """Each round's run table by grouping the rows in a dict of lists
    (links in first-emission order), and each ``finalize()`` report
    from plain sums."""
    tables, reports = [], []
    totals, segments = {}, 0

    def report():
        return {"cells": sum(c for c, _ in totals.values()),
                "bytes": sum(b for _, b in totals.values()),
                "segments": segments,
                "link_stats": {k: tuple(v) for k, v in totals.items()}}

    for ops, finalize in script:
        pending = {}
        for op in ops:
            for link, size, count in _cells(op):
                if count:
                    pending.setdefault(link, []).append(
                        (size + IP_UDP_HEADER_BYTES, count))
        keys, sizes, counts = [], [], []
        for link, runs in pending.items():
            for size, count in runs:
                keys.append(link)
                sizes.append(size)
                counts.append(count)
                entry = totals.setdefault(link, [0, 0])
                entry[0] += count
                entry[1] += size * count
        segments += len(keys)
        tables.append((keys, sizes, counts))
        if finalize:
            reports.append(report())
            totals, segments = {}, 0
    reports.append(report())
    return tables, reports


class _TableTap:
    """Keeps each round's run table, and checks that it is made of
    plain Python lists, tuples and ints."""

    def __init__(self):
        self.tables = []

    def record(self, time, cell, src, dst):
        raise AssertionError("a table tap is offered whole tables")

    def record_round_runs(self, time, keys, sizes, counts):
        assert type(keys) is type(sizes) is type(counts) is list
        assert all(type(key) is tuple for key in keys)
        assert all(type(value) is int for value in sizes + counts)
        self.tables.append((keys, sizes, counts))


def _drive(engine, script):
    """Run ``script`` on a fresh fabric: ``(tables, finalize reports,
    observations, fabric)``; the per-cell ``event`` plane offers no
    tables."""
    observer = LinkObserver()
    fabric = create_wire_fabric(engine, seed=1, observer=observer)
    tap = _TableTap()
    if engine != "event":
        fabric.add_tap(tap)
    reports = []
    for r, (ops, finalize) in enumerate(script):
        for op in ops:
            if op[0] == "emit":
                fabric.emit(*op[1], b"\x01" * op[2], kind="up")
            elif op[0] == "each":
                fabric.emit_each([link for link, _ in op[1]],
                                 [b"\x02" * size for _, size in op[1]],
                                 kind="bcast")
            else:
                fabric.emit_repeated(*op[1], b"\x03" * op[2], op[3])
        fabric.flush_round(r)
        if finalize:
            reports.append(fabric.finalize())
    reports.append(fabric.finalize())
    return tap.tables, reports, list(observer.observations), fabric


def _check(engine, script):
    tables, reports, observations, fabric = _drive(engine, script)
    want_tables, want_reports = _reference(script)
    if engine == "event":
        _check_netsim_counts(fabric, want_reports)
    else:
        assert tables == want_tables
    assert reports == want_reports
    assert fabric.cells_carried == sum(report["cells"]
                                       for report in want_reports)
    return observations


def _check_netsim_counts(fabric, reports):
    """The per-cell plane's netsim links and nodes count every packet
    they carry, across ``finalize()`` calls: their counts are the sums
    of the reports."""
    booked, received = {}, {}
    for report in reports:
        for (src, dst), (cells, n_bytes) in report["link_stats"].items():
            for totals, key in ((booked, (src, dst)), (received, dst)):
                entry = totals.setdefault(key, [0, 0])
                entry[0] += cells
                entry[1] += n_bytes
    counted = {}
    for link in fabric._links.values():
        for sender, receiver in ((link.a, link.b), (link.b, link.a)):
            stats = link.stats[sender.name]
            if stats.packets:
                counted[(sender.name, receiver.name)] = [stats.packets,
                                                         stats.bytes]
    assert counted == booked
    assert {name: [node.packets_received, node.bytes_received]
            for name, node in fabric.nodes.items()
            if node.packets_received} == received


class TestWireQueue:
    @given(_SCRIPT)
    @settings(max_examples=150, deadline=None)
    def test_round_tables_and_totals_match_the_grouping(self, script):
        assert _check("event", script) == _check("batch-v2", script)

    @pytest.mark.parametrize("script", [
        # A link repeated within a round, after another link first
        # seen in the same round; an empty run; a finalize mid-run; a
        # link first seen in the last round; an empty round.
        [([("emit", ("client-0", "sp-0"), 8),
           ("repeated", ("sp-0", "mix"), 3, 2),
           ("each", [(("client-1", "sp-0"), 4),
                     (("client-0", "sp-0"), 5)]),
           ("repeated", ("sp-0", "mix"), 3, 0)], True),
         ([], False),
         ([("repeated", ("mix", "sp-0"), 6, 3),
           ("emit", ("sp-0", "client-1"), 1),
           ("emit", ("client-0", "sp-0"), 8)], False)],
        [([("each", [(("sp-0", "mix"), 0), (("mix", "sp-0"), 2),
                     (("sp-0", "mix"), 7)])], True),
         ([("repeated", ("client-1", "mix"), 9, 4)], True)],
    ])
    @pytest.mark.filterwarnings("error::ResourceWarning")
    def test_socket_plane_drains_the_same_queue(self, script):
        assert _check("asyncio", script) == _check("batch-v2", script)

    @pytest.mark.parametrize("engine", ["event", "batch-v2"])
    def test_unequal_emit_each_raises_before_queueing(self, engine):
        fabric = create_wire_fabric(engine, seed=1)
        fabric.emit("a", "b", b"x")
        with pytest.raises(ValueError, match="2 links for 1 payloads"):
            fabric.emit_each([("a", "b"), ("b", "a")], [b"y"])
        with pytest.raises(ValueError):
            fabric.emit_each([("a", "b")], [b"y", b"z"])
        fabric.flush_round(0)
        assert fabric.cells_carried == 1

    @pytest.mark.parametrize("engine", ["event", "batch-v2"])
    def test_negative_count_raises_before_queueing(self, engine):
        fabric = create_wire_fabric(engine, seed=1)
        with pytest.raises(ValueError, match="negative"):
            fabric.emit_repeated("a", "b", b"x", -1)
        fabric.emit_repeated("a", "b", b"x", 0)
        fabric.flush_round(0)
        assert fabric.cells_carried == 0
        assert list(fabric.observer.observations) == []
