"""The five named workloads (names are fixed; later issues cite them).

Each workload drives the repo's *public* protocol objects the way a
user of ``repro`` would, from inputs generated out of the seed alone,
and checks every output.  The harness (:mod:`herdbench.harness`)
times :meth:`Workload.op` in a closed loop — the next operation
starts when the previous one returned — for ``--seconds`` seconds, on
one thread of one process.

Why these five (the interaction table in README.md spells out the
predictions):

``zone-steady``
    The ROADMAP "stack" run: one zone's full SP data plane, 100
    clients at the 20 ms codec clock.  Symmetric ChaCha20 on chaff,
    manifests and trial decryption is ~90 % of a round; half the
    channels carry a call, so chaff prediction and payload decode
    both run.
``zone-join``
    The same ``crypto`` layer used the other way: X25519 ladder,
    Ed25519 sign/verify, PKI, greedy channel allocation — almost no
    ChaCha20.  A symmetric-cipher change must not move it.
``circuit-calls``
    The inter-zone path: circuit handshakes, rendezvous splice, and
    layered onion crypto one cell at a time — ChaCha20 where
    per-round batching and keystream precomputation cannot help.
``wire-backbone``
    Labelled microbench: ``netsim`` / ``roundsync`` / taps do all the
    work and ``crypto`` none; guards the wire plane.
``udp-backbone``
    The only place ``repro.net`` (CellFrame codec, introducer,
    round barrier, retransmission) does all the work.  Traffic
    crosses the host's loopback interface, not a real link.
"""

from __future__ import annotations

import hashlib
import random
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from repro.core.callmanager import CallState
from repro.core.rendezvous import CallError
from repro.execution import create_wire_fabric
from repro.netsim.taps import TallyTap
from repro.obs.instrument import Herdscope
from repro.simulation.live import LiveZone
from repro.simulation.roundsync import DEFAULT_ROUND_INTERVAL_S
from repro.simulation.testbed import build_testbed

from herdbench import stats
from herdbench.tracer import null_span

#: One voice cell: 160 B is a 20 ms G.711 frame.
CELL_BYTES = 160
LOOPBACK_NOTE = ("udp-backbone traffic crosses the host's loopback "
                 "interface, not a real link")


class Workload:
    """What the harness needs from a workload.

    ``SIZES`` are the benchmark's sizes and ``TINY`` the smoke-test
    ones (``selftest``).  An untraced run makes ``trials`` instances
    one after another, each from the same seed; ``min_ops``
    operations are always timed on each, however short ``--seconds``
    is.
    """

    name = ""
    why = ""
    #: What one timed operation is, and what unit of work it moves.
    op_unit = "op"
    work_unit = "ops"
    SIZES: Dict[str, int] = {}
    TINY: Dict[str, int] = {}
    #: Whether ``BENCHMARK.json`` lists the workload, i.e. whether the
    #: benchmark driver runs it and gates on it.
    gated = True

    def __init__(self, seed: int, tiny: bool = False,
                 span: Callable = null_span):
        self.seed = seed
        self.sizes = dict(self.TINY if tiny else self.SIZES)
        #: ``tracer.span`` in the traced pass, a no-op otherwise.
        self.span = span
        self.attempted = 0
        self.failed = 0

    def setup(self) -> Dict[str, List[float]]:
        """Build the system and warm it up (untimed operations that
        fill caches and finish lazy set-up).  Returns named samples
        measured during set-up (seconds), if any."""
        raise NotImplementedError

    def op(self, i: int) -> None:
        """The ``i``-th timed operation."""
        raise NotImplementedError

    def check(self, i: int) -> None:
        """Verify operation ``i`` (outside its timing)."""

    def work_done(self) -> int:
        """Cumulative work units so far (the harness takes the
        difference across the timed region)."""
        return self.attempted

    def finish(self) -> Dict[str, Any]:
        """Drain, tear down and run the end-of-trial checks.  Returns
        ``exact`` (counts that must repeat for equal seeds),
        ``digest`` (or ``None``), ``totals`` (whole-trial per-layer
        counts), ``notes`` and, if any, named ``samples`` (seconds)
        measured inside the timed operations."""
        return {"exact": {}, "digest": None, "totals": {}, "notes": []}

    def op_cost_s(self, op_s: List[float],
                  samples: Dict[str, List[float]], p: float) -> float:
        """The ``p``-th percentile cost of one operation, in seconds.
        Every operation of a workload must do the same work for this
        to be one number; a workload whose operations differ with the
        seed overrides it (``circuit-calls``)."""
        return stats.percentile(op_s, p)

    def named_metrics(self, op_s: List[float], work_per_s: float,
                      samples: Dict[str, List[float]],
                      result: Dict[str, Any]) -> Dict[str, dict]:
        """This workload's end-to-end metrics under the issue's
        names, from the operation times and the named samples of
        every trial."""
        raise NotImplementedError


def metric(value: float, unit: str, n: int, **extra) -> dict:
    out = {"value": value, "unit": unit, "n": n}
    out.update(extra)
    return out


def p50(samples_s: List[float]) -> dict:
    return metric(stats.median(samples_s) * 1000.0, "ms",
                  len(samples_s))


def p90(samples_s: List[float]) -> dict:
    """The 90th percentile in ms, flagged when the sample has fewer
    than ten values beyond it (choosing-metrics §1)."""
    return metric(stats.percentile(samples_s, 90.0) * 1000.0, "ms",
                  len(samples_s),
                  supported=stats.supports(len(samples_s), 90.0))


# -- zone-steady --------------------------------------------------------------


class ZoneSteady(Workload):
    name = "zone-steady"
    why = ("full SP data plane of one zone, 100 clients, 4 live "
           "calls: ChaCha20 on chaff/manifests/trial-decrypt is ~90% "
           "of a round; the real-time-factor workload")
    op_unit = "round"
    work_unit = "cells"
    SIZES = dict(n_clients=100, n_channels=16, n_sps=4, k=2,
                 call_pairs=4, warmup_rounds=8, drain_rounds=3,
                 digest_rounds=12, min_ops=12, trials=3)
    # min_ops >= digest_rounds, so the digest cut always exists.
    TINY = dict(n_clients=12, n_channels=4, n_sps=1, k=2,
                call_pairs=1, warmup_rounds=5, drain_rounds=3,
                digest_rounds=2, min_ops=3, trials=2)

    def setup(self) -> Dict[str, List[float]]:
        s = self.sizes
        # Driven exactly as Simulation._run_live drives a wiretapped
        # live scenario: wire attached, passive observer on every
        # link, Herdscope attached.
        self.zone = zone = LiveZone(
            n_clients=s["n_clients"], n_channels=s["n_channels"],
            k=s["k"], n_sps=s["n_sps"], seed=self.seed,
            execution="batch-v2")
        self.fabric = zone.attach_wire()
        self.scope = Herdscope()
        self.scope.use_clock(lambda: float(zone.round_index))
        self.scope.attach_live_zone(zone)
        self.pairs = [(f"client-{2 * i}", f"client-{2 * i + 1}")
                      for i in range(s["call_pairs"])]
        for caller, callee in self.pairs:
            zone.start_call(caller, callee)
        self.callers = [c for pair in self.pairs for c in pair]
        self.attempted += len(self.callers)  # one leg per party
        #: client id → every cell it said, in order.
        self.said: Dict[str, List[bytes]] = {c: []
                                             for c in self.callers}
        self.rounds = 0
        self.call_setup_rounds: Optional[int] = None
        self.cut: Optional[Dict[str, int]] = None
        for _ in range(s["warmup_rounds"]):
            self._round()
            if self.call_setup_rounds is None and all(
                    zone.state_of(c) is CallState.IN_CALL
                    for c in self.callers):
                self.call_setup_rounds = self.rounds
        self.failed += sum(
            1 for c in self.callers
            if zone.state_of(c) is not CallState.IN_CALL)
        self.digest_at = s["warmup_rounds"] + s["digest_rounds"]
        return {}

    def _cell(self, client_id: str) -> bytes:
        seedline = f"{self.seed}|{self.rounds}|{client_id}".encode()
        return (hashlib.sha256(seedline).digest() * 5)[:CELL_BYTES]

    def _round(self) -> None:
        zone = self.zone
        for pair in self.pairs:
            # Voice flows once both legs are up: the mix drops what a
            # caller says while its callee is still ringing.
            if all(zone.state_of(c) is CallState.IN_CALL
                   for c in pair):
                for client_id in pair:
                    cell = self._cell(client_id)
                    zone.say(client_id, cell)
                    self.said[client_id].append(cell)
        zone.step()
        self.rounds += 1

    def op(self, i: int) -> None:
        self._round()

    def check(self, i: int) -> None:
        if self.rounds == self.digest_at:
            # Freeze what the digest and the exact counts cover: a
            # fixed prefix of the run, so equal seeds give equal
            # values however many rounds the time budget allows.
            self.cut = {
                "observations": len(
                    self.fabric.observer.observations),
                "cells_carried": self.fabric.cells_carried,
                "voice_cells_delivered": sum(
                    len(self.zone.received_by(c))
                    for c in self.callers)}

    def work_done(self) -> int:
        return self.fabric.cells_carried

    def finish(self) -> Dict[str, Any]:
        zone = self.zone
        for _ in range(self.sizes["drain_rounds"]):
            zone.step()
        self.fabric.finalize()
        self.scope.snapshot()
        self.scope.close()
        peer = {}
        for caller, callee in self.pairs:
            peer[caller], peer[callee] = callee, caller
        delivered = 0
        for client_id, cells in self.said.items():
            got = zone.received_by(peer[client_id])
            self.attempted += len(cells)
            for j, cell in enumerate(cells):
                # The mix forwards a fixed-size circuit cell: the
                # voice bytes must come back exact, zero-padded.
                if j < len(got) and got[j][:len(cell)] == cell \
                        and not any(got[j][len(cell):]):
                    delivered += 1
                else:
                    self.failed += 1
        self.failed += zone.manager.calls_blocked
        digest = hashlib.sha256()
        cut = self.cut or {"observations": 0, "cells_carried": 0,
                           "voice_cells_delivered": 0}
        for o in self.fabric.observer.observations[
                :cut["observations"]]:
            digest.update(
                f"{o.time!r},{o.size},{o.src},{o.dst}\n".encode())
        return {
            "exact": {
                "digest_rounds": self.digest_at,
                "cells_carried": cut["cells_carried"],
                "voice_cells_delivered":
                    cut["voice_cells_delivered"],
                "call_setup_rounds": self.call_setup_rounds},
            "digest": digest.hexdigest(),
            "totals": {
                "netsim.fabric.cells": self.fabric.cells_carried,
                "netsim.taps.cells_observed": len(
                    self.fabric.observer.observations),
                "core.callmanager.grants": len(zone.manager.calls),
                "core.callmanager.blocked":
                    zone.manager.calls_blocked,
                "voice_cells_said": sum(
                    len(c) for c in self.said.values()),
                "voice_cells_delivered": delivered,
                "rounds": zone.round_index},
            "notes": []}

    def named_metrics(self, op_s, work_per_s, samples, result):
        setup_rounds = result["exact"]["call_setup_rounds"]
        return {
            "rt_factor": metric(
                stats.median(op_s) / DEFAULT_ROUND_INTERVAL_S,
                "wall_s/virt_s", len(op_s)),
            "round_ms_p90": p90(op_s),
            "cells_per_s": metric(work_per_s, "1/s", len(op_s)),
            # Never reached IN_CALL: reported as the warm-up length
            # plus one, and the legs are counted as failed.
            "call_setup_rounds": metric(
                setup_rounds if setup_rounds is not None
                else self.sizes["warmup_rounds"] + 1, "rounds",
                len(self.pairs))}


# -- zone-join ----------------------------------------------------------------


class ZoneJoin(Workload):
    name = "zone-join"
    why = ("clients joining one zone via superpeers: X25519 + Ed25519 "
           "+ PKI + channel allocation, almost no ChaCha20; the "
           "bypass for symmetric-cipher changes and the "
           "memory-per-client workload")
    op_unit = "join"
    work_unit = "joins"
    SIZES = dict(n_channels=40, n_sps=10, k=2, warmup_joins=20,
                 min_ops=40, trials=5)
    TINY = dict(n_channels=4, n_sps=2, k=2, warmup_joins=2, min_ops=4,
                trials=2)
    ZONE = "zone-EU"

    def setup(self) -> Dict[str, List[float]]:
        s = self.sizes
        self.bed = bed = build_testbed([(self.ZONE, "dc-eu", 1)],
                                       seed=self.seed)
        mix = bed.mixes[f"{self.ZONE}/mix-0"]
        mix.configure_channels(s["n_channels"])
        for i in range(s["n_sps"]):
            bed.add_superpeer(
                f"{self.ZONE}/sp-{i}", mix.mix_id,
                channels=range(i, s["n_channels"], s["n_sps"]))
        self.directory_cert = bed.root.zone_certificate(self.ZONE)
        self.joined = 0
        self.client = None
        for _ in range(s["warmup_joins"]):
            self._join()
        return {}

    def _join(self) -> None:
        name = f"joiner-{self.joined}"
        self.joined += 1  # the name is spent even if the join raises
        self.client = None
        self.client = self.bed.add_client(
            name, self.ZONE, k=self.sizes["k"], via_superpeers=True)

    def op(self, i: int) -> None:
        self.attempted += 1
        try:
            self._join()
        except (RuntimeError, ValueError):
            pass  # check() finds self.client unset and counts it

    def check(self, i: int) -> None:
        client = self.client
        if client is None or not client.joined \
                or len(client.attachments) != self.sizes["k"] \
                or not self.bed.root.verify_chain(
                    client.certificate, self.directory_cert):
            self.failed += 1

    def finish(self) -> Dict[str, Any]:
        return {"exact": {}, "digest": None,
                "totals": {"clients_joined": len(self.bed.clients)},
                "notes": []}

    def named_metrics(self, op_s, work_per_s, samples, result):
        return {"joins_per_s": metric(work_per_s, "1/s", len(op_s)),
                "join_ms_p90": p90(op_s)}


# -- circuit-calls ------------------------------------------------------------


class CircuitCalls(Workload):
    name = "circuit-calls"
    why = ("two-zone testbed, 40 end-to-end calls over onion "
           "circuits, one voice frame at a time: per-cell ChaCha20 "
           "where batching cannot help; a bulk-cipher change that "
           "taxes single cells shows here as a loss")
    # One op is a *round*: every session carries one frame in each
    # direction, and every frame is timed by itself inside it.  Each
    # party's standing circuit has one mix or two as the seed has it,
    # so a frame crosses 2, 3 or 4 mixes (2.6, 3.5, 4.4 ms) and a
    # round as run costs what the seed's paths add up to: over eight
    # seeds, 275 to 315 ms for 234 to 260 mix crossings.  The
    # cost reported is that of the *reference round* — the expected
    # mix of paths, each kind of frame at its own percentile — which
    # moved 5 % over the same seeds.
    op_unit = "round"
    work_unit = "frames"
    #: Expected share of frames by mixes crossed: each end's circuit
    #: has one or two mixes with equal odds (two mixes per zone).
    REFERENCE_MIX = {2: 0.25, 3: 0.5, 4: 0.25}
    SIZES = dict(n_clients=80, min_ops=5, trials=3)
    TINY = dict(n_clients=4, min_ops=3, trials=2)
    DIRECTIONS = ("caller_to_callee", "callee_to_caller")

    def setup(self) -> Dict[str, List[float]]:
        n = self.sizes["n_clients"]
        self.bed = bed = build_testbed(seed=self.seed)  # EU + NA
        zones = list(bed.zones)
        names = [f"caller-{i}" for i in range(n)]
        for i, name in enumerate(names):
            bed.add_client(name, zones[i % len(zones)])
        builds: List[float] = []
        calls: List[float] = []
        ready = set()
        for name in names:
            self.attempted += 1
            started = perf_counter()
            try:
                bed.ready_for_calls(name)
            except CallError:
                self.failed += 1
                continue
            builds.append(perf_counter() - started)
            ready.add(name)
        self.sessions = []
        for a, b in zip(names[0::2], names[1::2]):
            self.attempted += 1
            if a not in ready or b not in ready:
                self.failed += 1
                continue
            started = perf_counter()
            try:
                session = bed.call(a, b)
            except CallError:
                self.failed += 1
                continue
            calls.append(perf_counter() - started)
            self.sessions.append(session)
        if not self.sessions:
            raise RuntimeError("circuit-calls: no call was set up")
        #: Mixes crossed by each frame of a round, in sending order.
        self.mixes_crossed: List[int] = []
        for session in self.sessions:
            mixes = len(session.caller.circuit.path) \
                + len(session.callee.circuit.path)
            self.mixes_crossed += [mixes] * len(self.DIRECTIONS)
        self.frames_rng = random.Random(self.seed)
        self.frames = 0
        #: Wall seconds of every frame sent in a timed round.
        self.frame_s: List[float] = []
        self.sent: List[tuple] = []
        return {"circuit_build": builds, "call_setup": calls}

    def op(self, i: int) -> None:
        randbytes = self.frames_rng.randbytes
        sent = self.sent = []
        frame_s = self.frame_s
        for session in self.sessions:
            for direction in self.DIRECTIONS:
                payload = randbytes(CELL_BYTES)
                started = perf_counter()
                try:
                    delivered = session.send_voice(direction, payload)
                except CallError:
                    delivered = None
                frame_s.append(perf_counter() - started)
                sent.append((payload, delivered))

    def check(self, i: int) -> None:
        for payload, delivered in self.sent:
            self.attempted += 1
            if delivered == payload:
                self.frames += 1
            else:
                self.failed += 1

    def work_done(self) -> int:
        return self.frames

    def finish(self) -> Dict[str, Any]:
        samples = {"frame": self.frame_s}
        per_round = len(self.mixes_crossed)
        for j, seconds in enumerate(self.frame_s):
            samples.setdefault(
                f"frame_{self.mixes_crossed[j % per_round]}_mixes",
                []).append(seconds)
        return {"exact": {"calls": len(self.sessions),
                          "mixes_per_round": sum(self.mixes_crossed)},
                "digest": None,
                "totals": {"frames_delivered": self.frames},
                "notes": [], "samples": samples}

    def op_cost_s(self, op_s, samples, p):
        # A kind of path this seed happens not to have (tiny sizes)
        # is costed as the average frame.
        return sum(
            share * len(self.mixes_crossed) * stats.percentile(
                samples.get(f"frame_{mixes}_mixes")
                or samples["frame"], p)
            for mixes, share in self.REFERENCE_MIX.items())

    def named_metrics(self, op_s, work_per_s, samples, result):
        return {
            "circuit_build_ms_p50": p50(samples["circuit_build"]),
            "call_setup_ms_p50": p50(samples["call_setup"]),
            "frame_ms_p50": p50(samples["frame"]),
            "frame_ms_p90": p90(samples["frame"])}


# -- the two backbones ----------------------------------------------------------


class Backbone(Workload):
    """Constant-rate SP↔mix trunks on a wire fabric: each round every
    trunk carries one cell per attached client in each direction,
    then the round is flushed into a tallying tap."""

    op_unit = "round"
    work_unit = "cells"
    execution = ""
    layer = ""

    def setup(self) -> Dict[str, List[float]]:
        s = self.sizes
        rng = random.Random(self.seed)
        self.cell = rng.randbytes(CELL_BYTES)
        # Trunk membership comes from the seed: an even split, then
        # clients moved between random trunk pairs.
        members = [s["n_clients"] // s["n_trunks"]] * s["n_trunks"]
        for _ in range(s["n_trunks"]):
            a, b = rng.randrange(s["n_trunks"]), \
                rng.randrange(s["n_trunks"])
            moved = rng.randrange(members[a])
            members[a] -= moved
            members[b] += moved
        self.trunks = [(f"sp-{i}", n) for i, n in enumerate(members)]
        self.cells_per_round = 2 * sum(members)
        self.tap = TallyTap()
        self.fabric = create_wire_fabric(self.execution,
                                         seed=self.seed,
                                         observer=self.tap)
        self.rounds = 0
        self.first_round_s = 0.0
        warm: List[float] = []
        for _ in range(s["warmup_rounds"]):
            started = perf_counter()
            self.op(0)
            warm.append(perf_counter() - started)
        # The first flush of the UDP fabric starts the introducer,
        # opens the endpoints and fetches the directory.
        self.bootstrap_s = max(0.0, warm[0] - stats.median(warm))
        return {}

    def op(self, i: int) -> None:
        emit = self.fabric.emit_repeated
        cell = self.cell
        with self.span(self.layer + ".emit"):
            for name, n in self.trunks:
                emit(name, "mix", cell, n, kind="up")
            for name, n in self.trunks:
                emit("mix", name, cell, n, kind="down")
        self.fabric.flush_round(self.rounds)
        self.rounds += 1

    def work_done(self) -> int:
        return self.fabric.cells_carried

    def finish(self) -> Dict[str, Any]:
        fabric = self.fabric
        fabric.finalize()
        carried = fabric.cells_carried
        self.attempted += carried
        self.failed += abs(carried - self.tap.cells)
        expected = self.rounds * self.cells_per_round
        self.failed += abs(expected - carried)
        totals = {f"{self.layer}.cells": carried,
                  "netsim.taps.cells_observed": self.tap.cells,
                  "rounds": self.rounds}
        notes = []
        net = fabric.net_report()
        if net is not None:
            self.failed += net["malformed"] + net["stray"]
            for key in ("datagrams_sent", "datagrams_received",
                        "retransmits", "duplicates", "malformed",
                        "barrier_attempts"):
                totals[f"net.fabric.{key}"] = net[key]
            totals["net.fabric.send_wall_s"] = \
                net["wall_send_seconds"]
            totals["net.fabric.bootstrap_s"] = self.bootstrap_s
            notes.append(LOOPBACK_NOTE)
        return {"exact": {"cells_per_round": self.cells_per_round},
                "digest": None, "totals": totals, "notes": notes}

    def named_metrics(self, op_s, work_per_s, samples, result):
        return {"cells_per_s": metric(work_per_s, "1/s", len(op_s))}


class WireBackbone(Backbone):
    name = "wire-backbone"
    why = ("labelled microbench: 100k clients on 2000 trunks through "
           "the batch-v2 wire plane into a tally tap; netsim does all "
           "the work and crypto none")
    execution = "batch-v2"
    layer = "netsim.fabric"
    SIZES = dict(n_clients=100_000, n_trunks=2000, warmup_rounds=100,
                 min_ops=100, trials=5)
    TINY = dict(n_clients=1000, n_trunks=20, warmup_rounds=5,
                min_ops=10, trials=2)


class UdpBackbone(Backbone):
    name = "udp-backbone"
    why = ("200 clients on 4 trunks as real loopback UDP datagrams: "
           "CellFrame codec, introducer bootstrap, round barrier and "
           "retransmission do all the work (loopback, not a real "
           "link)")
    execution = "asyncio"
    layer = "net.fabric"
    # Not gated: on this VM the loopback path settles, for minutes at
    # a time, into regimes a factor 2-3 apart (a round read 6.4, 10.5,
    # 13.4 and 19.6 ms within one afternoon, pinned to a CPU or not,
    # while the pure-Python workloads beside it held to 2 %).  A gate
    # on it would fire at random; it runs by hand and under `run`.
    gated = False
    SIZES = dict(n_clients=200, n_trunks=4, warmup_rounds=20,
                 min_ops=50, trials=3)
    TINY = dict(n_clients=40, n_trunks=2, warmup_rounds=3, min_ops=5,
                trials=2)


WORKLOADS = {cls.name: cls for cls in (
    ZoneSteady, ZoneJoin, CircuitCalls, WireBackbone, UdpBackbone)}
