"""The unified bench runner behind ``repro bench`` and CI perf-smoke.

The scaling workload used to live only inside
``benchmarks/test_bench_scaling.py``, timed with a bare
``time.perf_counter()`` and written to an ad-hoc ``BENCH_scaling.json``
with no commit or machine provenance — a number nobody could compare
across runs.  This module owns the core loop so the pytest bench, the
``repro bench`` CLI, and CI all execute the *same* code:

* :func:`run_backbone` — the constant-rate zone-backbone loop
  (SP↔mix trunks under :class:`~repro.simulation.roundsync.WireFabric`),
  on any registered engine (``event`` / ``batch`` / ``batch-v2``),
  optionally with a :class:`~repro.obs.prof.profiler.PhaseProfiler`
  attached;
* :func:`run_scaling_bench` — the full sweep: every engine over its
  client-count ladder (each engine caps at the count where its cost
  model stops being measurable in reasonable wall time — the event
  engine at 500 clients, batch at 100k, batch-v2 to 1M), per-phase
  breakdowns from separate profiled runs at the headline count (so
  profiling overhead never pollutes the timed numbers), an
  attached-vs-detached overhead measurement, and a schema-versioned
  entry stamped with provenance;
* :func:`compare_entries` — the regression gate.  When base and head
  carry the same machine fingerprint, absolute cells/sec must hold
  within the tolerance band; across different machines (CI runner vs
  the committed baseline) only the machine-independent engine speedup
  ratios (batch/event, batch-v2/batch) are gated.  Nonzero findings →
  nonzero exit.

Entries append to a JSONL *trajectory* so the perf history of the
engines survives across commits (EXPERIMENTS.md).
"""

from __future__ import annotations

import gc
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.prof.perfclock import perf_now, process_now
from repro.obs.prof.profiler import PhaseProfiler
from repro.obs.prof.provenance import provenance

#: One constant-rate cell (160 B ≈ a 20 ms G.711 frame).
CELL = b"\x00" * 160
DEFAULT_CLIENT_COUNTS = (100, 250, 500)
DEFAULT_ROUNDS = 25
CLIENTS_PER_SP = 50
#: Default tolerance band for :func:`compare_entries` — a ≥20%
#: slowdown always exceeds it.
DEFAULT_TOLERANCE = 0.15

WORKLOAD = ("constant-rate zone backbone (SP-mix trunks), "
            "{rounds} rounds, {per_sp} clients/SP")


def run_backbone(execution: str, n_clients: int,
                 rounds: int = DEFAULT_ROUNDS, *,
                 profiler: Optional[PhaseProfiler] = None,
                 clients_per_sp: int = CLIENTS_PER_SP
                 ) -> Dict[str, Any]:
    """Drive the zone backbone for ``rounds``; returns measurements.

    The workload (DESIGN.md §9 / benchmarks): every round, each SP
    trunk carries one cell per attached client in each direction —
    run-length vectors on batch-v2, ``append_repeated`` batches on
    the batch engine, per-cell packets and heap events on the event
    engine, and one loopback UDP datagram per cell on the real-network
    ``asyncio`` plane.  ``finalize`` is timed as part of the run.
    The fabric comes from the transport seam
    (:func:`repro.execution.create_wire_fabric`), so this module
    never imports either fabric implementation directly.
    """
    from repro import execution as execution_registry
    from repro.netsim.taps import TallyTap

    fabric = execution_registry.create_wire_fabric(
        execution, seed=1, observer=TallyTap())
    if profiler is not None:
        profiler.attach_fabric(fabric)
    n_sps = max(1, n_clients // clients_per_sp)
    members = [n_clients // n_sps + (1 if s < n_clients % n_sps else 0)
               for s in range(n_sps)]
    sp_names = [f"sp-{s}" for s in range(n_sps)]
    emit = fabric.emit_repeated
    started = perf_now()
    cpu_started = process_now()
    for r in range(rounds):
        if profiler is not None:
            profiler.round_started(r)
        for name, n in zip(sp_names, members):
            emit(name, "mix", CELL, n, kind="up")
        for name, n in zip(sp_names, members):
            emit("mix", name, CELL, n, kind="down")
        fabric.flush_round(r)
        if profiler is not None:
            profiler.round_finished(r)
    fabric.finalize()
    elapsed = perf_now() - started
    cpu_elapsed = process_now() - cpu_started
    return {
        "clients": n_clients,
        "rounds": rounds,
        "cells": fabric.cells_carried,
        "events": fabric.events_processed,
        "elapsed_s": elapsed,
        "cpu_s": cpu_elapsed,
        "cells_per_sec": fabric.cells_carried / elapsed
        if elapsed else 0.0,
        "events_per_sec": fabric.events_processed / elapsed
        if elapsed else 0.0,
        "observed_cells": fabric.observer.cells,
    }


#: Engines in the default sweep, slowest cost model first.
DEFAULT_ENGINES = ("event", "batch", "batch-v2")
#: Largest client count each engine's ladder climbs to.  The event
#: engine pays two heap events per cell and the batch engine a Python
#: loop iteration per cell, so their ladders stop where a sweep still
#: finishes in seconds; the vectorized plane does O(runs) work per
#: round and goes to a million clients.
ENGINE_CAPS: Dict[str, int] = {
    "event": 500,
    "batch": 100_000,
    "batch-v2": 1_000_000,
    # Real loopback UDP pays one datagram per cell plus a round
    # barrier, so its ladder stops with the event engine's.
    "asyncio": 500,
}


def rounds_for(n_clients: int, rounds: int = DEFAULT_ROUNDS) -> int:
    """Rounds actually driven at a ladder point.

    Per-cell engines do work linear in clients×rounds, so the big
    ladder points shorten the round count to keep the sweep bounded;
    cells/sec is rate-normalized, so the ratio gates are unaffected.
    """
    if n_clients <= 2_000:
        return rounds
    if n_clients <= 100_000:
        return max(3, rounds // 5)
    return max(3, rounds // 10)


#: The timed sweep repeats each ladder point — at least
#: :data:`MIN_REPS` times, and beyond that until
#: :data:`MIN_POINT_WALL_S` of wall time accumulates (capped at
#: :data:`MAX_REPS`) — keeping the fastest run.  Sub-millisecond
#: points are timer noise without the wall floor; the big points the
#: CI ratio gates actually read need the rep floor, or one scheduler
#: hiccup on a single run moves the gate.
MIN_POINT_WALL_S = 0.05
MIN_REPS = 3
MAX_REPS = 5


def _best_run(engine: str, n_clients: int,
              rounds: int) -> Dict[str, Any]:
    # Cyclic GC is the dominant noise source at the big ladder points
    # (a sweep mid-run costs ~40% of the measurement): collect once,
    # then time with the collector off — the same policy as `timeit`.
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        best: Optional[Dict[str, Any]] = None
        spent = 0.0
        for rep in range(MAX_REPS):
            run = run_backbone(engine, n_clients, rounds)
            spent += run["elapsed_s"]
            if best is None or run["cells_per_sec"] > \
                    best["cells_per_sec"]:
                best = run
            if rep + 1 >= MIN_REPS and spent >= MIN_POINT_WALL_S:
                break
        return best
    finally:
        if was_enabled:
            gc.enable()


def _ratio_map(num_runs: Sequence[Dict[str, Any]],
               den_runs: Sequence[Dict[str, Any]]
               ) -> Dict[str, float]:
    """clients → num/den cells/sec ratio at common ladder points."""
    den = {r["clients"]: r["cells_per_sec"] for r in den_runs}
    out: Dict[str, float] = {}
    for r in num_runs:
        base = den.get(r["clients"])
        if base:
            out[str(r["clients"])] = r["cells_per_sec"] / base
    return out


def run_scaling_bench(
        client_counts: Sequence[int] = DEFAULT_CLIENT_COUNTS,
        rounds: int = DEFAULT_ROUNDS, *,
        timestamp_utc: Optional[str] = None,
        with_phases: bool = True,
        engines: Sequence[str] = DEFAULT_ENGINES) -> Dict[str, Any]:
    """Run the full engine-scaling sweep and build a schema-versioned
    bench entry.

    Each engine climbs the ``client_counts`` ladder up to its
    :data:`ENGINE_CAPS` cap.  Real-network engines (``asyncio``) are
    swept the same way but recorded under the separate
    ``net_engines`` schema key — loopback throughput is host-network
    data and must not move the simulator regression gates.  The timed sweep runs unprofiled, repeating
    each point to :data:`MIN_POINT_WALL_S` and keeping the fastest
    run.  When
    ``with_phases`` is set, one additional *profiled* run per engine
    at its largest ladder point supplies the per-phase breakdown, and
    the ratio between the profiled and unprofiled batch runs is
    recorded as the attached profiler overhead.
    """
    from repro import execution as execution_registry

    # Sweep order: highest-capped engine first.  The big batch-v2
    # points are allocation-rate-bound, and the event engine's
    # per-cell object churn fragments the small-object arenas enough
    # to cost them ~20% — so the alloc-sensitive planes measure on a
    # fresh heap and the insensitive event plane goes last.  The
    # entry keeps the caller's engine order regardless.
    sweep_order = sorted(
        engines, key=lambda e: ENGINE_CAPS.get(e, 0), reverse=True)
    results: Dict[str, List[Dict[str, Any]]] = {}
    for engine in sweep_order:
        cap = ENGINE_CAPS.get(engine)
        ladder = [n for n in client_counts
                  if cap is None or n <= cap]
        results[engine] = [
            _best_run(engine, n, rounds_for(n, rounds))
            for n in ladder]
    results = {engine: results[engine] for engine in engines}

    # Real-network engines land under their own schema key: the
    # compare gates only read "engines" / "speedup_*", so loopback
    # cells/sec never moves a simulator trajectory gate.
    sim_results = {
        e: runs for e, runs in results.items()
        if execution_registry.resolve(e).transport == "sim"}
    net_results = {
        e: runs for e, runs in results.items()
        if execution_registry.resolve(e).transport == "udp"}

    entry: Dict[str, Any] = {
        "provenance": provenance(timestamp_utc),
        "workload": WORKLOAD.format(rounds=rounds,
                                    per_sp=CLIENTS_PER_SP),
        "client_counts": list(client_counts),
        "rounds": rounds,
        "engine_caps": {e: ENGINE_CAPS[e] for e in engines
                        if e in ENGINE_CAPS},
        "engines": sim_results,
        "speedup_cells_per_sec": _ratio_map(
            sim_results.get("batch", ()),
            sim_results.get("event", ())),
        "speedup_v2_over_batch": _ratio_map(
            sim_results.get("batch-v2", ()),
            sim_results.get("batch", ())),
    }
    if net_results:
        entry["net_engines"] = net_results

    if with_phases and any(results.values()):
        phases: Dict[str, Any] = {}
        profiled_batch = None
        for engine in engines:
            if not results[engine]:
                continue
            headline = results[engine][-1]["clients"]
            prof = PhaseProfiler()
            run = run_backbone(engine, headline,
                               rounds_for(headline, rounds),
                               profiler=prof)
            phases[engine] = prof.report()
            if engine == "batch":
                profiled_batch = run
        entry["phases"] = phases

        if profiled_batch is not None:
            detached = results["batch"][-1]
            overhead_pct = 0.0
            if profiled_batch["cells_per_sec"]:
                overhead_pct = 100.0 * max(
                    0.0, detached["cells_per_sec"]
                    / profiled_batch["cells_per_sec"] - 1.0)
            entry["profiler_overhead"] = {
                "clients": detached["clients"],
                "engine": "batch",
                "detached_cells_per_sec": detached["cells_per_sec"],
                "profiled_cells_per_sec":
                    profiled_batch["cells_per_sec"],
                "overhead_pct": overhead_pct,
            }
    return entry


# -- comparison ----------------------------------------------------------------


def _schema_of(entry: Dict[str, Any]) -> int:
    return int(entry.get("provenance", {}).get("schema", 0))


def _fingerprint_of(entry: Dict[str, Any]) -> Optional[str]:
    return entry.get("provenance", {}).get("machine_fingerprint")


def _throughputs(entry: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """engine → {clients: cells_per_sec} for any schema version."""
    out: Dict[str, Dict[str, float]] = {}
    for engine, runs in entry.get("engines", {}).items():
        out[engine] = {str(r["clients"]): r["cells_per_sec"]
                       for r in runs}
    return out


def compare_entries(base: Dict[str, Any], head: Dict[str, Any],
                    tolerance: float = DEFAULT_TOLERANCE
                    ) -> List[str]:
    """Regression findings of ``head`` against ``base`` (empty = ok).

    Two gates, picked by machine fingerprint:

    * same fingerprint (or re-run on one machine): absolute cells/sec
      per engine per client count must not drop more than
      ``tolerance``;
    * different/unknown fingerprint: only the engine *speedup ratios*
      (batch/event and batch-v2/batch) are gated — they are a
      property of the engines, not the host.
    """
    findings: List[str] = []
    floor = 1.0 - tolerance

    base_fp, head_fp = _fingerprint_of(base), _fingerprint_of(head)
    same_machine = (base_fp is not None and base_fp == head_fp)

    for key, label in (("speedup_cells_per_sec", "batch/event"),
                       ("speedup_v2_over_batch", "batch-v2/batch")):
        base_speed = base.get(key, {})
        head_speed = head.get(key, {})
        for clients in sorted(set(base_speed) & set(head_speed),
                              key=lambda c: int(c)):
            b, h = base_speed[clients], head_speed[clients]
            if b > 0 and h < b * floor:
                findings.append(
                    f"{label} speedup ratio at {clients} clients "
                    f"regressed: {b:.2f}x -> {h:.2f}x "
                    f"(floor {b * floor:.2f}x at tolerance "
                    f"{tolerance:.0%})")

    if same_machine:
        base_tp, head_tp = _throughputs(base), _throughputs(head)
        for engine in sorted(set(base_tp) & set(head_tp)):
            for clients in sorted(
                    set(base_tp[engine]) & set(head_tp[engine]),
                    key=lambda c: int(c)):
                b = base_tp[engine][clients]
                h = head_tp[engine][clients]
                if b > 0 and h < b * floor:
                    findings.append(
                        f"{engine} engine at {clients} clients "
                        f"regressed: {b:,.0f} -> {h:,.0f} cells/sec "
                        f"(floor {b * floor:,.0f} at tolerance "
                        f"{tolerance:.0%})")
    return findings


def describe_comparison(base: Dict[str, Any],
                        head: Dict[str, Any]) -> str:
    """One line of context printed above compare results."""
    base_fp, head_fp = _fingerprint_of(base), _fingerprint_of(head)
    mode = ("absolute cells/sec + speedup ratios "
            "(same machine fingerprint)"
            if base_fp is not None and base_fp == head_fp
            else "speedup ratios only (machine fingerprints differ "
                 "or are missing)")
    return (f"base schema {_schema_of(base)} "
            f"(commit {base.get('provenance', {}).get('commit', 'unknown')[:12]}) vs "
            f"head schema {_schema_of(head)} "
            f"(commit {head.get('provenance', {}).get('commit', 'unknown')[:12]}); "
            f"gate: {mode}")


# -- trajectory ----------------------------------------------------------------


def append_trajectory(entry: Dict[str, Any], path: str) -> None:
    """Append one bench entry to the JSONL trajectory history."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def read_trajectory(path: str) -> List[Dict[str, Any]]:
    p = Path(path)
    if not p.exists():
        return []
    entries = []
    for line in p.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            entries.append(json.loads(line))
    return entries


def load_entry(path: str) -> Dict[str, Any]:
    """Read one bench entry (a plain JSON object, any schema)."""
    return json.loads(Path(path).read_text(encoding="utf-8"))
