"""One run of one workload: set-up, the timed closed loop, the checks.

Load shape (every workload): closed loop, one process, one thread.
``gc.collect()`` then ``gc.disable()`` around each measured region —
a cyclic collection mid-run is the dominant noise source, the same
policy as ``timeit`` and the repo's own bench runner.

An **untraced** run is a handful of *trials* (``trials`` in the
workload's sizes) spread evenly over ``seconds``: each trial builds
the system afresh from the same seed (the fastest build is
``setup_s``), times operations until its share of the window is over,
then drains and checks its outputs.  The host slows this VM down for
tens of seconds at a time, so what steadies a run is the span of wall
time its samples cover, not their number: spreading both the builds
and the operations over the whole window gives every metric the same
chance to see the machine undisturbed.  Equal seeds build equal
systems, so the trials must agree on digest and exact counts.

A **traced** run installs the span wrappers of
:mod:`herdbench.layers`, builds once under a ``bench.setup`` root
span, times a short *untraced* calibration stretch on the very same
system, then times traced operations until ``seconds`` after the run
began; ``trace.overhead_ratio`` is the traced median operation over
the calibration median.  End-to-end numbers only ever come from
untraced runs.
"""

from __future__ import annotations

import gc
import resource
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from herdbench import stats
from herdbench.layers import PER_LAYER, TARGETS, WORKLOAD_SPANS
from herdbench.provenance import provenance
from herdbench.tracer import Tracer
from herdbench.workloads import WORKLOADS, Workload, metric

#: Share of a traced run's time budget spent on the untraced
#: calibration stretch.
CALIBRATION_SHARE = 0.2
#: ``trace.unattributed_share`` above this draws a warning note.
UNATTRIBUTED_WARN = 0.10

#: The end-to-end metrics of ``BENCHMARK.json``: what every workload
#: reports and the driver gates.  ``work_per_s``, the tail percentiles
#: and the issue's per-workload names ride beside them in the full
#: result (README.md says why they are not gated here).
END_TO_END = ("setup_s", "op_ms_p05", "mem_peak_mb")


def _timed_loop(w: Workload, deadline: float, min_ops: int,
                first: int, tracer: Optional[Tracer] = None
                ) -> List[float]:
    """Run ``w.op`` back to back until ``deadline`` on the
    ``perf_counter`` clock (and at least ``min_ops`` times); returns
    each operation's wall seconds."""
    samples: List[float] = []
    i = first
    while True:
        if tracer is None:
            started = perf_counter()
            w.op(i)
            ended = perf_counter()
            w.check(i)
        else:
            tracer.op = i
            started = perf_counter()
            with tracer.span("bench.op"):
                w.op(i)
            ended = perf_counter()
            with tracer.span("bench.check"):
                w.check(i)
        samples.append(ended - started)
        i += 1
        if len(samples) >= min_ops and ended >= deadline:
            return samples


def _end_to_end(w: Workload, setup_s: List[float], op_s: List[float],
                work: int, samples: Dict[str, List[float]],
                result: Dict[str, Any], attempted: int, failed: int
                ) -> Dict[str, dict]:
    n = len(op_s)
    work_per_s = work / sum(op_s)
    metrics = {
        # The fastest build, as the operations are costed at a low
        # percentile: the host's noise only ever adds (README.md).
        "setup_s": metric(min(setup_s), "s", len(setup_s)),
        "op_ms_p05": metric(w.op_cost_s(op_s, samples, 5.0) * 1000.0,
                            "ms", n, op=w.op_unit),
        "op_ms_p25": metric(w.op_cost_s(op_s, samples, 25.0) * 1000.0,
                            "ms", n, op=w.op_unit),
        "op_ms_p50": metric(w.op_cost_s(op_s, samples, 50.0) * 1000.0,
                            "ms", n, op=w.op_unit),
        "mem_peak_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0, "MB", 1),
        "work_per_s": metric(work_per_s, "1/s", n, work=w.work_unit),
    }
    tail = stats.tail_percentile(n)
    if tail is not None:
        metrics["op_ms_tail"] = metric(
            stats.percentile(op_s, tail) * 1000.0, "ms", n,
            op=w.op_unit, percentile=tail)
    metrics.update(w.named_metrics(op_s, work_per_s, samples, result))
    attempted = max(1, attempted)
    metrics["failed_share"] = metric(failed / attempted, "share",
                                     attempted)
    return metrics


def _per_layer(tracer: Tracer, result: Dict[str, Any],
               traced_s: List[float], calibration_s: List[float],
               counters: Dict[str, int], work: int
               ) -> Tuple[Dict[str, dict], Dict[str, Any]]:
    agg = tracer.aggregate()
    phases = {"busy": agg.get("bench.op", {}),
              "setup_busy": agg.get("bench.setup", {}),
              "finish_busy": agg.get("bench.finish", {})}
    ops = phases["busy"]
    n_ops = len(traced_s)
    op_wall = sum(tracer.root_durations("bench.op"))
    # A span none of whose targets resolved has no number, not a 0.
    alive = {t.span for t in TARGETS if t.dotted in tracer.bindings}
    alive.update(WORKLOAD_SPANS)

    def busy(span: str) -> float:
        return ops.get(span, (0.0, 0))[0]

    blocks = counters.get("crypto.chacha20.blocks", 0)
    fabric_s = sum(busy(s) for s in (
        "netsim.fabric.emit", "netsim.fabric.flush"))
    derived = {
        "crypto.chacha20.us_per_block":
            busy("crypto.chacha20") / blocks * 1e6 if blocks else 0.0,
        "netsim.fabric.ns_per_cell":
            fabric_s / work * 1e9 if fabric_s and work else 0.0,
        "trace.unattributed_share":
            busy("bench.op") / op_wall if op_wall else 0.0,
        "trace.overhead_ratio":
            stats.median(traced_s) / stats.median(calibration_s),
        "trace.missing": len(tracer.missing),
    }
    values: Dict[str, dict] = {}
    for row in PER_LAYER:
        kind, key = row.source
        if kind in phases:
            value: Optional[float] = phases[kind].get(
                key, (0.0, 0))[0]
            if kind == "busy":
                value /= n_ops
            if key not in alive:
                value = None
        elif kind == "calls":
            value = ops.get(key, (0.0, 0))[1] / n_ops \
                if key in alive else None
        elif kind == "counter":
            value = counters.get(key, 0) / n_ops
        elif kind == "total":
            value = result["totals"].get(key, 0)
        else:
            value = derived[key]
        values[row.name] = {"value": value, "unit": row.unit}
    layers = {
        "shares": {span: entry[0] / op_wall
                   for span, entry in sorted(ops.items())},
        "setup": {span: {"busy_s": entry[0], "calls": entry[1]}
                  for span, entry in
                  sorted(phases["setup_busy"].items())},
        "spans": len(tracer.spans),
        "traced_ops": n_ops,
        "calibration_ops": len(calibration_s),
        "missing": list(tracer.missing),
        "bindings": dict(tracer.bindings),
    }
    return values, layers


def _set_up(cls, seed: int, tiny: bool, tracer: Optional[Tracer],
            setup_s: List[float], samples: Dict[str, List[float]]
            ) -> Workload:
    """Build and warm up one instance of the workload, timing it."""
    gc.collect()
    gc.disable()
    if tracer is None:
        w = cls(seed, tiny=tiny)
        started = perf_counter()
        measured = w.setup()
        setup_s.append(perf_counter() - started)
    else:
        w = cls(seed, tiny=tiny, span=tracer.span)
        tracer.install(TARGETS)
        with tracer.span("bench.setup"):
            measured = w.setup()
        tracer.uninstall()
    gc.enable()
    _gather(samples, measured)
    return w


def _gather(samples: Dict[str, List[float]],
            measured: Dict[str, List[float]]) -> None:
    for key, values in measured.items():
        samples.setdefault(key, []).extend(values)


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool = False, tiny: bool = False,
                 trace_out: Optional[str] = None) -> Dict[str, Any]:
    """Run one pass of one workload and return its full result."""
    began = perf_counter()
    cls = WORKLOADS[name]
    trials = 1 if trace else (cls.TINY if tiny else cls.SIZES)["trials"]
    setup_s: List[float] = []
    samples: Dict[str, List[float]] = {}
    op_s: List[float] = []
    calibration_s: List[float] = []
    results: List[Dict[str, Any]] = []
    attempted = failed = work = 0
    tracer = Tracer() if trace else None
    was_enabled = gc.isenabled()
    w = None
    try:
        for trial in range(trials):
            w = None  # the previous trial's system goes before the next
            w = _set_up(cls, seed, tiny, tracer, setup_s, samples)
            min_ops = w.sizes["min_ops"]
            gc.collect()
            gc.disable()
            if tracer is not None:
                budget = max(0.0, seconds - (perf_counter() - began))
                calibration_s = _timed_loop(
                    w, perf_counter() + budget * CALIBRATION_SHARE,
                    max(3, min_ops // 5), 0)
                tracer.install(TARGETS)
                counters_before = dict(tracer.counters)
            work_before = w.work_done()
            op_s += _timed_loop(
                w, began + seconds * (trial + 1) / trials, min_ops,
                len(calibration_s), tracer)
            work += w.work_done() - work_before
            if tracer is None:
                result = w.finish()
            else:
                counters = {
                    key: n - counters_before.get(key, 0)
                    for key, n in tracer.counters.items()}
                with tracer.span("bench.finish"):
                    result = w.finish()
            gc.enable()
            _gather(samples, result.get("samples", {}))
            attempted += w.attempted
            failed += w.failed
            results.append(result)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if was_enabled:
            gc.enable()
    result = results[0]
    notes = list(result["notes"])
    if trials > 1:
        # Equal seeds build equal systems: one more output to check.
        attempted += 1
        if any((r["digest"], r["exact"]) != (result["digest"],
                                             result["exact"])
               for r in results):
            failed += 1
            notes.append("the trials of this run disagree on digest "
                         "or exact counts")
    detail: Dict[str, Any] = {
        "workload": name, "why": cls.why, "seed": seed,
        "seconds": seconds, "trace": trace, "tiny": tiny,
        "sizes": w.sizes, "op_unit": w.op_unit,
        "work_unit": w.work_unit, "trials": trials, "ops": len(op_s),
        "timed_wall_s": sum(op_s), "builds_s": setup_s,
        "wall_s": perf_counter() - began,
        "correct": failed == 0, "attempted": max(1, attempted),
        "failed": failed, "exact": result["exact"],
        "digest": result["digest"], "totals": results[-1]["totals"],
        "notes": notes, "provenance": provenance(),
    }
    if tracer is None:
        detail["metrics"] = _end_to_end(w, setup_s, op_s, work,
                                        samples, result, attempted,
                                        failed)
    else:
        detail["metrics"], detail["layers"] = _per_layer(
            tracer, result, op_s, calibration_s, counters, work)
        share = detail["metrics"]["trace.unattributed_share"]["value"]
        if share > UNATTRIBUTED_WARN:
            detail["notes"].append(
                f"warning: {share:.1%} of the timed wall is inside "
                f"no layer span (limit {UNATTRIBUTED_WARN:.0%})")
        if trace_out:
            tracer.write_jsonl(trace_out)
            detail["layers"]["trace_file"] = trace_out
    return detail


def contract_line(detail: Dict[str, Any]) -> Dict[str, Any]:
    """The one-line result the benchmark contract asks for: the
    ``BENCHMARK.json`` ``end_to_end`` metrics of an untraced run, the
    ``per_layer`` metrics of a traced one (a layer whose targets are
    gone reads 0 here and ``null`` in the full result)."""
    if detail["trace"]:
        names = [row.name for row in PER_LAYER]
    else:
        names = list(END_TO_END)
    metrics = detail["metrics"]
    return {
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            name: {"value": metrics[name]["value"]
                   if metrics[name]["value"] is not None else 0.0,
                   "unit": metrics[name]["unit"]}
            for name in names},
    }
