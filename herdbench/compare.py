"""``herdbench compare A.json B.json``: is B worse than A?

One row per (workload, end-to-end metric), judged by the rule of the
choosing-metrics guide (§6.5):

* ``regression`` — B's median is worse than A's by more than the
  metric's bound;
* ``unresolved`` — either side's run-to-run spread (interquartile
  distance over the median) is wider than the bound, so the runs
  cannot tell — unless every run of B reads better than every run of
  A, which is ``ok``;
* ``ok`` — otherwise.

Besides the timings, equal seeds must give identical observation
digests and exact counts, and no operation may fail.  Only untraced
runs are compared: traced runs exist to explain a difference, not to
measure one.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence, Tuple

from herdbench import stats
from herdbench.metrics import NAMED, Spec, contract_metrics

Row = Tuple[str, str, str, str]  # workload, metric, verdict, detail


def verdict(spec: Spec, a: Sequence[float], b: Sequence[float]
            ) -> Tuple[str, str]:
    """Judge one metric from the runs of the baseline ``a`` and the
    candidate ``b``."""
    sign = 1.0 if spec.better == "lower" else -1.0
    med_a, med_b = stats.median(a), stats.median(b)
    worse_by = sign * (med_b - med_a)
    detail = (f"{med_a:.6g} -> {med_b:.6g} {spec.unit} "
              f"(n={len(a)}/{len(b)})")
    if spec.bound == 0.0:
        # Exact counts and failure shares: any worsening counts.
        return ("regression" if worse_by > 0 else "ok"), detail
    share = worse_by / abs(med_a) if med_a else 0.0
    widest = max(stats.spread(a), stats.spread(b))
    change = f"{share:.1%} worse" if share > 0 else f"{-share:.1%} better"
    detail += (f", {change}, spread {widest:.1%}, "
               f"bound {spec.bound:.0%}")
    if widest > spec.bound:
        all_better = max(sign * v for v in b) < min(sign * v for v in a)
        return ("ok" if all_better else "unresolved"), detail
    return ("regression" if share > spec.bound else "ok"), detail


def _untraced(result: Dict[str, Any]) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = {}
    for run in result["runs"]:
        if not run["trace"]:
            runs.setdefault(run["workload"], []).append(run)
    return runs


def _values(runs: List[dict], name: str) -> List[float]:
    return [run["metrics"][name]["value"] for run in runs
            if name in run["metrics"]]


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Row]:
    """All rows for two result files (as loaded JSON)."""
    rows: List[Row] = []
    runs_a, runs_b = _untraced(a), _untraced(b)
    generic = contract_metrics()
    for workload in sorted(set(runs_a) | set(runs_b)):
        side_a = runs_a.get(workload, [])
        side_b = runs_b.get(workload, [])
        if not side_a or not side_b:
            rows.append((workload, "*", "unresolved",
                         "workload missing on one side"))
            continue
        for spec in generic + NAMED.get(workload, []):
            va, vb = _values(side_a, spec.name), \
                _values(side_b, spec.name)
            if not va or not vb:
                rows.append((workload, spec.name, "unresolved",
                             "metric missing on one side"))
                continue
            rows.append((workload, spec.name) + verdict(spec, va, vb))
        failed = sum(run["failed"] for run in side_a + side_b)
        rows.append((workload, "failed", "regression" if failed
                     else "ok", f"{failed} failed operations"))
        rows.append((workload, "digest+exact")
                    + _same_outputs(side_a + side_b))
    return rows


def _same_outputs(runs: List[dict]) -> Tuple[str, str]:
    """Equal seeds must give identical digests and exact counts."""
    by_seed: Dict[int, Any] = {}
    for run in runs:
        outputs = (run["digest"], json.dumps(run["exact"],
                                             sort_keys=True))
        first = by_seed.setdefault(run["seed"], outputs)
        if first != outputs:
            return "regression", (f"seed {run['seed']}: {first} != "
                                  f"{outputs}")
    return "ok", f"identical for {len(by_seed)} seed(s)"


def render(rows: List[Row]) -> str:
    width_w = max(len(r[0]) for r in rows)
    width_m = max(len(r[1]) for r in rows)
    return "\n".join(
        f"{w:<{width_w}}  {m:<{width_m}}  {v:<10}  {d}"
        for w, m, v, d in rows)
