"""Names, directions and regression bounds of the end-to-end metrics.

Two tiers, one rule: a *bound* is the share of the baseline's median by
which a metric may worsen before ``compare`` calls it a regression.

* :func:`contract_metrics` — the metrics **every** workload reports,
  read from ``BENCHMARK.json`` (the benchmark driver runs one workload
  at a time and wants the same metric list from each, so these are
  generic: one *operation* is a round or a join).
* :data:`NAMED` — the issue's per-workload names, each an alias or a
  refinement of a generic metric (``rt_factor`` is ``op_ms_p50`` over
  the 20 ms round interval; ``cells_per_s`` is ``work_per_s``), kept
  because later issues cite them.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

from herdbench import benchmark_spec


class Spec(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Allowed worsening as a share of the baseline median; 0 means
    #: the value may not worsen at all (exact counts, failures).
    bound: float


def contract_metrics() -> List[Spec]:
    """The ``end_to_end`` list of ``BENCHMARK.json``."""
    return [Spec(m["name"], m["unit"], m["better"], m["bound"])
            for m in benchmark_spec()["end_to_end"]]


_FAILED = Spec("failed_share", "share", "lower", 0.0)

NAMED: Dict[str, List[Spec]] = {
    "zone-steady": [
        Spec("rt_factor", "wall_s/virt_s", "lower", 0.10),
        Spec("round_ms_p90", "ms", "lower", 0.15),
        Spec("cells_per_s", "1/s", "higher", 0.10),
        Spec("call_setup_rounds", "rounds", "lower", 0.0),
        _FAILED],
    "zone-join": [
        Spec("joins_per_s", "1/s", "higher", 0.10),
        Spec("join_ms_p90", "ms", "lower", 0.15),
        _FAILED],
    "circuit-calls": [
        Spec("circuit_build_ms_p50", "ms", "lower", 0.10),
        Spec("call_setup_ms_p50", "ms", "lower", 0.10),
        Spec("frame_ms_p50", "ms", "lower", 0.10),
        Spec("frame_ms_p90", "ms", "lower", 0.15),
        _FAILED],
    "wire-backbone": [
        Spec("cells_per_s", "1/s", "higher", 0.10), _FAILED],
    "udp-backbone": [
        Spec("cells_per_s", "1/s", "higher", 0.10), _FAILED],
}
