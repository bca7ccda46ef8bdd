"""herdflow: CFG + fixpoint dataflow layered on the herdlint engine.

The pre-flow rules (HL001-HL006) are per-statement pattern matches;
they cannot see that a ``session_key`` returned from ``kdf.py``,
renamed twice, and f-stringed three calls later is still a secret, or
that a locally-constructed ``random.Random(x)`` is seeded by something
that never came from a :class:`~repro.api.SimConfig`.  herdflow adds
the machinery those *flow* properties need:

* :mod:`repro.lint.flow.cfg` — per-function control-flow graphs
  (branches, loops, ``try``/``except``/``finally``, ``with``);
* :mod:`repro.lint.flow.callgraph` — a module-resolution call graph
  over the scanned set (``repro.crypto.kdf.hkdf`` style ids);
* :mod:`repro.lint.flow.taint` — a powerset taint lattice with
  configurable sources/sinks/sanitizers, a forward fixpoint over the
  CFG, and per-function summaries (param→return, param→sink,
  return→labels) iterated to interprocedural convergence;
* :mod:`repro.lint.flow.program` — the whole-program view rules
  consume (:class:`FlowProgram`), built once per lint run;
* :mod:`repro.lint.flow.rules` — the flow-sensitive rule family:
  HL004 (interprocedural secret taint), HL007 (determinism taint) and
  the HL10x concurrency-safety rules gating the asyncio plane and its
  forked ``--processes`` worker (HL101-HL103).

DESIGN.md §12 documents the lattice and the summary algebra.
"""

from repro.lint.flow.cfg import CFG, BasicBlock, build_cfg
from repro.lint.flow.callgraph import CallGraph, FunctionInfo
from repro.lint.flow.program import FlowProgram
from repro.lint.flow.taint import (
    FunctionSummary,
    TaintSpec,
    TaintState,
    analyze_function,
)

__all__ = [
    "BasicBlock",
    "CFG",
    "CallGraph",
    "FlowProgram",
    "FunctionInfo",
    "FunctionSummary",
    "TaintSpec",
    "TaintState",
    "analyze_function",
    "build_cfg",
]
