"""The herdlint rule set (HL001-HL006).

Each rule encodes one contract the Herd reproduction depends on;
DESIGN.md §7 ties every rule to the paper invariant or evaluation
property it protects.  Rules are registered with the engine via the
``@register`` decorator and discovered through
:func:`repro.lint.engine.all_rules`.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import (
    SEVERITY_NOTE,
    FileContext,
    Finding,
    ProjectRule,
    Rule,
    register,
)

# Directory segments that must run exclusively on the virtual clock:
# the protocol core, every simulator, fault injection, the
# discrete-event engine itself, and the observability layer (metric
# timestamps and trace spans must be seed-replayable too).
_VIRTUAL_TIME_SCOPE = ("core", "simulation", "faults", "netsim", "obs")

_WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: The HL001 allowlist: path suffixes (as lowercased segment tuples)
#: that may read the host clock.  Exactly one file is sanctioned —
#: the perfclock module, the single auditable funnel for the UDP
#: plane's ``wall_send_seconds`` side channel (DESIGN.md §11).
#: Everything else in the virtual-time scope still fails the gate.
WALL_CLOCK_ALLOWED_FILES: Tuple[Tuple[str, ...], ...] = (
    ("obs", "perfclock.py"),
)


@register
class WallClockRule(Rule):
    """HL001: the simulation core must read time from the virtual
    :class:`~repro.netsim.engine.EventLoop` clock, never the host —
    except the sanctioned host-clock module
    (:data:`WALL_CLOCK_ALLOWED_FILES`)."""

    rule_id = "HL001"
    title = "wall-clock read in virtual-time code"
    rationale = ("Determinism contract: replayable runs require every "
                 "timestamp to come from EventLoop.now, not the host "
                 "clock.  The real-network plane's wall-time side "
                 "channel is the one sanctioned exception, funneled "
                 "through obs/perfclock.py.")
    scope = _VIRTUAL_TIME_SCOPE

    def applies_to(self, ctx: FileContext) -> bool:
        if not super().applies_to(ctx):
            return False
        segments = ctx.segments
        for suffix in WALL_CLOCK_ALLOWED_FILES:
            if segments[-len(suffix):] == suffix:
                return False
        return True

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.imports.qualified_name(node.func)
            if name in _WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx, node,
                    f"{name}() reads the wall clock; use the "
                    f"EventLoop virtual clock (loop.now) instead")


# Module-level functions of ``random`` that draw from the hidden global
# Mersenne Twister.  Random/SystemRandom construction is fine (that is
# exactly how a seeded RNG gets threaded through).
_GLOBAL_RANDOM_FNS = {
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
}
# Legacy numpy global-state API; np.random.default_rng is the
# explicitly-seeded replacement.
_NUMPY_GLOBAL_FNS = {
    "seed", "rand", "randn", "randint", "random", "random_sample",
    "choice", "shuffle", "permutation", "uniform", "normal", "poisson",
    "exponential", "binomial",
}


@register
class GlobalRngRule(Rule):
    """HL002: randomness must flow through an explicitly seeded
    ``random.Random`` (or ``numpy`` Generator), never the process-global
    RNG and never an unseeded ``random.Random()``."""

    rule_id = "HL002"
    title = "global or unseeded RNG"
    rationale = ("Determinism contract: one seed must reproduce a whole "
                 "run; the global RNG is shared mutable state any import "
                 "can perturb.")

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.imports.qualified_name(node.func)
            if name is None:
                continue
            if (name.startswith("random.")
                    and name.split(".", 1)[1] in _GLOBAL_RANDOM_FNS):
                yield self.finding(
                    ctx, node,
                    f"{name}() uses the process-global RNG; thread an "
                    f"explicitly seeded random.Random through instead")
            elif name == "random.Random" and not node.args:
                yield self.finding(
                    ctx, node,
                    "random.Random() without a seed draws entropy from "
                    "the OS; pass an explicit seed")
            elif (name.startswith("numpy.random.")
                    and name.split(".")[-1] in _NUMPY_GLOBAL_FNS):
                yield self.finding(
                    ctx, node,
                    f"{name}() uses numpy's global RNG state; use "
                    f"numpy.random.default_rng(seed) instead")


_DIGESTY_NAME = re.compile(r"(^|_)(mac|tag|digest|confirmation|hmac)s?$")


def _terminal_identifier(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_digest_operand(node: ast.AST) -> bool:
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("digest", "hexdigest")):
        return True
    name = _terminal_identifier(node)
    return name is not None and _DIGESTY_NAME.search(name.lower()) is not None


@register
class DigestEqualityRule(Rule):
    """HL003: MAC/digest comparison must be constant-time."""

    rule_id = "HL003"
    title = "non-constant-time digest comparison"
    rationale = ("Invariants I1/I6: `==` on MACs leaks how many leading "
                 "bytes matched; an active adversary can forge tags "
                 "byte-by-byte.  Use hmac.compare_digest.")

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq))
                       for op in node.ops):
                continue
            for operand in [node.left, *node.comparators]:
                if isinstance(operand, ast.Constant) and \
                        operand.value is None:
                    continue
                if _is_digest_operand(operand):
                    label = (_terminal_identifier(operand)
                             or "digest()")
                    yield self.finding(
                        ctx, node,
                        f"'{label}' compared with ==/!=; use "
                        f"hmac.compare_digest for MAC/digest equality")
                    break


@register
class BlockingSleepRule(Rule):
    """HL005: no blocking sleeps — delay is modelled by scheduling
    events on the loop, never by stalling the process."""

    rule_id = "HL005"
    title = "blocking time.sleep"
    rationale = ("Determinism contract: time.sleep inside an event-loop "
                 "callback stalls the single simulation thread and ties "
                 "results to host scheduling; use loop.schedule(delay, "
                 "fn).")

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if ctx.imports.qualified_name(node.func) == "time.sleep":
                yield self.finding(
                    ctx, node,
                    "time.sleep() blocks the event loop; model delay "
                    "with loop.schedule(delay, callback)")


def _single_assign_target(node: ast.stmt) -> Optional[ast.Name]:
    """The Name bound by a plain or annotated top-level assignment."""
    if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
            isinstance(node.targets[0], ast.Name):
        return node.targets[0]
    if isinstance(node, ast.AnnAssign) and node.value is not None and \
            isinstance(node.target, ast.Name):
        return node.target
    return None


def _wire_message_constants(ctx: FileContext) -> Dict[str, int]:
    constants: Dict[str, int] = {}
    for node in ctx.tree.body:
        target = _single_assign_target(node)
        if target is None or not target.id.startswith("MSG_"):
            continue
        value = node.value
        if isinstance(value, ast.Constant) and \
                isinstance(value.value, int):
            constants[target.id] = value.value
    return constants


def _dispatch_tables(ctx: FileContext) -> List[Tuple[ast.stmt, str,
                                                     Set[str]]]:
    tables = []
    for node in ctx.tree.body:
        target = _single_assign_target(node)
        if target is None or not target.id.endswith("_DISPATCH"):
            continue
        if not isinstance(node.value, ast.Dict):
            continue
        keys: Set[str] = set()
        for key in node.value.keys:
            name = _terminal_identifier(key) if key is not None else None
            if name and name.startswith("MSG_"):
                keys.add(name)
        tables.append((node, target.id, keys))
    return tables


@register
class WireExhaustivenessRule(ProjectRule):
    """HL006: every ``MSG_*`` type defined in ``wire.py`` must be
    handled — or explicitly rejected — by every ``*_DISPATCH`` table in
    the scanned set.

    Conventions this rule understands:

    * message types are top-level ``MSG_NAME = <int>`` assignments in a
      file named ``wire.py``;
    * a dispatch state machine is a top-level dict literal assigned to a
      name ending in ``_DISPATCH`` whose keys are ``MSG_*`` constants
      (map a type to the ``REJECT`` sentinel to refuse it explicitly).

    Exhaustiveness is a whole-tree property: linting ``wire.py`` alone
    reports that no dispatch table covers its types.
    """

    rule_id = "HL006"
    title = "wire message type unhandled in dispatch"
    rationale = ("Strict decoding (\"a mix must never act on a malformed "
                 "message\") is only half the contract: a role must also "
                 "decide, for every defined type, whether it handles or "
                 "rejects it.")

    def check_project(self,
                      contexts: Sequence[FileContext]) -> Iterable[Finding]:
        wire_contexts = [c for c in contexts if c.path.name == "wire.py"]
        message_names: Set[str] = set()
        for ctx in wire_contexts:
            message_names |= set(_wire_message_constants(ctx))
        if not message_names:
            return
        tables = [(ctx, node, name, keys)
                  for ctx in contexts
                  for node, name, keys in _dispatch_tables(ctx)]
        if not tables:
            ctx = wire_contexts[0]
            if self._is_partial_tree(ctx, contexts):
                # Exhaustiveness is a whole-tree property; on a
                # partial scan (single file, CI's file subsets) the
                # absence of a dispatch table says nothing.  Explain
                # instead of failing.
                yield Finding(
                    rule_id=self.rule_id,
                    message=(f"partial scan: {len(message_names)} wire "
                             f"message types are defined here but "
                             f"exhaustiveness can only be checked "
                             f"against the whole tree (sibling "
                             f"modules were not scanned); lint the "
                             f"full tree to enforce HL006"),
                    path=ctx.display_path, line=1, col=1,
                    severity=SEVERITY_NOTE)
                return
            yield Finding(
                rule_id=self.rule_id,
                message=(f"no *_DISPATCH table in the scanned files "
                         f"handles the {len(message_names)} wire message "
                         f"types (lint the whole tree, or add a "
                         f"dispatch state machine)"),
                path=ctx.display_path, line=1, col=1,
                severity=self.severity)
            return
        for ctx, node, name, keys in tables:
            missing = sorted(message_names - keys)
            if missing:
                yield self.finding(
                    ctx, node,
                    f"dispatch table {name} does not handle "
                    f"{', '.join(missing)}; add handlers or explicit "
                    f"REJECT entries")

    @staticmethod
    def _is_partial_tree(wire_ctx: FileContext,
                         contexts: Sequence[FileContext]) -> bool:
        """True when ``wire.py``'s own package has sibling modules
        that are not in the scanned set — the dispatch tables may
        simply live in files we were not asked to look at."""
        scanned = {c.path.resolve() for c in contexts}
        try:
            siblings = list(wire_ctx.path.resolve().parent.glob("*.py"))
        except OSError:
            return False
        return any(s.resolve() not in scanned for s in siblings)
