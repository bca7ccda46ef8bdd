"""The flow-sensitive rule family (HL004-flow, HL007, HL101-HL103).

These rules consume the :class:`~repro.lint.flow.program.FlowProgram`
built once per lint run — CFGs, the call graph, and converged
interprocedural taint summaries.  The HL10x rules guard module state
and the real-UDP asyncio transport: module-level mutable state (it
leaks between seeded runs of one process), blocking calls, and dropped
coroutines.  DESIGN.md §12 has the rule table.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import (
    FileContext,
    Finding,
    FlowRule,
    register,
)
from repro.lint.flow.callgraph import FunctionInfo, module_name_for
from repro.lint.flow.program import MODULE_FUNC, FlowProgram

#: Directory segments that make up the protocol plane.  A seeded run
#: must be a function of its config alone, so module-level mutable
#: state here is a determinism leak between runs of one process: a
#: second seeded run must see the same ids as the first.
_PROTOCOL_SCOPE = ("core", "netsim", "simulation", "scenario", "net")

_SINK_DESCRIPTIONS = {
    "fstring": "interpolated into an f-string",
    "logging": "passed to a logging call",
    "repr": "passed to repr()",
    "str.format": "passed to str.format()",
    "exception": "passed into an exception message",
}


def _via_suffix(via: Tuple[str, ...]) -> str:
    if not via:
        return ""
    chain = " -> ".join(f"{name}()" for name in via)
    return f" (crosses {len(via)} function boundar" \
           f"{'y' if len(via) == 1 else 'ies'}: via {chain})"


def _own_nodes(root: ast.AST) -> Iterable[ast.AST]:
    """Walk ``root`` without descending into nested function/class
    definitions (those are analysed as their own functions)."""
    stack = [root]
    first = True
    while stack:
        node = stack.pop()
        if not first and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef,
                       ast.ClassDef)):
            continue
        first = False
        yield node
        stack.extend(ast.iter_child_nodes(node))


@register
class SecretFlowRule(FlowRule):
    """HL004: secret values must not reach an observable text sink —
    now flow-sensitive and interprocedural.

    The pre-flow HL004 matched secret-*named* identifiers at the sink;
    this version tracks the taint itself, so a key returned from
    ``kdf.py``, renamed twice, and f-stringed three calls later is
    still caught, and a helper that logs its argument flags every call
    site that passes it a secret.  (The legacy matcher survives as
    :class:`repro.lint.rules.SecretLeakRule` for the regression test
    pinning the coverage gap.)
    """

    rule_id = "HL004"
    title = "secret value reaches a text sink (flow-tracked)"
    rationale = ("Invariant I2/key hygiene: session and onion keys "
                 "must never reach logs, f-strings, repr, or "
                 "tracebacks — tracked through renames, data "
                 "structures, and call boundaries.")

    def check_flow(self, program: FlowProgram,
                   contexts: Sequence[FileContext]) -> Iterable[Finding]:
        for ctx in contexts:
            for fid, events in sorted(
                    program.file_events(ctx.display_path).items()):
                for hit in events.sink_hits:
                    if hit.label != "secret":
                        continue
                    sink = _SINK_DESCRIPTIONS.get(hit.kind, hit.kind)
                    yield Finding(
                        rule_id=self.rule_id,
                        message=(f"secret '{hit.origin}' {sink}"
                                 f"{_via_suffix(hit.via)}"),
                        path=ctx.display_path, line=hit.line,
                        col=hit.col, severity=self.severity)


@register
class DeterminismTaintRule(FlowRule):
    """HL007: every RNG must be seeded by a value that data-flows from
    a seeded configuration (a ``seed`` parameter/field, a constant, or
    another seeded RNG) — closing the HL002 gap for locally
    constructed ``random.Random(x)`` where ``x`` is entropy."""

    rule_id = "HL007"
    title = "RNG not traceable to a seeded config"
    rationale = ("Determinism contract: one seed reproduces a run "
                 "only if every RNG's seed data-flows from the seeded "
                 "SimConfig/scenario surface; os.urandom/time/uuid "
                 "seeds (or untraceable ones) silently break replay.")

    def check_flow(self, program: FlowProgram,
                   contexts: Sequence[FileContext]) -> Iterable[Finding]:
        for ctx in contexts:
            for fid, events in sorted(
                    program.file_events(ctx.display_path).items()):
                for hit in events.probe_hits:
                    if hit.probe != "rng":
                        continue
                    finding = self._judge(ctx, hit)
                    if finding is not None:
                        yield finding

    def _judge(self, ctx: FileContext, hit) -> Optional[Finding]:
        if not hit.arg_labels:
            if hit.callee == "random.Random":
                return None  # HL002 already owns the no-arg case
            return Finding(
                rule_id=self.rule_id,
                message=(f"{hit.callee}() constructed without a seed "
                         f"draws OS entropy; pass a seed derived from "
                         f"the run's seeded config"),
                path=ctx.display_path, line=hit.line, col=hit.col,
                severity=self.severity)
        labels = hit.arg_labels[0]
        params = hit.arg_params[0] if hit.arg_params else ()
        if "seeded" in labels or params:
            # Seeded, or deferred to the call sites of the enclosing
            # function (judged there with the caller's labels).
            return None
        if "nondet" in labels:
            reason = ("is seeded from a nondeterministic source "
                      "(entropy/clock/pid)")
        else:
            reason = ("has no data-flow path from a seeded config "
                      "value (seed parameter, constant, or seeded RNG)")
        return Finding(
            rule_id=self.rule_id,
            message=f"seed argument of {hit.callee}() {reason}",
            path=ctx.display_path, line=hit.line, col=hit.col,
            severity=self.severity)


_MUTATING_METHODS = {
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "sort", "reverse",
}
_MUTABLE_CONSTRUCTORS = {
    "dict", "list", "set", "bytearray", "defaultdict", "deque",
    "Counter", "OrderedDict",
}
#: Iterators whose ``next()`` advances shared state (an id counter).
_STATEFUL_ITERATORS = {"itertools.count", "itertools.cycle"}


def _constant_styled(name: str) -> bool:
    stripped = name.strip("_")
    return bool(stripped) and stripped == stripped.upper()


@register
class SharedMutableStateRule(FlowRule):
    """HL101: no mutable module-level state reachable from protocol
    code — it outlives a run.

    Module-level mutable containers and stateful iterators
    (``itertools.count``) in the protocol scope are flagged when (a)
    any function in the scanned set mutates, advances (``next()``) or
    rebinds them (shared mutable state, the hard error), or (b) they
    are not CONSTANT_STYLED (the naming convention that marks a
    module-level container as a frozen lookup table, like the
    ``*_DISPATCH`` machines).  Frozen-by-convention constants stay
    legal until a mutation is observed anywhere in the tree.  Any
    other module-level binding (an int counter) is flagged once a
    function rebinds it under ``global``.
    """

    rule_id = "HL101"
    title = "mutable module-level state in protocol code"
    rationale = ("Module-level mutable state outlives a run, so a "
                 "second seeded run in the same process sees what "
                 "the first left behind: per-run ids stop being a "
                 "function of the seed.  It must live on an instance "
                 "the run owns.")
    scope = _PROTOCOL_SCOPE

    def check_flow(self, program: FlowProgram,
                   contexts: Sequence[FileContext]) -> Iterable[Finding]:
        bindings = self._collect_bindings(contexts)
        if not bindings:
            return
        mutations = self._collect_mutations(program, bindings)
        for (module, name), (ctx, node, mutable) in sorted(
                bindings.items()):
            mutated_at = mutations.get((module, name))
            if mutated_at is not None:
                where, line = mutated_at
                yield Finding(
                    rule_id=self.rule_id,
                    message=(f"module-level '{name}' is mutated from "
                             f"{where}:{line}; shared mutable state "
                             f"leaks between runs — move it onto the "
                             f"instance the run owns"),
                    path=ctx.display_path,
                    line=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0) + 1,
                    severity=self.severity)
            elif mutable and not _constant_styled(name):
                yield Finding(
                    rule_id=self.rule_id,
                    message=(f"module-level mutable '{name}' in "
                             f"protocol code; make it CONSTANT_STYLED "
                             f"and frozen, or move it onto an "
                             f"instance the run owns"),
                    path=ctx.display_path,
                    line=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0) + 1,
                    severity=self.severity)

    def _collect_bindings(
            self, contexts: Sequence[FileContext],
    ) -> Dict[Tuple[str, str], Tuple[FileContext, ast.stmt, bool]]:
        """Every simple module-level binding, with whether its value
        is mutable (a container or a stateful iterator)."""
        bindings: Dict[Tuple[str, str],
                       Tuple[FileContext, ast.stmt, bool]] = {}
        for ctx in contexts:
            module = module_name_for(ctx.path)
            for node in ctx.tree.body:
                target = None
                if isinstance(node, ast.Assign) and \
                        len(node.targets) == 1 and \
                        isinstance(node.targets[0], ast.Name):
                    target, value = node.targets[0].id, node.value
                elif isinstance(node, ast.AnnAssign) and \
                        isinstance(node.target, ast.Name) and \
                        node.value is not None:
                    target, value = node.target.id, node.value
                else:
                    continue
                if target.startswith("__") and target.endswith("__"):
                    continue  # __all__ and friends: read-only idiom
                bindings[(module, target)] = (
                    ctx, node, self._is_mutable_value(value, ctx))
        return bindings

    @staticmethod
    def _is_mutable_value(value: ast.expr, ctx: FileContext) -> bool:
        if isinstance(value, (ast.Dict, ast.List, ast.Set,
                              ast.ListComp, ast.SetComp, ast.DictComp)):
            return True
        if not isinstance(value, ast.Call):
            return False
        if isinstance(value.func, ast.Name) and \
                value.func.id in _MUTABLE_CONSTRUCTORS:
            return True
        return ctx.imports.qualified_name(value.func) in \
            _STATEFUL_ITERATORS

    def _collect_mutations(
            self, program: FlowProgram,
            bindings: Dict[Tuple[str, str],
                           Tuple[FileContext, ast.stmt, bool]],
    ) -> Dict[Tuple[str, str], Tuple[str, int]]:
        """First observed mutation site per binding, looking at every
        scanned file (a mutation of core state from anywhere counts).
        An immutable binding is mutated only by a ``global`` rebind."""
        mutations: Dict[Tuple[str, str], Tuple[str, int]] = {}

        def record(key: Tuple[str, str], ctx: FileContext,
                   node: ast.AST, rebind: bool = False) -> None:
            binding = bindings.get(key)
            if binding is not None and (rebind or binding[2]) and \
                    key not in mutations:
                mutations[key] = (ctx.display_path,
                                  getattr(node, "lineno", 1))

        # A file can only touch a binding whose name appears in its
        # text (direct name, attribute access, or the import that
        # created an alias) — skip the AST scan everywhere else.
        names = {name for (_, name) in bindings}
        for path, infos in sorted(
                program.functions_by_file.items()):
            if not infos or not any(
                    name in infos[0].ctx.source for name in names):
                continue
            for info in infos:
                globals_declared: Set[str] = set()
                candidates: List[ast.AST] = []
                for node in _own_nodes(info.node):
                    if isinstance(node, ast.Global):
                        globals_declared |= set(node.names)
                    elif isinstance(node, (ast.Call, ast.Assign,
                                           ast.AugAssign, ast.Delete)):
                        candidates.append(node)
                for node in candidates:
                    self._scan_node(node, info, globals_declared,
                                    record)
        return mutations

    def _scan_node(self, node: ast.AST, info: FunctionInfo,
                   globals_declared: Set[str], record) -> None:
        module = info.module
        ctx = info.ctx

        def resolve(base: ast.expr) -> Optional[Tuple[str, str]]:
            if isinstance(base, ast.Name):
                dotted = ctx.imports.aliases.get(base.id)
                if dotted and "." in dotted:
                    mod, _, name = dotted.rpartition(".")
                    return (mod, name)
                return (module, base.id)
            if isinstance(base, ast.Attribute):
                dotted = ctx.imports.qualified_name(base)
                if dotted and "." in dotted:
                    mod, _, name = dotted.rpartition(".")
                    return (mod, name)
            return None

        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in _MUTATING_METHODS:
            key = resolve(node.func.value)
            if key is not None:
                record(key, ctx, node)
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and \
                node.func.id == "next" and node.args:
            key = resolve(node.args[0])
            if key is not None:
                record(key, ctx, node)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(
                           node, ast.AugAssign) else node.targets)
            for target in targets:
                if isinstance(target, ast.Subscript):
                    key = resolve(target.value)
                    if key is not None:
                        record(key, ctx, node)
                elif isinstance(target, ast.Name) and \
                        info.qualname != MODULE_FUNC and \
                        target.id in globals_declared:
                    record((module, target.id), ctx, node, rebind=True)


@register
class BlockingAsyncRule(FlowRule):
    """HL102: no blocking calls inside ``async def`` — directly or
    through any chain of scanned sync helpers."""

    rule_id = "HL102"
    title = "blocking call inside async def"
    rationale = ("The asyncio transport plane (ROADMAP item 3) runs "
                 "mixes/SPs/clients as cooperative coroutines; one "
                 "time.sleep/sync-socket/subprocess call stalls every "
                 "peer in the process and destroys the constant-rate "
                 "wire image (I6).")

    def check_flow(self, program: FlowProgram,
                   contexts: Sequence[FileContext]) -> Iterable[Finding]:
        for ctx in contexts:
            events = program.file_events(ctx.display_path)
            for info in program.functions_in(ctx.display_path):
                if not info.is_async:
                    continue
                function_events = events.get(info.qualified_id)
                if function_events is None:
                    continue
                for call in function_events.blocking_calls:
                    via = (f" via {' -> '.join(n + '()' for n in call.via)}"
                           if call.via else "")
                    yield Finding(
                        rule_id=self.rule_id,
                        message=(f"blocking call {call.callee}() "
                                 f"inside async def "
                                 f"{info.name}(){via}; use the "
                                 f"asyncio equivalent (await "
                                 f"asyncio.sleep, loop.sock_*, "
                                 f"run_in_executor)"),
                        path=ctx.display_path, line=call.line,
                        col=call.col, severity=self.severity)


@register
class UnawaitedCoroutineRule(FlowRule):
    """HL103: a bare call to an ``async def`` creates a coroutine and
    drops it — the code never runs and Python only warns at GC time,
    nondeterministically."""

    rule_id = "HL103"
    title = "un-awaited coroutine call"
    rationale = ("A dropped coroutine is protocol logic that silently "
                 "never executes (join never sent, chaff never "
                 "scheduled); RuntimeWarning at GC time is "
                 "nondeterministic and invisible to tests.")

    def check_flow(self, program: FlowProgram,
                   contexts: Sequence[FileContext]) -> Iterable[Finding]:
        # The call graph already resolved every call site during its
        # construction pass and marked the statement-level ones; keying
        # off that index avoids re-walking every function body.  Outer
        # functions also record their nested defs' calls, so dedup by
        # location.
        by_file: Dict[str, List] = {}
        for site in program.graph.call_sites:
            if not site.is_statement:
                continue
            callee = program.function(site.callee)
            if callee is None or not callee.is_async:
                continue
            caller = program.function(site.caller)
            if caller is None:
                continue
            by_file.setdefault(
                caller.ctx.display_path, []).append((site, callee))
        for ctx in contexts:
            seen: Set[Tuple[int, int, str]] = set()
            for site, callee in by_file.get(ctx.display_path, ()):
                line = getattr(site.node, "lineno", 1)
                col = getattr(site.node, "col_offset", 0) + 1
                key = (line, col, site.callee)
                if key in seen:
                    continue
                seen.add(key)
                yield Finding(
                    rule_id=self.rule_id,
                    message=(f"coroutine {callee.name}() is "
                             f"called but never awaited; await "
                             f"it or hand it to "
                             f"asyncio.create_task/TaskGroup"),
                    path=ctx.display_path, line=line, col=col,
                    severity=self.severity)
