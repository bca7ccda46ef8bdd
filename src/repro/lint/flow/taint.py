"""Taint lattice, transfer functions, fixpoint, and summaries.

The lattice is the powerset of :class:`Taint` facts ordered by
inclusion; join is set union, so the analysis is a classic monotone
forward dataflow that terminates (the fact universe per function is
finite).  A fact is ``(label, origin)`` where ``label`` classifies the
flow ("secret", "seeded", "nondet", or the synthetic ``param:<i>``
markers used to build interprocedural summaries) and ``origin`` is the
human-readable provenance ("session_key", "os.urandom()") rendered
into findings.

Each function is analysed once per fixpoint round against the current
:class:`FunctionSummary` table; summaries say, per function, which
labels its return value carries, which parameters flow to the return,
which parameters reach a sink (transitively, through further calls),
which parameters feed a probe (e.g. an RNG constructor), and whether
the function (transitively) performs a blocking call.  Iterating the
per-function analysis over a callee-first order until the table stops
changing yields the interprocedural solution; recursion converges
because summaries only grow.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.flow.callgraph import CallGraph, FunctionInfo
from repro.lint.flow.cfg import CFG, HeaderStmt, build_cfg

LABEL_SECRET = "secret"
LABEL_SEEDED = "seeded"
LABEL_NONDET = "nondet"
_PARAM_PREFIX = "param:"


@dataclass(frozen=True)
class Taint:
    label: str
    origin: str

    def is_param(self) -> bool:
        return self.label.startswith(_PARAM_PREFIX)

    @property
    def param_index(self) -> int:
        return int(self.label[len(_PARAM_PREFIX):])


TaintSet = FrozenSet[Taint]
EMPTY: TaintSet = frozenset()

#: Variable environment of one program point.
TaintState = Dict[str, TaintSet]


def join(a: TaintState, b: TaintState) -> TaintState:
    if not a:
        return dict(b)
    out = dict(a)
    for name, taints in b.items():
        existing = out.get(name)
        out[name] = taints if existing is None else existing | taints
    return out


def states_equal(a: TaintState, b: TaintState) -> bool:
    return a == b


# ---------------------------------------------------------------------------
# Events the analysis emits (consumed by rules)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SinkHit:
    """A tainted value reaching a sink (log call, f-string, repr,
    str.format, exception message)."""

    kind: str
    line: int
    col: int
    label: str
    origin: str
    #: Call chain the taint crossed to get here ("" = same function).
    via: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ProbeHit:
    """A probed constructor call (e.g. ``random.Random``) with the
    taint labels of each argument."""

    probe: str
    callee: str
    line: int
    col: int
    arg_labels: Tuple[Tuple[str, ...], ...]
    #: Param indices of the *enclosing* function feeding each arg, for
    #: lifting the probe into the function's summary.
    arg_params: Tuple[Tuple[int, ...], ...] = ()


@dataclass(frozen=True)
class BlockingCall:
    """A direct or transitive blocking call inside a function."""

    callee: str
    line: int
    col: int
    via: Tuple[str, ...] = ()


@dataclass
class FunctionSummary:
    """Interprocedural facts about one function."""

    return_labels: Tuple[Tuple[str, str], ...] = ()
    param_to_return: Tuple[int, ...] = ()
    #: param index -> sink hits that parameter's taint reaches.
    param_sinks: Dict[int, Tuple[SinkHit, ...]] = field(
        default_factory=dict)
    #: param index -> probes that parameter feeds.
    param_probes: Dict[int, Tuple[ProbeHit, ...]] = field(
        default_factory=dict)
    blocking: Tuple[BlockingCall, ...] = ()

    def key(self) -> Tuple:
        return (self.return_labels, self.param_to_return,
                tuple(sorted((k, v) for k, v in
                             self.param_sinks.items())),
                tuple(sorted((k, v) for k, v in
                             self.param_probes.items())),
                self.blocking)


@dataclass
class FunctionAnalysis:
    """Everything the reporting pass produced for one function."""

    info: FunctionInfo
    summary: FunctionSummary
    sink_hits: List[SinkHit] = field(default_factory=list)
    probe_hits: List[ProbeHit] = field(default_factory=list)
    blocking_calls: List[BlockingCall] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Specification: sources, sinks, sanitizers, probes
# ---------------------------------------------------------------------------

_SECRET_EXACT = {"ikm", "prk", "okm", "secret", "shared_secret",
                 "key_material", "secret_material"}
_SECRET_SUFFIXES = ("_key", "_secret", "_ikm", "_prk")
_CRYPTO_ONLY_SECRETS = {"seed", "private_bytes"}

_SEEDED_NAME = re.compile(r"(^|_)(seed|rng|prng|random_state)s?$")

#: Calls whose result is nondeterministic across processes/runs.
NONDET_CALLS = {
    "os.urandom", "os.getpid", "os.getrandom",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbits", "secrets.randbelow", "secrets.choice",
    "uuid.uuid1", "uuid.uuid4",
    "random.SystemRandom",
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "id", "hash", "object",
}

#: Calls that neutralise taint (reveal nothing about the value).
SANITIZER_CALLS = {
    "len", "bool", "type", "isinstance", "issubclass", "callable",
    "hmac.compare_digest",
}

#: Probed RNG constructors (HL007).
RNG_CONSTRUCTORS = {
    "random.Random": "rng",
    "numpy.random.default_rng": "rng",
    "numpy.random.Generator": "rng",
}

#: Blocking calls that must not run inside ``async def`` (HL102) —
#: qualified prefixes; a match on either the full name or a prefix up
#: to a dot counts.
BLOCKING_CALLS = {
    "time.sleep",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "os.system", "os.waitpid",
    "socket.create_connection", "socket.socket",
    "urllib.request.urlopen",
    "open",
}

_LOG_METHODS = {"debug", "info", "warning", "warn", "error",
                "exception", "critical", "log"}
_LOGGERISH_ROOTS = {"logger", "log", "_logger", "_log"}


def is_secret_name(name: str, in_crypto: bool) -> bool:
    lowered = name.lower()
    # "determinism_key"/"cache_key" style names are content hashes and
    # lookup keys, not key material.
    if ("public" in lowered or "verify" in lowered
            or "determinism" in lowered or "cache" in lowered):
        return False
    if lowered in _SECRET_EXACT:
        return True
    if any(lowered.endswith(suffix) for suffix in _SECRET_SUFFIXES):
        return True
    return in_crypto and lowered in _CRYPTO_ONLY_SECRETS


def is_seeded_name(name: str) -> bool:
    return _SEEDED_NAME.search(name.lower()) is not None


@dataclass
class TaintSpec:
    """Configurable sources/sinks/sanitizers/probes.

    The defaults encode the Herd contracts; tests construct narrower
    specs to exercise the machinery in isolation.
    """

    secret_names: Callable[[str, bool], bool] = is_secret_name
    seeded_names: Callable[[str], bool] = is_seeded_name
    nondet_calls: Set[str] = field(
        default_factory=lambda: set(NONDET_CALLS))
    sanitizer_calls: Set[str] = field(
        default_factory=lambda: set(SANITIZER_CALLS))
    probes: Dict[str, str] = field(
        default_factory=lambda: dict(RNG_CONSTRUCTORS))
    blocking_calls: Set[str] = field(
        default_factory=lambda: set(BLOCKING_CALLS))
    #: Module suffixes whose functions return secret material even
    #: when the body is outside the scanned set.
    secret_modules: Tuple[str, ...] = (".kdf", "crypto.keys")

    def name_taints(self, name: str, in_crypto: bool) -> TaintSet:
        taints = set()
        if self.secret_names(name, in_crypto):
            taints.add(Taint(LABEL_SECRET, name))
        if self.seeded_names(name):
            taints.add(Taint(LABEL_SEEDED, name))
        return frozenset(taints)


DEFAULT_SPEC = TaintSpec()


# ---------------------------------------------------------------------------
# The per-function analysis
# ---------------------------------------------------------------------------


class _FunctionTainter:
    def __init__(self, info: FunctionInfo, cfg: CFG, spec: TaintSpec,
                 graph: CallGraph,
                 summaries: Dict[str, FunctionSummary]):
        self.info = info
        self.cfg = cfg
        self.spec = spec
        self.graph = graph
        self.summaries = summaries
        self.in_crypto = "crypto" in info.ctx.segments
        self.sink_hits: List[SinkHit] = []
        self.probe_hits: List[ProbeHit] = []
        self.blocking_calls: List[BlockingCall] = []
        self.return_taints: Set[Taint] = set()
        #: nodes already reported, to avoid duplicates across the
        #: fixpoint revisits of a block.
        self._seen_events: Set[Tuple] = set()

    # -- entry state --------------------------------------------------

    def initial_state(self) -> TaintState:
        state: TaintState = {}
        for index, param in enumerate(self.info.params):
            taints = set(self.spec.name_taints(param, self.in_crypto))
            taints.add(Taint(f"{_PARAM_PREFIX}{index}", param))
            state[param] = frozenset(taints)
        for arg in [*self.info.node.args.kwonlyargs] if hasattr(
                self.info.node, "args") else []:
            state[arg.arg] = self.spec.name_taints(
                arg.arg, self.in_crypto)
        return state

    # -- fixpoint driver ----------------------------------------------

    def run(self) -> None:
        entry_state = self.initial_state()
        in_states: Dict[int, TaintState] = {self.cfg.entry: entry_state}
        order = self.cfg.reachable_blocks()
        preds = self.cfg.predecessors
        worklist = list(order)
        out_states: Dict[int, TaintState] = {}
        iterations = 0
        limit = max(64, 8 * len(order))
        while worklist and iterations < limit:
            iterations += 1
            bid = worklist.pop(0)
            state: TaintState = {}
            if bid == self.cfg.entry:
                state = dict(entry_state)
            for pred in preds.get(bid, ()):
                if pred in out_states:
                    state = join(state, out_states[pred])
            state = join(in_states.get(bid, {}), state)
            in_states[bid] = state
            out = dict(state)
            for stmt in self.cfg.blocks[bid].statements:
                out = self.transfer(stmt, out)
            if bid not in out_states or \
                    not states_equal(out_states[bid], out):
                out_states[bid] = out
                for succ in self.cfg.blocks[bid].successors:
                    if succ not in worklist:
                        worklist.append(succ)

    def result(self) -> FunctionAnalysis:
        summary = FunctionSummary()
        concrete = tuple(sorted(
            (t.label, t.origin) for t in self.return_taints
            if not t.is_param()))
        summary.return_labels = concrete
        summary.param_to_return = tuple(sorted(
            {t.param_index for t in self.return_taints if t.is_param()}))
        param_sinks: Dict[int, List[SinkHit]] = {}
        for hit in self.sink_hits:
            if hit.label.startswith(_PARAM_PREFIX):
                index = int(hit.label[len(_PARAM_PREFIX):])
                param_sinks.setdefault(index, []).append(hit)
        summary.param_sinks = {
            k: tuple(v) for k, v in sorted(param_sinks.items())}
        param_probes: Dict[int, List[ProbeHit]] = {}
        for hit in self.probe_hits:
            for params in hit.arg_params:
                for index in params:
                    param_probes.setdefault(index, []).append(hit)
        summary.param_probes = {
            k: tuple(v) for k, v in sorted(param_probes.items())}
        summary.blocking = tuple(self.blocking_calls)
        return FunctionAnalysis(
            info=self.info, summary=summary,
            sink_hits=[h for h in self.sink_hits
                       if not h.label.startswith(_PARAM_PREFIX)],
            probe_hits=list(self.probe_hits),
            blocking_calls=list(self.blocking_calls))

    # -- transfer -----------------------------------------------------

    def transfer(self, stmt, state: TaintState) -> TaintState:
        if isinstance(stmt, HeaderStmt):
            if stmt.expr is not None:
                value = self.eval(stmt.expr, state)
                self.check_sinks(stmt.expr, state)
                if stmt.target is not None:
                    state = self.assign(stmt.target, value, state)
            return state
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value_node = stmt.value
            if value_node is None:
                return state
            value = self.eval(value_node, state)
            self.check_sinks(value_node, state)
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            for target in targets:
                if isinstance(stmt, ast.AugAssign) and \
                        isinstance(target, ast.Name):
                    value = value | state.get(target.id, EMPTY)
                state = self.assign(target, value, state)
            return state
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.return_taints |= self.eval(stmt.value, state)
                self.check_sinks(stmt.value, state)
            return state
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc, state)
                self.check_sinks(stmt.exc, state)
                if isinstance(stmt.exc, ast.Call):
                    for arg in stmt.exc.args:
                        if isinstance(arg, ast.JoinedStr):
                            continue  # reported as the f-string sink
                        self.report_sink("exception", stmt, arg, state)
            return state
        if isinstance(stmt, (ast.Expr, ast.Assert)):
            expr = stmt.value if isinstance(stmt, ast.Expr) else stmt.test
            self.eval(expr, state)
            self.check_sinks(expr, state)
            return state
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    state = dict(state)
                    state.pop(target.id, None)
            return state
        # Nested defs, Global/Nonlocal, Import, Pass, ...: no effect.
        return state

    def assign(self, target: ast.expr, value: TaintSet,
               state: TaintState) -> TaintState:
        state = dict(state)
        if isinstance(target, ast.Name):
            state[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                state = self.assign(element, value, state)
        elif isinstance(target, ast.Starred):
            state = self.assign(target.value, value, state)
        # Attribute/Subscript stores are not tracked.
        return state

    # -- expression evaluation ----------------------------------------

    def eval(self, node: ast.expr, state: TaintState) -> TaintSet:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float, str, bytes, bool)):
                return frozenset(
                    {Taint(LABEL_SEEDED, "constant")})
            return EMPTY
        if isinstance(node, ast.Name):
            return state.get(node.id, EMPTY) | \
                self.spec.name_taints(node.id, self.in_crypto)
        if isinstance(node, ast.Attribute):
            base = self.eval(node.value, state)
            return base | self.spec.name_taints(node.attr,
                                                self.in_crypto)
        if isinstance(node, ast.Call):
            return self.eval_call(node, state)
        if isinstance(node, ast.BinOp):
            return self.eval(node.left, state) | \
                self.eval(node.right, state)
        if isinstance(node, ast.BoolOp):
            out: TaintSet = EMPTY
            for value in node.values:
                out = out | self.eval(value, state)
            return out
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand, state)
        if isinstance(node, ast.Compare):
            for operand in [node.left, *node.comparators]:
                self.eval(operand, state)
            return EMPTY
        if isinstance(node, ast.IfExp):
            self.eval(node.test, state)
            return self.eval(node.body, state) | \
                self.eval(node.orelse, state)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = EMPTY
            for element in node.elts:
                out = out | self.eval(element, state)
            return out
        if isinstance(node, ast.Dict):
            out = EMPTY
            for key in node.keys:
                if key is not None:
                    out = out | self.eval(key, state)
            for value in node.values:
                out = out | self.eval(value, state)
            return out
        if isinstance(node, ast.Subscript):
            return self.eval(node.value, state)
        if isinstance(node, ast.Starred):
            return self.eval(node.value, state)
        if isinstance(node, ast.JoinedStr):
            out = EMPTY
            for part in node.values:
                if isinstance(part, ast.FormattedValue):
                    out = out | self.eval(part.value, state)
            return out
        if isinstance(node, ast.FormattedValue):
            return self.eval(node.value, state)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            out = EMPTY
            for gen in node.generators:
                out = out | self.eval(gen.iter, state)
            if isinstance(node, ast.DictComp):
                out = out | self.eval(node.key, state)
                out = out | self.eval(node.value, state)
            else:
                out = out | self.eval(node.elt, state)
            return out
        if isinstance(node, ast.Await):
            return self.eval(node.value, state)
        if isinstance(node, (ast.Lambda, ast.NamedExpr)):
            if isinstance(node, ast.NamedExpr):
                return self.eval(node.value, state)
            return EMPTY
        return EMPTY

    def _callee_name(self, node: ast.Call) -> Optional[str]:
        name = self.info.ctx.imports.qualified_name(node.func)
        if name is not None:
            return name
        if isinstance(node.func, ast.Name):
            return node.func.id
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
        return None

    def eval_call(self, node: ast.Call, state: TaintState) -> TaintSet:
        name = self._callee_name(node)
        arg_taints = [self.eval(arg, state) for arg in node.args]
        for keyword in node.keywords:
            arg_taints.append(self.eval(keyword.value, state))

        if name in self.spec.sanitizer_calls:
            return EMPTY
        if name in self.spec.nondet_calls:
            return frozenset({Taint(LABEL_NONDET, f"{name}()")})

        if name in self.spec.probes:
            self.record_probe(node, name, arg_taints)

        if name is not None and self._is_blocking(name):
            self.record_blocking(node, name)

        resolved = self.graph.resolve_call_target(self.info, node)
        if resolved is not None:
            return self.apply_summary(node, resolved, arg_taints)

        if name is not None and any(
                name.endswith(suffix)
                for suffix in self.spec.secret_modules):
            return frozenset({Taint(LABEL_SECRET, f"{name}()")})

        # Unresolved call: taint propagates through (receiver + args);
        # param markers are dropped so they never cross an opaque call.
        out: Set[Taint] = set()
        if isinstance(node.func, ast.Attribute):
            out |= self.eval(node.func.value, state)
        for taints in arg_taints:
            out |= taints
        return frozenset(t for t in out if not t.is_param())

    def _is_blocking(self, name: str) -> bool:
        return name in self.spec.blocking_calls

    def apply_summary(self, node: ast.Call, callee_id: str,
                      arg_taints: Sequence[TaintSet]) -> TaintSet:
        summary = self.summaries.get(callee_id)
        callee = self.graph.functions.get(callee_id)
        if summary is None or callee is None:
            out: Set[Taint] = set()
            for taints in arg_taints:
                out |= taints
            return frozenset(t for t in out if not t.is_param())
        # Positional args map 1:1 onto params (bound methods shift by
        # one for self; we call through the unbound name so only shift
        # when the callee is a method reached via an instance).
        offset = 0
        if callee.class_name and callee.params and \
                callee.params[0] in ("self", "cls") and \
                not self._called_on_class(node):
            offset = 1
        mapped: Dict[int, TaintSet] = {}
        positional = [a for a in node.args
                      if not isinstance(a, ast.Starred)]
        for position, arg in enumerate(positional):
            mapped[position + offset] = arg_taints[position]
        for kw_index, keyword in enumerate(node.keywords):
            if keyword.arg and keyword.arg in callee.params:
                mapped[callee.params.index(keyword.arg)] = \
                    arg_taints[len(positional) + kw_index]

        out = {Taint(label, origin)
               for label, origin in summary.return_labels}
        for index in summary.param_to_return:
            out |= mapped.get(index, EMPTY)
        # Interprocedural sinks: a tainted argument whose param reaches
        # a sink inside (or beyond) the callee.
        for index, hits in summary.param_sinks.items():
            for taint in mapped.get(index, EMPTY):
                if taint.is_param():
                    # Lift into this function's own summary.
                    for hit in hits:
                        self.record_sink_hit(SinkHit(
                            kind=hit.kind, line=hit.line, col=hit.col,
                            label=taint.label, origin=taint.origin,
                            via=(callee.name,) + hit.via))
                elif taint.label == LABEL_SECRET:
                    for hit in hits:
                        self.record_sink_hit(SinkHit(
                            kind=hit.kind,
                            line=getattr(node, "lineno", hit.line),
                            col=getattr(node, "col_offset", 0) + 1,
                            label=taint.label, origin=taint.origin,
                            via=(callee.name,) + hit.via))
        for index, probes in summary.param_probes.items():
            arg = mapped.get(index, EMPTY)
            if not arg:
                continue
            labels = tuple(sorted({t.label for t in arg}))
            params = tuple(sorted({t.param_index for t in arg
                                   if t.is_param()}))
            for probe in probes:
                self.record_probe_hit(ProbeHit(
                    probe=probe.probe, callee=probe.callee,
                    line=getattr(node, "lineno", probe.line),
                    col=getattr(node, "col_offset", 0) + 1,
                    arg_labels=(labels,),
                    arg_params=(params,)))
        if summary.blocking:
            first = summary.blocking[0]
            self.record_blocking_hit(BlockingCall(
                callee=first.callee,
                line=getattr(node, "lineno", first.line),
                col=getattr(node, "col_offset", 0) + 1,
                via=(callee.name,) + first.via))
        return frozenset(t for t in out if not t.is_param()) | \
            frozenset(t for t in out if t.is_param())

    @staticmethod
    def _called_on_class(node: ast.Call) -> bool:
        """``Mix.forward(mix, ...)`` style unbound calls keep self."""
        func = node.func
        return (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id[:1].isupper())

    # -- sinks and probes ---------------------------------------------

    def record_sink_hit(self, hit: SinkHit) -> None:
        key = ("sink", hit.kind, hit.line, hit.col, hit.label,
               hit.origin, hit.via)
        if key not in self._seen_events:
            self._seen_events.add(key)
            self.sink_hits.append(hit)

    def record_probe_hit(self, hit: ProbeHit) -> None:
        key = ("probe", hit.probe, hit.callee, hit.line, hit.col,
               hit.arg_labels, hit.arg_params)
        if key not in self._seen_events:
            self._seen_events.add(key)
            self.probe_hits.append(hit)

    def record_blocking_hit(self, call: BlockingCall) -> None:
        key = ("blocking", call.callee, call.line, call.col, call.via)
        if key not in self._seen_events:
            self._seen_events.add(key)
            self.blocking_calls.append(call)

    def record_probe(self, node: ast.Call, name: str,
                     arg_taints: Sequence[TaintSet]) -> None:
        labels = tuple(tuple(sorted({t.label for t in taints}))
                       for taints in arg_taints)
        params = tuple(tuple(sorted({t.param_index for t in taints
                                     if t.is_param()}))
                       for taints in arg_taints)
        self.record_probe_hit(ProbeHit(
            probe=self.spec.probes[name], callee=name,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            arg_labels=labels, arg_params=params))

    def record_blocking(self, node: ast.Call, name: str) -> None:
        self.record_blocking_hit(BlockingCall(
            callee=name,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1))

    def report_sink(self, kind: str, at: ast.AST, value: ast.expr,
                    state: TaintState) -> None:
        for taint in self.eval(value, state):
            if taint.label == LABEL_SECRET or taint.is_param():
                self.record_sink_hit(SinkHit(
                    kind=kind,
                    line=getattr(at, "lineno", 1),
                    col=getattr(at, "col_offset", 0) + 1,
                    label=taint.label, origin=taint.origin))

    def check_sinks(self, node: ast.expr, state: TaintState) -> None:
        """Walk an expression for sink shapes (f-strings, log calls,
        repr, str.format) and report tainted values reaching them."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.JoinedStr):
                for part in sub.values:
                    if isinstance(part, ast.FormattedValue):
                        self.report_sink("fstring", sub, part.value,
                                         state)
            elif isinstance(sub, ast.Call):
                self._check_call_sink(sub, state)

    def _check_call_sink(self, node: ast.Call,
                         state: TaintState) -> None:
        func = node.func
        kind = None
        if isinstance(func, ast.Name) and func.id == "repr":
            kind = "repr"
        elif isinstance(func, ast.Attribute) and func.attr == "format" \
                and isinstance(func.value, ast.Constant) \
                and isinstance(func.value.value, str):
            kind = "str.format"
        elif isinstance(func, ast.Attribute) and \
                func.attr in _LOG_METHODS:
            root = self.info.ctx.imports.qualified_name(func)
            rooted = root is not None and root.startswith("logging.")
            loggerish = (isinstance(func.value, ast.Name)
                         and func.value.id.lower() in _LOGGERISH_ROOTS)
            if rooted or loggerish:
                kind = "logging"
        if kind is None:
            return
        for arg in [*node.args, *(kw.value for kw in node.keywords)]:
            if isinstance(arg, ast.JoinedStr):
                continue  # reported as its own f-string sink
            self.report_sink(kind, node, arg, state)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def analyze_function(info: FunctionInfo, spec: TaintSpec,
                     graph: CallGraph,
                     summaries: Dict[str, FunctionSummary],
                     cfg: Optional[CFG] = None) -> FunctionAnalysis:
    """Run the taint fixpoint over one function and return its
    analysis (summary + sink/probe/blocking events)."""
    if cfg is None:
        cfg = build_cfg(info.node)
    tainter = _FunctionTainter(info, cfg, spec, graph, summaries)
    tainter.run()
    return tainter.result()


def iterate_summaries(functions: Iterable[str], spec: TaintSpec,
                      graph: CallGraph,
                      summaries: Dict[str, FunctionSummary],
                      cfgs: Dict[str, CFG],
                      max_rounds: int = 5) -> Dict[str, FunctionAnalysis]:
    """Iterate per-function analyses callee-first until every summary
    is stable (or ``max_rounds``); returns the final analyses."""
    targets = [f for f in graph.topo_order() if f in set(functions)]
    analyses: Dict[str, FunctionAnalysis] = {}
    for _ in range(max_rounds):
        changed = False
        for fid in targets:
            info = graph.functions[fid]
            analysis = analyze_function(
                info, spec, graph, summaries, cfgs.get(fid))
            previous = summaries.get(fid)
            if previous is None or \
                    previous.key() != analysis.summary.key():
                changed = True
            summaries[fid] = analysis.summary
            analyses[fid] = analysis
        if not changed:
            break
    return analyses
