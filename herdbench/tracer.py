"""In-memory span tracing around the public entry points of each layer.

The benchmark owns the tracing: nothing under ``src/`` knows about it.
:meth:`Tracer.install` replaces each target of :mod:`herdbench.layers`
(a module function, or a method on a class) with a wrapper that
records one span per call — name, start, end, the span that caused it,
and the id of the benchmark operation (round / join / frame index) it
belongs to.  Spans stay in memory; :meth:`Tracer.write_jsonl` writes
them out when the run ends.

A layer's *self time* is its spans' durations minus the part their
child spans cover (one thread, so children never overlap and the part
is their sum).  Every span hangs under one of the harness's root spans
(``bench.setup`` / ``bench.op`` / ``bench.check`` / ``bench.finish``),
so time is aggregated per phase and the root's own self time is the
*unattributed* residual.

A target that no longer resolves is listed in :attr:`Tracer.missing`
and simply records nothing — a refactor under ``src/`` can lose a
layer's numbers but cannot break a run.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Field order of one span record (a plain list, for speed).
NAME, START, END, PARENT, OP = range(5)


class _SpanContext:
    """``with tracer.span(name):`` — an explicit span recorded from
    the benchmark's own code (root spans, the emit loop)."""

    __slots__ = ("tracer", "name_id")

    def __init__(self, tracer: "Tracer", name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self) -> None:
        tracer = self.tracer
        stack = tracer.stack
        record = [self.name_id, perf_counter(), 0.0, stack[-1],
                  tracer.op]
        stack.append(len(tracer.spans))
        tracer.spans.append(record)

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        tracer.spans[tracer.stack.pop()][END] = perf_counter()


class _NullContext:
    """What :func:`null_span` hands out when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NULL = _NullContext()


def null_span(_name: str) -> _NullContext:
    """The untraced stand-in for :meth:`Tracer.span`."""
    return _NULL


def resolve(dotted: str) -> Optional[Tuple[Any, str, Any]]:
    """Resolve ``pkg.module.func`` or ``pkg.module.Class.method`` to
    ``(owner, attribute, raw value)``; ``None`` when any part of the
    path is gone.  ``raw`` is the object stored on the owner (so a
    ``classmethod`` or a ``property`` stays one)."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:-1]:
                owner = getattr(owner, attr)
            return owner, parts[-1], vars(owner)[parts[-1]]
        except (AttributeError, KeyError, TypeError):
            return None
    return None


class Tracer:
    """Span store, wrapper factory and aggregator of one traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: ``[name id, start, end, parent index, op id]`` per span, in
        #: start order (so a parent always precedes its children).
        self.spans: List[list] = []
        #: Indices of the open spans; ``-1`` is "no parent".
        self.stack: List[int] = [-1]
        #: Id of the benchmark operation in progress (``-1`` outside).
        self.op = -1
        #: Wrappers left behind in modules imported after
        #: :meth:`install` pass calls straight through when this is
        #: off.
        self.on = False
        self.counters: Dict[str, int] = {}
        #: Targets that did not resolve at the last :meth:`install`.
        self.missing: List[str] = []
        #: target → modules/classes it was patched in (the defining
        #: module plus every module that re-binds the name).
        self.bindings: Dict[str, List[str]] = {}
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def span(self, name: str):
        """An explicit span (a no-op while recording is off)."""
        if not self.on:
            return _NULL
        return _SpanContext(self, self.name_id(name))

    def wrap(self, fn: Callable, name: str,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` with one span named ``name`` recorded per call.
        ``count(counters, args, kwargs, result)``, if given, runs
        inside the span after a successful call."""
        tracer = self
        name_id = self.name_id(name)
        spans = self.spans
        stack = self.stack
        counters = self.counters
        now = perf_counter

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            record = [name_id, now(), 0.0, stack[-1], tracer.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(counters, args, kwargs, result)
                return result
            finally:
                stack.pop()
                record[END] = now()

        return traced

    # -- patching -------------------------------------------------------------

    def install(self, targets: Iterable) -> None:
        """Patch every resolvable target (see
        :data:`herdbench.layers.TARGETS`) and turn recording on.

        A module-level function is replaced in its defining module
        *and* in every loaded module of the same top-level package
        that re-binds the very same object (``from x import f``); a
        method is replaced on its class, which covers every
        instance."""
        self.uninstall()
        self.missing = []
        self.bindings = {}
        for target in targets:
            found = resolve(target.dotted)
            if found is None:
                self.missing.append(target.dotted)
                continue
            owner, attr, raw = found
            if isinstance(owner, type):
                self._patch_method(owner, attr, raw, target)
            else:
                self._patch_function(raw, target)
        self.on = True

    def _patch_method(self, owner: type, attr: str, raw: Any,
                      target) -> None:
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(self.wrap(
                raw.__func__, target.span, target.count))
        elif isinstance(raw, property):
            wrapped = property(
                self.wrap(raw.fget, target.span, target.count),
                raw.fset, raw.fdel, raw.__doc__)
        elif callable(raw):
            wrapped = self.wrap(raw, target.span, target.count)
        else:
            self.missing.append(target.dotted)
            return
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, raw))
        self.bindings[target.dotted] = [
            f"{owner.__module__}.{owner.__qualname__}"]

    def _patch_function(self, raw: Any, target) -> None:
        if not callable(raw):
            self.missing.append(target.dotted)
            return
        wrapped = self.wrap(raw, target.span, target.count)
        package = target.dotted.split(".", 1)[0]
        where = []
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or (mod_name != package and not
                                  mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, attr, wrapped)
                    self._patched.append((module, attr, raw))
                    where.append(mod_name)
        self.bindings[target.dotted] = where

    def uninstall(self) -> None:
        """Put every original back and stop recording."""
        self.on = False
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched = []

    # -- aggregation ----------------------------------------------------------

    def aggregate(self) -> Dict[str, Dict[str, List[float]]]:
        """``{root name: {span name: [self seconds, calls]}}`` — each
        span's self time booked under its own name, grouped by the
        root span it descends from.  The root's own entry is the time
        under it that no layer span covers."""
        spans = self.spans
        child = [0.0] * len(spans)
        root = [0] * len(spans)
        for i, (_, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = i
        names = self.names
        out: Dict[str, Dict[str, List[float]]] = {}
        for i, (name_id, start, end, _, _) in enumerate(spans):
            group = out.setdefault(names[spans[root[i]][NAME]], {})
            entry = group.setdefault(names[name_id], [0.0, 0])
            entry[0] += (end - start) - child[i]
            entry[1] += 1
        return out

    def root_durations(self, name: str) -> List[float]:
        """Durations of the root spans called ``name``, in order."""
        name_id = self._name_ids.get(name)
        return [end - start
                for nid, start, end, parent, _ in self.spans
                if parent < 0 and nid == name_id]

    def write_jsonl(self, path: str) -> int:
        """One JSON object per span: ``id``, ``name``, ``start``,
        ``end`` (seconds on the ``perf_counter`` clock), ``parent``
        (span id or ``null``) and ``op``.  Returns the span count."""
        names = self.names
        with open(path, "w", encoding="utf-8") as out:
            for i, (name_id, start, end, parent, op) in \
                    enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": names[name_id], "start": start,
                    "end": end,
                    "parent": parent if parent >= 0 else None,
                    "op": op if op >= 0 else None}) + "\n")
        return len(self.spans)
