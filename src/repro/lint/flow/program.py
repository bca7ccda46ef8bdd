"""FlowProgram: the whole-program view flow rules consume.

Built once per lint run from the engine's parsed
:class:`~repro.lint.engine.FileContext` list:

1. index every function/method into the :class:`CallGraph` and add a
   ``<module>`` pseudo-function per file so module-level statements
   are analysed too;
2. resolve call edges (function bodies + module level);
3. run the interprocedural summary fixpoint over every function and
   collect the reporting-pass events.

There is no summary cache: a cold whole-tree run is ≈2.6 s and a
fresh CI checkout always runs cold (DESIGN.md §12, "why there is no
summary cache").
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence

from repro.lint.engine import FileContext
from repro.lint.flow.callgraph import (
    CallGraph,
    CallSite,
    FunctionInfo,
    module_name_for,
)
from repro.lint.flow.cfg import CFG, build_cfg
from repro.lint.flow.taint import (
    DEFAULT_SPEC,
    FunctionAnalysis,
    FunctionSummary,
    TaintSpec,
    iterate_summaries,
)

MODULE_FUNC = "<module>"


def _module_pseudo_def(tree: ast.Module) -> ast.FunctionDef:
    """A synthetic def wrapping the module body, so the CFG builder
    and tainter can treat module-level code like a function.  The body
    statements already carry locations; only the new wrapper nodes
    need them stamped (``fix_missing_locations`` would re-walk the
    whole module)."""
    filler = ast.Pass(lineno=1, col_offset=0,
                      end_lineno=1, end_col_offset=4)
    node = ast.FunctionDef(
        name=MODULE_FUNC,
        args=ast.arguments(posonlyargs=[], args=[], vararg=None,
                           kwonlyargs=[], kw_defaults=[], kwarg=None,
                           defaults=[]),
        body=list(tree.body) or [filler],
        decorator_list=[], returns=None, type_comment=None)
    return ast.copy_location(node, node.body[0])


def _toplevel_calls(tree: ast.Module) -> List[tuple]:
    """``(call, is_statement)`` pairs for module-level statements,
    without descending into function/class bodies (those belong to
    their own functions)."""
    calls: List[tuple] = []
    stmt_calls: set = set()
    stack: List[ast.AST] = [
        s for s in tree.body
        if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Expr) and \
                isinstance(node.value, ast.Call):
            stmt_calls.add(id(node.value))
        if isinstance(node, ast.Call):
            calls.append((node, id(node) in stmt_calls))
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                stack.append(child)
    return calls


class FlowProgram:
    """CFGs + call graph + converged summaries + analysis events for
    one scanned file set."""

    def __init__(self, spec: TaintSpec):
        self.spec = spec
        self.graph = CallGraph()
        self.contexts: List[FileContext] = []
        #: display path -> that file's functions (module pseudo last).
        self.functions_by_file: Dict[str, List[FunctionInfo]] = {}
        self.summaries: Dict[str, FunctionSummary] = {}
        #: display path -> function id -> events.
        self.events: Dict[str, Dict[str, FunctionAnalysis]] = {}
        self.cfgs: Dict[str, CFG] = {}

    # -- construction -------------------------------------------------

    @classmethod
    def build(cls, contexts: Sequence[FileContext],
              spec: TaintSpec = DEFAULT_SPEC) -> "FlowProgram":
        program = cls(spec)
        program.contexts = list(contexts)

        # Pass 1: index functions (plus the <module> pseudo per file).
        for ctx in contexts:
            infos = program.graph.add_file(ctx)
            module = module_name_for(ctx.path)
            pseudo = FunctionInfo(
                qualified_id=f"{module}.{MODULE_FUNC}",
                module=module, qualname=MODULE_FUNC,
                node=_module_pseudo_def(ctx.tree), ctx=ctx,
                is_async=False, params=())
            program.graph.functions[pseudo.qualified_id] = pseudo
            program.functions_by_file[ctx.display_path] = \
                [*infos, pseudo]

        # Pass 2: resolve call edges (function bodies + module level).
        for ctx in contexts:
            for info in program.functions_by_file[ctx.display_path]:
                if info.qualname == MODULE_FUNC:
                    for call, is_stmt in _toplevel_calls(ctx.tree):
                        callee = program.graph.resolve_call_target(
                            info, call)
                        if callee is not None:
                            program.graph.call_sites.append(CallSite(
                                caller=info.qualified_id,
                                callee=callee, node=call,
                                is_statement=is_stmt))
                            program.graph.edges.setdefault(
                                info.qualified_id, set()).add(callee)
                            program.graph.reverse_edges.setdefault(
                                callee, set()).add(info.qualified_id)
                else:
                    program.graph.resolve_calls(info)

        # Pass 3: the summary fixpoint, then per-file events.
        function_ids = [
            info.qualified_id
            for infos in program.functions_by_file.values()
            for info in infos]
        for fid in function_ids:
            program.cfgs[fid] = build_cfg(
                program.graph.functions[fid].node)
        analyses = iterate_summaries(
            function_ids, spec, program.graph,
            program.summaries, program.cfgs)
        for path, infos in program.functions_by_file.items():
            program.events[path] = {
                info.qualified_id: analyses[info.qualified_id]
                for info in infos if info.qualified_id in analyses}
        return program

    # -- queries ------------------------------------------------------

    def file_events(self,
                    display_path: str) -> Dict[str, FunctionAnalysis]:
        return self.events.get(display_path, {})

    def functions_in(self, display_path: str) -> List[FunctionInfo]:
        return self.functions_by_file.get(display_path, [])

    def function(self, qualified_id: str) -> Optional[FunctionInfo]:
        return self.graph.functions.get(qualified_id)
