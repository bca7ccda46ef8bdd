"""herdlint engine: file discovery, AST contexts, suppression, rule driver.

The linter exists because two of Herd's load-bearing contracts are
invisible to generic tooling:

* **Determinism** — every simulation result must be bit-for-bit
  reproducible from a seed (every scenario report publishes a
  "determinism key").  Wall-clock reads and the global RNG silently
  break that.
* **Crypto hygiene** — invariants I1-I8 (§3.7 of the paper) assume
  constant-time MAC checks, secrets that never reach logs, and mixes
  that reject every message they don't explicitly understand.

Rules (see :mod:`repro.lint.rules`) encode those contracts as AST
checks.  This module is the machinery: it walks the input paths,
parses each file once, indexes ``# herdlint: disable=...`` comments,
runs every registered rule, and returns a sorted, deduplicated
:class:`LintResult`.

Suppression syntax (matched anywhere on a physical line)::

    x = time.time()          # herdlint: disable=HL001
    y = random.random()      # herdlint: disable          (all rules)
    # herdlint: disable-file=HL004                        (whole file)
"""

from __future__ import annotations

import ast
import fnmatch
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
#: Informational findings never affect the exit code (e.g. HL006's
#: partial-tree explanation).
SEVERITY_NOTE = "note"

#: Pseudo-rule id for files the engine cannot parse.
PARSE_ERROR_ID = "HL000"


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule firing at a location."""

    rule_id: str
    message: str
    path: str
    line: int
    col: int
    severity: str = SEVERITY_ERROR
    suppressed: bool = False

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)


class ImportMap:
    """Resolves names in one module back to dotted import paths.

    ``import time`` / ``from time import monotonic as mono`` /
    ``import numpy as np`` all resolve call sites to canonical names
    ("time.time", "time.monotonic", "numpy.random.seed") so rules match
    the *module function*, not the spelling.
    """

    def __init__(self, tree: ast.AST):
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name
                    else:
                        # ``import a.b`` binds ``a`` to package ``a``.
                        root = alias.name.split(".")[0]
                        self.aliases[root] = root
            elif isinstance(node, ast.ImportFrom):
                if node.level or not node.module:
                    continue  # relative imports are project-local
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.aliases[bound] = f"{node.module}.{alias.name}"

    def qualified_name(self, node: ast.AST) -> Optional[str]:
        """Dotted name of an expression rooted at an imported module,
        or None when the root is a local binding."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))


_SUPPRESS_RE = re.compile(
    r"#\s*herdlint:\s*disable(?P<filewide>-file)?"
    r"(?:\s*=\s*(?P<ids>[A-Za-z0-9_,\s]+?))?\s*(?:#|$)")


class SuppressionIndex:
    """Per-line and file-wide ``# herdlint: disable`` comments."""

    def __init__(self, source: str):
        #: line -> None (all rules) or the set of suppressed rule ids.
        self.by_line: Dict[int, Optional[Set[str]]] = {}
        self.file_wide: Optional[Set[str]] = set()
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(text)
            if not match:
                continue
            ids_text = match.group("ids")
            ids = (None if ids_text is None else
                   {i.strip().upper() for i in ids_text.split(",")
                    if i.strip()})
            if match.group("filewide"):
                if ids is None or self.file_wide is None:
                    self.file_wide = None  # everything, whole file
                else:
                    self.file_wide |= ids
            else:
                if ids is None or self.by_line.get(lineno, set()) is None:
                    self.by_line[lineno] = None
                else:
                    existing = self.by_line.setdefault(lineno, set())
                    assert existing is not None
                    existing |= ids

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        if self.file_wide is None or rule_id in (self.file_wide or ()):
            return True
        if line in self.by_line:
            ids = self.by_line[line]
            return ids is None or rule_id in ids
        return False


@dataclass
class FileContext:
    """Everything a rule needs about one parsed file."""

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    imports: ImportMap
    suppressions: SuppressionIndex

    @property
    def segments(self) -> Tuple[str, ...]:
        return tuple(p.lower() for p in Path(self.display_path).parts)


class Rule:
    """Base class for per-file rules.  Subclasses set the metadata
    class attributes and implement :meth:`check_file`."""

    rule_id: str = ""
    title: str = ""
    #: One-line rationale tying the rule to a paper invariant or the
    #: determinism contract; rendered into SARIF rule metadata.
    rationale: str = ""
    severity: str = SEVERITY_ERROR
    #: Directory segments the rule is scoped to (None = everywhere).
    scope: Optional[Tuple[str, ...]] = None

    def applies_to(self, ctx: FileContext) -> bool:
        if self.scope is None:
            return True
        return any(seg in ctx.segments for seg in self.scope)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def finding(self, ctx: FileContext, node: ast.AST,
                message: str) -> Finding:
        return Finding(rule_id=self.rule_id, message=message,
                       path=ctx.display_path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0) + 1,
                       severity=self.severity)


class ProjectRule(Rule):
    """A rule that needs the whole scanned set at once (cross-module
    checks such as wire-dispatch exhaustiveness)."""

    def check_project(self,
                      contexts: Sequence[FileContext]) -> Iterable[Finding]:
        return ()


class FlowRule(Rule):
    """A rule driven by the herdflow dataflow analysis
    (:class:`repro.lint.flow.FlowProgram`): CFGs, the call graph, and
    converged interprocedural taint summaries over the scanned set."""

    def check_flow(self, program,
                   contexts: Sequence[FileContext]) -> Iterable[Finding]:
        return ()


_REGISTRY: Dict[str, Rule] = {}


def register(cls):
    """Class decorator adding a rule to the global registry."""
    instance = cls()
    if not instance.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if instance.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {instance.rule_id}")
    _REGISTRY[instance.rule_id] = instance
    return cls


def all_rules() -> List[Rule]:
    """Registered rules, ordered by id."""
    # Importing the rule modules populates the registry on first use.
    from repro.lint import rules as _rules  # noqa: F401
    from repro.lint.flow import rules as _flow_rules  # noqa: F401
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


@dataclass(frozen=True)
class LintConfig:
    """Engine options (reporter/exit-code policy lives in the CLI)."""

    select: Optional[Tuple[str, ...]] = None
    ignore: Tuple[str, ...] = ()
    exclude: Tuple[str, ...] = ()
    #: Run the herdflow dataflow rules (HL004-flow, HL007, HL10x).
    #: Disabling skips building the FlowProgram entirely.
    flow: bool = True

    def rule_enabled(self, rule_id: str) -> bool:
        if self.select is not None and rule_id not in self.select:
            return False
        return rule_id not in self.ignore


@dataclass
class LintResult:
    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def active(self) -> List[Finding]:
        """Findings that gate the exit code: not suppressed in source
        and not informational notes."""
        return [f for f in self.findings
                if not f.suppressed and f.severity != SEVERITY_NOTE]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def notes(self) -> List[Finding]:
        return [f for f in self.findings
                if f.severity == SEVERITY_NOTE and not f.suppressed]


def _iter_python_files(paths: Sequence[str],
                       exclude: Tuple[str, ...]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    out: List[Path] = []
    seen: Set[Path] = set()
    for f in files:
        if "__pycache__" in f.parts or f in seen:
            continue
        seen.add(f)
        posix = f.as_posix()
        if any(fnmatch.fnmatch(posix, pat) for pat in exclude):
            continue
        out.append(f)
    return out


def _display_path(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def _parse_file(path: Path) -> Tuple[Optional[FileContext],
                                     Optional[Finding]]:
    display = _display_path(path)
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (SyntaxError, UnicodeDecodeError, OSError) as exc:
        line = getattr(exc, "lineno", 1) or 1
        return None, Finding(rule_id=PARSE_ERROR_ID,
                             message=f"could not parse file: {exc}",
                             path=display, line=line, col=1)
    ctx = FileContext(path=path, display_path=display, source=source,
                      tree=tree, imports=ImportMap(tree),
                      suppressions=SuppressionIndex(source))
    return ctx, None


def run_lint(paths: Sequence[str],
             config: Optional[LintConfig] = None) -> LintResult:
    """Lint ``paths`` (files or directories) and return every finding,
    suppressed ones included, sorted by location."""
    config = config or LintConfig()
    result = LintResult()
    contexts: List[FileContext] = []
    for path in _iter_python_files(paths, config.exclude):
        ctx, error = _parse_file(path)
        result.files_scanned += 1
        if error is not None:
            result.findings.append(error)
        if ctx is not None:
            contexts.append(ctx)

    by_path = {ctx.display_path: ctx for ctx in contexts}
    rules = [r for r in all_rules() if config.rule_enabled(r.rule_id)]

    program = None
    flow_rules = [r for r in rules if isinstance(r, FlowRule)]
    if flow_rules and config.flow:
        # Imported here so the engine stays importable without the
        # flow package (and so flow/rules.py can import the engine).
        from repro.lint.flow.program import FlowProgram
        program = FlowProgram.build(contexts)

    raw: List[Finding] = []
    for rule in rules:
        if isinstance(rule, FlowRule):
            if program is not None:
                raw.extend(rule.check_flow(
                    program,
                    [c for c in contexts if rule.applies_to(c)]))
        elif isinstance(rule, ProjectRule):
            raw.extend(rule.check_project(
                [c for c in contexts if rule.applies_to(c)]))
        else:
            for ctx in contexts:
                if rule.applies_to(ctx):
                    raw.extend(rule.check_file(ctx))

    seen: Set[Tuple[str, int, int, str, str]] = set()
    for finding in raw:
        key = (finding.path, finding.line, finding.col,
               finding.rule_id, finding.message)
        if key in seen:
            continue
        seen.add(key)
        ctx = by_path.get(finding.path)
        if ctx is not None and ctx.suppressions.is_suppressed(
                finding.rule_id, finding.line):
            finding = Finding(**{**finding.__dict__, "suppressed": True})
        result.findings.append(finding)

    result.findings.sort(key=Finding.sort_key)
    return result
