"""No module is test-only: a static import graph of the run paths.

Roots are every non-``__init__`` file under ``src/repro``,
``examples/``, ``benchmarks/`` and ``herdbench/``.  A ``repro``
module is reached when some other root imports it directly, or
imports a name that its package ``__init__`` re-exports from it.
``repro.__main__`` and ``repro.lint.__main__`` are entry points.

What is left unreached must be exactly :data:`UNREACHED`, each
module there with the ROADMAP item that decides its fate.  So a new
module that only tests import fails this test, and so does an
allowlisted module that gains a caller (take it off the list).
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, Set, Tuple

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
ROOT_DIRS = ("src/repro", "examples", "benchmarks", "herdbench")
ENTRY_POINTS = {"__main__", "lint.__main__"}

#: Module (relative to ``repro``) → the ROADMAP item that decides
#: whether it joins a run path or is deleted.
UNREACHED = {
    "crypto.dtls": "item 12 / 14: hop-by-hop DTLS on the path, or delete",
    "core.dispatch": "item 13: the control plane as messages",
    "voip.g711": "item 15: E8 measured through the live zone",
    "voip.jitterbuffer": "item 15: E8 measured through the live zone",
    "attacks.disclosure": "item 9: the statistical disclosure classifier",
}


def _module_name(path: Path, src: Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _repro_modules(repo_root: Path = REPO_ROOT) -> Dict[str, Path]:
    src = repo_root / "src"
    return {_module_name(path, src): path
            for path in sorted((src / "repro").rglob("*.py"))}


def _imports(path: Path) -> Iterator[Tuple[str, Tuple[str, ...]]]:
    """``(module, names)`` for every absolute import in ``path``,
    nested ones included; ``names`` is empty for ``import a.b``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom) and node.module \
                and not node.level:
            yield node.module, tuple(alias.name for alias in node.names)


def _reexports(modules: Dict[str, Path]) -> Dict[Tuple[str, str], str]:
    """(package, name) → the module its ``__init__`` imports it from."""
    exported = {}
    for name, path in modules.items():
        if path.name != "__init__.py":
            continue
        for source, names in _imports(path):
            for imported in names:
                exported[(name, imported)] = source
    return exported


def _reached_by(module: str, names: Tuple[str, ...],
                modules: Dict[str, Path],
                exported: Dict[Tuple[str, str], str]) -> Set[str]:
    """The modules one import statement reaches: the module itself,
    a submodule it names, or — through package re-exports, followed
    to the defining module — the source of a name it takes."""
    reached = {module}
    for imported in names:
        if f"{module}.{imported}" in modules:
            reached.add(f"{module}.{imported}")
            continue
        source = module
        while exported.get((source, imported), source) not in reached:
            source = exported[(source, imported)]
            reached.add(source)
    return reached & set(modules)


def unreached_modules(repo_root: Path = REPO_ROOT) -> Set[str]:
    modules = _repro_modules(repo_root)
    exported = _reexports(modules)
    reached = set()
    for directory in ROOT_DIRS:
        for path in sorted((repo_root / directory).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            own = _module_name(path, repo_root / "src") \
                if directory == "src/repro" else None
            for module, names in _imports(path):
                reached |= _reached_by(module, names, modules,
                                       exported) - {own}
    return {name[len("repro."):] for name, path in modules.items()
            if path.name != "__init__.py" and name not in reached} \
        - ENTRY_POINTS


def test_unreached_modules_are_exactly_the_allowlist():
    unreached = unreached_modules()
    test_only = sorted(unreached - set(UNREACHED))
    assert not test_only, (
        f"only tests import {test_only}: put each on a run path, or "
        "list it in UNREACHED with its ROADMAP item")
    gained = sorted(set(UNREACHED) - unreached)
    assert not gained, (
        f"{gained} now have a caller: take them off UNREACHED")


def test_reach_follows_package_reexports():
    modules = _repro_modules()
    exported = _reexports(modules)
    assert "repro.voip.fec" in _reached_by(
        "repro.voip", ("effective_loss",), modules, exported)
    # Followed through two packages: repro → repro.scenario → report.
    assert _reached_by("repro", ("run_scenario",), modules, exported) == {
        "repro", "repro.scenario", "repro.scenario.report"}
    assert _reached_by("repro.voip", ("fec",), modules, exported) == {
        "repro.voip", "repro.voip.fec"}


@pytest.mark.parametrize("module", sorted(UNREACHED))
def test_allowlisted_module_exists_and_roadmap_names_it(module):
    """An allowlisted module that is deleted leaves the list with it,
    and each one's fate is written down where its item is."""
    assert f"repro.{module}" in _repro_modules(), (
        f"{module} is gone: take it off UNREACHED")
    path = module.replace(".", "/") + ".py"
    assert f"`{path}`" in (REPO_ROOT / "ROADMAP.md").read_text()


def test_entry_points_exist():
    modules = _repro_modules()
    assert {f"repro.{name}" for name in ENTRY_POINTS} <= set(modules)


def _tree(root: Path, files: Dict[str, str]) -> Path:
    """A miniature repository: ``files`` maps a path under ``root`` to
    its source.  Every root directory exists, if empty."""
    for directory in ROOT_DIRS:
        (root / directory).mkdir(parents=True, exist_ok=True)
    for name, source in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(source)
    return root


def test_a_module_only_tests_import_is_unreached(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/used.py": "",
        "src/repro/lonely.py": "",
        "src/repro/run.py": "import repro.used\n",
        "tests/test_lonely.py": "from repro.lonely import thing\n",
    })
    assert unreached_modules(root) == {"lonely", "run"}


def test_a_reexported_name_reaches_its_defining_module(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/pkg/__init__.py": "from repro.pkg.impl import Thing\n",
        "src/repro/pkg/impl.py": "class Thing: pass\n",
        "src/repro/pkg/other.py": "",
        "examples/demo.py": "from repro.pkg import Thing\n",
    })
    assert unreached_modules(root) == {"pkg.other"}


def test_a_module_does_not_reach_itself(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/selfish.py": "def f():\n    import repro.selfish\n",
    })
    assert unreached_modules(root) == {"selfish"}


@pytest.mark.parametrize("directory", ["examples", "benchmarks",
                                       "herdbench"])
def test_each_root_directory_reaches(tmp_path, directory):
    """A nested import in any root directory's file counts."""
    root = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/target.py": "",
        f"{directory}/sub/user.py":
            "def main():\n    from repro import target\n",
    })
    assert unreached_modules(root) == set()
