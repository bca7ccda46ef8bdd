"""Roles as objects: a static check that no role's round reads another
role's state (DESIGN.md §9 "One round").

``LiveZone.step`` schedules the roles' phases; the roles meet only in
what one phase hands the next.  This file fails when:

* a ``ClientPool`` method names the mix, its call manager, the SPs,
  the zone's channel → SP map or the call pairing;
* ``LiveZone.step`` reads the engine — the per-item / column choice is
  made inside the roles, so the round has one path;
* ``MixCallManager`` reads a client's call agent.
"""

import ast
from pathlib import Path
from typing import Iterator, Set

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: What the clients' phases may not name: other roles, and the zone's
#: wiring between them.
POOL_FORBIDDEN = {"manager", "mix", "sps", "_sp_of_channel", "peers"}
#: What a branch on the engine would read.
ENGINE_NAMES = {"zone_mode", "execution", "columns", "transport",
                "execution_registry", "resolve"}
#: A client's call agent: its type, and what only an agent has.
AGENT_NAMES = {"ClientCallAgent", "CallState", "agent", "agents",
               "active_channel", "received_cells", "handle_opened",
               "process_downstream", "start_outgoing"}


def _class(tree: ast.Module, name: str) -> ast.ClassDef:
    return next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == name)


def _parse(module: str) -> ast.Module:
    path = SRC / module
    return ast.parse(path.read_text(), str(path))


def _names(node: ast.AST) -> Iterator[str]:
    """Every identifier ``node`` reads: bare names and attributes."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def _breaches(node: ast.AST, forbidden: Set[str]) -> Set[str]:
    return set(_names(node)) & forbidden


def _method(cls: ast.ClassDef, name: str) -> ast.FunctionDef:
    return next(node for node in cls.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


class TestRolesKeepToThemselves:
    def test_the_client_pool_names_no_other_role(self):
        pool = _class(_parse("simulation/clientpool.py"), "ClientPool")
        methods = [node for node in pool.body
                   if isinstance(node, ast.FunctionDef)]
        assert {"up", "down"} <= {method.name for method in methods}
        for method in methods:
            assert not _breaches(method, POOL_FORBIDDEN), method.name

    def test_the_round_does_not_branch_on_the_engine(self):
        step = _method(_class(_parse("simulation/live.py"), "LiveZone"),
                       "step")
        assert not _breaches(step, ENGINE_NAMES)

    def test_the_call_manager_reads_no_call_agent(self):
        manager = _class(_parse("core/callmanager.py"), "MixCallManager")
        assert not _breaches(manager, AGENT_NAMES)


@pytest.mark.parametrize("source, forbidden", [
    ("def up(self):\n    return self.manager.downstream_channels()",
     POOL_FORBIDDEN),
    ("def step(self):\n    if self.zone_mode == 'batch':\n        pass",
     ENGINE_NAMES),
    ("def ring(self, live):\n    return live.agent.state",
     AGENT_NAMES),
])
def test_the_check_sees_a_breach(source, forbidden):
    """Each rule above flags the reach it is there to catch."""
    assert _breaches(ast.parse(source), forbidden)
