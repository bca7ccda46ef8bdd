"""herdflow tests: CFG construction, taint propagation through the
fixpoint, interprocedural summaries, and the HL004 findings pinned on
the fixture corpus."""

import ast
import textwrap
from pathlib import Path

from repro.lint import LintConfig, run_lint
from repro.lint.flow.cfg import HeaderStmt, build_cfg

FIXTURES = Path(__file__).parent / "lint_fixtures"


def _cfg(source):
    tree = ast.parse(textwrap.dedent(source))
    func = tree.body[0]
    return build_cfg(func)


def _edges(cfg):
    return {(b.block_id, s)
            for b in cfg.blocks.values() for s in b.successors}


# -- CFG construction -------------------------------------------------


def test_cfg_straight_line_is_single_block():
    cfg = _cfg("""
        def f(x):
            y = x + 1
            z = y * 2
            return z
    """)
    reachable = cfg.reachable_blocks()
    # entry holds all three statements, then the exit.
    statements = [s for bid in reachable
                  for s in cfg.blocks[bid].statements]
    assert len(statements) == 3
    assert cfg.exit in cfg.blocks[cfg.entry].successors


def test_cfg_if_else_branches_and_rejoin():
    cfg = _cfg("""
        def f(flag):
            if flag:
                x = 1
            else:
                x = 2
            return x
    """)
    entry = cfg.blocks[cfg.entry]
    assert isinstance(entry.statements[-1], HeaderStmt)
    assert entry.statements[-1].kind == "if"
    assert len(entry.successors) == 2
    # Both arms flow into the same join block.
    joins = {succ
             for arm in entry.successors
             for succ in cfg.blocks[arm].successors}
    assert len(joins) == 1
    (join,) = joins
    # The join holds the return and leads to the exit.
    assert cfg.exit in cfg.blocks[join].successors


def test_cfg_while_loop_has_back_edge_and_exit():
    cfg = _cfg("""
        def f(n):
            total = 0
            while n > 0:
                total += n
                n -= 1
            return total
    """)
    headers = [b for b in cfg.blocks.values()
               if any(isinstance(s, HeaderStmt) and s.kind == "while"
                      for s in b.statements)]
    assert len(headers) == 1
    header = headers[0]
    # Loop header branches two ways: body and loop exit.
    assert len(header.successors) == 2
    # Some body block loops back to the header.
    assert any((bid, header.block_id) in _edges(cfg)
               for bid in header.successors)


def test_cfg_break_jumps_to_loop_exit():
    cfg = _cfg("""
        def f(items):
            for item in items:
                if item:
                    break
            return items
    """)
    edges = _edges(cfg)
    headers = [b.block_id for b in cfg.blocks.values()
               if any(isinstance(s, HeaderStmt) and s.kind == "for"
                      for s in b.statements)]
    (header,) = headers
    # The break block reaches a block the header also reaches (the
    # loop exit), without going back through the header.
    break_blocks = [b.block_id for b in cfg.blocks.values()
                    if any(isinstance(s, ast.Break)
                           for s in b.statements)]
    assert break_blocks
    (break_block,) = break_blocks
    assert set(cfg.blocks[break_block].successors) & \
        set(cfg.blocks[header].successors)
    assert (break_block, header) not in edges


def test_cfg_try_except_handler_reachable_from_body():
    cfg = _cfg("""
        def f(x):
            try:
                y = risky(x)
            except ValueError:
                y = 0
            return y
    """)
    # The block holding the risky call must have >1 successor: the
    # normal path and the handler.
    call_blocks = [b for b in cfg.blocks.values()
                   if any(isinstance(s, ast.Assign)
                          and isinstance(s.value, ast.Call)
                          for s in b.statements)]
    assert call_blocks
    assert all(len(b.successors) >= 2 for b in call_blocks)
    # Both paths rejoin before the return.
    returns = [b for b in cfg.blocks.values()
               if any(isinstance(s, ast.Return) for s in b.statements)]
    assert len(returns) == 1
    preds = cfg.predecessors[returns[0].block_id]
    assert len(preds) >= 1


def test_cfg_with_header_is_materialised():
    cfg = _cfg("""
        def f(path):
            with open(path) as handle:
                data = handle.read()
            return data
    """)
    kinds = [s.kind for b in cfg.blocks.values()
             for s in b.statements if isinstance(s, HeaderStmt)]
    assert kinds == ["with"]


def test_cfg_code_after_return_is_unreachable():
    cfg = _cfg("""
        def f(x):
            return x
            y = 1
    """)
    reachable = set(cfg.reachable_blocks())
    parked = [b.block_id for b in cfg.blocks.values()
              if any(isinstance(s, ast.Assign) for s in b.statements)]
    assert parked
    assert not set(parked) & reachable


# -- taint propagation ------------------------------------------------


def _lint_source(tmp_path, source, select=("HL004",), name="mod.py"):
    target = tmp_path / name
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint([str(target)], LintConfig(select=tuple(select)))


def test_taint_joins_at_merge_points(tmp_path):
    """A value that is secret on only one branch is secret after the
    join — the lattice join is a union, not an intersection."""
    result = _lint_source(tmp_path, """
        import logging

        logger = logging.getLogger(__name__)

        def leak(session_key, flag):
            if flag:
                x = session_key
            else:
                x = b"public-banner"
            logger.info("state %s", x)
    """)
    assert [f.rule_id for f in result.active] == ["HL004"]


def test_sanitizer_kills_taint(tmp_path):
    """len()/bool() return no key material: their results are clean
    even when the argument was secret."""
    result = _lint_source(tmp_path, """
        import logging

        logger = logging.getLogger(__name__)

        def fine(session_key):
            n = len(session_key)
            logger.info("key length %d", n)
            return n
    """)
    assert result.findings == []


def test_taint_flows_through_renames_and_containers(tmp_path):
    result = _lint_source(tmp_path, """
        def leak(session_key):
            alias = session_key
            wrapped = [alias]
            return f"state={wrapped}"
    """)
    assert [f.rule_id for f in result.active] == ["HL004"]


def test_loop_taint_reaches_fixpoint(tmp_path):
    """Taint introduced on iteration N must be visible on iteration
    N+1 — requires iterating the loop body to a fixpoint."""
    result = _lint_source(tmp_path, """
        import logging

        logger = logging.getLogger(__name__)

        def leak(session_key, rounds):
            x = b"clean"
            for _ in range(rounds):
                logger.info("round %s", x)
                x = session_key
    """)
    assert [f.rule_id for f in result.active] == ["HL004"]


# -- interprocedural analysis ----------------------------------------


INTERPROC = str(FIXTURES / "secret_flow_interproc.py")


def test_flow_hl004_follows_a_secret_across_two_calls():
    """A secret crossing two function boundaries into a log sink —
    no secret name at the sink — is flagged once, with its path."""
    result = run_lint([INTERPROC], LintConfig(select=("HL004",)))
    assert len(result.active) == 1
    (finding,) = result.active
    assert "session_key" in finding.message
    assert "crosses 2 function boundaries" in finding.message
    assert "relay" in finding.message and "emit" in finding.message


def test_flow_hl004_findings_on_the_single_function_fixture():
    """One finding per leaking line of the fixture, nothing else."""
    violation = str(FIXTURES / "secret_log_violation.py")
    flow = {(f.line, f.rule_id)
            for f in run_lint([violation],
                              LintConfig(select=("HL004",))).active}
    assert flow == {(9, "HL004"), (10, "HL004"), (11, "HL004"),
                    (12, "HL004")}


def test_param_sink_fires_once_per_call_site(tmp_path):
    result = _lint_source(tmp_path, """
        def log_it(value):
            return f"v={value}"

        def one(session_key):
            return log_it(session_key)

        def two(other_secret):
            return log_it(other_secret)

        def harmless(banner):
            return log_it(banner)
    """)
    assert len(result.active) == 2
    assert {f.rule_id for f in result.active} == {"HL004"}


# -- cross-file summaries --------------------------------------------


def _write(tmp_path, name, source):
    (tmp_path / name).write_text(textwrap.dedent(source),
                                 encoding="utf-8")


def test_editing_a_callee_invalidates_its_callers(tmp_path):
    """Summaries flow callee -> caller: caller.py is byte-identical
    across the two runs, but the edit to util.py clears its finding
    (every run analyses the whole scanned set; nothing is cached)."""
    _write(tmp_path, "util.py", """
        def describe(value):
            return f"v={value}"
    """)
    _write(tmp_path, "caller.py", """
        from util import describe

        def leak(session_key):
            return describe(session_key)
    """)
    config = LintConfig(select=("HL004",))
    before = run_lint([str(tmp_path)], config)
    assert [Path(f.path).name for f in before.active] == ["caller.py"]

    _write(tmp_path, "util.py", """
        def describe(value):
            return "opaque"
    """)
    assert run_lint([str(tmp_path)], config).active == []


# -- HL006 partial-tree note ------------------------------------------


def test_hl006_partial_scan_is_a_note_not_an_error():
    """Linting wire.py alone from a package with unscanned siblings
    explains itself instead of failing the gate."""
    result = run_lint(["src/repro/core/wire.py"],
                      LintConfig(select=("HL006",)))
    assert result.active == []
    assert len(result.notes) == 1
    assert "partial scan" in result.notes[0].message


def test_hl006_complete_scan_still_errors():
    """The nodispatch fixture directory IS the whole tree, so the
    missing dispatch table stays an error."""
    result = run_lint([str(FIXTURES / "wire_nodispatch")],
                      LintConfig(select=("HL006",)))
    assert len(result.active) == 1
    assert "no *_DISPATCH table" in result.active[0].message
