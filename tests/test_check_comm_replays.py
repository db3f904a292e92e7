"""Every COMM replay, pinned: the protocol interpreter's oracle.

``tests/goldens/comm_replays.json`` records each ``(program, size)``
replay of the COMM fixtures, the live tree (``apps``, ``synthetic``,
``vmpi``) and the frozen analyser corpus under ``benchmarks/perf``:
the verdicts, whether the replay approximated, why it gave up, and
each rank interpreter's final step count.  The steps count every
statement and expression node the interpreter evaluated or charged by
a summarised twin iteration (a loop iteration that repeats its
predecessor posts its ops again instead of evaluating its body), so a
change that evaluates a node twice (or skips one) shows here even when
no verdict moves.  Regenerate with
``PYTHONPATH=src python tests/regen_goldens.py comm_replays`` only
when a change is meant to move a replay, and list each moved entry.
"""

import ast
import inspect
import json
from pathlib import Path

import pytest

from repro.check import protocol
from repro.check.protocol import _EVAL, _Interp
from tests.regen_goldens import comm_replay_records, comm_replay_trees

GOLDEN = Path(__file__).parent / "goldens" / "comm_replays.json"


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    return comm_replay_trees(tmp_path_factory.mktemp("comm_replays"))


@pytest.mark.parametrize("tree", ["fixtures", "live", "corpus"])
def test_comm_replays_match_golden(tree, trees):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[tree]
    actual = comm_replay_records(trees[tree])

    def key(record):
        return record["relpath"], record["program"], record["size"]

    assert [key(r) for r in actual] == [key(r) for r in expected]
    moved = [f"{key(old)}: {old} -> {new}"
             for old, new in zip(expected, actual) if old != new]
    assert not moved, "\n".join(moved)


def test_expressions_evaluate_with_plain_calls():
    """One evaluator, and no expression handler is a generator: only
    the statement executor suspends a rank program."""
    assert not inspect.isgeneratorfunction(_Interp.eval)
    assert not any(inspect.isgeneratorfunction(handler)
                   for handler in _EVAL.values())


def test_dist_cg_loop_is_summarised(trees, monkeypatch):
    """The frozen corpus's ``dist_cg`` CG loop unrolls to the cap (64
    iterations) on every rank; once an iteration repeats its
    predecessor the rest are summarised.  Counted, not timed: a change
    that quietly stops summarising fails here, not in ``check_cold``'s
    noise."""
    (tree,) = [tree for relpath, tree in trees["corpus"]
               if relpath.endswith("apps/lattice/distributed.py")]
    (cg,) = [fn for fn in tree.body if getattr(fn, "name", "") == "dist_cg"]
    (loop,) = [stmt for stmt in cg.body if isinstance(stmt, ast.For)]
    entries = {}
    exec_block = _Interp.exec_block

    def counted(self, stmts, env):
        if stmts is loop.body:
            entries[self] = entries.get(self, 0) + 1
        return exec_block(self, stmts, env)

    monkeypatch.setattr(_Interp, "exec_block", counted)
    for _ in protocol._replays(trees["corpus"], protocol.DEFAULT_SIZES):
        pass
    assert len(entries) == sum(protocol.DEFAULT_SIZES)
    assert max(entries.values()) <= 8, sorted(entries.values())
