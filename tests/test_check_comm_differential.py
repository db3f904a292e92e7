"""The differential oracle: static COMM verdicts vs the real engine.

The contract the COMM5xx family rests on:

* every program the pass flags **COMM503** actually deadlocks in the
  reference step scheduler (:mod:`tests.vmpi_reference`) at the flagged
  rank count -- the static deadlock verdict is never a false positive;
* collective-alignment verdicts (COMM501/502/505) correspond to an
  engine error (deadlock or collective mismatch) at runtime;
* programs the pass reports clean -- the fixture control group and
  every real app/synthetic kernel it can resolve -- run to completion;
* whatever the step scheduler does with a program, the production
  engine does too: same error text, or the same canonical result.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from repro.check.protocol import analyze_modules
from repro.cluster import juwels_booster
from repro.units import MIB
from repro.vmpi import Machine, run_spmd
from repro.vmpi.collectives import (
    CollectiveMismatchError,
    DeadlockError,
    VmpiError,
)
from tests.test_vmpi_job import bisection_per_rank
from tests.vmpi_reference import run_reference

FIXTURES = Path(__file__).parent / "fixtures" / "comm"


def _load_module(path: Path):
    spec = importlib.util.spec_from_file_location(
        f"comm_fixture_{path.stem}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _fixture_findings():
    modules = [(p.name, ast.parse(p.read_text()))
               for p in sorted(FIXTURES.glob("*.py"))]
    return analyze_modules(modules)


FINDINGS = _fixture_findings()


def _run_on_both(program, nranks: int, args=()):
    """The step scheduler's outcome (result or raised error), after
    checking that the production engine's outcome is the same."""
    machine = Machine.on(juwels_booster(), nranks)
    outcomes = []
    for run in (run_reference, run_spmd):
        try:
            outcomes.append(run(program, machine=machine, args=args))
        except VmpiError as exc:
            outcomes.append(exc)
    step, production = outcomes
    if isinstance(step, VmpiError):
        assert type(production) is type(step)
        assert str(production) == str(step)
        raise step
    assert production.canonical() == step.canonical()
    return step


def _run_fixture(relpath: str, program: str, nranks: int):
    mod = _load_module(FIXTURES / relpath)
    return _run_on_both(getattr(mod, program), nranks)


# -- COMM503: every static deadlock is a real deadlock -----------------------

DEADLOCKS = [f for f in FINDINGS if f.rule_id == "COMM503"]


def test_corpus_contains_deadlock_verdicts():
    assert len(DEADLOCKS) >= 2


@pytest.mark.parametrize(
    "finding", DEADLOCKS,
    ids=[f"{f.program}-n{f.nranks}" for f in DEADLOCKS])
def test_every_comm503_fixture_deadlocks_in_step_engine(finding):
    with pytest.raises(DeadlockError):
        _run_fixture(finding.program_relpath, finding.program,
                     finding.nranks)


# -- COMM501/502/505: collective misalignment fails at runtime ---------------

MISALIGNED = [f for f in FINDINGS
              if f.rule_id in ("COMM501", "COMM502", "COMM505")]


@pytest.mark.parametrize(
    "finding", MISALIGNED,
    ids=[f"{f.rule_id}-{f.program}" for f in MISALIGNED])
def test_collective_verdicts_fail_in_step_engine(finding):
    with pytest.raises((DeadlockError, CollectiveMismatchError)):
        _run_fixture(finding.program_relpath, finding.program,
                     finding.nranks)


# -- control group: clean and warning-only programs run clean ----------------

CLEAN_CASES = [
    ("clean_ring.py", "ring_shift"),
    ("clean_ring.py", "staged_pipeline"),
    ("clean_ring.py", "rooted_round_trip"),
    # COMM504 is a warning, not an error: matching falls back to
    # posting order but the programs complete
    ("tag_collision.py", "p2p_tag_reuse"),
    ("tag_collision.py", "exchange_tag_reuse"),
]


@pytest.mark.parametrize("relpath,program", CLEAN_CASES,
                         ids=[f"{p}" for _, p in CLEAN_CASES])
@pytest.mark.parametrize("nranks", [2, 3, 5])
def test_clean_fixtures_complete(relpath, program, nranks):
    result = _run_fixture(relpath, program, nranks)
    assert result.elapsed >= 0.0


def test_clean_fixtures_have_no_error_findings():
    clean = {f.rule_id for f in FINDINGS
             if f.program_relpath == "clean_ring.py"}
    assert clean == set()


# -- regression: the linktest spectator-barrier fix --------------------------

@pytest.mark.parametrize("nranks", [2, 3, 4, 5])
def test_linktest_bisection_completes_at_odd_rank_counts(nranks):
    """The odd rank out used to post one barrier against everyone
    else's two, deadlocking the stop barrier at odd rank counts --
    found by COMM501, fixed by making the spectator post the same
    barrier sequence.  LinkTest is a job program now; this is its
    generator as it was, kept verbatim."""
    result = _run_on_both(bisection_per_rank, nranks, args=(16 * MIB, 2))
    assert result.elapsed > 0.0
