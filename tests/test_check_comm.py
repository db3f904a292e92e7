"""COMM5xx protocol-verification tests: extraction, replay verdicts,
goldens, filtering, and the clean-at-HEAD acceptance criterion."""

import ast
import inspect
import json
import textwrap
from pathlib import Path

import pytest

from repro.check import (
    Analyzer,
    analyze_modules,
    load_baseline,
    rank_programs,
    render_json,
    render_sarif,
)
from repro.check.protocol import (
    COMM_METHODS,
    DEFAULT_SIZES,
    EAGER_LIMIT,
    unresolved_replays,
)
from repro.check.rules import expand_rule_prefixes, rule_ids
from repro.check.rules.comm import ID_DESCRIPTIONS, ID_SEVERITY
from repro.vmpi.comm import Comm
from repro.vmpi.engine import VmpiEngine

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures" / "comm"
GOLDEN_DIR = Path(__file__).parent / "goldens"

COMM_IDS = tuple(sorted(ID_SEVERITY))


def analyze_source(source: str, relpath: str = "prog.py",
                   sizes=DEFAULT_SIZES):
    tree = ast.parse(textwrap.dedent(source))
    return analyze_modules([(relpath, tree)], sizes=sizes)


# -- model/engine contracts --------------------------------------------------

def test_comm_methods_match_facade_signatures():
    """The introspection table the static pass binds against must
    mirror the real Comm facade, parameter for parameter."""
    for name, spec in COMM_METHODS.items():
        method = getattr(Comm, name)
        sig = inspect.signature(method)
        params = [p for p in sig.parameters.values()
                  if p.name != "self"]
        assert tuple(p.name for p in params) == spec["params"], name
        defaults = {p.name: p.default for p in params
                    if p.default is not inspect.Parameter.empty}
        assert defaults == spec["defaults"], name


def test_eager_limit_mirrors_engine():
    """``check`` never imports vmpi, so its copy of the limit is a
    source the incremental cache fingerprints; this keeps it true."""
    assert EAGER_LIMIT == VmpiEngine.EAGER_LIMIT


def test_comm_ids_registered():
    ids = rule_ids()
    for rid in COMM_IDS:
        assert rid in ids
    assert set(ID_DESCRIPTIONS) == set(ID_SEVERITY)


# -- extraction --------------------------------------------------------------

def test_rank_program_detection():
    tree = ast.parse(textwrap.dedent("""
        def prog(comm, n):
            yield comm.barrier()

        def helper(comm):
            return comm.size  # not a generator

        def other(x):
            yield x  # first arg is not a communicator

        def annotated(c: Comm):
            yield c.barrier()
    """))
    names = [fn.name for fn in rank_programs(tree)]
    assert names == ["prog", "annotated"]


def test_skeleton_follows_yield_from_helpers():
    # the helper's parameter is not named ``comm``, so it is not a
    # standalone rank program -- only the inlined call sees the bug
    findings = analyze_source("""
        def half_barrier(c):
            if c.rank == 0:
                yield c.barrier()

        def prog(comm):
            yield from half_barrier(comm)
            yield comm.compute(flops=1.0)
    """)
    assert [f.rule_id for f in findings] == ["COMM501"]
    # the finding anchors at the collective inside the helper
    assert findings[0].line == 4
    assert findings[0].program == "prog"


def test_unresolvable_programs_stay_quiet():
    # communication under a rank-dependent unproven branch is beyond
    # the model: no findings, no crashes (exchange results are opaque)
    findings = analyze_source("""
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            (back,) = yield comm.exchange(sends=((right, 1.0),),
                                          recvs=(left,), tag=1)
            if back:
                yield comm.barrier()
    """)
    assert findings == []


def test_out_of_range_peer_is_not_a_protocol_bug():
    # xor partners fall outside the communicator at non-power-of-two
    # sizes; the facade raises at construction (a crash, not a
    # deadlock), so the pass must not report it
    findings = analyze_source("""
        def prog(comm):
            peer = comm.rank ^ 1
            yield comm.send(peer, 1.0, tag=1)
            back = yield comm.recv(peer, tag=1)
    """, sizes=(3,))
    assert findings == []


# -- verdicts ----------------------------------------------------------------

def test_comm501_divergent_collective():
    findings = analyze_source("""
        def prog(comm):
            if comm.rank < comm.size - 1:
                yield comm.barrier()
    """)
    assert [f.rule_id for f in findings] == ["COMM501"]
    assert findings[0].nranks == 2


def test_comm502_order_mismatch():
    findings = analyze_source("""
        def prog(comm):
            if comm.rank == 0:
                yield comm.barrier()
                yield comm.allreduce(1.0)
            else:
                yield comm.allreduce(1.0)
                yield comm.barrier()
    """)
    assert [f.rule_id for f in findings] == ["COMM502"]


def test_comm503_recv_cycle():
    findings = analyze_source("""
        def prog(comm):
            left = (comm.rank - 1) % comm.size
            right = (comm.rank + 1) % comm.size
            token = yield comm.recv(left, tag=1)
            yield comm.send(right, token, tag=1)
    """)
    assert [f.rule_id for f in findings] == ["COMM503"]
    assert any("wait-for cycle" in f.message for f in findings)


def test_comm503_rendezvous_head_to_head():
    # proven-large payloads block; symmetric sends deadlock
    findings = analyze_source("""
        from repro.vmpi import Phantom

        def prog(comm):
            peer = (comm.rank + 1) % 2
            yield comm.send(peer, Phantom(1 << 20), tag=2)
            back = yield comm.recv(peer, tag=2)
    """, sizes=(2,))
    assert [f.rule_id for f in findings] == ["COMM503"]


def test_eager_sends_do_not_deadlock():
    # same shape, small payload: eager completes locally, no deadlock
    findings = analyze_source("""
        def prog(comm):
            peer = (comm.rank + 1) % 2
            yield comm.send(peer, 1.0, tag=2)
            back = yield comm.recv(peer, tag=2)
    """, sizes=(2,))
    assert findings == []


def test_comm504_tag_collision_in_batch():
    findings = analyze_source("""
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            reqs = yield (comm.isend(right, 1.0, tag=9),
                          comm.isend(right, 2.0, tag=9),
                          comm.irecv(left, tag=9),
                          comm.irecv(left, tag=9))
            yield comm.waitall(reqs)
    """)
    assert "COMM504" in {f.rule_id for f in findings}
    assert all(f.rule_id == "COMM504" for f in findings)


def test_comm505_rank_dependent_root():
    findings = analyze_source("""
        def prog(comm):
            yield comm.reduce(1.0, root=comm.rank % 2)
    """)
    assert [f.rule_id for f in findings] == ["COMM505"]


def test_comm506_orphan_recv():
    findings = analyze_source("""
        def prog(comm):
            if comm.rank == 0:
                yield comm.recv(1, tag=5)
    """)
    assert [f.rule_id for f in findings] == ["COMM506"]


def test_comm506_orphan_send():
    findings = analyze_source("""
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, 7.0, tag=6)
            yield comm.barrier()
    """)
    assert [f.rule_id for f in findings] == ["COMM506"]


def test_clean_ring_is_quiet():
    findings = analyze_source("""
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            token = yield comm.sendrecv(right, 1.0, left, tag=2)
            total = yield comm.allreduce(token)
            yield comm.barrier()
    """)
    assert findings == []


def test_split_collectives_are_tracked():
    # divergence *within* a derived communicator is still caught:
    # at size 4 the even subgroup is {0, 2} but only rank 0 posts
    findings = analyze_source("""
        def prog(comm):
            sub = yield comm.split(comm.rank % 2)
            if comm.rank < 2:
                yield sub.barrier()
    """, sizes=(4,))
    assert [f.rule_id for f in findings] == ["COMM501"]


def test_split_clean_subgroups():
    findings = analyze_source("""
        def prog(comm):
            sub = yield comm.split(comm.rank % 2)
            total = yield sub.allreduce(1.0)
            yield comm.barrier()
    """)
    assert findings == []


def test_approximate_replays_suppress_exact_verdicts():
    # unknown loop bounds poison exact traces: COMM503/COMM506 are
    # suppressed, collective-alignment verdicts are not
    findings = analyze_source("""
        def prog(comm, rounds):
            for _ in range(rounds):
                yield comm.send(0, 1.0, tag=1)
            if comm.rank == 0:
                yield comm.barrier()
    """)
    assert [f.rule_id for f in findings] == ["COMM501"]


def test_capped_comprehension_is_unknown_not_truncated():
    # every rank reaches the barrier; a comprehension cut at the unroll
    # cap but reported exact made n 256, so rank 1 skipped it (COMM501)
    assert analyze_source("""
        def prog(comm):
            n = len([i for i in range(300)])
            if comm.rank == 0 or n == 300:
                yield comm.barrier()
    """) == []
    # under the cap the comprehension still folds exactly
    assert [f.rule_id for f in analyze_source("""
        def prog(comm):
            n = len([i for i in range(200)])
            if comm.rank == 0 or n == 300:
                yield comm.barrier()
    """)] == ["COMM501"]


def test_nested_yields_resume_where_they_suspended():
    # a yield inside an attribute, a call argument and a conditional
    # expression: each post happens once, in order, and its result
    # flows into the enclosing expression
    findings = analyze_source("""
        def helper(c):
            total = yield c.allreduce(1.0)
            return total

        def prog(comm):
            n = len((yield comm.allgather(comm.rank)))
            n = n + (yield from helper(comm))
            peer = (yield comm.bcast(comm.size - 1)) if n else 0
            if comm.rank == peer and n == 2 * comm.size:
                yield comm.barrier()
    """)
    assert [(f.rule_id, f.line) for f in findings] == [("COMM501", 11)]


def test_findings_carry_program_provenance():
    findings = analyze_source("""
        def prog(comm):
            if comm.rank == 0:
                yield comm.barrier()
    """)
    (f,) = findings
    assert f.program == "prog"
    assert f.trace[0].startswith("program prog (prog.py:")
    assert f.trace[1] == f"nranks={f.nranks}"


# -- fixture corpus + goldens ------------------------------------------------

@pytest.fixture(scope="module")
def fixture_report():
    return Analyzer(only=expand_rule_prefixes(["COMM"])).run(
        FIXTURES, rel_base=FIXTURES)


def test_fixture_corpus_covers_every_rule_id(fixture_report):
    seen = {f.rule for f in fixture_report.active}
    assert seen == set(COMM_IDS)


def test_fixture_json_matches_golden(fixture_report):
    golden = (GOLDEN_DIR / "comm_fixture.json").read_text()
    assert render_json(fixture_report, strict=True) == golden


def test_fixture_sarif_matches_golden(fixture_report):
    golden = (GOLDEN_DIR / "comm_fixture.sarif").read_text()
    assert render_sarif(fixture_report) == golden


def test_fixture_sarif_is_valid(fixture_report):
    doc = json.loads(render_sarif(fixture_report))
    assert doc["version"] == "2.1.0"
    (run,) = doc["runs"]
    rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert set(COMM_IDS) <= rules


# -- family filtering --------------------------------------------------------

def test_expand_rule_prefixes():
    assert expand_rule_prefixes(["COMM"]) == list(COMM_IDS)
    assert expand_rule_prefixes(["COMM503"]) == ["COMM503"]
    assert expand_rule_prefixes(["UNIT3", "COMM50"]) == \
        [rid for rid in rule_ids() if rid.startswith("UNIT3")] + \
        list(COMM_IDS)
    with pytest.raises(ValueError):
        expand_rule_prefixes(["NOPE"])


def test_select_family_reaches_analyzer():
    report = Analyzer(only=expand_rule_prefixes(["COMM"])).run(
        FIXTURES, rel_base=FIXTURES)
    assert {f.rule for f in report.active} == set(COMM_IDS)
    # non-COMM rules did not run: fixtures contain no other findings
    assert all(f.rule.startswith("COMM") for f in report.active)


def test_select_does_not_report_filtered_baselines_stale():
    # entries of rules that did not run cannot have matched anything;
    # a family-filtered run must not flag them for pruning
    baseline = load_baseline(REPO_ROOT / "check-baseline.json")
    assert baseline.entries, "expected a non-empty committed baseline"
    report = Analyzer(baseline=baseline,
                      only=expand_rule_prefixes(["COMM"])).run(
        REPO_ROOT / "src" / "repro", rel_base=REPO_ROOT)
    assert report.unused_baseline == []


def test_select_comm_cold_vs_warm_identical(tmp_path):
    from repro.exec import DiskCache

    cache = DiskCache(tmp_path / "cache")
    only = expand_rule_prefixes(["COMM"])
    cold = Analyzer(only=only).run(FIXTURES, rel_base=FIXTURES,
                                   cache=cache)
    warm = Analyzer(only=only).run(FIXTURES, rel_base=FIXTURES,
                                   cache=cache)
    assert render_json(cold, strict=True) == \
        render_json(warm, strict=True)
    assert render_sarif(cold) == render_sarif(warm)


# -- acceptance: the repository itself --------------------------------------

def test_repo_has_zero_comm_findings_at_head():
    """COMM5xx acceptance criterion: apps/ and synthetic/ are clean
    (the linktest spectator-barrier bug is fixed, nothing baselined)."""
    baseline = load_baseline(REPO_ROOT / "check-baseline.json")
    analyzer = Analyzer(baseline=baseline,
                        only=expand_rule_prefixes(["COMM"]))
    report = analyzer.run(REPO_ROOT / "src" / "repro",
                          rel_base=REPO_ROOT)
    assert not report.active, [f.render() for f in report.active]
    assert not any(f.rule.startswith("COMM")
                   for f in report.baselined)


def test_every_rank_program_of_the_repo_is_replayed():
    """Unresolvable programs stay quiet, so a construct the interpreter
    stops modelling silently drops their protocol check: PR 12's
    ``comm._interned`` probe in ``halo_exchange_op`` cost 40 of the 148
    (program, size) replays -- every halo program -- unnoticed.  Pinned
    at zero: each rank program under ``apps/``, ``synthetic/`` and
    ``vmpi/`` replays at every default size."""
    src = REPO_ROOT / "src"
    modules = [(path.relative_to(src).as_posix(),
                ast.parse(path.read_text(encoding="utf-8")))
               for sub in ("apps", "synthetic", "vmpi")
               for path in sorted((src / "repro" / sub).rglob("*.py"))]
    programs = {(relpath, fn.name) for relpath, tree in modules
                for fn in rank_programs(tree)}
    names = {name for _, name in programs}
    # the job programs (``repro.vmpi.job``) left the replay set: their
    # protocol is tests/test_vmpi_job.py's oracle against the per-rank
    # generators they replaced
    assert not JOB_PROGRAMS & names
    assert len(programs) == 15
    # Amber is the canary of a step hoisted into one batch
    assert {"halo_exchange", "amber_timing_program",
            "juqcs_program"} <= names
    assert unresolved_replays(modules) == []


#: the timing programs that are job programs, not rank programs
JOB_PROGRAMS = {f"{app}_timing_program" for app in (
    "icon", "megatron", "mmoclip", "resnet", "qe", "chroma", "dynqcd",
    "nekrs", "nastja", "picongpu", "parflow", "soma", "arbor", "juqcs",
    "gromacs", "hpcg")} | {
    "bisection_program"}


def test_unresolved_replays_name_program_size_and_reason():
    source = """
        def prog(comm):
            yield comm.barrier()
            yield comm.no_such_method()
    """
    tree = ast.parse(textwrap.dedent(source))
    assert analyze_modules([("prog.py", tree)], sizes=(2, 3)) == []
    assert unresolved_replays([("prog.py", tree)], sizes=(2, 3)) == [
        ("prog.py", "prog", size,
         "_Unresolvable: unknown Comm attribute 'no_such_method'")
        for size in (2, 3)]
