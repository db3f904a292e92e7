"""Regenerate the golden snapshots under ``tests/goldens/``.

Usage (from the repository root)::

    PYTHONPATH=src python tests/regen_goldens.py [comm_replays]

Only run this when a change *intentionally* shifts paper-facing
numbers (Table II FOMs, scaling curves); commit the regenerated JSON
together with an explanation of why the numbers moved.  The golden
tests (``tests/test_golden_regression.py``) compare against these
snapshots with a small relative tolerance so incidental float noise
does not fail them, but any real shift does.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: The strong-scaling curve snapshotted alongside the FOM table.
SCALING_BENCHMARK = "Arbor"


def build_telemetry_tracer(subscriber=None):
    """The deterministic trace behind the telemetry golden files.

    A :class:`~repro.telemetry.ManualClock` stamps the timestamps, the
    span tree is fixed (driver -> benchmark, plus a retroactive task
    span) and a two-rank vmpi cost table mimics an SPMD run -- so the
    JSONL and Chrome exports are byte-stable across regenerations.
    """
    from repro.telemetry import ManualClock, Tracer, emit_vmpi

    class _RankTrace:
        def __init__(self, compute, comm):
            self.compute = compute
            self.comm = comm

    class _Spmd:
        def __init__(self, traces):
            self.traces = traces

    tracer = Tracer(clock=ManualClock(start=0.0, tick=0.25))
    if subscriber is not None:
        tracer.subscribe(subscriber)
    spmd = _Spmd([
        _RankTrace({"channels": 1.5, "cable": 1.0}, {"exchange": 0.25}),
        _RankTrace({"channels": 1.25, "cable": 1.125}, {"exchange": 0.375}),
    ])
    with tracer.span("suite.run_all", kind="driver", benchmarks=1):
        with tracer.span("run:Arbor", kind="benchmark", benchmark="Arbor"):
            emit_vmpi(tracer, "Arbor", 2, spmd)
        tracer.add_span(
            "task:run:Arbor", 0.5, 1.0, attrs={
                "kind": "task", "index": 0, "label": "run:Arbor",
                "status": "ok", "cache": "miss", "attempts": 1,
                "key": None, "error": None})
    return tracer


#: The benchmark set of the chaos equivalence golden.
CHAOS_BENCHMARKS = ("Arbor", "JUQCS", "HPL", "STREAM")


def chaos_plan():
    """The canned fault plan behind the chaos goldens.

    Authored explicitly (not seed-generated) so the exercised paths
    are obvious: Arbor sails through, JUQCS recovers after one
    injected failure, HPL after two, and STREAM exhausts the retry
    budget of 2 and lands in the journal as an explicit error.  The
    cluster and link faults only feed the trace's fault lane here.
    """
    from repro.faults import (
        FaultPlan,
        LinkFault,
        NodeFault,
        StragglerFault,
        TaskFaultRule,
    )

    return FaultPlan(
        seed=2024,
        tasks=(
            TaskFaultRule(match="run:JUQCS", attempts=(1,)),
            TaskFaultRule(match="run:HPL", attempts=(1, 2)),
            TaskFaultRule(match="run:STREAM", attempts=(1, 2, 3)),
        ),
        nodes=(NodeFault(node=3, at=10.0, duration=25.0),),
        stragglers=(StragglerFault(node=5, factor=2.0, at=0.0,
                                   duration=40.0),),
        links=(LinkFault(link="inter_cell", factor=0.5),),
    )


def build_chaos_artifacts(workers: int = 2):
    """Run the four-benchmark suite under the canned chaos plan.

    Returns ``(journal, plan)``; shared between golden regeneration
    and the byte-stability tests so both see the same run recipe.
    """
    from repro.core import load_suite
    from repro.exec import BackoffPolicy, CircuitBreaker, ExecutionEngine
    from repro.faults import FaultInjector
    from repro.telemetry import ManualClock, Tracer

    plan = chaos_plan()
    engine = ExecutionEngine(
        workers=workers, backend="thread", cache=None, retries=2,
        tracer=Tracer(clock=ManualClock(start=0.0, tick=0.25)),
        faults=FaultInjector(plan), backoff=BackoffPolicy(seed=plan.seed),
        breaker=CircuitBreaker())
    suite = load_suite()
    prev = suite.engine
    suite.engine = engine
    try:
        suite.run_all(list(CHAOS_BENCHMARKS))
    finally:
        suite.engine = prev
    return engine.journal, plan


def regenerate_chaos_goldens() -> dict[str, Path]:
    """The chaos equivalence artifacts: canonical journal + trace.

    Both are rendered from the canonical journal / the declarative
    plan, so they are byte-stable across regenerations *and* worker
    counts (the chaos determinism pin).
    """
    from repro.faults import write_chaos_trace

    journal, plan = build_chaos_artifacts()
    journal_path = GOLDEN_DIR / "chaos_journal.jsonl"
    journal.canonical().to_jsonl(journal_path)
    trace_path = GOLDEN_DIR / "chaos_trace.json"
    write_chaos_trace(trace_path, journal, plan)
    return {"chaos_journal": journal_path, "chaos_trace": trace_path}


def regenerate_check_goldens() -> dict[str, Path]:
    """Static-analysis snapshots over the known-bad fixture tree.

    Both documents are deterministic: findings are sorted, paths are
    fixture-relative, and the reporters emit no timestamps -- so the
    golden comparison is byte-for-byte.
    """
    from repro.check import Analyzer, render_json, render_sarif

    fixtures = Path(__file__).parent / "fixtures" / "check"
    report = Analyzer().run(fixtures, rel_base=fixtures)
    sarif_path = GOLDEN_DIR / "check_fixture.sarif"
    sarif_path.write_text(render_sarif(report))
    json_path = GOLDEN_DIR / "check_fixture.json"
    json_path.write_text(render_json(report, strict=True))
    return {"check_sarif": sarif_path, "check_json": json_path}


def regenerate_comm_goldens() -> dict[str, Path]:
    """COMM5xx snapshots over the broken-rank-program fixtures.

    The fixture tree is analyzed with only the COMM family enabled, so
    the goldens isolate the protocol verdicts (including their
    inference traces).  The same fixtures feed the differential suite
    (``tests/test_check_comm_differential.py``), which replays them
    through the step engine.
    """
    from repro.check import Analyzer, render_json, render_sarif
    from repro.check.rules import expand_rule_prefixes

    fixtures = Path(__file__).parent / "fixtures" / "comm"
    report = Analyzer(only=expand_rule_prefixes(["COMM"])).run(
        fixtures, rel_base=fixtures)
    sarif_path = GOLDEN_DIR / "comm_fixture.sarif"
    sarif_path.write_text(render_sarif(report))
    json_path = GOLDEN_DIR / "comm_fixture.json"
    json_path.write_text(render_json(report, strict=True))
    return {"comm_sarif": sarif_path, "comm_json": json_path}


CORPUS_TARBALL = (Path(__file__).resolve().parent.parent / "benchmarks" /
                  "perf" / "corpus" / "repro-pr10.tar.gz")


def comm_replay_trees(workdir: Path) -> dict[str, list]:
    """The ``(relpath, tree)`` module lists ``comm_replays.json`` pins:
    the COMM fixtures, the live tree's rank-program packages and the
    frozen analyser corpus, which is extracted (read-only) into
    ``workdir``.  Relpaths are what the COMM rule or the live-tree test
    sees for each."""
    import ast
    import tarfile

    def parse(root: Path, paths) -> list:
        return [(path.relative_to(root).as_posix(),
                 ast.parse(path.read_text(encoding="utf-8")))
                for path in paths]

    fixtures = Path(__file__).parent / "fixtures" / "comm"
    src = Path(__file__).resolve().parent.parent / "src"
    corpus = workdir / "corpus"
    if not corpus.is_dir():
        with tarfile.open(CORPUS_TARBALL) as tar:
            tar.extractall(corpus, filter="data")
    return {
        "fixtures": parse(fixtures, sorted(fixtures.glob("*.py"))),
        "live": parse(src, [path for sub in ("apps", "synthetic", "vmpi")
                            for path in sorted((src / "repro" / sub)
                                               .rglob("*.py"))]),
        "corpus": parse(corpus, [
            path for path in sorted((corpus / "src" / "repro").rglob("*.py"))
            if "check/" not in path.relative_to(corpus).as_posix()]),
    }


def comm_replay_records(modules: list) -> list[dict]:
    """Every ``(program, size)`` replay of ``modules`` as it ends: its
    verdicts, whether it approximated, why it gave up, and each rank
    interpreter's step count (the work the interpreter did, node by
    node)."""
    from repro.check import protocol

    created = []

    class Recording(protocol._Interp):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    real, protocol._Interp = protocol._Interp, Recording
    records = []
    try:
        for relpath, fn, size, events, approx, gave_up in \
                protocol._replays(modules, protocol.DEFAULT_SIZES):
            # the rank interpreters come first; module-constant folding
            # creates its own interpreters lazily, later
            ranks, created[:] = created[:size], []
            records.append({
                "relpath": relpath, "program": fn.name, "size": size,
                "events": [[e.rule_id, e.relpath, e.line, e.message]
                           for e in events],
                "approx": approx, "gave_up": gave_up,
                "steps": [interp.steps for interp in ranks]})
    finally:
        protocol._Interp = real
    return records


def regenerate_comm_replay_goldens() -> dict[str, Path]:
    """Every COMM replay of the fixtures, the live tree and the frozen
    corpus, down to each rank's step count: the oracle of any change to
    the protocol interpreter (``tests/test_check_comm_replays.py``)."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        trees = comm_replay_trees(Path(tmp))
        doc = {name: comm_replay_records(modules)
               for name, modules in trees.items()}
    path = GOLDEN_DIR / "comm_replays.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return {"comm_replays": path}


def regenerate_rep_goldens() -> dict[str, Path]:
    """REP6xx snapshots over the reproducibility-taint fixtures.

    The fixture tree is analyzed with only the REP family enabled, so
    the goldens isolate the taint verdicts and their inference traces.
    The same fixtures feed the differential oracle
    (``tests/test_check_rep_differential.py``), which runs each one as
    a subprocess and asserts genuine byte-divergence (reruns, worker
    counts, ``PYTHONHASHSEED``) for every tainted fixture and byte
    identity for the clean control.
    """
    from repro.check import Analyzer, render_json, render_sarif
    from repro.check.rules import expand_rule_prefixes

    fixtures = Path(__file__).parent / "fixtures" / "rep"
    report = Analyzer(only=expand_rule_prefixes(["REP"])).run(
        fixtures, rel_base=fixtures)
    sarif_path = GOLDEN_DIR / "rep_fixture.sarif"
    sarif_path.write_text(render_sarif(report))
    json_path = GOLDEN_DIR / "rep_fixture.json"
    json_path.write_text(render_json(report, strict=True))
    return {"rep_sarif": sarif_path, "rep_json": json_path}


def regenerate() -> dict[str, Path]:
    from repro.core import load_suite

    suite = load_suite()
    GOLDEN_DIR.mkdir(exist_ok=True)

    foms = {name: suite.run(name).fom_seconds for name in suite.names()}
    foms_path = GOLDEN_DIR / "table2_foms.json"
    foms_path.write_text(json.dumps({
        "_meta": {
            "description": "Table II reference-node FOM time metrics "
                           "(seconds) of every registered benchmark",
            "regenerate": "PYTHONPATH=src python tests/regen_goldens.py",
        },
        "foms": foms,
    }, indent=2, sort_keys=True) + "\n")

    study = suite.strong_scaling_study(SCALING_BENCHMARK)
    curve_path = GOLDEN_DIR / "strong_scaling_curve.json"
    curve_path.write_text(json.dumps({
        "_meta": {
            "description": f"Fig. 2 strong-scaling curve of "
                           f"{SCALING_BENCHMARK} (nodes vs runtime "
                           f"seconds)",
            "regenerate": "PYTHONPATH=src python tests/regen_goldens.py",
        },
        "benchmark": SCALING_BENCHMARK,
        "reference_nodes": study.reference.nodes,
        "points": [[p.nodes, p.runtime] for p in study.points],
    }, indent=2, sort_keys=True) + "\n")

    from repro.telemetry import JsonlSink, write_chrome_trace

    trace_path = GOLDEN_DIR / "telemetry_trace.jsonl"
    with open(trace_path, "w", encoding="utf-8") as fh:
        tracer = build_telemetry_tracer(subscriber=JsonlSink(fh))
    chrome_path = GOLDEN_DIR / "telemetry_chrome.json"
    write_chrome_trace(chrome_path, tracer)

    return {"foms": foms_path, "curve": curve_path,
            "telemetry_trace": trace_path,
            "telemetry_chrome": chrome_path,
            **regenerate_chaos_goldens(),
            **regenerate_check_goldens(),
            **regenerate_comm_goldens(),
            **regenerate_comm_replay_goldens(),
            **regenerate_rep_goldens()}


#: targets that regenerate one golden family alone
TARGETS = {"comm_replays": regenerate_comm_replay_goldens}


if __name__ == "__main__":
    # ``regen_goldens.py comm_replays`` rewrites that family only
    for target in [TARGETS[name] for name in sys.argv[1:]] or [regenerate]:
        for kind, path in target().items():
            print(f"wrote {kind}: {path}")
    sys.exit(0)
