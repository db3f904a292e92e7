"""CLI conformance through ``main(argv)``: every execution command
prints the same bytes whatever the backend and cache state, and every
bad command line is one error line (or argparse usage) and exit 2 --
never a traceback.

The first slice of ROADMAP item 5's matrix: command x ``--backend`` x
{no cache, cold ``--cache-dir``, warm ``--cache-dir``}.  ``process``
cases run ``python -m repro`` in a fresh interpreter, so the parent
starts without any kernel imported and the workers rebuild benchmarks
from the pickled lazy factories.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = {
    "run": ["run", "STREAM"],
    "suite": ["suite", "--benchmarks", "Arbor,JUQCS,HPL,STREAM"],
    "fig2": ["fig2", "--apps", "Arbor"],
    "fig3": ["fig3", "--nodes", "8"],
}
BACKENDS = ["serial", "thread", "process"]
WORKERS = ["--workers", "2"]          # ``suite`` prints the count


def invoke(argv: list[str], backend: str, capsys) -> tuple[int, str]:
    """(exit code, stdout) of one invocation; ``process`` in a child."""
    argv = [*argv, *WORKERS, "--backend", backend]
    if backend == "process":
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv], capture_output=True,
            text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        return proc.returncode, proc.stdout
    capsys.readouterr()
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.fixture(scope="module")
def reference():
    """stdout of each command: serial backend, no cache."""
    return {}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("command", COMMANDS)
def test_backend_and_cache_state_never_change_stdout(
        command, backend, reference, tmp_path, capsys):
    argv = COMMANDS[command]
    if command not in reference:
        code, out = invoke([*argv, "--no-cache"], "serial", capsys)
        assert code == 0 and out
        reference[command] = out
    cache = ["--cache-dir", str(tmp_path / "cache")]
    for state, extra in (("no cache", ["--no-cache"]), ("cold", cache),
                         ("warm", cache)):
        code, out = invoke([*argv, *extra], backend, capsys)
        assert code == 0, (command, backend, state)
        assert out == reference[command], (command, backend, state)
    # ``run`` executes its one benchmark directly, not through the engine
    assert command == "run" or any((tmp_path / "cache").iterdir())


# -- bad command lines --------------------------------------------------------

UNKNOWN = "jubench: error: unknown benchmark(s): NOPE; see 'jubench list'\n"


@pytest.mark.parametrize("argv", [
    ["run", "NOPE"],
    ["describe", "NOPE"],
    ["suite", "--benchmarks", "STREAM,NOPE"],
    ["fig2", "--apps", "NOPE"],
    ["submit", "--direct", "--benchmarks", "NOPE"],
    ["chaos", "--benchmarks", "NOPE"],
], ids=lambda argv: argv[0])
def test_unknown_benchmark_is_one_line_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == UNKNOWN and captured.out == ""


def test_fig2_rejects_benchmarks_that_are_not_base_apps(capsys):
    assert main(["fig2", "--apps", "Arbor,STREAM"]) == 2
    assert capsys.readouterr().err == \
        "jubench: error: unknown Base app(s): STREAM; see 'jubench list'\n"


@pytest.mark.parametrize("argv, complaint", [
    (["fig3", "--nodes", "abc"], "'abc' is not a positive integer"),
    (["fig3", "--nodes", "8,0"], "'0' is not a positive integer"),
    (["run", "STREAM", "--nodes", "0"], "'0' is not a positive integer"),
    (["run", "STREAM", "--scale", "0"], "'0' is not in (0, 1]"),
    (["suite", "--scale", "1.5"], "'1.5' is not in (0, 1]"),
    (["submit", "--direct", "--scale", "x"], "'x' is not in (0, 1]"),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_bad_numbers_are_argparse_usage_errors(argv, complaint, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage: jubench")
    assert stderr.rstrip().endswith(complaint)


@pytest.mark.parametrize("argv", [
    ["run", "STREAM", "--retries", "-1"],
    ["suite", "--retries", "-1"],
    ["fig2", "--retries", "-1"],
    ["fig3", "--retries", "-1"],
    ["chaos", "--retries", "-1"],
    ["chaos", "--jobs", "-1"],
    ["regress", "DB", "--window", "1"],
    ["regress", "DB", "--sigma", "0"],
    ["regress", "DB", "--sigma", "nan"],
    ["regress", "DB", "--slack", "-0.1"],
    ["history", "DB", "--compact", "0"],
    ["history", "DB", "--last", "0"],
    ["history", "DB", "--last", "-1"],
    ["report", "DB", "--last", "0"],
], ids=" ".join)
def test_numbers_out_of_range_are_refused_by_the_parser(
        argv, tmp_path, capsys, monkeypatch):
    """A flag value outside the range the code needs is refused at parse
    time, naming the flag: not a traceback from ``ExecutionEngine``,
    ``RegressionDetector`` or ``HistoryStore.compact``, and not a
    ``--last`` that silently shows every row (0) or drops one (-1)."""
    from repro.history import HistoryStore

    db = tmp_path / "h.jsonl"
    store = HistoryStore.open(db)
    for i in range(3):
        store.record_and_append("STREAM", 1.0 + i, params={"nodes": 1})
    monkeypatch.chdir(tmp_path)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*")}
    argv = [str(db) if arg == "DB" else arg for arg in argv]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    flag = next(arg for arg in argv if arg.startswith("--"))
    assert "Traceback" not in captured.err and captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert errors[0].startswith(
        f"jubench {argv[0]}: error: argument {flag}: '{argv[-1]}' is not")
    assert {p: p.read_bytes() for p in tmp_path.rglob("*")} == before


@pytest.mark.parametrize("argv, complaint", [
    (["fig3", "--nodes", "937"],
     "Arbor cannot run on 937 nodes: JUWELS Booster has 936"),
    (["fig3", "--nodes", "8,5000"],
     "Arbor cannot run on 5000 nodes: JUWELS Booster has 936"),
    (["run", "STREAM", "--nodes", "5000"],
     "STREAM cannot run on 5000 nodes: JUWELS Booster has 936"),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_unplaceable_node_count_is_one_line_exit_2(
        argv, complaint, capsys, monkeypatch):
    """More nodes than the modelled system has: refused up front, before
    any kernel runs (not a ValueError traceback out of the first one)."""
    from repro.core.benchmark import Benchmark

    def never(*_args, **_kwargs):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(Benchmark, "run", never)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"jubench: error: {complaint}\n"
    assert captured.out == ""


@pytest.mark.parametrize("flag, name", [
    ("--journal", "journal.jsonl"),
    ("--trace-out", "trace.json"),       # Chrome export, written at the end
    ("--trace-out", "trace.jsonl"),      # streamed, opened up front
], ids=["journal", "chrome", "jsonl"])
@pytest.mark.parametrize("parent", ["missing", "file"])
@pytest.mark.parametrize("argv", [["suite"], ["fig3", "--nodes", "8,936"]],
                         ids=lambda argv: argv[0])
def test_unwritable_output_fails_before_any_benchmark_runs(
        argv, parent, flag, name, tmp_path, capsys, monkeypatch):
    """An output written after the run is checked before it: a missing
    parent directory (never created) or one that is a file is one error
    line, and no benchmark has run."""
    from repro.core.benchmark import Benchmark

    ran = []
    monkeypatch.setattr(Benchmark, "run", lambda *a, **kw: ran.append(a))
    where = tmp_path / "out"
    if parent == "file":
        where.write_text("")
    path = where / name
    assert main([*argv, flag, str(path)]) == 2
    captured = capsys.readouterr()
    why = "No such file or directory" if parent == "missing" \
        else "Not a directory"
    assert captured.err == f"jubench: error: [Errno " \
        f"{2 if parent == 'missing' else 20}] {why}: '{path}'\n"
    assert captured.out == "" and ran == []
    assert where.exists() == (parent == "file")


@pytest.mark.parametrize("case, code, why", [
    ("missing", 2, "No such file or directory"),
    ("file", 20, "Not a directory"),
    ("directory", 21, "Is a directory"),
])
@pytest.mark.parametrize("argv", [["run", "STREAM"], ["suite"]],
                         ids=lambda argv: argv[0])
def test_history_into_an_unusable_path_fails_before_any_benchmark_runs(
        argv, case, code, why, tmp_path, capsys, monkeypatch):
    """``--history`` follows the output-path policy of ``--journal`` and
    ``--trace-out``: refused before anything runs, no directory made."""
    from repro.core.benchmark import Benchmark

    ran = []
    monkeypatch.setattr(Benchmark, "run", lambda *a, **kw: ran.append(a))
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    path = {"missing": tmp_path / "nodir" / "sub" / "db.jsonl",
            "file": tmp_path / "file" / "db.jsonl",
            "directory": tmp_path / "dir"}[case]
    before = sorted(tmp_path.rglob("*"))
    assert main([*argv, "--history", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"jubench: error: [Errno {code}] {why}: '{path}'\n"
    assert captured.out == "" and ran == []
    assert sorted(tmp_path.rglob("*")) == before


def _spool(tmp_path, capsys):
    spool = tmp_path / "spool"
    assert main(["submit", "--spool", str(spool),
                 "--benchmarks", "STREAM"]) == 0
    capsys.readouterr()
    return spool


def _output_options() -> list[str]:
    """``"<subcommand> <flag>"`` for every option the parser declares as
    a file the command writes (argparse ``type=_output_path``), so a new
    writer flag is a new cell below without a test edit."""
    from repro.cli import _output_path, build_parser

    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    return sorted(f"{name} {action.option_strings[0]}"
                  for name, parser in commands.items()
                  for action in parser._actions
                  if action.type is _output_path)


def _writer_argv(name: str, tmp_path, capsys) -> list[str]:
    """A cheap, otherwise valid command line of subcommand ``name``."""
    if name == "history":
        from repro.history import HistoryStore

        db = tmp_path / "h.jsonl"
        HistoryStore.open(db).record_and_append("STREAM", 1.0,
                                                params={"nodes": 1})
        return ["history", str(db)]
    if name == "serve":
        return ["serve", "--spool", str(_spool(tmp_path, capsys))]
    return {"run": ["run", "STREAM"],
            "suite": ["suite", "--benchmarks", "STREAM"],
            "fig2": ["fig2", "--apps", "Arbor"],
            "fig3": ["fig3", "--nodes", "8"],
            "check": ["check", "--no-runtime"],
            "submit": ["submit", "--direct", "--benchmarks", "STREAM"],
            "chaos": ["chaos", "--benchmarks", "STREAM"]}[name]


def test_the_output_options_include_every_known_writer():
    assert {"check --output", "history --export", "submit --export",
            "serve --export", "serve --dispatch-log", "serve --results",
            "serve --trace-out", "chaos --journal-out", "chaos --trace-json",
            "chaos --save-plan", "run --journal", "run --trace-out",
            "run --history", "fig3 --history"} <= set(_output_options())
    assert not any(o.startswith("report ") for o in _output_options())


@pytest.mark.parametrize("case, code, why", [
    ("missing", 2, "No such file or directory"),
    ("directory", 21, "Is a directory"),
])
@pytest.mark.parametrize("command", [
    *_output_options(), "check --write-baseline --baseline"])
def test_whole_file_output_into_an_unusable_path_fails_up_front(
        command, case, code, why, tmp_path, capsys, monkeypatch):
    """A writer's path is refused before anything runs, in the user's
    words: the error names the path given, never the temp file the
    write would have gone through, and nothing is written.  The cells
    are the parser's output options, plus ``--baseline``, which is an
    output only under ``check --write-baseline``."""
    from repro.check import Analyzer
    from repro.core.benchmark import Benchmark

    ran = []
    monkeypatch.setattr(Benchmark, "run", lambda *a, **kw: ran.append(a))
    monkeypatch.setattr(Analyzer, "run", lambda *a, **kw: ran.append(a))
    name, *switches, flag = command.split()
    argv = [*_writer_argv(name, tmp_path, capsys), *switches]
    (tmp_path / "dir").mkdir()
    path = {"missing": tmp_path / "nodir" / "x.json",
            "directory": tmp_path / "dir"}[case]
    before = sorted(tmp_path.rglob("*"))
    assert main([*argv, flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"jubench: error: [Errno {code}] {why}: '{path}'\n"
    assert ".tmp" not in captured.err
    assert captured.out == "" and ran == []
    assert sorted(tmp_path.rglob("*")) == before


@pytest.fixture
def registered(monkeypatch):
    """Endpoints ``serve`` registered (none, when it fails up front)."""
    from repro.service import BenchmarkService

    seen = []
    monkeypatch.setattr(BenchmarkService, "register_endpoint",
                        lambda self, endpoint: seen.append(endpoint))
    return seen


@pytest.mark.parametrize("garbage", ["[]", "1", '"x"', "null"])
@pytest.mark.parametrize("lineno", [1, 2])
def test_serve_results_line_that_is_not_an_object_is_one_error_line(
        garbage, lineno, tmp_path, capsys, registered):
    spool = _spool(tmp_path, capsys)
    results = tmp_path / "r.jsonl"
    meta = '{"kind":"meta","schema":"repro.service/v1","version":1}\n'
    results.write_text((meta if lineno == 2 else "") + garbage + "\n")
    assert main(["serve", "--spool", str(spool),
                 "--results", str(results)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"jubench: error: {results}:{lineno}: ")
    assert "JSON object" in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert registered == []


@pytest.mark.parametrize("content, complaint", [
    ('{"schema": "repro.ser', "not JSON"),
    (b"\xff\xfe{", "not JSON"),
    ("[]", "task envelope must be a JSON object, got list"),
    ('{"schema": "nope/v0"}', "unsupported task envelope schema 'nope/v0'"),
    ('{"schema": "repro.service/v1", "client": "c", "benchmark": "STREAM",'
     ' "key": "k", "seq": []}', "int() argument"),
], ids=["torn", "not-utf8", "list", "schema", "field"])
def test_serve_malformed_spool_file_is_one_error_line(
        content, complaint, tmp_path, capsys, registered):
    spool = _spool(tmp_path, capsys)
    bad = spool / "zz-bad.json"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        bad.write_text(content)
    assert main(["serve", "--spool", str(spool)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"jubench: error: {bad}: {complaint}")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert registered == []


def test_the_whole_modelled_system_is_placeable(capsys):
    assert main(["run", "STREAM", "--nodes", "936"]) == 0
    assert "nodes     : 936" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["report", "history", "regress"])
def test_missing_or_directory_input_is_one_line_exit_2(
        command, tmp_path, capsys):
    missing = tmp_path / "deep" / "nothing.jsonl"
    for path, why in ((missing, "No such file or directory"),
                      (tmp_path, "Is a directory")):
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("jubench: error: ") and why in err
        assert str(path) in err and err.count("\n") == 1
    # a read-only command never creates the database it was asked for
    assert not missing.parent.exists()


@pytest.mark.parametrize("flag, complaint", [
    ("--rules", "unknown rule id(s): NOPE; known: "),
    ("--disable", "unknown rule id(s): NOPE; known: "),
    ("--select", "rule prefix 'NOPE' matches no known rule id"),
    ("--ignore", "rule prefix 'NOPE' matches no known rule id"),
    ("--explain", "--explain: unknown rule id NOPE; known: "),
])
def test_check_unknown_rule_is_one_line_exit_2(flag, complaint, capsys):
    """All four rule filters and --explain fail alike, before anything
    is analysed."""
    assert main(["check", flag, "NOPE"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"jubench: error: {complaint}")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("content", [
    None,                                   # named, but not there
    '{"entries": [',                        # torn JSON
    "[1, 2]",                               # JSON, not a baseline
    '{"entries": [{"rule": "DET001"}]}',    # an entry without its keys
], ids=["missing", "torn", "list", "keys"])
def test_check_bad_baseline_is_one_line_exit_2(content, tmp_path, capsys):
    """A baseline the user names must exist and parse: silently using
    an empty one would turn every baselined finding active."""
    path = tmp_path / "baseline.json"
    if content is not None:
        path.write_text(content)
    assert main(["check", "--no-runtime", "--baseline", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("jubench: error: ")
    assert str(path) in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("plan, complaint", [
    ('{"task": [{"match": "*", "kind": "permanent"}]}',
     "unknown key 'task' in the plan; expected seed, tasks, nodes, "
     "stragglers, links"),
    ('{"tasks": [{"match": "*", "kind": "nope"}]}',
     "unknown task fault kind 'nope'; choose from ('transient',)"),
    ('{"tasks": [{"match": "*", "attempt": [1]}]}',
     "unknown key 'attempt' in tasks[0]; expected match, attempts, rate, "
     "seed, kind, message"),
    ('{"links": [{"link": "*", "factor": 0.5, "fator": 0.1}]}',
     "unknown key 'fator' in links[0]; expected link, factor"),
], ids=["top-level-key", "kind", "rule-key", "link-key"])
@pytest.mark.parametrize("argv", [["suite"], ["fig2"], ["fig3"]],
                         ids=lambda argv: argv[0])
def test_a_fault_plan_with_unknown_keys_or_kinds_is_refused(
        argv, plan, complaint, tmp_path, capsys, monkeypatch):
    """A misspelt key or kind would otherwise run fault-free and exit 0:
    the plan file is closed, refused before any benchmark runs."""
    from repro.core.benchmark import Benchmark

    ran = []
    monkeypatch.setattr(Benchmark, "run", lambda *a, **kw: ran.append(a))
    path = tmp_path / "plan.json"
    path.write_text(plan)
    assert main([*argv, "--faults", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"jubench: error: {path}: not a fault plan: "
                            f"ValueError: {complaint}\n")
    assert captured.out == "" and ran == []
