"""The start-up budget as exact, noise-free facts: which modules each
subcommand imports.

Every case runs in a fresh ``python -c`` child (pytest's own imports
must not leak into ``sys.modules``) and compares module *names*, never
wall-clock.  The rule being guarded is DESIGN.md's "Import layering":
``cli`` and the package ``__init__``s import lazily, a benchmark's
module is imported by its first ``get()``, and heavy third-party
packages live in the function that needs them.

Also the consistency of the one implementation table
(``repro.core.registry.IMPLEMENTATIONS``) and of every lazy package
facade built by ``repro._lazy.lazy_exports``.
"""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.benchmark import Benchmark
from repro.core.registry import BENCHMARKS, IMPLEMENTATIONS, \
    load_implementation
from repro.history import HistoryStore

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = {"numpy", "scipy", "networkx"}

#: modules ``import repro.cli`` may add to a bare interpreter.  Was 509
#: (595 counted this way) before the import graph went lazy; the
#: ``repro.*`` part below is exact, the stdlib remainder (argparse and
#: what it pulls) varies by a few modules between Python versions.
#: This number may only be lowered.
CLI_IMPORT_CEILING = 40
CLI_IMPORT_REPRO = ["repro", "repro._lazy", "repro.cli"]


def child_modules(*argv: str, prelude: str = "") -> dict:
    """Run ``main(argv)`` (or just ``import repro.cli``) in a fresh
    interpreter; report what it imported."""
    code = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "import repro.cli\n"
        f"{prelude}\n"
        f"argv = {list(argv)!r}\n"
        "code = None\n"
        "if argv:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = repro.cli.main(argv)\n"
        "new = sorted(set(sys.modules) - before)\n"
        "print(json.dumps({'code': code, 'new': new}))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    out["roots"] = {name.partition(".")[0] for name in out["new"]}
    out["repro"] = [n for n in out["new"] if n.partition(".")[0] == "repro"]
    return out


def kernels(modules: list[str]) -> list[str]:
    """The benchmark-implementation modules among ``modules``."""
    return [m for m in modules
            if m.startswith(("repro.apps", "repro.synthetic"))]


@pytest.fixture(scope="module")
def history_db(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("budget") / "h.jsonl"
    store = HistoryStore.open(path)
    for i in range(12):
        store.record_and_append("STREAM", 1.0 + 0.01 * (i % 3),
                                params={"nodes": 1})
    return str(path)


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("budget") / "trace.jsonl"
    out = child_modules("run", "STREAM", "--trace-out", str(path))
    assert out["code"] == 0 and path.exists()
    return str(path)


class TestImportBudget:
    def test_import_cli_is_stdlib_only(self):
        out = child_modules()
        assert out["repro"] == CLI_IMPORT_REPRO
        assert len(out["new"]) <= CLI_IMPORT_CEILING, out["new"]
        assert not HEAVY & out["roots"]

    def test_list_reads_the_table_not_the_kernels(self):
        out = child_modules("list")
        assert out["code"] == 0
        assert not HEAVY & out["roots"]
        assert kernels(out["new"]) == []
        assert "repro.core.suite" not in out["new"]

    @pytest.mark.parametrize("command", ["history", "regress"])
    def test_history_commands_import_the_history_plane_only(
            self, command, history_db):
        out = child_modules(command, history_db)
        assert out["code"] == 0
        assert not HEAVY & out["roots"]
        assert {n.split(".")[1] for n in out["repro"] if "." in n} == \
            {"_lazy", "cli", "exec", "history"}
        assert "repro.exec.engine" not in out["new"]

    def test_report_renders_a_trace_without_numpy(self, trace_file):
        out = child_modules("report", trace_file)
        assert out["code"] == 0
        assert not HEAVY & out["roots"]
        assert kernels(out["new"]) == []
        assert not any(n.startswith(("repro.core", "repro.vmpi",
                                     "repro.cluster")) for n in out["new"])

    def test_run_imports_exactly_its_own_benchmark(self):
        out = child_modules("run", "STREAM")
        assert out["code"] == 0
        assert not {"scipy", "networkx"} & out["roots"]
        assert kernels(out["new"]) == [
            "repro.apps", "repro.apps.base", "repro.synthetic",
            "repro.synthetic.base", "repro.synthetic.stream"]

    @pytest.mark.parametrize("argv", [
        ("suite", "--benchmarks", "STREAM"), ("fig3", "--nodes", "16")],
        ids=["suite", "fig3"])
    def test_a_serial_run_imports_no_process_pool(self, argv):
        out = child_modules(*argv)
        assert out["code"] == 0
        assert not {"concurrent", "multiprocessing"} & out["roots"]

    def test_pickled_suite_imports_lazily_in_the_receiver(self):
        # what a ``--backend process`` worker does with the suite it is
        # sent: the factories travel by import path, not as classes
        out = child_modules(prelude=(
            "import pickle\n"
            "from repro.core.suite import load_suite\n"
            "suite = pickle.loads(pickle.dumps(load_suite()))\n"
            "assert len(suite.names()) == 23\n"
            "assert not any(m.startswith(('repro.apps', 'repro.synth'))\n"
            "               for m in sys.modules)\n"
            "assert suite.run('STREAM').benchmark == 'STREAM'\n"))
        assert kernels(out["new"])[-1] == "repro.synthetic.stream"
        assert "scipy" not in out["roots"]


class TestCheckImportsNoSimulator:
    """The static analyser pays only for analysis: its replay keeps a
    mirror of the ``Comm`` facade, so ``jubench check`` loads neither
    the simulator nor numpy, cold (analysing) or warm (cache lookups)."""

    def test_check_loads_no_vmpi_and_no_numpy(self, tmp_path):
        argv = ("check", "--no-runtime", "--cache-dir", str(tmp_path))
        for run in ("cold", "warm"):
            out = child_modules(*argv)
            assert out["code"] == 0, run
            assert not HEAVY & out["roots"], run
            assert not [n for n in out["repro"]
                        if n.startswith(("repro.vmpi", "repro.cluster"))], run

    def test_no_check_module_imports_vmpi(self):
        offenders = []
        for path in sorted((SRC / "repro" / "check").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom):
                    dots = "." * node.level
                    names = [f"{dots}{node.module or ''}"] + [
                        f"{dots}{node.module + '.' if node.module else ''}"
                        f"{a.name}" for a in node.names]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                else:
                    continue
                offenders += [f"{path.relative_to(SRC)}:{node.lineno}: {n}"
                              for n in names
                              if "vmpi" in n.lstrip(".").split(".")]
        assert offenders == []


def module_scope_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """``(lineno, module)`` of every import that runs when the module
    is imported: module scope, including ``if``/``try`` bodies, except
    an ``if TYPE_CHECKING:`` block."""
    found: list[tuple[int, str]] = []
    body = list(tree.body)
    while body:
        node = body.pop(0)
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module or ""))
        elif isinstance(node, ast.If):
            if not (isinstance(node.test, ast.Name)
                    and node.test.id == "TYPE_CHECKING"):
                body += node.body
            body += node.orelse
        elif isinstance(node, ast.Try):
            body += node.body + node.orelse + node.finalbody
            for handler in node.handlers:
                body += handler.body
    return found


class TestHeavyImportsAreDeferred:
    """DESIGN.md's rule that ``scipy`` and ``networkx`` are imported by
    the function that calls them (real-mode kernels, ``Topology.graph``),
    never at module scope: a timing run must not pay for them."""

    def test_no_module_scope_scipy_or_networkx(self):
        offenders = []
        for path in sorted((SRC / "repro").rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            offenders += [
                f"{path.relative_to(SRC)}:{line}: {name}"
                for line, name in module_scope_imports(tree)
                if name.partition(".")[0] in {"scipy", "networkx"}]
        assert offenders == []

    def test_timing_suite_of_the_scipy_kernels_loads_neither(self):
        out = child_modules("suite", "--benchmarks",
                            "GROMACS,Amber,HPCG,Graph500")
        assert out["code"] == 0
        assert not {"scipy", "networkx"} & out["roots"]
        assert {"repro.apps.md.forcefield", "repro.synthetic.hpcg",
                "repro.synthetic.graph500"} <= set(out["new"])

    @pytest.mark.parametrize("argv,needs", [
        (("run", "HPCG", "--real"), "scipy.sparse.linalg"),
        (("run", "Graph500", "--real"), "scipy.sparse"),
        (("run", "GROMACS", "--real", "--scale", "0.1"), "scipy.special"),
    ])
    def test_real_mode_reaches_the_deferred_import(self, argv, needs):
        out = child_modules(*argv)
        assert out["code"] == 0
        assert needs in out["new"]


class TestImplementationTable:
    def test_keys_are_table2_names_in_order(self):
        assert list(IMPLEMENTATIONS) == [b.name for b in BENCHMARKS]

    @pytest.mark.parametrize("name", IMPLEMENTATIONS)
    def test_target_is_that_benchmarks_implementation(self, name):
        module, _, cls = IMPLEMENTATIONS[name].partition(":")
        target = getattr(importlib.import_module(module), cls)
        assert issubclass(target, Benchmark)
        assert load_implementation(name).info.name == name


#: the package's modules no command reaches, each with its reason
#: (ROADMAP item 4: every module is reached by a command a user types,
#: or it is deleted).  Only ever shrinks.
UNREACHED = {
    "repro.analysis.models":
        "item 4, wire: fig3 is to overlay the JUQCS network model and the "
        "nekRS predictor; fig3 stdout is pinned by the benchmark",
    "repro.core.procurement":
        "item 4, wire: `jubench procurement` is to evaluate proposals "
        "through ProcurementEvaluation instead of its hard-coded demo",
    "repro.core.highscaling":
        "item 4, wire: fig3 is to report the High-Scaling ratio and the "
        "extrapolated partition per app",
}

#: one cheap ``main(argv)`` per subcommand, in one fresh interpreter,
#: then the ``python -m`` entry points CI runs (~1 s in all)
REACH_CHILD = """
import contextlib, importlib.util, io, json, os, runpy, shutil, sys
import tempfile
import repro.cli
tmp = tempfile.mkdtemp()
db, trace, spool, cache = (os.path.join(tmp, n) for n in
                           ("h.jsonl", "t.jsonl", "spool", "cache"))
commands = [
    ["list"], ["table1"], ["table2"],
    ["run", "STREAM", "--history", db, "--trace-out", trace],
    ["suite", "--history", db],
    ["fig2", "--apps", "Arbor"],
    ["fig3", "--nodes", "16"],
    ["describe", "STREAM", "--sample"],
    ["report", trace], ["history", db], ["regress", db],
    ["check", "--no-runtime", "--rules", "DET001", "--cache-dir", cache],
    ["chaos", "--benchmarks", "STREAM", "--workers", "1", "--jobs", "1"],
    ["submit", "--spool", spool, "--benchmarks", "STREAM"],
    ["serve", "--spool", spool],
    ["procurement"],
]
entry_points = [
    ("repro", ["list"]),
    ("repro.telemetry", [trace]),
    ("repro.check", ["--no-runtime", "--rules", "DET001",
                     "--cache-dir", cache]),
]
codes, reached = {}, set()
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    for argv in commands:
        codes[argv[0]] = repro.cli.main(argv)
    for module, args in entry_points:
        sys.argv = [module, *args]
        try:
            runpy.run_module(module, run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            codes[module] = exc.code
        # runpy runs a package's ``__main__`` as ``__main__``
        spec = importlib.util.find_spec(module)
        reached.add(f"{module}.__main__" if spec.submodule_search_locations
                    else module)
shutil.rmtree(tmp)
reached |= {m for m in sys.modules if m.partition(".")[0] == "repro"}
print(json.dumps({"codes": codes, "reached": sorted(reached)}))
"""


def package_modules() -> set[str]:
    """Every module of ``repro``, by file (nothing is imported)."""
    names = set()
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        names.add(".".join(parts[:-1] if parts[-1] == "__init__"
                           else parts))
    return names


class TestEveryModuleIsReached:
    def test_commands_reach_every_module_but_the_allowlist(self):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-c", REACH_CHILD],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        assert set(out["codes"].values()) == {0}, out["codes"]
        unreached = package_modules() - set(out["reached"])
        assert unreached == set(UNREACHED)


def lazy_packages() -> list[str]:
    found = []
    for mod in pkgutil.walk_packages(repro.__path__, "repro."):
        if mod.ispkg:
            hook = vars(importlib.import_module(mod.name)).get("__getattr__")
            if getattr(hook, "__module__", None) == "repro._lazy":
                found.append(mod.name)
    return ["repro", *found]


class TestLazyFacades:
    def test_every_reexporting_package_is_lazy(self):
        # ``check.rules`` is the rule registry: ``RULE_CLASSES`` needs
        # every rule module at import
        eager = {m.name for m in pkgutil.walk_packages(repro.__path__,
                                                       "repro.")
                 if m.ispkg} - set(lazy_packages())
        assert eager == {"repro.check.rules"}

    @pytest.mark.parametrize("package", lazy_packages())
    def test_all_resolves_and_unknown_raises(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            # the helper's precondition: a submodule of the same name
            # would be bound over the lazy attribute by the import system
            assert importlib.util.find_spec(f"{package}.{name}") is None
            value = getattr(module, name)
            assert vars(module)[name] is value      # resolved once
            assert name in dir(module)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
