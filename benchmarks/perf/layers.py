"""The traced pass: one in-process run of a workload under span recorders.

End-to-end metrics are measured with tracing off, in fresh child
processes.  This module produces the per-layer numbers: it runs the
workload's command sequence once inside the harness process with
:class:`trace.Recorder` wrapped around each layer's public entry
points, then derives every ``per_layer`` metric of ``BENCHMARK.json``
from the spans, the flat accumulators and the counters the wrappers
harvested.  A metric whose layer the workload never enters reads 0 --
that *is* the prediction for a workload that bypasses the layer.

Host time and simulated time are kept apart: every ``*_s`` / ``*_us_*``
metric is host time of this simulator; ``vmpi.sim_seconds`` is the one
*modelled* statistic (summed virtual makespan) and must not move under
a pure speed-up, like every other count.

In-process differs from the child processes in two known ways, both
visible in ``bench.trace_overhead_frac``: modules the CLI imports
lazily are imported by the patch step instead, and a workload of
several commands (``history_db``) pays interpreter start-up and
``load_suite`` once, not per command.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import sys
import time

from harness import DRIVERS, SRC, THREAD_PINS, Box, Command, Outcome
from trace import ID, Recorder

#: (layer, span name, entry point) -- one span per call
ENTRY_POINTS = [
    ("cli", "cli.main", "repro.cli:main"),
    ("core", "core.load_suite", "repro.core.suite:load_suite"),
    ("core", "core.study", "repro.analysis.figures:figure2"),
    ("core", "core.study", "repro.analysis.figures:figure3"),
    ("core", "core.study",
     "repro.core.suite:JupiterBenchmarkSuite.run_all"),
    ("core", "core.study",
     "repro.core.suite:JupiterBenchmarkSuite.strong_scaling_study"),
    ("core", "core.study",
     "repro.core.suite:JupiterBenchmarkSuite.weak_scaling_study"),
    ("apps", "apps.run", "repro.core.benchmark:Benchmark.run"),
    ("vmpi", "vmpi.run", "repro.vmpi.engine:VmpiEngine.run"),
    ("exec", "exec.map", "repro.exec.engine:ExecutionEngine.map"),
    ("check", "check.analyze", "repro.check.engine:Analyzer.run"),
    ("check", "check.render", "repro.check.reporters:render_json"),
    ("history", "history.open", "repro.history.store:HistoryStore.__init__"),
    ("history", "history.append", "repro.history.store:HistoryStore.append"),
    ("history", "history.select", "repro.history.store:HistoryStore.select"),
    ("history", "history.export",
     "repro.history.store:HistoryStore.canonical_export"),
    ("history", "history.compact", "repro.history.store:HistoryStore.compact"),
    ("history", "history.detect",
     "repro.history.detect:RegressionDetector.summarize"),
    ("service", "service.envelope",
     "repro.service.client:ServiceClient.make_envelope"),
    ("service", "service.submit",
     "repro.service.interchange:BenchmarkService.submit"),
    ("service", "service.step",
     "repro.service.interchange:BenchmarkService.step"),
    ("service", "service.export",
     "repro.service.store:ResultStore.canonical_export"),
    ("service", "service.reopen", "repro.service.store:ResultStore.__init__"),
]

#: cluster cost model, as vmpi calls it: flat accumulator, no span per call
COST_MODEL = [
    "repro.cluster.hardware:DeviceSpec.compute_seconds",
    "repro.cluster.network:NetworkModel.p2p_params",
    "repro.cluster.network:NetworkModel.allreduce_time",
    "repro.cluster.network:NetworkModel.bcast_time",
    "repro.cluster.network:NetworkModel.allgather_time",
    "repro.cluster.network:NetworkModel.alltoall_time",
    "repro.cluster.network:NetworkModel.barrier_time",
    "repro.cluster.network:NetworkModel.reduce_scatter_time",
]


class Counters:
    """What the wrappers harvest from arguments and return values."""

    def __init__(self) -> None:
        self.vmpi = {"runs": 0, "ranks": 0, "max_ranks": 0, "rank_ops": 0,
                     "bytes_sent": 0.0, "sim_seconds": 0.0}
        self.engines: dict[int, object] = {}
        self.check = {"files": 0, "findings": 0, "cache_hits": 0,
                      "cache_misses": 0}
        self.import_modules = 0

    def on_vmpi(self, _args: tuple, result) -> None:
        v = self.vmpi
        v["runs"] += 1
        v["ranks"] += result.nranks
        v["max_ranks"] = max(v["max_ranks"], result.nranks)
        v["rank_ops"] += sum(t.ops for t in result.traces)
        v["bytes_sent"] += sum(t.bytes_sent for t in result.traces)
        v["sim_seconds"] += result.elapsed

    def on_map(self, args: tuple, _result) -> None:
        self.engines[id(args[0])] = args[0]

    def on_analyze(self, _args: tuple, report) -> None:
        c = self.check
        c["files"] += report.files_checked
        c["findings"] += (len(report.active) + len(report.suppressed)
                          + len(report.baselined))
        c["cache_hits"] += report.cache_hits
        c["cache_misses"] += report.cache_misses


def install(rec: Recorder, counters: Counters) -> None:
    """Wrap every entry point; unresolved ones are named in the recorder."""
    observers = {"vmpi.run": counters.on_vmpi, "exec.map": counters.on_map,
                 "check.analyze": counters.on_analyze}
    for layer, name, target in ENTRY_POINTS:
        rec.patch(target, name, layer, observe=observers.get(name))
    for target in COST_MODEL:
        rec.patch(target, "cluster.cost", "cluster", flat=True)


def invoke(command: Command) -> Outcome:
    """Run one command inside this process, capturing what it prints."""
    if command.kind == "jubench":
        main = importlib.import_module("repro.cli").main
    else:
        main = importlib.import_module(command.kind).main
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(command.args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return Outcome(wall_s=time.perf_counter() - start, cpu_s=0.0, rss_mb=0.0,
                   code=code, stdout=out.getvalue().encode(),
                   stderr=err.getvalue().encode())


def traced_run(workload, box: Box, rec: Recorder,
               counters: Counters) -> tuple[list[Command], list[Outcome]]:
    """The workload's command sequence, once, under the recorder.

    Span tree: ``workload`` (root, layer ``bench``) > ``cli.import``,
    ``bench.patch`` (harness overhead, excluded from the traced wall),
    then one front-end span per command with the layers beneath it.
    """
    os.environ.update(THREAD_PINS)      # before numpy is first imported
    for path in (str(SRC), str(DRIVERS)):
        if path not in sys.path:
            sys.path.insert(0, path)
    commands = workload.commands(box)
    drivers = list(dict.fromkeys(c.kind for c in commands
                                 if c.kind != "jubench"))
    with rec.span(f"workload:{workload.name}", "bench"):
        before = len(sys.modules)
        with rec.span("cli.import", "cli"):
            for module in drivers or ["repro.cli"]:
                importlib.import_module(module)
        counters.import_modules = len(sys.modules) - before
        with rec.span("bench.patch", "bench"):
            install(rec, counters)
            for module in drivers:
                rec.patch(f"{module}:main", "cli.main", "cli")
        try:
            outcomes = [invoke(c) for c in commands]
        finally:
            rec.unpatch()
    return commands, outcomes


def layer_metrics(rec: Recorder, counters: Counters,
                  untraced_wall_s: float) -> dict[str, float]:
    """Every per-layer metric that comes out of the traced run itself."""
    root = rec.spans[0]
    selfs = rec.self_times()
    by_layer = rec.self_by_layer()
    patch_s = rec.total("bench.patch")
    traced_wall = rec.duration(root) - patch_s
    cost_calls, cost_s = rec.flat.get("cluster.cost", (0, 0.0))
    vmpi = counters.vmpi
    vmpi_run_s = rec.total("vmpi.run")

    stats = [e.journal.stats() for e in counters.engines.values()]
    return {
        "cli.import_s": rec.total("cli.import"),
        "cli.import_modules": counters.import_modules,
        "cli.self_s": rec.self_total("cli.main"),
        "core.load_suite_s": rec.total("core.load_suite"),
        "core.study_self_s": rec.self_total("core.study"),
        "apps.self_s": by_layer.get("apps", 0.0),
        "apps.runs": len(rec.named("apps.run")),
        "vmpi.run_s": vmpi_run_s,
        "vmpi.self_s": by_layer.get("vmpi", 0.0) - cost_s,
        "vmpi.runs": vmpi["runs"],
        "vmpi.ranks": vmpi["ranks"],
        "vmpi.max_ranks": vmpi["max_ranks"],
        "vmpi.rank_ops": vmpi["rank_ops"],
        "vmpi.bytes_sent": vmpi["bytes_sent"],
        "vmpi.sim_seconds": vmpi["sim_seconds"],
        "vmpi.us_per_rank_op": (1e6 * vmpi_run_s / vmpi["rank_ops"]
                                if vmpi["rank_ops"] else 0.0),
        "cluster.cost_calls": cost_calls,
        "cluster.cost_s": cost_s,
        "exec.map_self_s": by_layer.get("exec", 0.0),
        "exec.tasks": sum(s.tasks for s in stats),
        "exec.cache_hits": sum(s.cache_hits for s in stats),
        "exec.cache_misses": sum(s.executed for s in stats),
        "check.analyze_s": rec.total("check.analyze"),
        "check.render_s": rec.total("check.render"),
        "check.files": counters.check["files"],
        "check.findings": counters.check["findings"],
        "check.cache_hits": counters.check["cache_hits"],
        "check.cache_misses": counters.check["cache_misses"],
        "history.open_s": rec.total("history.open"),
        "history.export_s": rec.total("history.export"),
        "history.detect_s": rec.total("history.detect"),
        "history.compact_s": rec.total("history.compact"),
        "service.submit_s": (rec.total("service.envelope")
                             + rec.total("service.submit")),
        "service.drain_s": rec.total("service.step"),
        "service.export_s": rec.total("service.export"),
        "bench.trace_overhead_frac": traced_wall / untraced_wall_s - 1.0,
        "bench.unattributed_frac": selfs[root[ID]] / traced_wall,
        "bench.unresolved_entrypoints": len(rec.unresolved),
    }
