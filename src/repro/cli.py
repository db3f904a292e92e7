"""Command-line interface: ``jubench`` / ``python -m repro``.

Sub-commands::

    jubench list                       # suite overview (Table II style)
    jubench table1 | table2            # reproduce the paper's tables
    jubench run NAME [--nodes N] [--variant V] [--real] [--scale S]
    jubench suite [--benchmarks A,B]   # run the whole registered suite
    jubench fig2 [--apps A,B,...]      # Base strong-scaling study
    jubench fig3 [--nodes 8,16,...]    # High-Scaling weak-scaling study
    jubench report TRACE.jsonl         # re-render a saved trace offline
    jubench history DB.jsonl           # inspect the performance history
    jubench regress DB.jsonl           # statistical regression detection
    jubench check [--format sarif]     # static analysis + sanitizers
    jubench chaos [--seed N]           # deterministic fault-injection smoke
    jubench procurement                # demo TCO evaluation of proposals
    jubench submit --spool DIR         # pack task envelopes for a service
    jubench serve --spool DIR          # drain a spool through endpoints

Execution commands accept engine options: ``--workers N`` fans
independent workunits out in parallel, ``--cache-dir DIR`` memoises
results on disk across invocations (``--no-cache`` disables caching),
and ``--journal [PATH]`` prints the structured run journal afterwards
(or, with a path, saves it as telemetry JSONL).  Observability:
``--trace-out FILE.jsonl`` streams the span/event trace to disk,
``--trace-out FILE.json`` writes a Chrome ``trace_event`` file for
Perfetto, and ``--metrics`` prints the metrics-registry report.
Fault injection: ``--faults PLAN.json`` (or ``--fault-seed N`` to
generate a plan) runs the command under ``repro.faults`` with retries,
seeded backoff and a circuit breaker; ``jubench chaos`` is the
dedicated deterministic smoke.

Performance history: ``--history DB.jsonl`` appends provenance-stamped
run records (code fingerprint, machine-config hash, FOMs, journal
digest) to an append-only database; ``jubench history`` renders and
compacts it, ``jubench regress`` runs the deterministic change-point /
regression detector over the accumulated trajectories, and ``jubench
report`` gains a FOM-trajectory section when pointed at a history DB.
"""

from __future__ import annotations

# Only the stdlib at module scope: every handler imports what it runs
# (DESIGN.md, "Import layering"), so ``jubench list|history|regress|
# report`` never load numpy, a kernel or the suite.
import argparse
import errno
import os
import sys


class _UsageError(Exception):
    """A bad command line only a handler can detect: one error line, exit 2."""


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a positive integer")
    return value


def _at_least(low: float, convert: type = int, *, strict: bool = False):
    """An argparse ``type``: ``convert(text)`` no smaller than ``low``
    (greater with ``strict``), so a bad value is a usage error naming
    its flag instead of a traceback from the code that needs the range."""
    kind = "an integer" if convert is int else "a number"
    bound = f"{'>' if strict else '>='} {low}"

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"{text!r} is not {kind} {bound}")
        return value

    return parse


def _node_counts(text: str) -> tuple[int, ...]:
    """``8,16,32`` -> ``(8, 16, 32)``; every count a positive int."""
    return tuple(_positive_int(part) for part in text.split(","))


def _scale(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not in (0, 1]")
    return value


def _names(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _select(wanted, known=None, what: str = "benchmark(s)") -> list[str]:
    """The members of ``known`` named in ``wanted``, in ``known`` order
    (none named = all); a name outside ``known`` is one error line.

    ``known`` defaults to the implementation table, so names are
    validated before -- and without -- importing any kernel.
    """
    if known is None:
        from .core.registry import IMPLEMENTATIONS as known
    wanted = set(wanted)
    unknown = sorted(wanted - set(known))
    if unknown:
        raise _UsageError(f"unknown {what}: {', '.join(unknown)}; "
                          f"see 'jubench list'")
    return [name for name in known if not wanted or name in wanted]


class _NotStdout(argparse.ArgumentTypeError):
    """``-`` given to an option that writes a file, never stdout."""


class _Parser(argparse.ArgumentParser):
    """The jubench parser: a ``-`` refused by :func:`_output_path` is
    one ``jubench: error:`` line naming the option (``main`` prints the
    ``_UsageError``); every other bad value stays argparse usage."""

    def error(self, message: str):
        if isinstance(getattr(sys.exc_info()[1], "__context__", None),
                      _NotStdout):
            raise _UsageError(message) from None
        super().error(message)


def _output_path(path: str) -> str:
    """The argparse ``type`` of every option naming a file a command
    writes, so it is refused while the command line is parsed, not when
    it is opened after the run: its directory must exist (none is
    created), it must not be a directory, and ``-`` is refused (see
    :func:`_output_or_stdout`).  argparse lets the ``OSError`` through;
    ``main`` prints it as one error line naming the path as given."""
    if path == "-":
        raise _NotStdout("'-' (stdout) is not accepted here; name a file")
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return path
    raise OSError(code, os.strerror(code), path)


def _output_or_stdout(path: str) -> str:
    """:func:`_output_path` for the writers that emit one document,
    which ``-`` sends to stdout instead."""
    return path if path == "-" else _output_path(path)


def _add_pool_options(parser: argparse.ArgumentParser):
    """The pool, result-cache, fault and observability options of every
    engine command and ``serve``; returns the engine and observability
    groups for ``_add_engine_options`` to extend."""
    group = parser.add_argument_group("execution engine")
    group.add_argument("--workers", type=_positive_int, default=1,
                       help="parallel workers for independent workunits "
                            "(per endpoint under serve)")
    group.add_argument("--backend", choices=["serial", "thread", "process"],
                       default="thread", help="pool backend (default thread)")
    group.add_argument("--cache-dir", default=None,
                       help="persist the result cache as JSON in this "
                            "directory (reused across invocations)")
    group.add_argument("--no-cache", action="store_true",
                       help="disable result memoisation")
    flt = parser.add_argument_group("fault injection")
    flt.add_argument("--faults", default=None, metavar="PLAN.json",
                     help="inject faults from a declarative FaultPlan "
                          "file (see repro.faults); under serve its node "
                          "crashes map onto endpoints by registration "
                          "index")
    flt.add_argument("--fault-seed", type=int, default=None, metavar="N",
                     help="generate a reproducible fault plan from this "
                          "seed instead of a plan file")
    obs = parser.add_argument_group("observability")
    obs.add_argument("--trace-out", default=None, type=_output_path,
                     metavar="FILE",
                     help="write the telemetry trace: *.jsonl streams "
                          "events as they happen, *.json is a Chrome "
                          "trace_event file (Perfetto)")
    obs.add_argument("--metrics", action="store_true",
                     help="print the metrics-registry report at the end")
    return group, obs


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    """The run-style commands' options: the pool's, plus per-task
    retries, the run journal and the history DB."""
    group, obs = _add_pool_options(parser)
    group.add_argument("--retries", type=_at_least(0), default=None,
                       metavar="N",
                       help="retry budget per task (default 0; under a "
                            "fault plan, the plan's worst-case failure "
                            "count)")
    group.add_argument("--journal", nargs="?", const="-", default=None,
                       type=_output_or_stdout, metavar="PATH",
                       help="print the per-task run journal at the end; "
                            "with PATH, save it as telemetry JSONL instead")
    obs.add_argument("--history", default=None, type=_output_path,
                     metavar="DB.jsonl",
                     help="append provenance-stamped run records to this "
                          "performance-history database (inspect with "
                          "'jubench history', analyse with "
                          "'jubench regress')")


def _add_shared(parser: argparse.ArgumentParser, *names: str) -> None:
    """The ``names`` options, each of which means the same on several
    subcommands and is declared only here (as literal ``add_argument``
    calls, so XLY402 still sees every flag)."""
    if "db" in names:
        parser.add_argument("db", help="history database (JSONL, from "
                                       "--history)")
    if "--benchmark" in names:
        parser.add_argument("--benchmark", default=None, metavar="NAME",
                            help="restrict to one benchmark's series")
    if "--last" in names:
        parser.add_argument("--last", type=_positive_int, default=10,
                            metavar="N", help="trajectory points shown per "
                                              "series (default 10)")
    if "--benchmarks" in names:
        parser.add_argument("--benchmarks", default="",
                            help="comma-separated subset (default: all)")
    if "--scale" in names:
        parser.add_argument("--scale", type=_scale, default=1.0)


def _fault_plan(args: argparse.Namespace):
    """The fault plan an invocation asked for (file, seed, or None)."""
    path, seed = args.faults, args.fault_seed
    if not path and seed is None:
        return None
    from .faults import FaultPlan

    if path:
        return FaultPlan.load(path)
    return FaultPlan.generate(seed, nodes=32)


def _engine_kwargs(args: argparse.Namespace) -> dict:
    """The pool, result cache and tracer of an engine command (``serve``
    shares one set across its endpoints).  The tracer is the one
    ``--trace-out``/``--metrics`` installed, so engine task spans, suite
    driver spans and vmpi events land on one timeline."""
    from .exec.cache import DiskCache, MemoryCache
    from .telemetry.spans import current_tracer

    cache = None
    if not args.no_cache:
        cache = DiskCache(args.cache_dir) if args.cache_dir \
            else MemoryCache()
    tracer = current_tracer()
    return {"workers": args.workers, "backend": args.backend,
            "cache": cache, "tracer": tracer if tracer.enabled else None}


def _make_engine(args: argparse.Namespace):
    """Build the execution engine an exec-style command asked for."""
    from .exec.engine import ExecutionEngine

    plan = _fault_plan(args)
    faults = backoff = breaker = None
    retries = args.retries
    if plan is not None:
        from .exec.resilience import BackoffPolicy, CircuitBreaker
        from .faults import FaultInjector

        faults = FaultInjector(plan)
        backoff = BackoffPolicy(seed=plan.seed)
        breaker = CircuitBreaker()
        if retries is None:
            # survivable by default: the plan's worst case fits the budget
            retries = plan.max_task_failures()
    return ExecutionEngine(**_engine_kwargs(args), retries=retries or 0,
                           faults=faults, backoff=backoff, breaker=breaker)


def _deliver(path: str | None, doc: str, note: str) -> None:
    """Write a whole-file artifact: no path or ``-`` is stdout, else
    ``replace_file`` (temp file, then rename) and a ``note -> path``
    line."""
    if not path or path == "-":
        sys.stdout.write(doc if doc.endswith("\n") else doc + "\n")
        return
    from .exec.jsonl import replace_file

    replace_file(path, doc)
    print(f"{note} -> {path}")


def _history_store(args: argparse.Namespace):
    """The history DB an invocation appends to (or ``None``)."""
    if not args.history:
        return None
    from .history import HistoryStore

    return HistoryStore.open(args.history)


def _open_history(path: str):
    """An existing history DB, for the commands that only read one."""
    from .history import HistoryStore

    os.stat(path)  # HistoryStore.open would create a missing DB
    return HistoryStore.open(path)


def _history_append(store, suite, benchmark: str,
                    fom_seconds: float | None, params: dict,
                    foms: dict | None = None) -> None:
    """Append one provenance-stamped run record to the history DB."""
    from .cluster.hardware import juwels_booster
    from .history import build_record
    from .telemetry.spans import current_tracer

    store.append(build_record(benchmark, fom_seconds, params=params,
                              foms=foms, system=juwels_booster(),
                              tracer=current_tracer(),
                              engine=suite.engine))


def _history_note(store) -> None:
    print(f"history: {len(store)} record(s) in {store.path}")


def _configured_suite(args: argparse.Namespace):
    """The default suite wired to this invocation's engine.

    Noted on ``args`` so ``_main`` detaches the engine afterwards --
    and touches no suite when no handler loaded one.
    """
    from .core.suite import load_suite

    suite = args.suite = load_suite()
    suite.engine = _make_engine(args)
    return suite


def _check_placeable(suite, names, counts) -> None:
    """A node count a benchmark's modelled system cannot place is one
    error line -- before any kernel runs, not a traceback out of one."""
    for name in names:
        system = suite.get(name).system()
        for nodes in counts:
            if nodes is not None and nodes > system.nodes:
                raise _UsageError(
                    f"{name} cannot run on {nodes} nodes: "
                    f"{system.name} has {system.nodes}")


def _cmd_list(_args: argparse.Namespace) -> int:
    from .core.registry import IMPLEMENTATIONS, get_info

    print(f"JUPITER Benchmark Suite -- {len(IMPLEMENTATIONS)} benchmarks")
    for name in IMPLEMENTATIONS:
        info = get_info(name)
        cats = "/".join(c.value for c in info.categories)
        star = "" if info.used_in_procurement else "  (prepared, not used)"
        print(f"  {name:<18} {info.domain:<22} [{cats}]{star}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from .analysis import render_table1, render_table2

    print(render_table1() if args.which == "table1" else render_table2())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .core.variants import MemoryVariant
    from .units import fmt_seconds

    _select([args.benchmark])
    suite = _configured_suite(args)
    _check_placeable(suite, [args.benchmark], [args.nodes])
    variant = MemoryVariant.from_label(args.variant) if args.variant else None
    results = suite.run_all([args.benchmark], nodes=args.nodes,
                            variant=variant, real=args.real,
                            scale=args.scale)
    if not results:     # the engine dropped it under a fault plan
        nodes = args.nodes or suite.get(args.benchmark).info.reference_nodes
        error = suite.engine.journal.records[-1].error
        print(f"{args.benchmark} {nodes} FAILED {error}")
        return 1
    result, = results
    print(f"benchmark : {result.benchmark}")
    print(f"nodes     : {result.nodes}")
    if result.variant is not None:
        print(f"variant   : {result.variant.value}")
    print(f"FOM       : {fmt_seconds(result.fom_seconds)} "
          f"({result.fom_seconds:.3f} s time metric)")
    if result.verified is not None:
        status = "PASSED" if result.verified else "FAILED"
        print(f"verified  : {status} -- {result.verification}")
    for key, value in sorted(result.details.items()):
        if isinstance(value, list) and all(
                isinstance(v, (int, float, str, bool)) for v in value):
            value = tuple(value)    # a tuple, after a cache round-trip
        if isinstance(value, float):
            print(f"  {key}: {value:.6g}")
        elif isinstance(value, (int, str, bool, tuple)):
            print(f"  {key}: {value}")
    store = _history_store(args)
    if store is not None:
        _history_append(store, suite, result.benchmark, result.fom_seconds,
                        params={"study": "run", "nodes": result.nodes,
                                "variant": args.variant,
                                "real": bool(args.real),
                                "scale": args.scale})
        _history_note(store)
    return 0 if result.verified in (True, None) else 1


def _cmd_suite(args: argparse.Namespace) -> int:
    from .units import fmt_seconds

    names = _select(_names(args.benchmarks))
    suite = _configured_suite(args)
    results = suite.run_all(names, scale=args.scale)
    print(f"suite run -- {len(results)} benchmarks "
          f"(workers={args.workers})")
    for res in results:
        print(f"  {res.benchmark:<18} {res.nodes:>4} nodes  "
              f"{fmt_seconds(res.fom_seconds)} "
              f"({res.fom_seconds:.3f} s time metric)")
    store = _history_store(args)
    if store is not None:
        for res in results:
            _history_append(store, suite, res.benchmark, res.fom_seconds,
                            params={"study": "suite", "nodes": res.nodes,
                                    "scale": args.scale})
        _history_note(store)
    return 0


def _cmd_fig2(args: argparse.Namespace) -> int:
    from .analysis.figures import FIG2_APPS, figure2

    named = _names(args.apps)
    _select(named)  # a name no benchmark has, first
    wanted = _select(named, [name for name, _ in FIG2_APPS],
                     what="Base app(s)")
    apps = tuple(a for a in FIG2_APPS if a[0] in wanted)
    suite = _configured_suite(args)
    data = figure2(suite, apps)
    print(data.render())
    store = _history_store(args)
    if store is not None:
        for name, curve in data.curves.items():
            _history_append(
                store, suite, name, curve.reference.runtime,
                params={"study": "fig2",
                        "ref_nodes": curve.reference.nodes},
                foms={f"runtime_n{p.nodes}": p.runtime
                      for p in curve.points})
        _history_note(store)
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    from .analysis.figures import FIG3_APPS, figure3

    suite = _configured_suite(args)
    _check_placeable(suite, [name for name, _ in FIG3_APPS], args.nodes)
    data = figure3(suite, args.nodes)
    print(data.render())
    store = _history_store(args)
    if store is not None:
        for name, curve in data.curves.items():
            pts = sorted(curve.points, key=lambda p: p.nodes)
            if not pts:
                continue
            _history_append(
                store, suite, name, pts[-1].runtime,
                params={"study": "fig3", "nodes": list(args.nodes)},
                foms={f"eff_n{n}": eff for n, eff in curve.efficiency()})
        _history_note(store)
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    from .core.descriptions import describe
    from .core.suite import load_suite

    _select([args.benchmark])
    suite = load_suite()
    result = None
    if args.sample:
        result = suite.run(args.benchmark)
    print(describe(suite, args.benchmark, sample=result))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .history.report import render_trajectory
    from .history.store import is_history_file
    from .telemetry.report import render_report

    if is_history_file(args.trace):
        # a history DB renders as its FOM-trajectory section directly
        print(render_trajectory(_open_history(args.trace),
                                last=args.last), end="")
        return 0
    print(render_report(args.trace))
    if args.history:
        print()
        print(render_trajectory(_open_history(args.history),
                                last=args.last), end="")
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    from .history.report import render_trajectory

    store = _open_history(args.db)
    if args.compact is not None:
        before = len(store)
        store = store.compact(args.compact)
        print(f"history: compacted {before} -> {len(store)} record(s) "
              f"(keeping the last {args.compact} per series)")
    if args.export is not None:
        _deliver(args.export, store.canonical_export(),
                 "history: canonical export")
        return 0
    print(render_trajectory(store, last=args.last,
                            benchmark=args.benchmark), end="")
    return 0


def _cmd_regress(args: argparse.Namespace) -> int:
    import json

    from .history import RegressionDetector
    from .history.report import render_regressions

    store = _open_history(args.db)
    detector = RegressionDetector(window=args.window, sigma=args.sigma,
                                  slack=args.slack)
    if args.json:
        summaries = {}
        flagged = 0
        for key, records in sorted(store.select(args.benchmark).items()):
            values = [r.value for r in records if r.value is not None]
            summary = detector.summarize(values)
            summary["benchmark"] = records[-1].benchmark
            summaries[key] = summary
            flagged += summary["counts"]["regression"]
        print(json.dumps(summaries, sort_keys=True, indent=2))
        return 1 if flagged else 0
    text, flagged = render_regressions(store, benchmark=args.benchmark,
                                       detector=detector,
                                       explain=args.explain)
    print(text, end="")
    return 1 if flagged else 0


def _cmd_check(args: argparse.Namespace) -> int:
    from pathlib import Path

    from . import check as chk
    from .exec.cache import DiskCache

    package_root = Path(__file__).resolve().parent
    repo_root = package_root.parent.parent
    baseline_path = Path(args.baseline) if args.baseline \
        else repo_root / "check-baseline.json"
    if args.write_baseline:     # an output then: refused before the run
        try:
            _output_path(args.baseline or str(baseline_path))
        except _NotStdout as exc:
            raise _UsageError(f"argument --baseline: {exc}") from None
    if args.baseline and not args.write_baseline and \
            not baseline_path.is_file():
        # only the default baseline may be absent (= empty)
        raise _UsageError(f"no baseline file {args.baseline}")
    try:
        baseline = chk.load_baseline(baseline_path)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise _UsageError(f"{baseline_path}: not a baseline file "
                          f"({exc!r})") from None
    only, disable = _names(args.rules), _names(args.disable)
    # --select/--ignore expand rule-family prefixes (e.g. COMM, UNIT3)
    # into the same only/disable machinery, so family filters reach the
    # incremental cache key exactly like explicit --rules lists
    try:
        if args.select:
            only.extend(rid for rid in chk.expand_rule_prefixes(
                _names(args.select)) if rid not in only)
        if args.ignore:
            disable.extend(rid for rid in chk.expand_rule_prefixes(
                _names(args.ignore)) if rid not in disable)
        analyzer = chk.Analyzer(baseline=baseline, only=only,
                                disable=disable)
    except ValueError as exc:  # a prefix or id that names no rule
        raise _UsageError(str(exc)) from None
    known = chk.rule_ids()
    if args.explain is not None and args.explain not in known:
        raise _UsageError(f"--explain: unknown rule id {args.explain}; "
                          f"known: {', '.join(sorted(known))}")
    cache = DiskCache(Path(args.cache_dir)) if args.cache_dir else None
    report = analyzer.run(package_root, rel_base=repo_root,
                          workers=args.workers, cache=cache)
    if cache is not None:
        # stderr: stdout must stay byte-identical between cold and
        # warm runs for the CI determinism comparison
        print(f"check cache: {report.cache_hits} hit(s), "
              f"{report.cache_misses} miss(es)", file=sys.stderr)
    if not args.no_runtime and not only and not disable:
        extra = analyzer.classify(chk.runtime_contract_findings(), {})
        report.active += extra.active
        report.baselined += extra.baselined
        report.unused_baseline = extra.unused_baseline
    if args.write_baseline:
        baseline = chk.Baseline.from_findings(
            report.active + report.baselined)
        count = chk.save_baseline(baseline_path, baseline)
        print(f"baseline: {count} entrie(s) -> {baseline_path} "
              f"(add a one-line justification per entry)")
        return 0
    if args.format == "sarif":
        out = chk.render_sarif(report)
    elif args.format == "json":
        out = chk.render_json(report, strict=args.strict)
    else:
        out = chk.render_human(report, strict=args.strict,
                               explain=args.explain)
    _deliver(args.output, out, "check: report")
    status = 1 if report.failed(args.strict) else 0
    if args.sanitize:
        status = max(status, _sanitize_smoke())
    return status


def _sanitize_smoke() -> int:
    """Exercise the engine under the lock-order watcher."""
    from .check import LockOrderError, install, uninstall
    from .core.suite import load_suite
    from .exec.cache import MemoryCache
    from .exec.engine import ExecutionEngine

    graph = install()
    try:
        engine = ExecutionEngine(workers=8, backend="thread",
                                 cache=MemoryCache())
        suite = load_suite()
        suite.engine = engine
        try:
            suite.run_all(["Arbor", "JUQCS", "HPL", "STREAM"])
            suite.run_all(["Arbor", "JUQCS", "HPL", "STREAM"])  # warm
        finally:
            suite.engine = None
    except LockOrderError as exc:
        print(f"sanitizer: FAILED\n{exc}")
        return 1
    finally:
        uninstall()
    stats = graph.snapshot()
    print(f"sanitizer: ok -- {stats['locks']} lock(s), "
          f"{stats['acquisitions']} acquisition(s), "
          f"{stats['edges']} ordering edge(s), no cycles")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Chaos smoke: the suite + scheduler under an injected fault plan.

    Runs the benchmark set under a seeded (or file-provided) fault
    plan on a virtual clock, prints the degrade/recovery summary, and
    optionally writes the two byte-stable determinism artifacts: the
    canonical journal (``--journal-out``) and the chaos Chrome trace
    (``--trace-json``).  Then replays the plan's node crashes and
    straggler windows against the cluster scheduler and drains it.
    Honours ``REPRO_SANITIZE=1`` (lock-order watcher over the requeue
    paths).  Exit 0 means every benchmark ended ok or explicitly
    failed in the journal -- no unhandled exceptions, no aborted
    sweep.
    """
    from .check import install_from_env
    from .cluster.hardware import juwels_booster
    from .cluster.scheduler import Job, JobState, Scheduler
    from .core.suite import load_suite
    from .exec.engine import ExecutionEngine
    from .exec.resilience import BackoffPolicy, CircuitBreaker
    from .faults import FaultInjector, FaultPlan, write_chaos_trace
    from .telemetry.spans import ManualClock, Tracer, use_tracer

    install_from_env()
    names = _names(args.benchmarks)
    _select(names)
    if args.faults:
        plan = FaultPlan.load(args.faults)
    else:
        plan = FaultPlan.generate(
            args.seed, labels=tuple(f"run:{n}" for n in names), nodes=32)
    retries = args.retries if args.retries is not None \
        else max(1, plan.max_task_failures())
    injector = FaultInjector(plan)
    tracer = Tracer(clock=ManualClock(start=0.0, tick=0.25))
    engine = ExecutionEngine(
        workers=args.workers, backend="thread", cache=None,
        retries=retries, tracer=tracer, faults=injector,
        backoff=BackoffPolicy(seed=plan.seed), breaker=CircuitBreaker())
    suite = load_suite()
    suite.engine = engine
    try:
        with use_tracer(tracer):
            results = suite.run_all(names)

            # Cluster chaos phase: deterministic job stream + the
            # plan's node crashes / straggler windows, drained to
            # completion (requeues exercise the recovery paths).
            sched = Scheduler(juwels_booster().with_nodes(64),
                              faults=injector)
            jobs = [sched.submit(Job(name=f"chaos-{i}",
                                     nodes=8 + 8 * (i % 3),
                                     walltime=50.0))
                    for i in range(args.jobs)]
            sched.drain()
    finally:
        suite.engine = None

    stats = engine.journal.stats()
    print(f"chaos suite: {len(results)}/{len(names)} benchmarks ok, "
          f"{stats.errors} failed, {stats.retries} retries "
          f"(plan seed {plan.seed}, retry budget {retries})")
    requeues = sum(j.requeues for j in jobs)
    finished = sum(1 for j in jobs if j.state in (JobState.COMPLETED,
                                                  JobState.FAILED))
    print(f"chaos scheduler: {finished}/{len(jobs)} jobs finished, "
          f"{requeues} requeue(s), {sched.dead_nodes} node(s) dead, "
          f"utilization {sched.utilization:.3f}")
    if args.journal_out:
        count = engine.journal.canonical().to_jsonl(args.journal_out)
        print(f"chaos journal: {count} record(s) -> {args.journal_out}")
    if args.trace_json:
        n = write_chaos_trace(args.trace_json, engine.journal, plan)
        print(f"chaos trace: {n} event(s) -> {args.trace_json}")
    if args.save_plan:
        plan.save(args.save_plan)
        print(f"fault plan -> {args.save_plan}")
    accounted = len(engine.journal.records) == len(names) and \
        finished == len(jobs)
    return 0 if accounted else 1


def _cmd_submit(args: argparse.Namespace) -> int:
    """Pack benchmark executions as service task envelopes.

    Default mode writes one ``<client>-<seq>-<task_id>.json`` envelope
    per benchmark into the ``--spool`` directory for a later ``jubench
    serve`` to drain (the loopback wire).  ``--direct`` skips the
    service entirely and runs the same envelopes in-process, writing
    the canonical result export -- the byte-identity baseline the
    service path must reproduce.
    """
    import json
    from pathlib import Path

    from .core.suite import load_suite
    from .exec.jsonl import replace_file
    from .service import ServiceClient, execute_direct

    names = _select(_names(args.benchmarks))
    suite = load_suite()
    client = ServiceClient(None, args.client, suite=suite)
    envelopes = [client.make_envelope(name, scale=args.scale)
                 for name in names]
    if args.direct:
        store = execute_direct(envelopes, suite=suite)
        _deliver(args.export, store.canonical_export(),
                 "submit: direct canonical export")
        return 0
    if not args.spool:
        raise SystemExit("jubench submit: --spool DIR is required "
                         "(or use --direct)")
    spool = Path(args.spool)
    spool.mkdir(parents=True, exist_ok=True)
    for env in envelopes:
        path = spool / f"{env.client}-{env.seq:06d}-{env.task_id}.json"
        replace_file(path, json.dumps(env.to_wire(), sort_keys=True,
                                      indent=1) + "\n")
    print(f"submit: {len(envelopes)} task envelope(s) -> {spool}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Loopback service: drain a spool of envelopes through endpoints.

    Reads every ``*.json`` task envelope from ``--spool`` (sorted, so
    per-client submission order is the file order), registers
    ``--endpoints`` local execution-engine endpoints sharing one
    result cache, routes the envelopes through the fair-share
    interchange on the virtual clock, and drains to completion.
    ``--faults`` / ``--fault-seed`` map node crashes onto endpoints by
    registration index, exercising lease expiry and requeue.
    """
    from pathlib import Path

    from .core.suite import load_suite
    from .exec.engine import ExecutionEngine
    from .exec.jsonl import replace_file
    from .faults import FaultPlan
    from .service import (
        BenchmarkService,
        Capabilities,
        LocalEndpoint,
        ResultStore,
        TaskEnvelope,
    )

    spool = Path(args.spool)
    files = sorted(spool.glob("*.json")) if spool.is_dir() else []
    if not files:
        raise SystemExit(f"jubench serve: no task envelopes in "
                         f"{spool} (run 'jubench submit --spool "
                         f"{spool}' first)")
    envelopes = [TaskEnvelope.from_file(f) for f in files]
    plan = _fault_plan(args)
    store = ResultStore(args.results) if args.results else ResultStore()
    service = BenchmarkService(
        heartbeat_period=args.heartbeat_period,
        heartbeat_threshold=args.heartbeat_threshold,
        max_backlog=args.max_backlog, store=store,
        faults=plan if plan is not None else FaultPlan())
    shared = _engine_kwargs(args)
    suite = load_suite()
    for i in range(args.endpoints):
        service.register_endpoint(LocalEndpoint(
            f"ep{i}", suite=suite, engine=ExecutionEngine(**shared),
            capabilities=Capabilities(workers=args.workers,
                                      backend=args.backend)))
    futures = [service.submit(env) for env in envelopes]
    service.drain()
    counts = store.counts()
    tally = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"serve: {len(envelopes)} envelope(s) over {args.endpoints} "
          f"endpoint(s) -- {tally}")
    if args.results:
        print(f"serve: result store -> {args.results}")
    if args.dispatch_log:
        replace_file(args.dispatch_log, service.log_json())
        print(f"serve: dispatch log -> {args.dispatch_log}")
    if args.export:
        _deliver(args.export, store.canonical_export(),
                 "serve: canonical export")
    return 0 if all(f.status == "ok" for f in futures) else 1


def _cmd_procurement(_args: argparse.Namespace) -> int:
    from .cluster.hardware import jupiter_booster_model
    from .core.fom import ReferenceResult
    from .core.suite import load_suite
    from .core.tco import SystemProposal, TcoModel, WorkloadMix
    from .units import fmt_seconds

    suite = load_suite()
    mix = WorkloadMix().add("GROMACS", 3).add("Arbor", 2).add("JUQCS", 1)
    refs: dict[str, ReferenceResult] = {}
    print("measuring reference executions on the simulated JUWELS Booster:")
    for entry in mix.entries:
        ref = suite.reference_run(entry.benchmark)
        refs[entry.benchmark] = ref
        print(f"  {entry.benchmark:<12} {ref.nodes:>4} nodes  "
              f"{fmt_seconds(ref.time_metric)}")
    model = TcoModel(mix=mix, references=refs)
    proposals = []
    for name, speedup in (("vendor-evolution", 2.0), ("vendor-bold", 3.2)):
        prop = SystemProposal(name=name, system=jupiter_booster_model())
        for bench, ref in refs.items():
            prop.commit(bench, nodes=max(1, ref.nodes // 2),
                        time_metric=ref.time_metric / speedup)
        proposals.append(prop)
    print("\nvalue-for-money ranking:")
    for assessment in model.rank(proposals):
        print(f"  {assessment.proposal:<18} "
              f"{assessment.workloads_over_lifetime:.3g} workloads / "
              f"{assessment.tco_eur / 1e6:.0f} MEUR  ->  "
              f"{assessment.value_for_money:.1f} per MEUR")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The jubench argument parser."""
    parser = _Parser(
        prog="jubench",
        description="JUPITER Benchmark Suite reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all benchmarks").set_defaults(
        fn=_cmd_list)
    for which in ("table1", "table2"):
        p = sub.add_parser(which, help=f"render the paper's {which}")
        p.set_defaults(fn=_cmd_table, which=which)

    p = sub.add_parser("run", help="run one benchmark")
    p.add_argument("benchmark")
    p.add_argument("--nodes", type=_positive_int, default=None)
    p.add_argument("--variant", choices=["T", "S", "M", "L"], default=None)
    p.add_argument("--real", action="store_true",
                   help="real (verifying) mode instead of timing mode")
    _add_shared(p, "--scale")
    _add_engine_options(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("suite",
                       help="run every registered benchmark (parallel + "
                            "incremental via the execution engine)")
    _add_shared(p, "--benchmarks", "--scale")
    _add_engine_options(p)
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("fig2", help="Base strong-scaling study (Fig. 2)")
    p.add_argument("--apps", default="",
                   help="comma-separated subset of Base apps")
    _add_engine_options(p)
    p.set_defaults(fn=_cmd_fig2)

    p = sub.add_parser("fig3", help="High-Scaling weak scaling (Fig. 3)")
    p.add_argument("--nodes", type=_node_counts,
                   default="8,16,32,64,128,256,512,936",
                   help="comma-separated node counts (default: 8 to the "
                        "whole 936-node Booster)")
    _add_engine_options(p)
    p.set_defaults(fn=_cmd_fig3)

    p = sub.add_parser("describe",
                       help="normalised benchmark description (Sec. III-C)")
    p.add_argument("benchmark")
    p.add_argument("--sample", action="store_true",
                   help="attach a sample execution result")
    p.set_defaults(fn=_cmd_describe)

    p = sub.add_parser("report",
                       help="render a saved telemetry JSONL trace "
                            "(journal summary + cost centres, offline)")
    p.add_argument("trace",
                   help="trace file from --trace-out FILE.jsonl or "
                        "--journal PATH (a history DB renders as its "
                        "trajectory section)")
    p.add_argument("--history", default=None, metavar="DB.jsonl",
                   help="additionally render the FOM-trajectory section "
                        "from this history database")
    _add_shared(p, "--last")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("history",
                       help="inspect the performance-history database "
                            "(trajectories, canonical export, retention)")
    _add_shared(p, "db", "--benchmark", "--last")
    p.add_argument("--export", default=None, type=_output_or_stdout,
                   metavar="FILE",
                   help="write the canonical byte-stable JSON export "
                        "('-' for stdout) instead of rendering")
    p.add_argument("--compact", type=_positive_int, default=None,
                   metavar="N",
                   help="apply retention first: keep the last N records "
                        "per series and rewrite the database")
    p.set_defaults(fn=_cmd_history)

    p = sub.add_parser("regress",
                       help="deterministic change-point / regression "
                            "detection over the history database")
    _add_shared(p, "db", "--benchmark")
    p.add_argument("--window", type=_at_least(2), default=8, metavar="N",
                   help="stationary-window length for the baseline "
                        "(default 8)")
    p.add_argument("--sigma", type=_at_least(0, float, strict=True),
                   default=4.0, metavar="K",
                   help="robust-sigma multiplier of the alert margin "
                        "(default 4.0)")
    p.add_argument("--slack", type=_at_least(0, float), default=0.02,
                   metavar="F",
                   help="minimum relative deviation that alerts "
                        "(default 0.02)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable verdicts (bit-reproducible)")
    p.add_argument("--explain", action="store_true",
                   help="print the full inference trace per point")
    p.set_defaults(fn=_cmd_regress)

    p = sub.add_parser("check",
                       help="static analysis of suite invariants "
                            "(determinism, contracts, locking) + "
                            "runtime sanitizers")
    p.add_argument("--format", choices=["human", "json", "sarif"],
                   default="human", help="report format")
    p.add_argument("--output", default=None, type=_output_or_stdout,
                   metavar="FILE",
                   help="write the report to FILE instead of stdout")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="baseline file (default: check-baseline.json "
                        "at the repository root)")
    p.add_argument("--write-baseline", action="store_true",
                   help="write all current findings into the baseline "
                        "and exit")
    p.add_argument("--rules", default="", metavar="IDS",
                   help="comma-separated rule ids to run exclusively")
    p.add_argument("--disable", default="", metavar="IDS",
                   help="comma-separated rule ids to skip")
    p.add_argument("--select", default="", metavar="PREFIXES",
                   help="comma-separated rule-family prefixes to run "
                        "exclusively (e.g. COMM, UNIT3); expands to "
                        "ids and combines with --rules")
    p.add_argument("--ignore", default="", metavar="PREFIXES",
                   help="comma-separated rule-family prefixes to skip; "
                        "expands to ids and combines with --disable")
    p.add_argument("--strict", action="store_true",
                   help="fail on suppressions/baseline entries without "
                        "a justification")
    p.add_argument("--explain", default=None, metavar="RULE",
                   help="print the inference trace of every finding "
                        "of RULE (e.g. REP602, UNIT304) inline in the "
                        "human report; traces always ship in "
                        "json/sarif output")
    p.add_argument("--no-runtime", action="store_true",
                   help="skip the runtime contract verification pass")
    p.add_argument("--sanitize", action="store_true",
                   help="additionally run the suite under the "
                        "lock-order watcher")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="analyze modules in parallel (findings are "
                        "identical for any count)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="incremental analysis: reuse findings from DIR, "
                        "each keyed on the digests of what it read (one "
                        "module, or the whole tree for project rules) "
                        "and the rule set")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("chaos",
                       help="chaos smoke: suite + scheduler under a "
                            "seeded fault plan (deterministic)")
    p.add_argument("--seed", type=int, default=42,
                   help="fault-plan generation seed (default 42)")
    p.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="use this fault plan file instead of generating "
                        "one from --seed")
    p.add_argument("--benchmarks", default="Arbor,JUQCS,HPL,STREAM",
                   help="comma-separated benchmark set")
    p.add_argument("--workers", type=_positive_int, default=8,
                   help="engine workers (results are identical for any "
                        "count)")
    p.add_argument("--retries", type=_at_least(0), default=None,
                   help="retry budget (default: the plan's worst case)")
    p.add_argument("--jobs", type=_at_least(0), default=6,
                   help="jobs in the scheduler chaos phase")
    p.add_argument("--journal-out", default=None, type=_output_path,
                   metavar="PATH",
                   help="write the canonical (byte-stable) journal JSONL")
    p.add_argument("--trace-json", default=None, type=_output_path,
                   metavar="PATH",
                   help="write the deterministic chaos Chrome trace")
    p.add_argument("--save-plan", default=None, type=_output_path,
                   metavar="PATH",
                   help="save the effective fault plan as JSON")
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser("submit",
                       help="pack benchmark executions as service task "
                            "envelopes (spool for 'jubench serve', or "
                            "run them directly)")
    p.add_argument("--spool", default=None, metavar="DIR",
                   help="write one task-envelope JSON per benchmark "
                        "into this spool directory")
    p.add_argument("--client", default="cli", metavar="NAME",
                   help="client identity stamped on the envelopes "
                        "(default 'cli')")
    _add_shared(p, "--benchmarks", "--scale")
    p.add_argument("--direct", action="store_true",
                   help="bypass the service: execute the envelopes "
                        "in-process and emit the canonical export "
                        "(the byte-identity baseline)")
    p.add_argument("--export", default=None, type=_output_or_stdout,
                   metavar="FILE",
                   help="with --direct: write the canonical byte-stable "
                        "JSON export ('-' or omitted for stdout)")
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser("serve",
                       help="loopback benchmark service: drain a spool "
                            "of task envelopes through local endpoints "
                            "(deterministic virtual-clock schedule)")
    p.add_argument("--spool", required=True, metavar="DIR",
                   help="spool directory of task envelopes "
                        "(from 'jubench submit --spool DIR')")
    p.add_argument("--endpoints", type=_positive_int, default=2, metavar="N",
                   help="local endpoints to register (default 2)")
    p.add_argument("--heartbeat-period", type=float, default=5.0,
                   metavar="S", help="endpoint heartbeat period in "
                                     "virtual seconds (default 5)")
    p.add_argument("--heartbeat-threshold", type=int, default=3,
                   metavar="N", help="missed beats before an endpoint "
                                     "is declared lost (default 3)")
    p.add_argument("--max-backlog", type=_positive_int, default=64,
                   metavar="N", help="per-client queue bound; excess "
                                     "submissions are rejected "
                                     "explicitly (default 64)")
    p.add_argument("--results", default=None, type=_output_path,
                   metavar="FILE.jsonl",
                   help="persist the durable result store (append-only "
                        "JSONL journal of result envelopes)")
    p.add_argument("--export", default=None, type=_output_or_stdout,
                   metavar="FILE",
                   help="write the canonical byte-stable JSON export "
                        "of final outcomes ('-' for stdout)")
    p.add_argument("--dispatch-log", default=None, type=_output_path,
                   metavar="FILE",
                   help="write the byte-reproducible dispatch log "
                        "(every scheduling decision) as JSON")
    _add_pool_options(p)
    p.set_defaults(fn=_cmd_serve)

    sub.add_parser("procurement",
                   help="demo TCO evaluation").set_defaults(
        fn=_cmd_procurement)
    return parser


def _user_error(exc: Exception) -> bool:
    """Whether ``exc`` is the user's to fix (one error line) rather
    than ours (traceback)."""
    if isinstance(exc, OSError):
        return exc.filename is not None  # names a file the user gave
    if isinstance(exc, ValueError):
        # what a malformed input file raises (``path:lineno: message``)
        from .faults import FaultPlanError
        from .history.store import HistoryError
        from .service.envelope import EnvelopeError
        from .telemetry.schema import SchemaError

        return isinstance(exc, (HistoryError, EnvelopeError, SchemaError,
                                FaultPlanError))
    return isinstance(exc, _UsageError)


def main(argv: list[str] | None = None) -> int:
    """Entry point: run the command; a bad, missing or unreadable input
    file and an unknown benchmark name are one error line and exit
    code 2, a closed stdout (``| head``) a silent 141."""
    try:
        code = _main(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Nobody reads stdout any more.  Point it at devnull so neither
        # a later print nor the interpreter's exit flush raises again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13  # as if killed by SIGPIPE
    except (_UsageError, OSError, ValueError) as exc:
        if not _user_error(exc):
            raise
        print(f"jubench: error: {exc}", file=sys.stderr)
        return 2


def _main(argv: list[str] | None) -> int:
    args = build_parser().parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    want_metrics = getattr(args, "metrics", False)
    tracer = sink = registry = prev_registry = None
    if trace_out or want_metrics:
        from .telemetry.export import JsonlSink, write_chrome_trace
        from .telemetry.metrics import MetricsRegistry, set_default_registry
        from .telemetry.spans import Tracer, install_tracer

        tracer = Tracer()
        install_tracer(tracer)
        registry = MetricsRegistry()
        prev_registry = set_default_registry(registry)
        if trace_out and trace_out.endswith(".jsonl"):
            sink = JsonlSink(trace_out)
            tracer.subscribe(sink)
    try:
        return args.fn(args)
    finally:
        engine = None
        suite = getattr(args, "suite", None)   # see _configured_suite
        if suite is not None:
            engine = suite.engine
            suite.engine = None  # the default suite is shared; detach
        journal_to = getattr(args, "journal", None)
        if engine is not None and journal_to is not None:
            if journal_to == "-":
                print(engine.journal.summary())
            else:
                count = engine.journal.to_jsonl(journal_to)
                print(f"journal: {count} task record(s) -> {journal_to}")
        if tracer is not None:
            if sink is not None:
                tracer.emit({"type": "metrics",
                             "snapshot": registry.snapshot()})
                sink.close()
                print(f"trace: {trace_out} "
                      f"(render offline: jubench report {trace_out})")
            elif trace_out:
                n = write_chrome_trace(trace_out, tracer)
                print(f"trace: {n} trace events -> {trace_out} "
                      f"(open in Perfetto or chrome://tracing)")
            install_tracer(None)
        if registry is not None:
            set_default_registry(prev_registry)
            if want_metrics:
                print(registry.render())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
