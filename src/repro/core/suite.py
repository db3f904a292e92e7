"""The suite facade and the Fig.-1 creation pipeline.

:class:`JupiterBenchmarkSuite` is the user-facing entry point: look up
benchmarks, run them on the simulated machine, run the Fig. 2 / Fig. 3
scaling studies, and drive a full procurement evaluation.

:func:`creation_pipeline` mirrors Figure 1's process -- workload
analysis -> application selection -> benchmark preparation ->
optimisation feedback loop -> packaging -- as executable stages, used by
the suite-pipeline bench and the project-management tests.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from ..exec.cache import machine_config_hash, result_key
from ..exec.engine import ExecutionEngine, WorkItem
from ..telemetry.export import emit_vmpi
from ..telemetry.metrics import default_registry
from ..telemetry.spans import current_tracer
from .benchmark import Benchmark, BenchmarkResult, Category
from .fom import ReferenceResult
from .registry import (
    BENCHMARKS,
    IMPLEMENTATIONS,
    BenchmarkInfo,
    get_info,
    load_implementation,
)
from .scaling import (
    PointMapper,
    StrongScalingResult,
    WeakScalingResult,
    strong_scaling,
    weak_scaling,
)
from .variants import MemoryVariant


def encode_result(result: BenchmarkResult) -> dict[str, Any]:
    """JSON-safe cache representation of a :class:`BenchmarkResult`.

    The SPMD trace is dropped (it is a diagnostic, not a result) and
    non-JSON detail values are stringified; FOM floats round-trip
    exactly through JSON.
    """
    def safe(v: Any) -> Any:
        if isinstance(v, (str, int, float, bool)) or v is None:
            return v
        if isinstance(v, (list, tuple)):
            return [safe(x) for x in v]
        if isinstance(v, dict):
            return {str(k): safe(x) for k, x in v.items()}
        return str(v)

    return {
        "benchmark": result.benchmark,
        "nodes": result.nodes,
        "fom_seconds": result.fom_seconds,
        "variant": result.variant.value if result.variant else None,
        "verified": result.verified,
        "verification": result.verification,
        "details": safe(result.details),
    }


def decode_result(payload: dict[str, Any]) -> BenchmarkResult:
    """Rebuild a :class:`BenchmarkResult` from its cache representation."""
    variant = MemoryVariant(payload["variant"]) if payload["variant"] else None
    return BenchmarkResult(
        benchmark=payload["benchmark"], nodes=payload["nodes"],
        fom_seconds=payload["fom_seconds"], variant=variant,
        verified=payload["verified"], verification=payload["verification"],
        details=dict(payload["details"]))


class JupiterBenchmarkSuite:
    """All runnable benchmarks of the suite, keyed by Table II name.

    :meth:`register` attaches a factory to a name;
    :meth:`register_implementations` attaches the lazy factories of
    :data:`~repro.core.registry.IMPLEMENTATIONS`, which import a
    benchmark's module on its first :meth:`get`.
    """

    def __init__(self, engine: ExecutionEngine | None = None) -> None:
        self._factories: dict[str, Callable[[], Benchmark]] = {}
        self._instances: dict[str, Benchmark] = {}
        # Registry and instance cache are shared across engine worker
        # threads; all access goes through this lock.
        self._lock = threading.RLock()
        self.engine = engine

    # The process engine backend pickles bound-method workunits
    # (``fn=suite.run``); locks, live benchmark instances, and the
    # engine (which owns pools and locks of its own) cannot cross the
    # process boundary, so only the factory registry travels and the
    # worker rebuilds the rest lazily.
    def __getstate__(self) -> dict:
        with self._lock:
            return {"_factories": dict(self._factories)}

    def __setstate__(self, state: dict) -> None:
        self._factories = state["_factories"]
        self._instances = {}
        self._lock = threading.RLock()
        self.engine = None

    # -- registry ------------------------------------------------------------

    def register(self, name: str,
                 factory: Callable[[], Benchmark]) -> None:
        """Register a benchmark implementation for a Table II name."""
        get_info(name)  # validates the name
        with self._lock:
            self._factories[name] = factory

    def register_implementations(
            self, names: Iterable[str] = IMPLEMENTATIONS) -> None:
        """Register the table's lazy factory for each of ``names``."""
        for name in names:
            self.register(name,
                          functools.partial(load_implementation, name))

    def names(self) -> list[str]:
        """Registered benchmark names in Table II order."""
        ordered = [b.name for b in BENCHMARKS]
        with self._lock:
            return [n for n in ordered if n in self._factories]

    def get(self, name: str) -> Benchmark:
        """The (cached) benchmark implementation for a name.

        Thread-safe: concurrent callers observe exactly one instance
        per name (the factory runs at most once).
        """
        with self._lock:
            if name not in self._factories:
                raise KeyError(
                    f"benchmark {name!r} has no registered implementation; "
                    f"registered: {', '.join(self.names()) or '(none)'}")
            if name not in self._instances:
                self._instances[name] = self._factories[name]()
            return self._instances[name]

    def infos(self, category: Category | None = None) -> list[BenchmarkInfo]:
        """Metadata of registered benchmarks, optionally by category."""
        out = []
        for name in self.names():
            info = get_info(name)
            if category is None or category in info.categories:
                out.append(info)
        return out

    # -- execution --------------------------------------------------------------

    def run(self, name: str, nodes: int | None = None, *,
            variant: MemoryVariant | None = None,
            scale: float = 1.0, real: bool = False) -> BenchmarkResult:
        """Run one benchmark (see :meth:`Benchmark.run`)."""
        return self.get(name).run(nodes, variant=variant, scale=scale,
                                  real=real)

    def run_key(self, name: str, nodes: int | None = None, *,
                variant: MemoryVariant | None = None, scale: float = 1.0,
                real: bool = False, kind: str = "result") -> str:
        """Content address of one execution (see ``repro.exec.cache``)."""
        bench = self.get(name)
        if nodes is None:
            nodes = bench.info.reference_nodes
        params = {"nodes": nodes, "scale": scale, "real": real,
                  "variant": variant.value if variant else None,
                  "kind": kind}
        return result_key(name, params,
                          platform=machine_config_hash(bench.system()))

    def run_all(self, names: Sequence[str] | None = None, *,
                nodes: int | None = None,
                variant: MemoryVariant | None = None, scale: float = 1.0,
                real: bool = False) -> list[BenchmarkResult]:
        """Run a set of benchmarks (default: all registered ones).

        With an :attr:`engine`, independent benchmarks fan out in
        parallel and memoise through the engine's content-addressed
        cache; results always come back in the requested order.
        Without one this is a plain sequential loop.

        An engine in graceful-degradation mode (``engine.degrade``,
        the default under fault injection) never aborts the batch: a
        benchmark whose retries are exhausted is recorded as an error
        in the run journal and dropped from the returned results.
        """
        wanted = list(names) if names is not None else self.names()
        tracer = current_tracer()
        with tracer.span("suite.run_all", kind="driver",
                         benchmarks=len(wanted)):
            if self.engine is None:
                results = []
                for name in wanted:
                    with tracer.span(f"run:{name}", kind="benchmark",
                                     benchmark=name):
                        results.append(self.run(name, nodes,
                                                variant=variant,
                                                scale=scale, real=real))
            else:
                items = [WorkItem(fn=self.run, args=(name, nodes),
                                  kwargs={"variant": variant,
                                          "scale": scale, "real": real},
                                  key=self.run_key(name, nodes,
                                                   variant=variant,
                                                   scale=scale, real=real),
                                  label=f"run:{name}",
                                  encode=encode_result,
                                  decode=decode_result)
                         for name in wanted]
                if self.engine.degrade:
                    results = [o.value for o in self.engine.map(items)
                               if o.ok]
                else:
                    results = self.engine.run(items)
            for result in results:
                self._observe(result)
        return results

    def _observe(self, result: BenchmarkResult) -> None:
        """Record one result's telemetry: FOM gauge + vMPI rank traces.

        Cache hits arrive without an SPMD trace (it is dropped from the
        cache representation), so warm reruns never duplicate rank
        timelines.
        """
        default_registry().gauge("benchmark_fom_seconds",
                                 benchmark=result.benchmark,
                                 nodes=result.nodes).set(result.fom_seconds)
        tracer = current_tracer()
        if tracer.enabled and result.spmd is not None:
            emit_vmpi(tracer, result.benchmark, result.nodes, result.spmd)

    def _point_mapper(self, name: str, *, study: str,
                      variant: MemoryVariant | None,
                      scale: float) -> PointMapper | None:
        """A scaling-study mapper fanning node points through the engine.

        In graceful-degradation mode a failed point maps to NaN -- the
        scaling aggregators collect those into their ``failed`` node
        lists (journalled as errors, skipped in figures) instead of
        aborting the sweep.
        """
        if self.engine is None:
            return None

        def mapper(run: Callable[[int], float],
                   counts: Sequence[int]) -> list[float]:
            items = [WorkItem(fn=run, args=(n,),
                              key=self.run_key(name, n, variant=variant,
                                               scale=scale,
                                               kind=f"{study}-fom"),
                              label=f"{study}:{name}@{n}")
                     for n in counts]
            if self.engine.degrade:
                return [o.value if o.ok else float("nan")
                        for o in self.engine.map(items)]
            return self.engine.run(items)

        return mapper

    def reference_run(self, name: str, scale: float = 1.0) -> ReferenceResult:
        """Execute on the reference node count; produce the reference
        time metric proposals must beat (Sec. II-C)."""
        info = get_info(name)
        result = self.run(name, info.reference_nodes, scale=scale)
        return ReferenceResult(benchmark=name, nodes=info.reference_nodes,
                               time_metric=result.fom_seconds)

    def strong_scaling_study(self, name: str, *, scale: float = 1.0,
                             power_of_two: bool = False
                             ) -> StrongScalingResult:
        """The Fig.-2 study for one Base benchmark."""
        info = get_info(name)
        run = _StudyPoint(self, name, "strong", None, scale)
        with current_tracer().span(f"study:strong:{name}", kind="study",
                                   benchmark=name):
            return strong_scaling(name, run, info.reference_nodes,
                                  power_of_two=power_of_two,
                                  mapper=self._point_mapper(
                                      name, study="strong", variant=None,
                                      scale=scale))

    def weak_scaling_study(self, name: str, node_counts: Iterable[int], *,
                           variant: MemoryVariant | None = None,
                           scale: float = 1.0) -> WeakScalingResult:
        """The Fig.-3 study for one High-Scaling benchmark.

        The benchmark's own workload rule grows the problem with the
        node count (each implementation sizes per-device work from the
        memory variant).
        """
        run = _StudyPoint(self, name, "weak", variant, scale)
        with current_tracer().span(f"study:weak:{name}", kind="study",
                                   benchmark=name):
            return weak_scaling(name, run, node_counts,
                                mapper=self._point_mapper(
                                    name, study="weak", variant=variant,
                                    scale=scale))


@dataclass(frozen=True)
class _StudyPoint:
    """``run(nodes) -> FOM seconds`` of one scaling study.

    A module-level callable rather than a closure, so the process
    backend can pickle it (the suite travels as its factory registry,
    see :meth:`JupiterBenchmarkSuite.__getstate__`).
    """

    suite: JupiterBenchmarkSuite
    name: str
    study: str
    variant: MemoryVariant | None
    scale: float

    def __call__(self, nodes: int) -> float:
        with current_tracer().span(f"point:{self.name}@{nodes}",
                                   kind="point", study=self.study,
                                   benchmark=self.name, nodes=nodes):
            result = self.suite.run(self.name, nodes, variant=self.variant,
                                    scale=self.scale)
        self.suite._observe(result)
        return result.fom_seconds


_DEFAULT: JupiterBenchmarkSuite | None = None
_DEFAULT_LOCK = threading.Lock()


def load_suite() -> JupiterBenchmarkSuite:
    """The fully populated default suite (imports no implementation).

    Thread-safe: concurrent first calls populate exactly one instance,
    and callers never observe a partially registered suite.
    """
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            suite = JupiterBenchmarkSuite()
            suite.register_implementations()
            _DEFAULT = suite
    return _DEFAULT


# ---------------------------------------------------------------------------
# Fig. 1: the suite-creation pipeline
# ---------------------------------------------------------------------------

@dataclass
class PipelineState:
    """Evolving state of the suite-creation process."""

    workload_analysis: dict[str, float] = field(default_factory=dict)
    selected: list[str] = field(default_factory=list)
    prepared: dict[str, dict] = field(default_factory=dict)
    optimisation_rounds: int = 0
    packaged: list[str] = field(default_factory=list)
    log: list[str] = field(default_factory=list)


#: The 11-point readiness checklist tracked per application (Sec. III-E).
CHECKLIST = (
    "source code availability",
    "licence clarified",
    "test case defined",
    "input data prepared",
    "JUBE integration",
    "verification implemented",
    "reference execution",
    "scaling study",
    "rules documented",
    "description created",
    "repository packaged",
)


def analyse_workloads(allocations: dict[str, float]) -> dict[str, float]:
    """Stage 1: normalise compute-time allocations by domain."""
    total = sum(allocations.values())
    if total <= 0:
        raise ValueError("no allocation data")
    return {k: v / total for k, v in sorted(allocations.items())}


def select_applications(shares: dict[str, float],
                        candidates: dict[str, str],
                        min_share: float = 0.02) -> list[str]:
    """Stage 2: keep candidates whose domain carries enough allocation."""
    return [app for app, domain in candidates.items()
            if shares.get(domain, 0.0) >= min_share]


def prepare_benchmark(name: str,
                      completed: Iterable[str] = CHECKLIST) -> dict:
    """Stage 3: the per-application checklist record."""
    done = set(completed)
    unknown = done - set(CHECKLIST)
    if unknown:
        raise ValueError(f"unknown checklist items: {sorted(unknown)}")
    return {item: (item in done) for item in CHECKLIST}


def creation_pipeline(allocations: dict[str, float],
                      candidates: dict[str, str],
                      optimisation_rounds: int = 2) -> PipelineState:
    """Run the full Fig.-1 pipeline and return the final state."""
    state = PipelineState()
    state.workload_analysis = analyse_workloads(allocations)
    state.log.append("analysed workload allocations")
    state.selected = select_applications(state.workload_analysis, candidates)
    state.log.append(f"selected {len(state.selected)} applications")
    for app in state.selected:
        state.prepared[app] = prepare_benchmark(app)
    state.log.append("prepared benchmarks (checklists complete)")
    for _ in range(optimisation_rounds):
        state.optimisation_rounds += 1
        state.log.append("optimisation feedback round")
    ready = [app for app, checklist in state.prepared.items()
             if all(checklist.values())]
    state.packaged = sorted(ready)
    state.log.append(f"packaged {len(state.packaged)} benchmarks")
    return state
