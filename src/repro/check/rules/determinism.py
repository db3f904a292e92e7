"""Determinism rules: wall clocks and unseeded RNG in model code.

The content-addressed result cache (``repro.exec.cache``) assumes that
a benchmark's output is a pure function of its cache key.  A wall-clock
reading or an unseeded random generator inside model code breaks that
assumption silently: the cache returns a result the current code could
never reproduce.  These rules police the model-code packages
(``vmpi/``, ``apps/``, ``synthetic/``, ``core/``); ``telemetry/``,
``exec/`` and ``faults/`` are exempt because their clocks are
injectable by design (fault schedules fire from the injected fault
clock and seeded / content-hash draws, never from wall time).
"""

from __future__ import annotations

import ast

from ..findings import Severity
from .base import (
    Collector,
    ModuleInfo,
    Rule,
    canonical_name,
    import_aliases,
    nodes,
)

#: path segments that mark model code (cache-key relevant)
MODEL_SEGMENTS = frozenset({"vmpi", "apps", "synthetic", "core"})
#: path segments exempt from determinism rules (injectable clocks).
#: ``faults`` mirrors telemetry's exemption: fault schedules fire from
#: the injectable fault clock and seeded/content-hash draws, so its
#: clock and RNG uses are deterministic by construction.
EXEMPT_SEGMENTS = frozenset({"telemetry", "exec", "check", "faults"})

WALL_CLOCKS = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: module-level numpy.random functions driven by hidden global state
NP_GLOBAL_FNS = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "normal", "uniform", "choice", "shuffle", "permutation",
    "seed", "standard_normal", "exponential", "poisson",
})

#: stdlib ``random`` module functions driven by the global Mersenne state
PY_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "uniform", "gauss",
    "normalvariate", "choice", "choices", "shuffle", "sample", "seed",
    "betavariate", "expovariate", "triangular", "vonmisesvariate",
})


def _model_scope(relpath: str) -> bool:
    segments = set(relpath.split("/"))
    if segments & EXEMPT_SEGMENTS:
        return False
    return bool(segments & MODEL_SEGMENTS)


class WallClockRule(Rule):
    """DET001: wall-clock reads in model code poison the cache key."""

    id = "DET001"
    name = "wall-clock-call"
    severity = Severity.WARNING
    description = ("Model code reads a wall clock (time.time, "
                   "perf_counter, datetime.now, ...); results become "
                   "irreproducible and the content-addressed cache key "
                   "is dishonest. Inject a clock instead.")

    def applies_to(self, relpath: str) -> bool:
        return _model_scope(relpath)

    def check_module(self, module: ModuleInfo, out: Collector) -> None:
        aliases = import_aliases(module.tree)
        for node in nodes(module.tree, ast.Call):
            name = canonical_name(node.func, aliases)
            if name in WALL_CLOCKS:
                out.add(self, module.relpath, node.lineno,
                        f"call to {name}() in model code; inject a "
                        f"clock so cached results stay reproducible")


class UnseededRngRule(Rule):
    """DET002: unseeded or global-state RNG use in model code."""

    id = "DET002"
    name = "unseeded-rng"
    severity = Severity.ERROR
    description = ("Model code draws randomness from an unseeded "
                   "generator or the module-level global RNG state; "
                   "two runs with the same cache key diverge. Thread a "
                   "seeded numpy.random.Generator through instead.")

    def applies_to(self, relpath: str) -> bool:
        return _model_scope(relpath)

    def check_module(self, module: ModuleInfo, out: Collector) -> None:
        aliases = import_aliases(module.tree)
        calls = nodes(module.tree, ast.Call)
        call_funcs = {id(n.func) for n in calls}
        for node in calls:
            self._check_call(node, aliases, module, out)
        for kind in (ast.Attribute, ast.Name):
            for node in nodes(module.tree, kind):
                if id(node) not in call_funcs:
                    self._check_reference(node, aliases, module, out)

    def _check_call(self, node: ast.Call, aliases: dict[str, str],
                    module: ModuleInfo, out: Collector) -> None:
        name = canonical_name(node.func, aliases)
        if name is None:
            return
        if name == "numpy.random.default_rng":
            if not node.args and not node.keywords:
                out.add(self, module.relpath, node.lineno,
                        "numpy.random.default_rng() without a seed; "
                        "pass an explicit seed or thread a Generator "
                        "through")
            return
        if name == "random.Random" and not node.args and not node.keywords \
                and aliases.get("random") == "random":
            out.add(self, module.relpath, node.lineno,
                    "random.Random() without a seed")
            return
        parts = name.split(".")
        if len(parts) == 3 and parts[:2] == ["numpy", "random"] and \
                parts[2] in NP_GLOBAL_FNS:
            out.add(self, module.relpath, node.lineno,
                    f"numpy.random.{parts[2]}() uses the hidden global "
                    f"RNG state; use a seeded Generator")
            return
        if len(parts) == 2 and parts[0] == "random" and \
                parts[1] in PY_RANDOM_FNS and \
                aliases.get("random") == "random":
            out.add(self, module.relpath, node.lineno,
                    f"random.{parts[1]}() uses the global Mersenne "
                    f"state; use a seeded generator instance")

    def _check_reference(self, node: ast.AST, aliases: dict[str, str],
                         module: ModuleInfo, out: Collector) -> None:
        """Flag ``default_rng`` passed by reference (e.g. as a dataclass
        ``default_factory``) -- it constructs an unseeded generator."""
        if isinstance(node, ast.Attribute) and node.attr != "default_rng":
            return
        name = canonical_name(node, aliases)
        if name == "numpy.random.default_rng":
            out.add(self, module.relpath, node.lineno,
                    "numpy.random.default_rng passed by reference "
                    "constructs an unseeded generator (e.g. "
                    "default_factory); use a seeded factory")
