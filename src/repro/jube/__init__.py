"""A native re-implementation of the JUBE workflow environment semantics.

The paper's replicability infrastructure (Sec. III-B): parameter sets
with dependency-resolved ``$ref`` substitution and python-mode
evaluation, tag-selected variants, step DAGs, platform inheritance, and
tabular result extraction.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "parameters": (
        "Parameter", "ParameterError", "ParameterSet", "expand", "resolve"
    ),
    "platform": (
        "JUPITER_BOOSTER", "JUWELS_BOOSTER", "JUWELS_CLUSTER", "PLATFORMS",
        "Platform", "get_platform"
    ),
    "result": ("Column", "ResultTable", "WorkunitRecord", "table"),
    "runtime": (
        "BenchmarkSpec", "JubeRuntime", "RunResult", "WorkunitRun",
        "submit_step"
    ),
    "spec": ("SpecError", "load_spec"),
    "steps": ("Step", "StepContext", "StepError", "Task", "step_order"),
})
