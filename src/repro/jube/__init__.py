"""JUBE-style result tables (Sec. III-B).

JUBE condenses a benchmark run into a tabular summary including the
FOM.  Only that table layer is reproduced here (``analysis.tables``
prints the paper's Tables I/II through it); JUBE's parameter spaces and
step DAGs are not (DESIGN.md, "JUBE and continuous benchmarking").
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "result": ("Column", "ResultTable", "WorkunitRecord", "table"),
})
