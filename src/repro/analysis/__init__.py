"""Analysis and reporting: the paper's tables, figures, and models."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "figures": (
        "FIG2_APPS", "FIG3_APPS", "FIG3_NODES", "Fig2Data", "Fig3Data",
        "figure2", "figure3"
    ),
    "models": ("JuqcsNetworkModel", "NekrsPredictor", "PicongpuScalingModel"),
    "tables": (
        "TABLE1_DWARFS", "render_table1", "render_table2", "table1",
        "table1_records", "table2", "table2_records"
    ),
})
