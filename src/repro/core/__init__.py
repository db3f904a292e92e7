"""The procurement methodology -- the paper's primary contribution.

FOM normalisation, benchmark categories and metadata (Tables I/II),
memory variants, High-Scaling extrapolation, TCO value-for-money,
proposal evaluation, scaling studies, verification framework, and the
suite facade.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "benchmark": (
        "Benchmark", "BenchmarkInfo", "BenchmarkResult", "Category", "Dwarf",
        "Target"
    ),
    "continuous": (
        "Baseline", "CampaignReport", "ContinuousBenchmarking",
        "RegressionAlert"
    ),
    "descriptions": ("SECTIONS", "describe", "describe_all"),
    "fom": ("FigureOfMerit", "FomKind", "ReferenceResult"),
    "highscaling": (
        "HighScalingAssessment", "HighScalingCase", "PREP_PARTITION_FLOPS",
        "PROPOSAL_PARTITION_FLOPS", "SCALE_UP", "prep_partition_nodes",
        "proposal_partition_nodes"
    ),
    "procurement": (
        "HighScalingCommitment", "ProcurementEvaluation", "ProcurementScore",
        "RuleViolation"
    ),
    "registry": (
        "BENCHMARKS", "application_benchmarks", "by_category", "get_info",
        "high_scaling_benchmarks", "procurement_benchmarks",
        "synthetic_benchmarks"
    ),
    "scaling": (
        "FIG2_FACTORS", "ScalingPoint", "StrongScalingResult",
        "WeakScalingResult", "scaled_node_counts", "strong_scaling",
        "weak_scaling"
    ),
    "suite": (
        "CHECKLIST", "JupiterBenchmarkSuite", "PipelineState",
        "analyse_workloads", "creation_pipeline", "decode_result",
        "encode_result", "load_suite", "prepare_benchmark",
        "select_applications"
    ),
    "tco": (
        "Commitment", "SystemProposal", "TcoAssessment", "TcoModel",
        "WorkloadEntry", "WorkloadMix"
    ),
    "variants": ("MemoryVariant", "VariantSizing", "variant_labels"),
    "verification": (
        "ExactVerifier", "FrameworkVerifier", "ModelVerifier",
        "ToleranceVerifier", "VerificationMethod", "VerificationResult"
    ),
})
