"""AI benchmarks substrate: NumPy NN layers with explicit backward,
optimisers, and the three benchmarks (Megatron-LM, MMoCLIP, ResNet)."""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "benchmarks": (
        "BF16_FACTOR", "CLIP_SAMPLES", "FOM_TOKENS", "GPT_PARAMS",
        "MegatronBenchmark", "MmoclipBenchmark", "RESNET_IMAGES",
        "ResnetBenchmark", "megatron_timing_program", "mmoclip_timing_program",
        "resnet_timing_program"
    ),
    "layers": (
        "Conv2d", "Embedding", "Gelu", "GlobalAvgPool", "Layer", "LayerNorm",
        "Linear", "Parameter", "Relu", "SelfAttention", "Sequential",
        "cross_entropy", "softmax"
    ),
    "models": (
        "ClipTower", "ResidualConvBlock", "TinyGpt", "TinyResNet",
        "TransformerBlock", "clip_contrastive_loss", "synthetic_images",
        "synthetic_pairs", "synthetic_tokens"
    ),
    "optim": ("Adam", "Sgd"),
})
