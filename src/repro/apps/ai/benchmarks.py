"""The three AI benchmarks: Megatron-LM, MMoCLIP, ResNet.

Timing notes: the machine model's ``peak_flops`` is the FP64
tensor-core rate (19.5 TF on A100); mixed-precision training runs on
the BF16 tensor pipeline at 16x that rate, so AI compute is charged as
``flops / BF16_FACTOR`` with the attainable-fraction efficiency applied
on top (A100 Megatron sustains ~150 TF/s BF16 = 0.48 of 312).

Verification is framework-inherent (Sec. V-A, "arguably the weakest
form"): the training loss on a fixed synthetic dataset must decrease --
exactly what the paper says Megatron-LM-class benchmarks rely on.
"""

from __future__ import annotations

import numpy as np

from ...core.benchmark import BenchmarkResult
from ...core.fom import FigureOfMerit, FomKind
from ...core.variants import MemoryVariant
from ...core.verification import FrameworkVerifier
from ...vmpi import Phantom
from ...vmpi.machine import Machine
from ..base import AppBenchmark
from .models import (
    ClipTower,
    TinyGpt,
    TinyResNet,
    clip_contrastive_loss,
    synthetic_images,
    synthetic_pairs,
    synthetic_tokens,
)
from .optim import Adam

#: BF16 tensor throughput relative to the FP64 tensor peak on A100
BF16_FACTOR = 16.0
#: attainable fraction of the BF16 peak for large GEMMs
GEMM_EFFICIENCY = 0.48


def _train_verifier(losses: list[float]) -> tuple[bool, str]:
    check = FrameworkVerifier(decreasing_series="loss")(
        {"loss": np.asarray(losses)})
    return bool(check), (f"{check.detail}; loss {losses[0]:.3f} -> "
                         f"{losses[-1]:.3f}")


# ---------------------------------------------------------------------------
# Megatron-LM
# ---------------------------------------------------------------------------

#: GPT-175B profile (Sec. IV-A1c: "trains a 175 billion parameter model")
GPT_PARAMS = 175e9
GPT_LAYERS = 96
GPT_HIDDEN = 12288
GPT_SEQ = 2048
#: the FOM: time to train 20 million tokens at the measured rate
FOM_TOKENS = 20e6
#: global batch in tokens per optimiser step
TOKENS_PER_STEP = 2048 * GPT_SEQ
TP_SIZE = 4  # tensor parallelism within a node (NVLink)


def megatron_timing_program(world, steps: int):
    """3D-parallel GPT training steps (phantom costs; a job program,
    :mod:`repro.vmpi.job`).

    TP group = the node's 4 GPUs; PP stages split the layer stack over
    nodes (up to 12); DP replicates the rest.  Per step: the GEMM work
    of 6 * params * tokens FLOPs spread over all ranks, TP allreduces
    per layer, PP boundary sendrecvs, and the DP gradient allreduce.
    """
    n = world.size
    nodes = n // TP_SIZE
    pp_stages = min(12, max(1, nodes))
    stride = max(1, nodes // pp_stages)
    node_id = np.arange(n) // TP_SIZE
    tp_split, tp = world.split(node_id)                   # node-local
    pp_split, pp = world.split(node_id % stride, key=node_id)
    dp_split, dp = world.split(np.arange(n) % TP_SIZE * pp_stages +
                               node_id // stride % pp_stages)
    flops_per_rank = 6.0 * GPT_PARAMS * TOKENS_PER_STEP / n
    layers_per_stage = GPT_LAYERS / pp_stages
    # activations of one of 8 microbatches of each rank's DP share
    act_bytes = TOKENS_PER_STEP / np.maximum(1, dp.size) / 8.0 * \
        GPT_HIDDEN * 2.0
    # GEMMs (forward + backward + recompute)
    gemm = world.compute(flops=flops_per_rank / BF16_FACTOR,
                         bytes_moved=flops_per_rank / 300.0,
                         efficiency=GEMM_EFFICIENCY, label="gemm")
    # tensor-parallel allreduces: ~4 per layer per microbatch,
    # aggregated here into one op per microbatch over the stage, and
    # the pipeline ring's boundary sendrecvs
    micro = (tp.allreduce(4.0 * layers_per_stage * act_bytes / 8.0,
                          label="tp-allreduce"),) + pp.shift(act_bytes, tag=7)
    # data-parallel gradient allreduce (sharded parameters)
    grads = 2.0 * GPT_PARAMS / (TP_SIZE * pp_stages)
    step = (gemm,) + micro * 8 + (dp.allreduce(grads, label="dp-allreduce"),)
    return ((tp_split, pp_split, dp_split), step, steps, ()), pp_stages


class MegatronBenchmark(AppBenchmark):
    """Runnable Megatron-LM benchmark."""

    NAME = "Megatron-LM"
    fom = FigureOfMerit(name="time to train 20M tokens",
                        kind=FomKind.RATE, work=FOM_TOKENS)

    def _execute(self, nodes: int, *, variant: MemoryVariant | None,
                 scale: float, real: bool) -> BenchmarkResult:
        machine = self.machine(nodes)
        if real:
            return self._execute_real(nodes, machine, scale)
        steps_small = 2
        spmd = self.run_program(machine, megatron_timing_program,
                                args=(steps_small,))
        seconds_per_step = spmd.elapsed / steps_small
        tokens_per_second = TOKENS_PER_STEP / seconds_per_step
        fom = self.fom.time_metric(tokens_per_second)
        return self.result(
            nodes, spmd, fom_seconds=fom,
            parameters=GPT_PARAMS,
            tokens_per_second=tokens_per_second,
            pipeline_stages=spmd.values[0],
            compute_seconds=spmd.compute_seconds,
            comm_seconds=spmd.comm_seconds)

    def _execute_real(self, nodes: int, machine: Machine,
                      scale: float) -> BenchmarkResult:
        rng = np.random.default_rng(175)
        gpt = TinyGpt(vocab=12, dim=16, heads=2, layers=2, seq=8, rng=rng)
        opt = Adam(gpt.parameters(), lr=3e-3)
        steps = max(40, int(120 * scale))
        losses = []
        for _ in range(steps):
            ids, tgt = synthetic_tokens(8, 8, 12, rng)
            losses.append(gpt.train_step(ids, tgt, opt))
        ok, detail = _train_verifier(losses)

        def tiny(comm):
            yield comm.barrier()

        spmd = self.run_program(machine, tiny)
        return self.result(nodes, spmd, fom_seconds=max(spmd.elapsed, 1e-6),
                           verified=ok, verification=detail,
                           final_loss=losses[-1],
                           model_parameters=gpt.n_parameters())


# ---------------------------------------------------------------------------
# MMoCLIP
# ---------------------------------------------------------------------------

#: ViT-L/14 two-tower profile and dataset size (Sec. IV-A1d)
CLIP_PARAMS = 428e6
CLIP_SAMPLES = 3_200_000
CLIP_FLOPS_PER_PAIR = 3.0e11     # fwd+bwd, image + text towers
CLIP_GLOBAL_BATCH = 4096
CLIP_EMBED_DIM = 768


def mmoclip_timing_program(world, steps: int):
    """Data-parallel contrastive training with the feature allgather
    (a job program, :mod:`repro.vmpi.job`)."""
    batch_local = CLIP_GLOBAL_BATCH / world.size
    flops = CLIP_FLOPS_PER_PAIR * batch_local
    feature_bytes = batch_local * CLIP_EMBED_DIM * 2.0 * 2  # both towers
    step = (
        world.compute(flops=flops / BF16_FACTOR,
                      bytes_moved=flops / 300.0,
                      efficiency=GEMM_EFFICIENCY, label="towers"),
        # the CLIP-specific step: allgather all ranks' embeddings to
        # build the global similarity matrix
        world.allgather(Phantom(feature_bytes), label="feature-gather"),
        world.compute(flops=CLIP_GLOBAL_BATCH * batch_local *
                      CLIP_EMBED_DIM * 4.0 / BF16_FACTOR,
                      bytes_moved=CLIP_GLOBAL_BATCH * batch_local * 4.0,
                      efficiency=GEMM_EFFICIENCY, label="similarity"),
        world.allreduce(Phantom(2.0 * CLIP_PARAMS / world.size),
                        label="dp-allreduce"),
    )
    return ((), step, steps, ()), batch_local


class MmoclipBenchmark(AppBenchmark):
    """Runnable MMoCLIP benchmark."""

    NAME = "MMoCLIP"
    fom = FigureOfMerit(name="time to train 3.2M pairs",
                        kind=FomKind.RATE, work=float(CLIP_SAMPLES))

    def _execute(self, nodes: int, *, variant: MemoryVariant | None,
                 scale: float, real: bool) -> BenchmarkResult:
        machine = self.machine(nodes)
        if real:
            return self._execute_real(nodes, machine, scale)
        steps_small = 3
        spmd = self.run_program(machine, mmoclip_timing_program,
                                args=(steps_small,))
        pairs_per_second = CLIP_GLOBAL_BATCH * steps_small / spmd.elapsed
        fom = self.fom.time_metric(pairs_per_second)
        return self.result(
            nodes, spmd, fom_seconds=fom,
            pairs_per_second=pairs_per_second, samples=CLIP_SAMPLES,
            compute_seconds=spmd.compute_seconds,
            comm_seconds=spmd.comm_seconds)

    def _execute_real(self, nodes: int, machine: Machine,
                      scale: float) -> BenchmarkResult:
        rng = np.random.default_rng(14)
        img_tower = ClipTower(6, 12, 2, 1, 8, rng)
        txt_tower = ClipTower(6, 12, 2, 1, 8, rng)
        opt = Adam(img_tower.parameters() + txt_tower.parameters(), lr=3e-3)
        losses = []
        for _ in range(max(30, int(80 * scale))):
            img, txt = synthetic_pairs(16, 3, 6, rng)
            for p in opt.params:
                p.zero_grad()
            z_img = img_tower(img)
            z_txt = txt_tower(txt)
            loss, dzi, dzt = clip_contrastive_loss(z_img, z_txt)
            img_tower.backward(dzi)
            txt_tower.backward(dzt)
            opt.step()
            losses.append(loss)
        ok, detail = _train_verifier(losses)
        ok = bool(ok and losses[-1] < np.log(16))  # beat the random baseline

        def tiny(comm):
            yield comm.barrier()

        spmd = self.run_program(machine, tiny)
        return self.result(nodes, spmd, fom_seconds=max(spmd.elapsed, 1e-6),
                           verified=ok, verification=detail,
                           final_loss=losses[-1])


# ---------------------------------------------------------------------------
# ResNet
# ---------------------------------------------------------------------------

RESNET_PARAMS = 25.6e6
RESNET_FLOPS_PER_IMAGE = 1.2e10  # fwd+bwd ResNet-50 at 224^2
RESNET_IMAGES = 25_600_000       # the fixed training workload
RESNET_GLOBAL_BATCH = 2048


def resnet_timing_program(world, steps: int):
    """Horovod-style data-parallel ResNet-50 training (a job program,
    :mod:`repro.vmpi.job`)."""
    batch_local = RESNET_GLOBAL_BATCH / world.size
    step = (
        world.compute(
            flops=RESNET_FLOPS_PER_IMAGE * batch_local / BF16_FACTOR,
            bytes_moved=batch_local * 150e6 / 10.0,
            efficiency=GEMM_EFFICIENCY * 0.6,  # convs attain less
            label="conv"),
        world.allreduce(Phantom(2.0 * RESNET_PARAMS), label="grad-allreduce"),
    )
    return ((), step, steps, ()), batch_local


class ResnetBenchmark(AppBenchmark):
    """Runnable ResNet benchmark."""

    NAME = "ResNet"
    fom = FigureOfMerit(name="time to train 25.6M images",
                        kind=FomKind.RATE, work=float(RESNET_IMAGES))

    def _execute(self, nodes: int, *, variant: MemoryVariant | None,
                 scale: float, real: bool) -> BenchmarkResult:
        machine = self.machine(nodes)
        if real:
            return self._execute_real(nodes, machine, scale)
        steps_small = 4
        spmd = self.run_program(machine, resnet_timing_program,
                                args=(steps_small,))
        images_per_second = RESNET_GLOBAL_BATCH * steps_small / spmd.elapsed
        fom = self.fom.time_metric(images_per_second)
        return self.result(
            nodes, spmd, fom_seconds=fom,
            images_per_second=images_per_second,
            compute_seconds=spmd.compute_seconds,
            comm_seconds=spmd.comm_seconds)

    def _execute_real(self, nodes: int, machine: Machine,
                      scale: float) -> BenchmarkResult:
        rng = np.random.default_rng(50)
        net = TinyResNet(in_ch=2, channels=6, blocks=1, classes=3, rng=rng)
        opt = Adam(net.parameters(), lr=2e-3)
        losses = []
        for _ in range(max(20, int(40 * scale))):
            x, y = synthetic_images(12, 2, 8, 3, rng)
            losses.append(net.train_step(x, y, opt))
        ok, detail = _train_verifier(losses)

        def tiny(comm):
            yield comm.barrier()

        spmd = self.run_program(machine, tiny)
        return self.result(nodes, spmd, fom_seconds=max(spmd.elapsed, 1e-6),
                           verified=ok, verification=detail,
                           final_loss=losses[-1])
