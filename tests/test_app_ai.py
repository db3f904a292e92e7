"""Tests for the AI substrate: layers (gradient-checked), optimisers,
and the three AI benchmarks."""

import numpy as np
import pytest

from repro.apps.ai import (
    Adam,
    ClipTower,
    Conv2d,
    Gelu,
    LayerNorm,
    Linear,
    MegatronBenchmark,
    MmoclipBenchmark,
    ResnetBenchmark,
    SelfAttention,
    Sequential,
    Sgd,
    TinyGpt,
    TinyResNet,
    clip_contrastive_loss,
    cross_entropy,
    softmax,
    synthetic_images,
    synthetic_pairs,
    synthetic_tokens,
)


def numeric_grad_check(layer, x, rng, atol=1e-6):
    """Input- and parameter-gradient check against finite differences."""
    y = layer.forward(x)
    dy = rng.normal(size=y.shape)
    for p in layer.parameters():
        p.zero_grad()
    dx = layer.backward(dy)
    eps = 1e-6
    i = tuple(rng.integers(s) for s in x.shape)
    xp, xm = x.copy(), x.copy()
    xp[i] += eps
    xm[i] -= eps
    numeric = (np.sum(layer.forward(xp) * dy) -
               np.sum(layer.forward(xm) * dy)) / (2 * eps)
    assert abs(dx[i] - numeric) < atol
    for p in layer.parameters():
        layer.forward(x)
        for q in layer.parameters():
            q.zero_grad()
        layer.backward(dy)
        j = tuple(rng.integers(s) for s in p.shape)
        old = p.value[j]
        p.value[j] = old + eps
        fp = np.sum(layer.forward(x) * dy)
        p.value[j] = old - eps
        fm = np.sum(layer.forward(x) * dy)
        p.value[j] = old
        assert abs(p.grad[j] - (fp - fm) / (2 * eps)) < atol


class TestLayers:
    @pytest.mark.parametrize("factory,shape", [
        (lambda rng: Linear(5, 7, rng), (4, 5)),
        (lambda rng: Gelu(), (4, 5)),
        (lambda rng: LayerNorm(6), (3, 6)),
        (lambda rng: SelfAttention(8, 2, rng), (2, 5, 8)),
        (lambda rng: SelfAttention(8, 2, rng, causal=True), (2, 5, 8)),
        (lambda rng: Conv2d(2, 3, 3, rng), (2, 2, 6, 6)),
        (lambda rng: Sequential([Linear(5, 9, rng), Gelu(),
                                 Linear(9, 5, rng)]), (3, 5)),
    ])
    def test_gradients_match_numeric(self, factory, shape):
        rng = np.random.default_rng(0)
        numeric_grad_check(factory(rng), rng.normal(size=shape), rng)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        s = softmax(rng.normal(size=(4, 7)))
        assert np.allclose(s.sum(axis=-1), 1.0)
        assert np.all(s >= 0)

    def test_cross_entropy_perfect_prediction(self):
        logits = np.full((2, 3), -20.0)
        logits[0, 1] = 20.0
        logits[1, 2] = 20.0
        loss, grad = cross_entropy(logits, np.array([1, 2]))
        assert loss < 1e-8
        assert np.abs(grad).max() < 1e-8

    def test_attention_head_divisibility(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            SelfAttention(7, 2, rng)

    def test_causal_attention_ignores_future(self):
        rng = np.random.default_rng(3)
        attn = SelfAttention(8, 2, rng, causal=True)
        x = rng.normal(size=(1, 6, 8))
        y1 = attn.forward(x)[0, 2].copy()
        x2 = x.copy()
        x2[0, 4:] += 100.0  # perturb the future
        y2 = attn.forward(x2)[0, 2]
        assert np.allclose(y1, y2)


class TestOptimisers:
    def quadratic_params(self):
        from repro.apps.ai import Parameter
        return [Parameter(np.array([5.0, -3.0]))]

    def test_sgd_converges_on_quadratic(self):
        params = self.quadratic_params()
        opt = Sgd(params, lr=0.2)
        for _ in range(60):
            params[0].zero_grad()
            params[0].grad += 2 * params[0].value
            opt.step()
        assert np.abs(params[0].value).max() < 1e-4

    def test_adam_converges_on_quadratic(self):
        params = self.quadratic_params()
        opt = Adam(params, lr=0.3)
        for _ in range(200):
            params[0].zero_grad()
            params[0].grad += 2 * params[0].value
            opt.step()
        assert np.abs(params[0].value).max() < 1e-2

    def test_lr_validation(self):
        with pytest.raises(ValueError):
            Sgd(self.quadratic_params(), lr=0.0)
        with pytest.raises(ValueError):
            Adam(self.quadratic_params(), lr=-1.0)


class TestModelsLearn:
    def test_gpt_loss_decreases(self):
        rng = np.random.default_rng(4)
        gpt = TinyGpt(vocab=12, dim=16, heads=2, layers=2, seq=8, rng=rng)
        opt = Adam(gpt.parameters(), lr=3e-3)
        losses = []
        for _ in range(100):
            ids, tgt = synthetic_tokens(8, 8, 12, rng)
            losses.append(gpt.train_step(ids, tgt, opt))
        assert losses[-1] < np.log(12)  # beats the uniform baseline
        assert losses[-1] < losses[0] / 2

    def test_clip_loss_beats_random_baseline(self):
        rng = np.random.default_rng(5)
        img_t = ClipTower(6, 12, 2, 1, 8, rng)
        txt_t = ClipTower(6, 12, 2, 1, 8, rng)
        opt = Adam(img_t.parameters() + txt_t.parameters(), lr=3e-3)
        loss = None
        for _ in range(60):
            img, txt = synthetic_pairs(16, 3, 6, rng)
            for p in opt.params:
                p.zero_grad()
            zi, zt = img_t(img), txt_t(txt)
            loss, dzi, dzt = clip_contrastive_loss(zi, zt)
            img_t.backward(dzi)
            txt_t.backward(dzt)
            opt.step()
        assert loss < np.log(16)

    def test_resnet_loss_decreases(self):
        rng = np.random.default_rng(6)
        net = TinyResNet(in_ch=2, channels=6, blocks=1, classes=3, rng=rng)
        opt = Adam(net.parameters(), lr=2e-3)
        losses = []
        for _ in range(35):
            x, y = synthetic_images(12, 2, 8, 3, rng)
            losses.append(net.train_step(x, y, opt))
        assert losses[-1] < losses[0]

    def test_clip_embeddings_normalised(self):
        rng = np.random.default_rng(7)
        tower = ClipTower(6, 12, 2, 1, 8, rng)
        img, _ = synthetic_pairs(5, 3, 6, rng)
        z = tower(img)
        assert np.allclose(np.linalg.norm(z, axis=-1), 1.0)


class TestAiBenchmarks:
    def test_megatron_real_loss_decreases(self):
        res = MegatronBenchmark().run(nodes=1, real=True, scale=0.4)
        assert res.verified is True

    def test_megatron_reference_plausible(self):
        """20M tokens on the 96-node reference in minutes, not hours."""
        res = MegatronBenchmark().run(nodes=96)
        assert 60 < res.fom_seconds < 3600

    def test_megatron_scales(self):
        b = MegatronBenchmark()
        t48 = b.run(nodes=48).fom_seconds
        t192 = b.run(nodes=192).fom_seconds
        assert t192 < t48 / 2

    def test_mmoclip_real_and_scaling(self):
        b = MmoclipBenchmark()
        assert b.run(nodes=1, real=True, scale=0.4).verified is True
        t4 = b.run(nodes=4).fom_seconds
        t16 = b.run(nodes=16).fom_seconds
        assert t16 < t4 / 2

    def test_resnet_real_and_allreduce_limits_scaling(self):
        b = ResnetBenchmark()
        assert b.run(nodes=1, real=True, scale=0.4).verified is True
        t5 = b.run(nodes=5).fom_seconds
        t20 = b.run(nodes=20).fom_seconds
        assert t20 < t5            # still faster ...
        assert t20 > t5 / 4        # ... but below perfect scaling
