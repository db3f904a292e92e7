"""Tests for the lattice QCD substrate: SU(3) algebra, gauge actions and
forces, the Wilson-clover Dirac operator, CG and HMC."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.lattice import (
    GAMMA,
    GAMMA5,
    ChromaBenchmark,
    DynqcdBenchmark,
    GaugeAction,
    GaugeField,
    WilsonDirac,
    average_plaquette,
    average_rectangle,
    conjugate_gradient,
    dagger,
    expm_su3,
    is_su3,
    kinetic_energy,
    lattice_bytes_per_site,
    leapfrog,
    local_lattice_dims,
    plaquette_field,
    random_algebra,
    random_spinor,
    random_su3,
    run_hmc,
    spinor_dot,
    spinor_norm,
    trace,
)
from repro.core import MemoryVariant

DIMS = (4, 4, 4, 4)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(7)


@pytest.fixture(scope="module")
def hot(rng):
    return GaugeField.hot(DIMS, rng)


class TestSu3:
    def test_random_su3_is_unitary(self, rng):
        assert is_su3(random_su3(rng, (4, 4)))

    def test_expm_matches_scipy(self, rng):
        from scipy.linalg import expm
        a = 1j * random_algebra(rng, (5,))
        ours = expm_su3(a)
        for i in range(5):
            assert np.allclose(ours[i], expm(a[i]), atol=1e-12)

    def test_expm_of_zero_is_identity(self):
        out = expm_su3(np.zeros((2, 3, 3), dtype=complex))
        assert np.allclose(out, np.eye(3))

    def test_exp_of_algebra_is_su3(self, rng):
        a = random_algebra(rng, (8,))
        assert is_su3(expm_su3(1j * 0.3 * a))

    def test_algebra_traceless_hermitian(self, rng):
        a = random_algebra(rng, (6,))
        assert np.allclose(trace(a), 0.0, atol=1e-12)
        assert np.allclose(a, dagger(a), atol=1e-12)


class TestGauge:
    def test_cold_plaquette_is_one(self):
        cold = GaugeField.cold(DIMS)
        assert average_plaquette(cold) == pytest.approx(1.0)
        assert average_rectangle(cold) == pytest.approx(1.0)

    def test_hot_plaquette_near_zero(self, hot):
        assert abs(average_plaquette(hot)) < 0.1

    def test_plaquette_needs_distinct_dirs(self, hot):
        with pytest.raises(ValueError):
            plaquette_field(hot.u, 1, 1)

    def test_action_zero_on_cold(self):
        cold = GaugeField.cold(DIMS)
        assert GaugeAction(beta=5.7).value(cold) == pytest.approx(0.0)
        assert GaugeAction.luscher_weisz().value(cold) == pytest.approx(0.0, abs=1e-9)

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            GaugeField.cold((4, 4, 4))  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            GaugeField.cold((4, 4, 4, 1))

    @pytest.mark.parametrize("action", [
        GaugeAction(beta=5.7),
        GaugeAction.luscher_weisz(5.7),
    ])
    def test_force_matches_numerical_gradient(self, action, rng, hot):
        """The decisive staple/sign check: analytic force == dS/deps."""
        from repro.apps.lattice.su3 import random_algebra as ralg
        x = ralg(rng, ())
        mu, site = 1, (2, 1, 0, 3)
        force = action.force(hot)

        def s_of(eps):
            g2 = hot.copy()
            g2.u[(mu,) + site] = expm_su3(1j * eps * x) @ g2.u[(mu,) + site]
            return action.value(g2)

        eps = 1e-6
        numeric = (s_of(eps) - s_of(-eps)) / (2 * eps)
        analytic = float(np.trace(x @ force[(mu,) + site]).real)
        assert analytic == pytest.approx(numeric, rel=1e-4)

    def test_luscher_weisz_coefficients(self):
        lw = GaugeAction.luscher_weisz()
        assert lw.c1 == pytest.approx(-1 / 12)
        assert lw.c0 == pytest.approx(1 + 8 / 12)


class TestDirac:
    def test_gamma_anticommutators(self):
        for mu in range(4):
            for nu in range(4):
                anti = GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
                expected = 2 * np.eye(4) * (mu == nu)
                assert np.allclose(anti, expected)

    def test_gamma5_squares_to_one(self):
        assert np.allclose(GAMMA5 @ GAMMA5, np.eye(4))

    def test_gamma5_hermiticity(self, rng, hot):
        d = WilsonDirac(hot, kappa=0.12)
        a = random_spinor(rng, DIMS)
        b = random_spinor(rng, DIMS)
        lhs = spinor_dot(a, d.apply_dagger(b))
        rhs = np.conjugate(spinor_dot(b, d.apply(a)))
        assert abs(lhs - rhs) < 1e-10

    def test_clover_preserves_gamma5_hermiticity(self, rng, hot):
        d = WilsonDirac(hot, kappa=0.12, c_sw=1.2)
        a = random_spinor(rng, DIMS)
        b = random_spinor(rng, DIMS)
        lhs = spinor_dot(a, d.apply_dagger(b))
        rhs = np.conjugate(spinor_dot(b, d.apply(a)))
        assert abs(lhs - rhs) < 1e-10

    def test_free_field_mass_term(self):
        """On a cold gauge field with zero momentum spinor, D acts as
        (1 - 8 kappa) (the Wilson tree-level mass)."""
        cold = GaugeField.cold(DIMS)
        d = WilsonDirac(cold, kappa=0.11)
        psi = np.ones(DIMS + (4, 3), dtype=complex)
        out = d.apply(psi)
        assert np.allclose(out, (1 - 8 * 0.11) * psi)

    def test_normal_operator_positive(self, rng, hot):
        d = WilsonDirac(hot, kappa=0.12)
        psi = random_spinor(rng, DIMS)
        val = spinor_dot(psi, d.normal_apply(psi)).real
        assert val > 0

    def test_shape_check(self, hot):
        d = WilsonDirac(hot)
        with pytest.raises(ValueError):
            d.apply(np.zeros((2, 2, 2, 2, 4, 3), dtype=complex))

    def test_kappa_bounds(self, hot):
        with pytest.raises(ValueError):
            WilsonDirac(hot, kappa=0.3)

    def test_bytes_per_site_order_of_magnitude(self):
        assert 1500 < lattice_bytes_per_site() < 5000


class TestCg:
    def test_solves_normal_equations(self, rng, hot):
        d = WilsonDirac(hot, kappa=0.12)
        b = random_spinor(rng, DIMS)
        res = conjugate_gradient(d.normal_apply, b, tol=1e-9, max_iter=500)
        assert res.converged
        assert spinor_norm(d.normal_apply(res.x) - b) / spinor_norm(b) < 1e-8

    def test_fixed_iterations_mode(self, rng, hot):
        """The robustness rule: run exactly N iterations, converged or
        not (Sec. V-B)."""
        d = WilsonDirac(hot, kappa=0.12)
        b = random_spinor(rng, DIMS)
        res = conjugate_gradient(d.normal_apply, b, fixed_iterations=5)
        assert res.iterations == 5
        assert len(res.residual_history) == 6

    def test_residual_history_decreases_overall(self, rng, hot):
        d = WilsonDirac(hot, kappa=0.12)
        b = random_spinor(rng, DIMS)
        res = conjugate_gradient(d.normal_apply, b, tol=1e-9, max_iter=500)
        assert res.residual_history[-1] < res.residual_history[0] * 1e-6

    def test_zero_rhs(self, hot):
        d = WilsonDirac(hot, kappa=0.12)
        res = conjugate_gradient(d.normal_apply,
                                 np.zeros(DIMS + (4, 3), dtype=complex))
        assert res.converged
        assert res.iterations == 0

    def test_invalid_args(self, hot, rng):
        d = WilsonDirac(hot, kappa=0.12)
        b = random_spinor(rng, DIMS)
        with pytest.raises(ValueError):
            conjugate_gradient(d.normal_apply, b, tol=0.0)


class TestHmc:
    def test_energy_conservation_scales_as_dt_squared(self, rng, hot):
        action = GaugeAction(beta=5.5)
        pi = random_algebra(rng, (4,) + DIMS)
        h0 = kinetic_energy(pi) + action.value(hot)
        errors = []
        for steps, dt in [(5, 0.02), (10, 0.01)]:
            g2, pi2 = leapfrog(hot, pi, action, steps, dt)
            errors.append(abs(kinetic_energy(pi2) + action.value(g2) - h0))
        assert errors[1] < errors[0] / 2.5  # ~4x for exact O(dt^2)

    def test_reversibility(self, rng, hot):
        action = GaugeAction(beta=5.5)
        pi = random_algebra(rng, (4,) + DIMS)
        g2, pi2 = leapfrog(hot, pi, action, 8, 0.01)
        g3, _ = leapfrog(g2, -pi2, action, 8, 0.01)
        assert np.max(np.abs(g3.u - hot.u)) < 1e-10

    def test_links_stay_su3(self, rng, hot):
        action = GaugeAction(beta=5.5)
        pi = random_algebra(rng, (4,) + DIMS)
        g2, _ = leapfrog(hot, pi, action, 10, 0.02)
        assert is_su3(g2.u)

    def test_run_hmc_accepts_with_small_steps(self, rng, hot):
        action = GaugeAction(beta=5.5)
        _, result = run_hmc(hot, action, rng, trajectories=3, steps=8,
                            dt=0.01)
        assert result.acceptance > 0.5
        assert result.mean_abs_dh < 1.0

    def test_plaquette_rises_from_hot_start(self, rng, hot):
        """At beta = 5.7 equilibrium plaquette is ~0.55; from a hot start
        (plaquette ~ 0) HMC must drive it upward."""
        action = GaugeAction(beta=5.7)
        g, result = run_hmc(hot, action, rng, trajectories=5, steps=10,
                            dt=0.02)
        assert result.trajectories[-1].plaquette > 0.15
        assert result.trajectories[-1].plaquette > \
            result.trajectories[0].plaquette

    def test_invalid_params(self, rng, hot):
        action = GaugeAction()
        with pytest.raises(ValueError):
            leapfrog(hot, random_algebra(rng, (4,) + DIMS), action, 0, 0.1)
        with pytest.raises(ValueError):
            run_hmc(hot, action, rng, trajectories=0)


class TestChromaBenchmark:
    @pytest.fixture(scope="class")
    def bench(self):
        return ChromaBenchmark()

    def test_real_run_verified_at_base_tolerance(self, bench):
        res = bench.run(nodes=1, real=True, scale=0.5)
        assert res.verified is True
        assert "1e-10" in res.verification or "relative error" in res.verification

    def test_timing_run_excludes_first_update(self, bench):
        res = bench.run(nodes=2)
        assert res.fom_seconds > 0
        assert res.details["md_steps"] == 15

    def test_hs_lattice_exceeds_int32(self, bench):
        """The Chroma patch for > 2^31 sites (Sec. IV-A2b) is exercised
        by the 512-node Large workload."""
        dims = local_lattice_dims(bench.device_bytes(MemoryVariant.LARGE))
        sites = int(np.prod(dims)) * 512 * 4
        assert sites > 2 ** 31

    def test_power_of_two_node_rule(self, bench):
        res = bench.run(nodes=6)
        assert res.nodes == 4

    def test_variant_scales_local_volume(self, bench):
        small = local_lattice_dims(bench.device_bytes(MemoryVariant.SMALL))
        large = local_lattice_dims(bench.device_bytes(MemoryVariant.LARGE))
        assert np.prod(small) < np.prod(large)


class TestDynqcdBenchmark:
    @pytest.fixture(scope="class")
    def bench(self):
        return DynqcdBenchmark()

    def test_runs_on_cpu_module(self, bench):
        assert bench.system().node.device.kind == "cpu"

    def test_real_propagators_verified(self, bench):
        res = bench.run(nodes=1, real=True, scale=0.4)
        assert res.verified is True
        assert "propagators" in res.verification

    def test_timing_charges_600_propagators(self, bench):
        res = bench.run(nodes=4)
        assert res.details["propagators"] == 600
        assert res.fom_seconds > 0
