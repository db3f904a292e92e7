"""Tests for NAStJA (Potts), QE (distributed FFT / CP), ParFlow
(multigrid, Richards) and SOMA (SCMF)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.nastja import NastjaBenchmark, PottsModel, checkerboard_tissue
from repro.apps.parflow import (
    ParflowBenchmark,
    RichardsColumn,
    VanGenuchten,
    apply_poisson,
    mg_solve,
    mgcg_solve,
    prolong,
    restrict,
)
from repro.apps.qe import (
    QuantumEspressoBenchmark,
    apply_hamiltonian_serial,
    dist_fft3,
    dist_ifft3,
    slab_range,
)
from repro.apps.soma import ScmfSystem, SomaBenchmark
from repro.cluster import juwels_booster
from repro.vmpi import Machine, run_spmd


class TestPottsModel:
    def test_volume_tracking_consistent(self):
        model = checkerboard_tissue(n=16, cells_per_side=4, seed=1)
        for _ in range(2):
            model.monte_carlo_step()
        recount = np.bincount(model.lattice.ravel(),
                              minlength=model.cell_type.shape[0])
        assert np.array_equal(recount, model.volumes)

    def test_cell_sorting_reduces_heterotypic_contacts(self):
        model = checkerboard_tissue(n=24, cells_per_side=4, seed=2)
        h0 = model.heterotypic_fraction()
        for _ in range(6):
            model.monte_carlo_step()
        assert model.heterotypic_fraction() < h0

    def test_volume_constraint_keeps_cells_near_target(self):
        model = checkerboard_tissue(n=16, cells_per_side=4, seed=3)
        for _ in range(5):
            model.monte_carlo_step()
        cells = np.arange(1, model.cell_type.shape[0])
        rel = np.abs(model.volumes[cells] - model.target_volume) / \
            model.target_volume
        assert float(np.max(rel)) < 0.6

    def test_validation(self):
        with pytest.raises(ValueError):
            checkerboard_tissue(n=10, cells_per_side=4)
        with pytest.raises(ValueError):
            PottsModel(lattice=np.zeros((2, 2), dtype=int),
                       cell_type=np.zeros(1, dtype=int),
                       adhesion=np.zeros((2, 3)), target_volume=1.0)

    def test_benchmark_real_verified(self):
        res = NastjaBenchmark().run(nodes=2, real=True, scale=0.4)
        assert res.verified is True

    def test_benchmark_runs_on_cluster(self):
        bench = NastjaBenchmark()
        assert bench.system().node.device.kind == "cpu"
        res = bench.run(nodes=8)
        assert res.details["mc_steps"] == 5050
        assert res.details["domain"] == (720, 720, 1152)


class TestDistributedFft:
    @pytest.mark.parametrize("ranks", [1, 2, 4])
    def test_matches_numpy_fftn(self, ranks):
        nz, ny, nx = 8, 8, 4
        rng = np.random.default_rng(0)
        full = rng.normal(size=(nz, ny, nx)) + \
            1j * rng.normal(size=(nz, ny, nx))
        ref = np.fft.fftn(full)

        def prog(comm):
            zlo, zhi = slab_range(nz, comm.rank, comm.size)
            out = yield from dist_fft3(comm, full[zlo:zhi].copy(), nz)
            ylo, yhi = slab_range(ny, comm.rank, comm.size)
            expected = ref.transpose(1, 0, 2)[ylo:yhi]
            return float(np.max(np.abs(out - expected)))

        res = run_spmd(prog, machine=Machine.on(juwels_booster(), ranks))
        assert max(res.values) < 1e-12

    def test_roundtrip_identity(self):
        nz, ny, nx = 8, 4, 4
        rng = np.random.default_rng(1)
        full = rng.normal(size=(nz, ny, nx)) + 0j

        def prog(comm):
            zlo, zhi = slab_range(nz, comm.rank, comm.size)
            fwd = yield from dist_fft3(comm, full[zlo:zhi].copy(), nz)
            back = yield from dist_ifft3(comm, fwd, nz, ny)
            return float(np.max(np.abs(back - full[zlo:zhi])))

        res = run_spmd(prog, machine=Machine.on(juwels_booster(), 4))
        assert max(res.values) < 1e-12

    def test_hamiltonian_kinetic_eigenfunction(self):
        """H applied to a plane wave with V=0 gives |k|^2/2 times it."""
        n = 8
        kz, ky, kx = 1, 2, 1
        z, y, x = np.meshgrid(*(np.arange(n),) * 3, indexing="ij")
        psi = np.exp(2j * np.pi * (kz * z + ky * y + kx * x) / n)
        out = apply_hamiltonian_serial(psi, np.zeros((n, n, n)))
        expected = 0.5 * (kz ** 2 + ky ** 2 + kx ** 2) * psi
        assert np.allclose(out, expected, atol=1e-10)

    def test_qe_benchmark_real(self):
        # at the reference 8 nodes (32 ranks) the mesh's z extent leaves
        # the last ranks an empty slab; they must verify, not crash
        for nodes, scale in ((1, 0.5), (None, 1.0)):
            res = QuantumEspressoBenchmark().run(nodes=nodes, real=True,
                                                 scale=scale)
            assert res.verified is True
            assert res.details["hamiltonian_error"] < 1e-10

    def test_qe_fft_comm_heavy(self):
        res = QuantumEspressoBenchmark().run(nodes=8)
        assert res.details["fft_comm_seconds"] > 0

    def test_qe_subspace_gemm_charges_complex128_bytes(self):
        """Regression: the subspace GEMM operand block is bands x
        points_local *complex128 elements*, so its bytes_moved must
        carry the 16 B/element factor like every other charge in the
        program (the dimensional-analysis pass caught the bare
        element count)."""
        from repro.apps.qe.benchmark import qe_timing_program
        from repro.vmpi import Machine, VmpiEngine
        from repro.vmpi.job import World
        from repro.vmpi.ops import Compute

        comm = World(VmpiEngine(Machine.booster(1)))
        mesh, bands = (12, 12, 12), 32
        (prologue, step, _steps, epilogue), _value = qe_timing_program(
            comm, mesh, bands, 1)
        ops = list(prologue + step + epilogue)
        points_local = (12 * 12 * 12) / comm.size
        subspace = [o for o in ops if isinstance(o, Compute) and
                    o.label == "subspace"]
        assert len(subspace) == 1
        assert subspace[0].bytes_moved == bands * points_local * 16.0


class TestMultigrid:
    def test_restriction_prolongation_shapes(self):
        r = np.ones((8, 8, 8))
        c = restrict(r)
        assert c.shape == (4, 4, 4)
        assert prolong(c).shape == (8, 8, 8)
        assert np.allclose(c, 1.0)

    def test_v_cycle_converges(self):
        rng = np.random.default_rng(0)
        n = 16
        f = rng.normal(size=(n, n, n))
        _, cycles, hist = mg_solve(f, 1.0 / n, tol=1e-7)
        assert hist[-1] < 1e-7
        assert cycles < 40

    def test_mgcg_few_iterations(self):
        rng = np.random.default_rng(0)
        for n in (16, 32):
            f = rng.normal(size=(n, n, n))
            u, iters, _ = mgcg_solve(f, 1.0 / n, tol=1e-8)
            res = np.linalg.norm(f - apply_poisson(u, 1.0 / n)) / \
                np.linalg.norm(f)
            assert res < 1e-7
            assert iters <= 25

    def test_restriction_needs_even(self):
        with pytest.raises(ValueError):
            restrict(np.ones((5, 5, 5)))


class TestRichards:
    def test_van_genuchten_limits(self):
        vg = VanGenuchten()
        assert vg.theta(np.array([0.0]))[0] == pytest.approx(vg.theta_s)
        # clay (n = 1.09) drains towards theta_r extremely slowly --
        # strictly decreasing and bounded below is the correct property
        very_dry = vg.theta(np.array([-1e5]))[0]
        assert vg.theta_r < very_dry < vg.theta(np.array([-10.0]))[0]
        assert vg.conductivity(np.array([0.0]))[0] == pytest.approx(vg.k_s)

    def test_saturation_monotone_in_psi(self):
        vg = VanGenuchten()
        psi = np.linspace(-50, 0, 100)
        sat = vg.saturation(psi)
        assert np.all(np.diff(sat) >= 0)

    def test_infiltration_mass_balance(self):
        col = RichardsColumn.clay_column(nz=30)
        diag = col.infiltrate(t_end=1.0, dt=0.1)
        assert diag["balance_error"] < 1e-8
        assert diag["inflow"] > 0

    def test_wetting_front_monotone(self):
        col = RichardsColumn.clay_column(nz=30)
        col.infiltrate(t_end=1.5, dt=0.1)
        sat = col.soil.saturation(col.psi)
        assert sat[0] > sat[-1]
        assert np.all(np.diff(sat[:15]) <= 1e-9)

    def test_parflow_benchmark_real(self):
        res = ParflowBenchmark().run(nodes=1, real=True, scale=0.5)
        assert res.verified is True

    def test_parflow_domain(self):
        res = ParflowBenchmark().run(nodes=4)
        assert res.details["domain"] == (1008, 1008, 240)


class TestScmf:
    def test_ideal_chain_statistics(self):
        sys_ = ScmfSystem.ideal_melt(400, 16, box=40.0, seed=5)
        r2 = sys_.end_to_end_sq()
        assert r2 == pytest.approx(15.0, rel=0.25)

    def test_density_counts_all_beads(self):
        sys_ = ScmfSystem.ideal_melt(50, 8, box=8.0, grid_n=4, seed=6)
        assert sys_.density().sum() == pytest.approx(50 * 8)

    def test_field_drives_homogenisation(self):
        melt = ScmfSystem.ideal_melt(80, 8, box=8.0, grid_n=4, seed=7,
                                     kappa=0.6, clustered=True)
        var0 = melt.density_variance()
        for _ in range(8):
            melt.mc_sweep()
        assert melt.density_variance() < var0

    def test_acceptance_reasonable(self):
        melt = ScmfSystem.ideal_melt(40, 8, box=8.0, seed=8)
        acc = melt.mc_sweep()
        assert 0.3 < acc <= 1.0

    def test_soma_benchmark_real(self):
        res = SomaBenchmark().run(nodes=1, real=True, scale=0.5)
        assert res.verified is True
