"""Tests for JUQCS: gate algebra, distributed simulation, memory law,
benchmark behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.juqcs import (
    BASE_QUBITS,
    Circuit,
    H,
    HS_QUBITS,
    JuqcsBenchmark,
    X,
    Y,
    Z,
    apply_controlled,
    apply_gate,
    dist_apply,
    dist_gather,
    dist_zero_state,
    is_unitary,
    norm,
    probabilities,
    qubits_for_memory,
    reference_state,
    rx,
    ry,
    rz,
    state_vector_bytes,
    zero_state,
)
from repro.cluster import juwels_booster
from repro.core import MemoryVariant
from repro.units import PIB, TIB
from repro.vmpi import Machine, run_spmd


class TestGates:
    def test_standard_gates_unitary(self):
        for u in (H, X, Y, Z, rx(0.3), ry(1.2), rz(2.5)):
            assert is_unitary(u)

    def test_h_creates_superposition(self):
        psi = apply_gate(zero_state(1), H, 0)
        p0, p1 = probabilities(psi, 0)
        assert p0 == pytest.approx(0.5)
        assert p1 == pytest.approx(0.5)

    def test_x_flips(self):
        psi = apply_gate(zero_state(2), X, 1)
        assert abs(psi[2]) == pytest.approx(1.0)

    def test_bell_state(self):
        psi = zero_state(2)
        apply_gate(psi, H, 0)
        apply_controlled(psi, X, control=0, target=1)
        assert abs(psi[0]) == pytest.approx(1 / np.sqrt(2))
        assert abs(psi[3]) == pytest.approx(1 / np.sqrt(2))
        assert abs(psi[1]) == pytest.approx(0.0)

    def test_gate_out_of_range(self):
        with pytest.raises(ValueError):
            apply_gate(zero_state(2), H, 5)

    def test_controlled_same_qubit_rejected(self):
        with pytest.raises(ValueError):
            apply_controlled(zero_state(2), X, 0, 0)

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=20))
    @settings(max_examples=25, deadline=None)
    def test_norm_preserved(self, n, seed):
        rng = np.random.default_rng(seed)
        psi = zero_state(n)
        for _ in range(5):
            q = int(rng.integers(n))
            theta = float(rng.uniform(0, 2 * np.pi))
            apply_gate(psi, rx(theta), q)
        assert norm(psi) == pytest.approx(1.0)

    def test_circuit_records_and_replays(self):
        c = Circuit(3).h(0).x(1).h(2)
        psi = c.run_reference()
        assert norm(psi) == pytest.approx(1.0)
        assert len(c.ops) == 3

    def test_circuit_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            Circuit(2).gate(np.ones((2, 2)), 0)


class TestDistributed:
    def run_mixed(self, nranks, n, gate_qubits):
        def prog(comm):
            st_ = dist_zero_state(comm, n, real=True)
            for i, q in enumerate(gate_qubits):
                u = H if i % 2 == 0 else rx(0.3 + 0.1 * i)
                yield from dist_apply(comm, st_, u, q)
            full = yield from dist_gather(comm, st_)
            ref = reference_state(n, st_.history)
            return float(np.max(np.abs(full - ref)))

        machine = Machine.on(juwels_booster(), nranks, ranks_per_node=4)
        return run_spmd(prog, machine=machine)

    def test_local_gates_exact(self):
        res = self.run_mixed(4, 6, [0, 1, 2, 3])
        assert max(res.values) == 0.0

    def test_nonlocal_gates_exact(self):
        res = self.run_mixed(4, 6, [4, 5, 4, 5])
        assert max(res.values) == 0.0

    def test_interleaved_and_repeated_exact(self):
        res = self.run_mixed(8, 9, [8, 0, 7, 8, 1, 6, 8, 2])
        assert max(res.values) == 0.0

    def test_single_rank(self):
        res = self.run_mixed(1, 4, [0, 3, 2])
        assert max(res.values) == 0.0

    def test_nonpow2_ranks_rejected(self):
        def prog(comm):
            dist_zero_state(comm, 6)
            yield comm.barrier()

        from repro.vmpi import RankFailedError
        with pytest.raises(RankFailedError):
            run_spmd(prog, machine=Machine.on(juwels_booster(), 3))

    def test_too_few_qubits_rejected(self):
        def prog(comm):
            dist_zero_state(comm, 2)  # 2 qubits over 4 ranks
            yield comm.barrier()

        from repro.vmpi import RankFailedError
        with pytest.raises(RankFailedError):
            run_spmd(prog, machine=Machine.on(juwels_booster(), 4))

    def test_gate_validation_is_by_content_not_object(self):
        """The unitarity verdict is remembered per matrix content: a
        gate applied many times is validated once, but one corrupted in
        place -- same object, new content -- is rejected before the
        rank communicates at all."""
        gate = H.copy()

        def prog(comm, corrupt_at):
            st_ = dist_zero_state(comm, 4, real=True)
            top = st_.layout[-1]                # non-local: needs sendrecv
            for i in range(4):
                if i == corrupt_at and comm.rank == 0:
                    gate[0, 0] = 2.0
                yield from dist_apply(comm, st_, gate, top)
            return comm.rank

        machine = Machine.on(juwels_booster(), 2)
        assert run_spmd(prog, machine=machine, args=(None,)).values == [0, 1]
        from repro.vmpi import RankFailedError
        with pytest.raises(RankFailedError) as err:
            run_spmd(prog, machine=machine, args=(2,))
        assert isinstance(err.value.original, ValueError)
        assert str(err.value.original) == "gate is not unitary"
        assert not is_unitary(gate)
        assert is_unitary(H) and not is_unitary(np.ones((2, 2)))
        assert not is_unitary(np.eye(4))

    def test_non_unitary_gate_raises_before_any_communication(self):
        posted = []

        def prog(comm):
            st_ = dist_zero_state(comm, 4, real=False)
            gen = dist_apply(comm, st_, 2.0 * H, st_.layout[-1])
            with pytest.raises(ValueError, match="gate is not unitary"):
                posted.append(next(gen))
            yield comm.barrier()

        run_spmd(prog, machine=Machine.on(juwels_booster(), 2))
        assert posted == []

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=10, deadline=None)
    def test_random_circuits_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = 7
        qubits = [int(rng.integers(n)) for _ in range(6)]
        res = self.run_mixed(4, n, qubits)
        assert max(res.values) == 0.0


class TestMemoryLaw:
    """The paper's quoted sizes (Sec. IV-A2c)."""

    def test_base_case_1tib(self):
        assert state_vector_bytes(36) == pytest.approx(TIB)

    def test_hs_small_32tib_large_64tib(self):
        assert state_vector_bytes(41) == pytest.approx(32 * TIB)
        assert state_vector_bytes(42) == pytest.approx(64 * TIB)

    def test_n45_half_pib(self):
        assert state_vector_bytes(45) == pytest.approx(0.5 * PIB)

    def test_qubits_for_memory_inverse(self):
        assert qubits_for_memory(TIB) == 36
        assert qubits_for_memory(1.9 * TIB) == 36  # floor
        assert qubits_for_memory(2 * TIB) == 37

    def test_hs_qubit_table(self):
        assert HS_QUBITS[MemoryVariant.SMALL] == 41
        assert HS_QUBITS[MemoryVariant.LARGE] == 42


class TestJuqcsBenchmark:
    @pytest.fixture(scope="class")
    def bench(self):
        return JuqcsBenchmark()

    def test_real_run_exactly_verified(self, bench):
        res = bench.run(nodes=1, real=True)
        assert res.verified is True
        assert "exact" in res.verification

    def test_base_workload_is_36_qubits(self, bench):
        res = bench.run(nodes=8)
        assert res.details["qubits"] == BASE_QUBITS
        assert res.details["state_bytes"] == pytest.approx(TIB)

    def test_weak_scaling_adds_qubits(self, bench):
        assert bench.qubits_for(16, None) == bench.qubits_for(8, None) + 1

    def test_variant_changes_size(self, bench):
        small = bench.run(nodes=8, variant=MemoryVariant.SMALL)
        large = bench.run(nodes=8, variant=MemoryVariant.LARGE)
        assert small.details["qubits"] == large.details["qubits"] - 1

    def test_communication_dominates_at_scale(self, bench):
        """Non-local gates move half of all memory; on >= 2 nodes the
        communication share must dominate the runtime."""
        res = bench.run(nodes=8)
        assert res.details["comm_seconds"] > res.details["compute_seconds"]

    def test_intra_node_faster_per_gate(self, bench):
        one = bench.run(nodes=1)
        two = bench.run(nodes=2)
        # same gate count, one more qubit; the inter-node run must be
        # clearly slower than the NVLink-only run
        assert two.fom_seconds > 1.5 * one.fom_seconds

    def test_nonlocal_gate_count(self, bench):
        res = bench.run(nodes=2)
        assert res.details["nonlocal_gates"] == res.details["gates"]

    def test_msa_run_verified(self, bench):
        res = bench.run_msa(cluster_nodes=2, booster_nodes=2, real=True)
        assert res.verified is True
        assert res.details["msa"] is True

    def test_node_count_rounded_to_pow2(self, bench):
        res = bench.run(nodes=6)  # 24 ranks -> 16 ranks -> 4 nodes
        assert res.nodes == 4
