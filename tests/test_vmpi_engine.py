"""Tests for the virtual-MPI engine: correctness of data movement,
virtual-time semantics, determinism, and failure modes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import juwels_booster
from repro.vmpi import (
    CollectiveMismatchError,
    DeadlockError,
    Machine,
    Phantom,
    RankFailedError,
    nbytes_of,
    run_spmd,
)


def machine(nranks, **kw):
    return Machine.on(juwels_booster(), nranks, **kw)


class TestNbytesOf:
    def test_array(self):
        assert nbytes_of(np.zeros(10)) == 80

    def test_scalar_and_none(self):
        assert nbytes_of(3.14) == 8
        assert nbytes_of(None) == 0

    def test_phantom(self):
        assert nbytes_of(Phantom(1e9)) == 1e9

    def test_containers(self):
        assert nbytes_of([np.zeros(2), 1.0]) == 24
        assert nbytes_of({"a": np.zeros(4)}) == 32

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            nbytes_of(object())

    def test_negative_phantom_rejected(self):
        with pytest.raises(ValueError):
            Phantom(-1)


class TestPointToPoint:
    def test_blocking_send_recv_moves_data(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, np.arange(5.0))
                return None
            got = yield comm.recv(0)
            return got.sum()

        res = run_spmd(prog, machine=machine(2))
        assert res.values[1] == pytest.approx(10.0)

    def test_message_ordering_fifo_per_tag(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, 111)
                yield comm.send(1, 222)
                return None
            a = yield comm.recv(0)
            b = yield comm.recv(0)
            return (a, b)

        res = run_spmd(prog, machine=machine(2))
        assert res.values[1] == (111, 222)

    def test_tags_disambiguate(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, "low", tag=1)
                yield comm.send(1, "high", tag=2)
                return None
            high = yield comm.recv(0, tag=2)
            low = yield comm.recv(0, tag=1)
            return (low, high)

        res = run_spmd(prog, machine=machine(2))
        assert res.values[1] == ("low", "high")

    def test_nonblocking_overlap_hides_communication(self):
        """A transfer posted before compute and waited after costs at most
        max(compute, transfer) -- not the sum."""
        payload = Phantom(100e6)
        flops = 1e12

        def overlapped(comm):
            if comm.rank == 0:
                req = yield comm.isend(1, payload)
                yield comm.compute(flops=flops, efficiency=1.0)
                yield comm.wait(req)
            else:
                req = yield comm.irecv(0)
                yield comm.compute(flops=flops, efficiency=1.0)
                yield comm.wait(req)

        def sequential(comm):
            if comm.rank == 0:
                yield comm.send(1, payload)
                yield comm.compute(flops=flops, efficiency=1.0)
            else:
                got = yield comm.recv(0)
                yield comm.compute(flops=flops, efficiency=1.0)

        m = machine(2, ranks_per_node=1)
        t_overlap = run_spmd(overlapped, machine=m).elapsed
        t_seq = run_spmd(sequential, machine=m).elapsed
        assert t_overlap < t_seq

    def test_sendrecv_ring(self):
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            got = yield comm.sendrecv(right, comm.rank, left)
            return got

        res = run_spmd(prog, machine=machine(5))
        assert res.values == [4, 0, 1, 2, 3]

    def test_self_message(self):
        def prog(comm):
            yield comm.send(comm.rank, "loop")
            return (yield comm.recv(comm.rank))

        res = run_spmd(prog, machine=machine(1))
        assert res.values == ["loop"]

    def test_peer_out_of_range_rejected(self):
        def prog(comm):
            yield comm.send(99, 1)

        with pytest.raises(RankFailedError) as err:
            run_spmd(prog, machine=machine(2))
        assert isinstance(err.value.original, ValueError)


class TestCollectives:
    def test_allreduce_sum_arrays(self):
        def prog(comm):
            return (yield comm.allreduce(np.full(3, float(comm.rank + 1))))

        res = run_spmd(prog, machine=machine(4))
        for v in res.values:
            assert np.allclose(v, 10.0)

    @pytest.mark.parametrize("op,expected", [
        ("sum", 6), ("max", 3), ("min", 0), ("prod", 0),
    ])
    def test_allreduce_ops(self, op, expected):
        def prog(comm):
            return (yield comm.allreduce(comm.rank, op=op))

        res = run_spmd(prog, machine=machine(4))
        assert all(v == expected for v in res.values)

    def test_allreduce_does_not_alias_inputs(self):
        def prog(comm):
            mine = np.ones(2)
            total = yield comm.allreduce(mine)
            total += 100.0
            return float(mine[0])

        res = run_spmd(prog, machine=machine(3))
        assert res.values == [1.0, 1.0, 1.0]

    def test_bcast(self):
        def prog(comm):
            data = np.arange(4.0) if comm.rank == 2 else None
            return (yield comm.bcast(data, root=2)).sum()

        res = run_spmd(prog, machine=machine(4))
        assert res.values == [6.0] * 4

    def test_allgather(self):
        def prog(comm):
            return (yield comm.allgather(comm.rank * 2))

        res = run_spmd(prog, machine=machine(3))
        assert res.values == [[0, 2, 4]] * 3

    def test_alltoall_transpose(self):
        def prog(comm):
            outgoing = [comm.rank * 10 + j for j in range(comm.size)]
            return (yield comm.alltoall(outgoing))

        res = run_spmd(prog, machine=machine(3))
        # rank j receives [i*10 + j for i]
        assert res.values[1] == [1, 11, 21]

    def test_reduce_root_only(self):
        def prog(comm):
            return (yield comm.reduce(comm.rank + 1, root=0))

        res = run_spmd(prog, machine=machine(4))
        assert res.values[0] == 10
        assert res.values[1:] == [None, None, None]

    def test_gather_scatter_roundtrip(self):
        def prog(comm):
            gathered = yield comm.gather(comm.rank ** 2, root=0)
            items = [x + 1 for x in gathered] if comm.rank == 0 else None
            return (yield comm.scatter(items, root=0))

        res = run_spmd(prog, machine=machine(4))
        assert res.values == [1, 2, 5, 10]

    def test_barrier_synchronises_clocks(self):
        def prog(comm):
            yield comm.compute(flops=1e9 * (comm.rank + 1), efficiency=1.0)
            yield comm.barrier()
            return None

        res = run_spmd(prog, machine=machine(4))
        assert len(set(res.clocks)) == 1

    def test_split_subcommunicators(self):
        def prog(comm):
            sub = yield comm.split(comm.rank % 2)
            total = yield sub.allreduce(comm.rank)
            return (sub.size, total)

        res = run_spmd(prog, machine=machine(6))
        assert res.values[0] == (3, 0 + 2 + 4)
        assert res.values[1] == (3, 1 + 3 + 5)

    def test_mismatched_collectives_raise(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.barrier()
            else:
                yield comm.allreduce(1)

        with pytest.raises(CollectiveMismatchError):
            run_spmd(prog, machine=machine(2))

    def test_phantom_collective_result(self):
        def prog(comm):
            out = yield comm.allreduce(Phantom(1e6))
            return isinstance(out, Phantom)

        res = run_spmd(prog, machine=machine(4))
        assert all(res.values)


class TestTimingSemantics:
    def test_compute_advances_clock(self):
        def prog(comm):
            yield comm.compute(flops=19.5e12, efficiency=1.0)

        res = run_spmd(prog, machine=machine(1))
        assert res.elapsed == pytest.approx(1.0)

    def test_elapse(self):
        def prog(comm):
            yield comm.elapse(2.5)

        assert run_spmd(prog, machine=machine(1)).elapsed == pytest.approx(2.5)

    def test_intra_node_faster_than_inter_node(self):
        payload = Phantom(64e6)

        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, payload)
            elif comm.rank == 1:
                yield comm.recv(0)

        m_same = Machine.on(juwels_booster(), 2, ranks_per_node=2)
        m_diff = Machine.on(juwels_booster(), 2, ranks_per_node=1)
        assert run_spmd(prog, machine=m_same).elapsed < \
            run_spmd(prog, machine=m_diff).elapsed

    def test_traces_bucket_compute_labels(self):
        def prog(comm):
            yield comm.compute(flops=1e12, efficiency=1.0, label="channels")
            yield comm.compute(flops=5e11, efficiency=1.0, label="cable")

        res = run_spmd(prog, machine=machine(1))
        prof = res.compute_profile()
        assert prof["channels"] == pytest.approx(2 * prof["cable"])

    def test_comm_time_recorded(self):
        def prog(comm):
            yield comm.allreduce(Phantom(8e6))

        res = run_spmd(prog, machine=machine(8))
        assert res.comm_seconds > 0
        assert res.comm_fraction == pytest.approx(1.0)

    def test_determinism(self):
        def prog(comm, seed):
            rng = np.random.default_rng(seed + comm.rank)
            x = rng.random(16)
            total = yield comm.allreduce(x)
            yield comm.compute(flops=1e9)
            return float(total.sum())

        r1 = run_spmd(prog, machine=machine(8), args=(7,))
        r2 = run_spmd(prog, machine=machine(8), args=(7,))
        assert r1.values == r2.values
        assert r1.clocks == r2.clocks


class TestFailureModes:
    def test_deadlock_detected(self):
        def prog(comm):
            yield comm.recv((comm.rank + 1) % comm.size)

        with pytest.raises(DeadlockError):
            run_spmd(prog, machine=machine(2))

    def test_rank_exception_wrapped(self):
        def prog(comm):
            yield comm.barrier()
            if comm.rank == 1:
                raise ValueError("bad physics")

        with pytest.raises(RankFailedError) as err:
            run_spmd(prog, machine=machine(2))
        assert err.value.rank == 1

    def test_non_generator_rejected(self):
        def not_a_gen(comm):
            return 42

        with pytest.raises(TypeError):
            run_spmd(not_a_gen, machine=machine(2))

    def test_yielding_garbage_rejected(self):
        def prog(comm):
            yield "not an op"

        with pytest.raises(Exception):
            run_spmd(prog, machine=machine(1))


class TestMachinePlacement:
    def test_block_placement(self):
        m = Machine.booster(nodes=2, ranks_per_node=4)
        assert m.nranks == 8
        assert m.node_of(0) == 0
        assert m.node_of(7) == 1
        assert m.job_nodes == 2

    def test_too_many_ranks_rejected(self):
        with pytest.raises(ValueError):
            Machine.on(juwels_booster().with_nodes(1), 8, ranks_per_node=4)

    def test_msa_placement_spans_modules(self):
        m = Machine.msa(cluster_nodes=2, booster_nodes=2)
        assert m.nranks == 16
        booster_cells = {m.node_of(r) // 48 for r in range(8)}
        cluster_cells = {m.node_of(r) // 48 for r in range(8, 16)}
        assert booster_cells.isdisjoint(cluster_cells)
        assert m.device_of(0).kind == "gpu"
        assert m.device_of(8).kind == "cpu"

    @given(st.integers(min_value=1, max_value=64))
    @settings(max_examples=20, deadline=None)
    def test_job_nodes_matches_ceiling(self, nranks):
        m = Machine.on(juwels_booster(), nranks)
        assert m.job_nodes == -(-nranks // 4)


class TestHypothesisInvariants:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=8),
           st.integers(min_value=2, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_allreduce_matches_numpy_sum(self, base, nranks):
        arrays = [np.array(base) * (r + 1) for r in range(nranks)]

        def prog(comm):
            return (yield comm.allreduce(arrays[comm.rank]))

        res = run_spmd(prog, machine=machine(nranks))
        expected = np.sum(arrays, axis=0)
        for v in res.values:
            assert np.allclose(v, expected)

    @given(st.integers(min_value=2, max_value=8))
    @settings(max_examples=10, deadline=None)
    def test_ring_pass_total_conserved(self, nranks):
        """Token passed around a ring arrives intact at every hop."""

        def prog(comm):
            token = comm.rank
            for _ in range(comm.size):
                right = (comm.rank + 1) % comm.size
                left = (comm.rank - 1) % comm.size
                token = yield comm.sendrecv(right, token, left)
            return token

        res = run_spmd(prog, machine=machine(nranks))
        assert res.values == list(range(nranks))
