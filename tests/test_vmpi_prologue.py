"""The timing-mode prologue, built once per job instead of once per rank.

Two pieces of per-rank set-up became job-level computations:

(a) the halo pairing: :func:`repro.vmpi.decomposition.halo_table` pairs
    every rank's faces in NumPy once per ``(grid, faces)`` and job, and
    :func:`~repro.vmpi.decomposition.halo_exchange_op` reads one row.
    It is checked here against the per-rank ``CartGrid.neighbor`` walk
    it replaced, kept verbatim below, rank by rank -- ops, keys and the
    error a rank raises;
(b) JUQCS's gate schedule: one pure :func:`~repro.apps.juqcs.distributed.
    gate_plan` serves real mode gate by gate and timing mode as the
    columns of a job program.  Both are checked against the per-gate
    program they replaced (kept verbatim) on the reference scheduler.

Plus fresh-interpreter count guards on what the change is for.
"""

import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.apps.juqcs.benchmark import juqcs_program, juqcs_timing_program
from repro.apps.juqcs.distributed import (
    AMP_BYTES,
    _local_apply,
    dist_apply,
    dist_circuit,
    dist_gather,
    dist_zero_state,
    gate_plan,
    reference_state,
)
from repro.apps.juqcs.statevector import H, is_unitary, rx
from repro.cluster import juwels_booster
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, LinkFault
from repro.vmpi import Comm, Machine, Phantom, RankFailedError, VmpiEngine
from repro.vmpi.decomposition import (
    CartGrid,
    halo_exchange_op,
    halo_table,
    phantom_faces,
)
from repro.vmpi.rounds import PLAN_LIMIT
from tests.vmpi_reference import ReferenceEngine

ROOT = Path(__file__).resolve().parent.parent


# -- (a) the halo table == the per-rank neighbour walk --------------------------

def neighbour_walk(comm, cart, faces, tag=100, label="p2p"):
    """``halo_exchange_op`` as it was before the table, minus its memo."""
    sends = []
    for (dim, direction), payload in sorted(faces.items()):
        if direction not in (-1, 1):
            raise ValueError("face direction must be -1 or +1")
        dest = cart.neighbor(comm.rank, dim, direction)
        if dest is not None:
            sends.append((dest, payload))
    recvs = []
    keys = []
    for (dim, direction) in sorted(faces, key=lambda k: (k[0], -k[1])):
        src = cart.neighbor(comm.rank, dim, direction)
        if src is not None:
            # The neighbour in direction d sent its (-d) face towards us.
            recvs.append(src)
            keys.append((dim, direction))
    op = comm.exchange(tuple(sends), tuple(recvs), tag=tag, label=label)
    return op, tuple(keys)


def world(size):
    """One communicator per rank, sharing a job memo like an engine run."""
    job = {}
    comms = [Comm(comm_id=0, rank=r, members=tuple(range(size)))
             for r in range(size)]
    for comm in comms:
        comm._job = job
    return comms


def outcome(fn, *args):
    try:
        op, keys = fn(*args)
    except (ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)
    return op, keys


def face_sets(ndims):
    """Full faces, one dimension, one side, a single face, none."""
    full = phantom_faces((4, 6, 8, 10)[:ndims], itemsize=96)
    return {
        "full": full,
        "dim0": {k: v for k, v in full.items() if k[0] == 0},
        "minus": {k: v for k, v in full.items() if k[1] == -1},
        "last": {max(full): full[max(full)]},
        "none": {},
    }


PERIODIC = {"periodic": lambda n: (True,) * n,
            "open": lambda n: (False,) * n,
            "mixed": lambda n: tuple(i % 2 == 0 for i in range(n))}

#: every 1-3D grid of extents 1, 2 and 3, and the 4D ones of <= 24 ranks
GRIDS = [dims for n in (1, 2, 3, 4)
         for dims in itertools.product((1, 2, 3), repeat=n)
         if n < 4 or np.prod(dims) <= 24]


@pytest.mark.parametrize("per", PERIODIC)
@pytest.mark.parametrize("ndims", [1, 2, 3, 4])
def test_every_rank_reads_the_row_the_neighbour_walk_built(ndims, per):
    for dims in (d for d in GRIDS if len(d) == ndims):
        cart = CartGrid(dims=dims, periodic=PERIODIC[per](ndims))
        for name, faces in face_sets(ndims).items():
            for comm in world(cart.size):
                got = outcome(halo_exchange_op, comm, cart, faces)
                want = outcome(neighbour_walk, comm, cart, faces)
                assert got == want, (dims, per, name, comm.rank)


@pytest.mark.parametrize("nranks, ndims, extents, periodic", [
    (1, 3, None, True),
    (1, 4, None, False),
    (12, 3, (64, 32, 16), False),
    (8, 2, (5, 100), True),
    (24, 3, (48, 48, 6), (True, True, False)),
    (30, 4, None, (False, True, False, True)),
])
def test_for_ranks_grids_pair_like_the_walk(nranks, ndims, extents,
                                            periodic):
    cart = CartGrid.for_ranks(nranks, ndims, extents=extents,
                              periodic=periodic)
    for faces in face_sets(ndims).values():
        for comm in world(nranks):
            assert outcome(halo_exchange_op, comm, cart, faces) == \
                outcome(neighbour_walk, comm, cart, faces)


BAD_FACES = {
    "zero": {(0, -1): Phantom(8.0), (0, 0): Phantom(8.0)},
    "two_first": {(0, -2): Phantom(8.0), (1, 1): Phantom(8.0)},
    "two_last": {(0, -1): Phantom(8.0), (1, 2): Phantom(8.0)},
}


@pytest.mark.parametrize("cart_size, comm_size", [(8, 6), (4, 6), (6, 6)])
@pytest.mark.parametrize("faces", ["full", "none", *BAD_FACES])
def test_bad_faces_and_size_mismatch_fail_identically_per_rank(
        cart_size, comm_size, faces):
    """A grid larger than the communicator fails at the rank whose peer
    falls outside it; a smaller one at the first rank off the grid; a
    bad direction everywhere -- each rank with the walk's error text."""
    cart = CartGrid.for_ranks(cart_size, 2, periodic=(True, False))
    payloads = BAD_FACES.get(faces) or face_sets(2)[faces]
    for tag in (100, True, -1):
        for comm in world(comm_size):
            got = outcome(halo_exchange_op, comm, cart, payloads, tag)
            assert got == outcome(neighbour_walk, comm, cart, payloads, tag)
    if faces == "full" and cart_size != comm_size:
        errors = {r: outcome(halo_exchange_op, comm, cart, payloads)
                  for r, comm in enumerate(world(comm_size))}
        assert any(isinstance(e[0], str) for e in errors.values())


@pytest.mark.parametrize("cart_size, comm_size", [(8, 6), (4, 6)])
def test_a_mismatched_grid_fails_a_run_at_the_same_rank(cart_size,
                                                        comm_size):
    def program(comm, pair):
        cart = CartGrid.for_ranks(cart_size, 2, periodic=(True, False))
        op, keys = pair(comm, cart, phantom_faces((8, 8)))
        if keys:
            yield op
        yield comm.barrier()

    machine = Machine.on(juwels_booster(), comm_size)
    errors = []
    for pair in (halo_exchange_op, neighbour_walk):
        with pytest.raises(RankFailedError) as err:
            VmpiEngine(machine).run(program, args=(pair,))
        errors.append((err.value.rank, str(err.value)))
    assert errors[0] == errors[1]


def test_one_table_per_job_shared_by_every_rank():
    cart = CartGrid.for_ranks(16, 2)
    faces = phantom_faces((8, 8))
    comms = world(16)
    rows = halo_table(comms[0], cart, tuple(faces))
    assert all(halo_table(c, cart, tuple(faces)) is rows for c in comms)
    assert len(rows) == 16
    # another job (another engine run) builds its own
    assert halo_table(world(16)[0], cart, tuple(faces)) is not rows
    # bounded: a full memo starts over
    for n in range(1, 200):
        halo_table(comms[0], CartGrid.for_ranks(n, 1), ((0, 1),))
    assert len(comms[0]._job) <= PLAN_LIMIT


def test_phantom_faces_are_shared_but_the_dict_is_fresh():
    a, b = phantom_faces((4, 6, 8)), phantom_faces([4, 6, 8])
    assert a == b and a is not b
    assert all(a[k] is b[k] for k in a)
    a.clear()
    assert len(phantom_faces((4, 6, 8))) == 6
    assert phantom_faces((4, 6, 8), itemsize=4)[(0, 1)].nbytes == 4 * 48


# -- (b) JUQCS: the job program == the per-gate program ---------------------------

def dist_apply_per_gate(comm, state, u, qubit, gate_efficiency=0.6):
    """``dist_apply`` as it was before the gate plan."""
    if not is_unitary(np.asarray(u)):
        raise ValueError("gate is not unitary")
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit {qubit} outside register")
    state.history.append((np.asarray(u, dtype=np.complex128), qubit))
    m = state.local_bits
    pos = state.position_of(qubit)
    real = isinstance(state.local, np.ndarray)
    nonlocal_gate = pos >= m
    if nonlocal_gate:
        if m < 1:
            raise ValueError("non-local gate needs at least one local bit")
        rank_bit = pos - m
        partner = comm.rank ^ (1 << rank_bit)
        my_bit = (comm.rank >> rank_bit) & 1
        half = state.local_amplitudes // 2
        if real:
            outgoing = state.local[half:].copy() if my_bit == 0 \
                else state.local[:half].copy()
            incoming = yield comm.sendrecv(partner, outgoing, partner,
                                           tag=77)
            if my_bit == 0:
                state.local[half:] = incoming
            else:
                state.local[:half] = incoming
        else:
            yield comm.sendrecv(partner, Phantom(half * AMP_BYTES), partner,
                                tag=77)
        state.layout[pos], state.layout[m - 1] = (
            state.layout[m - 1], state.layout[pos])
        pos = m - 1
    if real:
        _local_apply(state.local, np.asarray(u, dtype=np.complex128), pos)
    amps = state.local_amplitudes
    yield comm.compute(flops=14.0 * amps, bytes_moved=3.0 * AMP_BYTES * amps,
                       efficiency=gate_efficiency, label="gate")
    return nonlocal_gate


def juqcs_per_gate(comm, n_qubits, gates, real):
    """``juqcs_program`` as it was before the gate plan."""
    state = dist_zero_state(comm, n_qubits, real=real)
    p = state.rank_bits
    m = state.local_bits
    nonlocal_count = 0
    for _i in range(gates):
        if p > 0:
            target = state.layout[m + p - 1]
        else:
            target = state.layout[m - 1]
        was_nonlocal = yield from dist_apply_per_gate(comm, state, H, target)
        nonlocal_count += int(was_nonlocal)
    if not real:
        return None, nonlocal_count
    full = yield from dist_gather(comm, state)
    ref = reference_state(n_qubits, state.history)
    return float(np.max(np.abs(full - ref))), nonlocal_count


def degraded(machine):
    plan = FaultPlan(links=(LinkFault("inter_cell", 0.37),
                            LinkFault("intra_node", 0.81)))
    return replace(machine, network=machine.network.degraded(
        FaultInjector(plan).degradation()))


MACHINES = {
    "1rank": lambda: Machine.on(juwels_booster(), 1),
    "2ranks": lambda: Machine.on(juwels_booster(), 2),
    "8ranks": lambda: Machine.on(juwels_booster(), 8),
    "64ranks": lambda: Machine.booster(16),
    "msa": lambda: Machine.msa(cluster_nodes=1, booster_nodes=1),
    "degraded": lambda: degraded(Machine.booster(2)),
}


def canon(spmd):
    return json.dumps(spmd.canonical(), sort_keys=True)


def key_order(spmd):
    return [(list(t.compute), list(t.comm)) for t in spmd.traces]


@pytest.mark.parametrize("local_qubits", [3, 30],
                         ids=["eager", "rendezvous"])
@pytest.mark.parametrize("mach", MACHINES)
def test_batched_juqcs_is_the_per_gate_program(mach, local_qubits):
    machine = MACHINES[mach]()
    n = int(np.log2(machine.nranks)) + local_qubits
    batched = VmpiEngine(machine).run(juqcs_timing_program, args=(n, 12))
    for engine, program, args in (
            (ReferenceEngine, juqcs_per_gate, (n, 12, False)),
            (ReferenceEngine, juqcs_timing_program, (n, 12)),
            (VmpiEngine, juqcs_per_gate, (n, 12, False))):
        oracle = engine(machine).run(program, args=args)
        assert oracle.clocks == batched.clocks, (engine, program)
        assert canon(oracle) == canon(batched)
        assert key_order(oracle) == key_order(batched)
    expected = 0 if machine.nranks == 1 else 12
    assert batched.values == [(None, expected)] * machine.nranks


@pytest.mark.parametrize("nranks", [1, 2, 8])
def test_real_mode_follows_the_same_plan(nranks):
    machine = Machine.on(juwels_booster(), nranks)
    n = int(np.log2(nranks)) + 4
    new = VmpiEngine(machine).run(juqcs_program, args=(n, 7))
    old = ReferenceEngine(machine).run(juqcs_per_gate, args=(n, 7, True))
    assert canon(new) == canon(old)
    assert new.values[0][0] == 0.0


@pytest.mark.parametrize("nranks", [1, 2, 8])
def test_phantom_gates_are_the_per_gate_program(nranks):
    """Any gate sequence -- local and non-local gates, several rank
    bits -- costs in the job program what the per-gate program did:
    same clocks, same ledger."""
    def prog(comm):
        state = dist_zero_state(comm, n, real=False)
        count = 0
        for q in qubits:
            count += yield from dist_apply_per_gate(comm, state, rx(0.2), q)
        return None, count

    machine = Machine.on(juwels_booster(), nranks)
    n = int(np.log2(nranks)) + 4
    qubits = (n - 1, 0, n - 2, n - 1, 1, n - 1)
    new = VmpiEngine(machine).run(juqcs_timing_program, args=(n, qubits))
    old = ReferenceEngine(machine).run(prog)
    assert new.clocks == old.clocks and new.values == old.values
    assert canon(new) == canon(old) and key_order(new) == key_order(old)


@pytest.mark.parametrize("apply", ["dist_apply", "dist_circuit"])
def test_a_phantom_register_is_refused(apply):
    """Timing mode is the job program: a phantom register has no
    amplitudes to apply a gate to, and says so before communicating."""
    posted = []

    def prog(comm):
        state = dist_zero_state(comm, 4, real=False)
        gen = dist_apply(comm, state, H, 3) if apply == "dist_apply" \
            else dist_circuit(comm, state, H, 3)
        with pytest.raises(ValueError, match="phantom register") as err:
            posted.append(next(gen))
        yield comm.barrier()
        return str(err.value)

    spmd = VmpiEngine(Machine.on(juwels_booster(), 2)).run(prog)
    assert posted == []
    assert spmd.values == [spmd.values[0]] * 2


def test_gate_plan_routes_like_the_layout_walk():
    rng = np.random.default_rng(7)
    for n, p in ((5, 0), (5, 2), (9, 3), (12, 6)):
        state = dist_zero_state(Comm(0, 0, tuple(range(1 << p))), n,
                                real=False)
        gates = tuple(int(q) for q in rng.integers(n, size=20))
        steps, layout = gate_plan(n, p, gates)
        for (qubit, pos, bit), target in zip(steps, gates):
            assert qubit == target and pos == state.position_of(target)
            m = state.local_bits
            assert bit == (pos - m if pos >= m else None)
            if bit is not None:
                state.layout[pos], state.layout[m - 1] = \
                    state.layout[m - 1], state.layout[pos]
        assert list(layout) == state.layout
    # the benchmark circuit: every gate on the top rank bit
    steps, layout = gate_plan(10, 3, 12)
    assert [bit for _, _, bit in steps] == [2] * 12
    assert [q for q, _, _ in steps] == [9, 6] * 6 and layout == tuple(range(10))


@pytest.mark.parametrize("real", [False, True])
def test_a_non_unitary_gate_raises_before_any_communication(real):
    posted = []

    def prog(comm):
        state = dist_zero_state(comm, 4, real=real)
        gen = dist_circuit(comm, state, rx(0.3) * 1.5, 3)
        with pytest.raises(ValueError, match="gate is not unitary"):
            posted.append(next(gen))
        yield comm.barrier()

    VmpiEngine(Machine.on(juwels_booster(), 2)).run(prog)
    assert posted == []


# -- count guards, in a fresh interpreter ------------------------------------------

def count_prologue() -> dict:
    """What one JUQCS and one Chroma job at 128 nodes do per rank; run
    in a fresh interpreter by :func:`test_prologue_is_per_job`."""
    from collections import Counter

    from repro.apps.juqcs.benchmark import JuqcsBenchmark
    from repro.apps.lattice.chroma import chroma_timing_program
    from repro.vmpi import decomposition
    from repro.vmpi import engine as engine_module
    from repro.vmpi import sweep as sweep_module

    counts = Counter()

    class CountedRequest(engine_module.Request):
        def __init__(self, *args, **kw):
            counts["requests"] += 1
            super().__init__(*args, **kw)

    real_run, real_neighbor = sweep_module.SweepPlan.run, CartGrid.neighbor
    real_table = decomposition.halo_table
    real_step = VmpiEngine._step_rank
    tables = set()

    def counting_run(self, *args):
        counts["sweeps"] += 1
        return real_run(self, *args)

    def counting_neighbor(self, *args):
        counts["neighbor"] += 1
        return real_neighbor(self, *args)

    def counting_table(*args):
        rows = real_table(*args)
        tables.add(id(rows))
        return rows

    def counting_step(self, r):
        counts["rank_steps"] += 1
        return real_step(self, r)

    engine_module.Request = CountedRequest
    sweep_module.SweepPlan.run = counting_run
    CartGrid.neighbor = counting_neighbor
    decomposition.halo_table = counting_table
    VmpiEngine._step_rank = counting_step
    machine = Machine.booster(128)
    n = JuqcsBenchmark().qubits_for(128, None)
    spmd = VmpiEngine(machine).run(juqcs_timing_program, args=(n, 12))
    assert spmd.values == [(None, 12)] * 512
    out = {"juqcs_" + k: v for k, v in counts.items()}
    counts.clear()
    spmd = VmpiEngine(machine).run(chroma_timing_program,
                                   args=((4, 4, 4, 4), 2, 2, 3))
    out.update({"chroma_" + k: v for k, v in counts.items()})
    out["chroma_tables"] = len(tables)
    return out


def test_prologue_is_per_job():
    code = ("import json\n"
            "from tests.test_vmpi_prologue import count_prologue\n"
            "print(json.dumps(count_prologue()))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    # JUQCS: the whole circuit is one column plan, run once -- no rank
    # step and no Request
    assert counts["juqcs_sweeps"] == 1
    assert counts.get("juqcs_rank_steps", 0) == 0
    assert counts.get("juqcs_requests", 0) == 0
    # Chroma: one pairing table for 512 ranks, no neighbour walk
    assert counts["chroma_tables"] == 1
    assert counts.get("chroma_neighbor", 0) == 0
    assert counts.get("chroma_rank_steps", 0) == 0
    assert counts["chroma_sweeps"] == 2          # one per trajectory
