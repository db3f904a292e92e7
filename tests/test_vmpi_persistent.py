"""Re-posted ops on the per-rank path, against the oracle.

A rank program may post the *same op object* again (hoisted out of its
loop by hand, or shared at module level) or build an equal one every
step; it may refill a buffer it already sent, or answer a ``sendrecv``
with plain point-to-point.  The engine keeps no per-rank memo of ops,
collective rounds, ``Sendrecv`` pairs or prices -- only the exchange
plan of a ``(comm, tag)``, checked by op identity -- and these programs
guard against such a memo coming back wrong: every test pins production
against the reference step scheduler (:mod:`tests.vmpi_reference`,
which re-derives everything per op) or against a program that hoists
by hand -- byte for byte, no tolerances.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.lattice.chroma import chroma_timing_program
from repro.cluster import juwels_booster, juwels_cluster
from repro.vmpi import engine as engine_module
from repro.vmpi import (
    Collective,
    Compute,
    DeadlockError,
    Machine,
    Phantom,
    run_spmd,
)
from repro.vmpi.decomposition import (
    CartGrid,
    ghost_faces,
    halo_exchange,
    halo_exchange_op,
    phantom_faces,
)
from repro.vmpi.job import World
from tests.test_vmpi_differential import chrome_export_bytes
from tests.vmpi_reference import run_reference


def machine(nranks, **kw):
    return Machine.on(juwels_booster(), nranks, **kw)


def canon(spmd):
    return json.dumps(spmd.canonical(), sort_keys=True)


# -- (a) hoisted == un-hoisted == step core ----------------------------------

def _faces_4d(comm, cart, isolated):
    """Phantom faces of a 4D block; ``isolated`` ranks own none and the
    others drop the faces that would point at them (an open boundary
    whose far side does not take part)."""
    if comm.rank in isolated:
        return {}
    faces = phantom_faces((4, 6, 8, 10), itemsize=96)
    return {k: v for k, v in faces.items()
            if cart.neighbor(comm.rank, *k) not in isolated}


def halo_program(comm, dims, periodic, isolated, hoist, steps=5):
    cart = CartGrid(dims=dims, periodic=periodic)
    faces = _faces_4d(comm, cart, isolated)
    if hoist:
        op, keys = halo_exchange_op(comm, cart, faces)
    seen = 0
    for _step in range(steps):
        yield comm.compute(flops=3e9, bytes_moved=1e8, efficiency=0.4,
                           label="dslash")
        if hoist:
            got = dict(zip(keys, (yield op))) if op.sends or op.recvs else {}
        else:
            got = yield from halo_exchange(comm, cart, faces)
        seen += len(got)
        yield comm.allreduce(Phantom(16.0), label="dot")
    return seen


HALO_CASES = [
    # every extent 2: both directions of a dim hit the same neighbour
    ("extent2", 16, (2, 2, 2, 2), (True,) * 4, ()),
    # extent 1 periodic: a rank is its own neighbour, twice per dim
    ("extent1", 4, (2, 2, 1, 1), (True,) * 4, ()),
    ("mixed", 12, (3, 2, 2, 1), (True,) * 4, ()),
    # open boundary; rank 2 has no neighbours and never posts, so the
    # round cannot fill and drains through the quiescence path
    ("open_boundary", 3, (3, 1, 1, 1), (False,) * 4, (2,)),
]


@pytest.mark.parametrize("name,nranks,dims,periodic,isolated", HALO_CASES,
                         ids=[c[0] for c in HALO_CASES])
def test_hoisted_unhoisted_and_step_core_agree(tmp_path, name, nranks, dims,
                                               periodic, isolated):
    m = machine(nranks)
    runs = {}
    for core, run in (("step", run_reference), ("event", run_spmd)):
        for hoist in (False, True):
            runs[core, hoist] = run(halo_program, machine=m,
                                    args=(dims, periodic, isolated, hoist))
    ref = runs["step", True]
    assert any(v for v in ref.values)            # something was exchanged
    for key, spmd in runs.items():
        assert canon(spmd) == canon(ref), key
        assert chrome_export_bytes(tmp_path, "-".join(map(str, key)), spmd) == \
            chrome_export_bytes(tmp_path, "ref", ref), key


# -- (b) real-mode payloads: never stale data ------------------------------------

def real_halo_program(comm, persistent_buffers, steps=4):
    cart = CartGrid.for_ranks(comm.size, 2, periodic=True)
    field = np.zeros((4, 4))
    buffers = ghost_faces(field)
    for step in range(steps):
        field[:] = 100.0 * comm.rank + step
        if persistent_buffers:
            for key, fresh in ghost_faces(field).items():
                buffers[key][...] = fresh          # same objects, new data
            faces = buffers
        else:
            faces = ghost_faces(field)             # fresh arrays each step
        got = yield from halo_exchange(comm, cart, faces)
        for (dim, direction), ghost in got.items():
            sender = cart.neighbor(comm.rank, dim, direction)
            assert np.all(ghost == 100.0 * sender + step), \
                f"stale halo at step {step}"
        yield comm.compute(flops=1e8, label="stencil")
        # payloads are delivered by reference: nobody may refill its
        # faces before every receiver has looked at them
        yield comm.barrier()


@pytest.mark.parametrize("persistent_buffers", [False, True])
def test_real_mode_halos_are_never_stale(persistent_buffers):
    m = machine(6)
    step = run_reference(real_halo_program, machine=m,
                         args=(persistent_buffers,))
    event = run_spmd(real_halo_program, machine=m, args=(persistent_buffers,))
    assert canon(step) == canon(event)


def changing_faces_program(comm):
    cart = CartGrid.for_ranks(comm.size, 2, periodic=True)
    full = phantom_faces((8, 8))
    dim0 = {k: v for k, v in full.items() if k[0] == 0}
    sizes = []
    for faces in (full, dim0, full, full, dim0):
        got = yield from halo_exchange(comm, cart, faces)
        assert set(got) == set(faces)
        sizes.append(len(got))
    return sizes


def test_changed_face_set_rebuilds():
    m = machine(4)
    step = run_reference(changing_faces_program, machine=m)
    event = run_spmd(changing_faces_program, machine=m)
    assert canon(step) == canon(event)
    assert event.values[0] == [4, 2, 4, 4, 2]


def hoisted_real_collective_program(comm):
    buf = np.zeros(1)
    op = comm.allreduce(buf)                     # hoisted, payload mutates
    totals = []
    for step in range(4):
        buf[0] = comm.rank + 10.0 * step
        totals.append(float((yield op)[0]))
    return totals


def test_real_payload_collectives_are_never_replayed():
    m = machine(3)
    step = run_reference(hoisted_real_collective_program, machine=m)
    event = run_spmd(hoisted_real_collective_program, machine=m)
    assert canon(step) == canon(event)
    assert event.values[0] == [3.0 + 30.0 * s for s in range(4)]


def replayed_list_results_program(comm):
    lengths = []
    for _ in range(4):
        got = yield comm.allgather(Phantom(8.0))
        everyone = yield comm.alltoall(Phantom(64.0))
        rooted = yield comm.gather(Phantom(8.0), root=1)
        lengths += [len(got), len(everyone),
                    None if rooted is None else len(rooted)]
        # a round's list is shared by its receivers, so scribble on it
        # only once everybody has looked; a replay must not see this
        yield comm.barrier()
        got.append("mine")
        everyone.clear()
        if rooted is not None:
            rooted.pop()
    return lengths


def test_replayed_rounds_hand_out_fresh_lists():
    m = machine(4)
    step = run_reference(replayed_list_results_program, machine=m)
    event = run_spmd(replayed_list_results_program, machine=m)
    assert canon(step) == canon(event)
    assert event.values[0] == [4, 4, None] * 4
    assert event.values[1] == [4, 4, 4] * 4


def repeated_split_program(comm):
    ids = []
    for _ in range(3):
        sub = yield comm.split(comm.rank % 2)
        ids.append(sub.comm_id)
        yield sub.allreduce(Phantom(8.0))
    return len(set(ids))


def test_split_is_never_replayed():
    event = run_spmd(repeated_split_program, machine=machine(4))
    assert event.values == [3, 3, 3, 3]          # a new communicator each time
    step = run_reference(repeated_split_program, machine=machine(4))
    assert step.clocks == event.clocks


# -- (c) a re-posted Compute is priced per engine and per device ---------------

KERNEL = dict(flops=4e12, bytes_moved=2e10, efficiency=0.5, label="kernel")
#: a descriptor hoisted to module level outlives every engine
SHARED = Compute(**KERNEL)


def compute_program(comm, shared):
    for _ in range(3):
        yield SHARED if shared else comm.compute(**KERNEL)
    yield comm.barrier()


@pytest.mark.parametrize("shared", [False, True])
def test_compute_price_never_crosses_machines(shared):
    booster = machine(4)
    cluster = Machine.on(juwels_cluster(), 4)
    msa = Machine.msa(cluster_nodes=1, booster_nodes=1)
    clocks = {}
    for name, m in (("booster", booster), ("cluster", cluster), ("msa", msa),
                    ("booster-again", booster)):
        event = run_spmd(compute_program, machine=m, args=(shared,))
        step = run_reference(compute_program, machine=m, args=(shared,))
        assert canon(event) == canon(step), name
        clocks[name] = [t.compute["kernel"] for t in event.traces]
    assert clocks["booster"] == clocks["booster-again"]
    assert clocks["booster"][0] != clocks["cluster"][0]
    # heterogeneous job: each rank is priced on its own device
    assert len(set(clocks["msa"])) == 2
    assert set(clocks["msa"]) == {clocks["booster"][0], clocks["cluster"][0]}


# -- (d) plans are built per (comm, tag), ops per rank -- not per step --------

def test_chroma_builds_plans_and_ops_once(monkeypatch):
    builds = []
    columns = []
    real_build = engine_module.build_plan
    real_halo = World.halo

    def counting_build(members, *args):
        builds.append(len(members))
        return real_build(members, *args)

    def counting_halo(world, *args, **kw):
        halo = real_halo(world, *args, **kw)
        columns.extend(halo)
        return halo

    monkeypatch.setattr(engine_module, "build_plan", counting_build)
    monkeypatch.setattr(World, "halo", counting_halo)
    m = Machine.booster(16)
    trajectories, md_steps, cg_iters = 2, 2, 4
    spmd = run_spmd(chroma_timing_program, machine=m,
                    args=((4, 4, 4, 4), trajectories, md_steps, cg_iters))
    sweeps = trajectories * md_steps * cg_iters * 2
    assert spmd.values == [sweeps] * 64 and sweeps == 32
    assert builds == [64]                 # one (comm, tag), one plan
    # one halo column for the job: one Exchange per rank, built once
    assert len(columns) == 1 and len(set(map(id, columns[0]))) == 64
    step = run_reference(
        chroma_timing_program, machine=m,
        args=((4, 4, 4, 4), trajectories, md_steps, cg_iters))
    assert canon(step) == canon(spmd)


# -- paired sendrecv --------------------------------------------------------------

def pair_program(comm, sizes, skew):
    """Symmetric partners, unequal sizes (eager vs rendezvous) and
    arrival times; returns what was received."""
    peer = comm.rank ^ 1
    got = []
    for n, (small, large) in enumerate(sizes):
        yield comm.compute(flops=skew * (comm.rank + 1) * 1e10,
                           efficiency=1.0)
        mine = small if (comm.rank + n) % 2 == 0 else large
        got.append((yield comm.sendrecv(peer, Phantom(mine), peer, tag=7)))
    return [p.nbytes for p in got]


@pytest.mark.parametrize("skew", [0.0, 1.0])
def test_paired_sendrecv_matches_step_core(skew):
    sizes = [(64.0, 64.0), (1024.0, 5e6), (5e6, 7e6), (0.0, 3e5)]
    m = machine(8, ranks_per_node=2)       # on-node and off-node pairs
    step = run_reference(pair_program, machine=m, args=(sizes, skew))
    event = run_spmd(pair_program, machine=m, args=(sizes, skew))
    assert canon(step) == canon(event)


def lowered_pair_program(comm):
    """Rank 0 parks a symmetric sendrecv; rank 1 answers with plain p2p
    on the same channel, before and after real sendrecvs."""
    if comm.rank == 0:
        a = yield comm.sendrecv(1, np.array([1.0]), 1)
        b = yield comm.sendrecv(1, np.array([2.0]), 1)
        yield comm.send(1, np.array([3.0]))
        c = yield comm.sendrecv(1, Phantom(4e6), 1)
        return (float(a[0]), float(b[0]), c.nbytes)
    if comm.rank == 1:
        a = yield comm.recv(0)
        yield comm.send(0, a + 10.0)
        b = yield comm.sendrecv(0, np.array([20.0]), 0)
        req = yield comm.irecv(0)
        c = yield comm.sendrecv(0, Phantom(8.0), 0)
        d = yield comm.wait(req)
        return (float(a[0]), float(b[0]), c.nbytes, float(d[0]))
    # rank 2 aims an asymmetric sendrecv at itself and idles
    yield comm.sendrecv(2, "self", 2)
    return None


def test_parked_sendrecv_interoperates_with_plain_p2p():
    m = machine(3)
    step = run_reference(lowered_pair_program, machine=m)
    event = run_spmd(lowered_pair_program, machine=m)
    assert canon(step) == canon(event)
    assert event.values[0] == (11.0, 20.0, 8.0)
    assert event.values[1] == (1.0, 2.0, 4e6, 3.0)


def _deadlock_text(program, nranks, run):
    with pytest.raises(DeadlockError) as err:
        run(program, machine=machine(nranks))
    return str(err.value)


def test_unpartnered_sendrecv_deadlocks_like_the_step_core():
    def absent_partner(comm):
        if comm.rank == 0:
            yield comm.sendrecv(1, Phantom(1e6), 1)

    def wrong_tag(comm):
        yield comm.sendrecv(comm.rank ^ 1, Phantom(16.0), comm.rank ^ 1,
                            tag=comm.rank)

    def third_wheel(comm):
        if comm.rank < 2:
            yield comm.sendrecv(comm.rank ^ 1, Phantom(16.0), comm.rank ^ 1)
        else:
            yield comm.sendrecv(0, Phantom(16.0), 0)

    def stuck_collective(comm):
        if comm.rank:
            yield comm.allreduce(Phantom(8.0), label="dot")

    for program, nranks in ((absent_partner, 2), (wrong_tag, 2),
                            (third_wheel, 3), (stuck_collective, 3)):
        assert _deadlock_text(program, nranks, run_spmd) == \
            _deadlock_text(program, nranks, run_reference), program.__name__


# -- (e) Hypothesis: re-posted and fresh descriptors mixed -----------------------

PHASES = st.one_of(
    st.tuples(st.just("compute"), st.sampled_from([1e9, 2e10]),
              st.booleans()),
    st.tuples(st.just("halo"), st.sampled_from(["shared", "fresh", "dim0"])),
    st.tuples(st.just("allreduce"), st.sampled_from([64.0, 2e6]),
              st.booleans()),
    st.tuples(st.just("allgather"), st.sampled_from([8.0, 1e5])),
    st.tuples(st.just("bcast"), st.integers(min_value=0, max_value=1)),
    st.tuples(st.just("barrier"), st.booleans()),
    st.tuples(st.just("pair"), st.sampled_from([32.0, 3e6]),
              st.sampled_from([32.0, 3e6])),
    st.tuples(st.just("pair_p2p"), st.sampled_from([32.0, 3e6])),
    st.tuples(st.just("ring"), st.sampled_from([128.0, 1e6])),
    st.tuples(st.just("real_allreduce")),
)


def build_program(phases, repeats):
    def prog(comm):
        cart = CartGrid.for_ranks(comm.size, 2, periodic=True)
        shared = phantom_faces((8, 4))
        dim0 = {k: v for k, v in shared.items() if k[0] == 0}
        out = 0.0
        for _ in range(repeats):
            for phase in phases:
                kind = phase[0]
                if kind == "compute":
                    if phase[2]:
                        yield comm.compute(flops=phase[1], efficiency=0.5)
                    else:
                        yield Compute(flops=phase[1], efficiency=0.5)
                elif kind == "halo":
                    faces = {"shared": shared, "dim0": dim0,
                             "fresh": phantom_faces((8, 4))}[phase[1]]
                    got = yield from halo_exchange(comm, cart, faces)
                    out += sum(p.nbytes for p in got.values())
                elif kind == "allreduce":
                    if phase[2]:
                        got = yield comm.allreduce(Phantom(phase[1]))
                    else:
                        got = yield Collective(kind="allreduce",
                                               payload=Phantom(phase[1]),
                                               label="allreduce")
                    out += got.nbytes
                elif kind == "allgather":
                    got = yield comm.allgather(Phantom(phase[1]))
                    out += len(got)
                elif kind == "bcast":
                    got = yield comm.bcast(Phantom(8.0 * (comm.rank + 1)),
                                           root=phase[1])
                    out += got.nbytes
                elif kind == "barrier":
                    yield comm.barrier(label="a" if phase[1] else "b")
                elif kind == "pair":
                    peer = comm.rank ^ 1
                    if peer < comm.size:
                        mine = phase[1] if comm.rank % 2 else phase[2]
                        got = yield comm.sendrecv(peer, Phantom(mine), peer)
                        out += got.nbytes
                elif kind == "pair_p2p":
                    # one side uses sendrecv, the other plain p2p
                    peer = comm.rank ^ 1
                    if peer < comm.size:
                        if comm.rank % 2:
                            got = yield comm.sendrecv(peer, Phantom(phase[1]),
                                                      peer)
                        else:
                            req = yield comm.isend(peer, Phantom(phase[1]))
                            got = yield comm.recv(peer)
                            yield comm.wait(req)
                        out += got.nbytes
                elif kind == "ring":
                    right = (comm.rank + 1) % comm.size
                    left = (comm.rank - 1) % comm.size
                    got = yield comm.sendrecv(right, Phantom(phase[1]), left)
                    out += got.nbytes
                elif kind == "real_allreduce":
                    got = yield comm.allreduce(np.array([out, comm.rank]))
                    out = float(got[0])
        return out

    return prog


@given(phases=st.lists(PHASES, min_size=1, max_size=7),
       repeats=st.integers(min_value=1, max_value=3),
       nranks=st.integers(min_value=2, max_value=8))
@settings(max_examples=60, deadline=None)
def test_random_persistent_programs_agree_across_cores(phases, repeats,
                                                       nranks):
    prog = build_program(phases, repeats)
    m = machine(nranks)
    step = run_reference(prog, machine=m)
    event = run_spmd(prog, machine=m)
    assert step.clocks == event.clocks
    assert canon(step) == canon(event)
