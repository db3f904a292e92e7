"""Property-based differential testing of the vmpi engine.

Hypothesis generates random-but-well-formed SPMD programs (every rank
executes the same randomly drawn phase sequence, so they are
deadlock-free by construction) and asserts the invariants on each:
virtual clocks advance monotonically, no spurious
:class:`DeadlockError` is raised, and the engine and the reference step
scheduler (:mod:`tests.vmpi_reference`) agree exactly on final clocks,
payloads and traces.  A second generator wraps phases into tuple
batches, which the engine lowers op by op the moment they are yielded.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import juwels_booster
from repro.vmpi import Machine, Phantom, run_spmd
from tests.vmpi_reference import run_reference


def machine(nranks, **kw):
    return Machine.on(juwels_booster(), nranks, **kw)


# A phase is one op family, drawn with small parameter spaces so runs
# stay fast while still mixing blocking structure.
PHASES = st.one_of(
    st.tuples(st.just("compute"),
              st.sampled_from([1e9, 5e9, 2e10]),
              st.sampled_from([0.25, 1.0])),
    st.tuples(st.just("elapse"), st.sampled_from([0.01, 0.5])),
    st.tuples(st.just("allreduce"), st.sampled_from([64.0, 2e6])),
    st.tuples(st.just("barrier")),
    st.tuples(st.just("allgather"), st.sampled_from([8.0, 1e5])),
    st.tuples(st.just("ring"), st.integers(min_value=1, max_value=3),
              st.sampled_from([128.0, 1e6])),
    st.tuples(st.just("exchange"), st.integers(min_value=1, max_value=3),
              st.sampled_from([256.0, 5e5])),
    st.tuples(st.just("p2p_pair"), st.sampled_from([32.0, 3e6])),
)


# Phases that are one op, so they can also stand inside a tuple batch:
# the families a job program runs as columns -- rank-skewed compute,
# collectives on the world and on two families of sub-communicators
# (``rank % 2`` interleaved, ``rank // 2`` contiguous), ring sendrecvs
# of any shift -- next to ones no column carries (a real payload).
SUBS = st.integers(min_value=0, max_value=1)
BATCHABLE = st.one_of(
    PHASES.filter(lambda phase: phase[0] != "p2p_pair"),
    st.tuples(st.just("skew"), st.sampled_from([1e9, 7e9])),
    st.tuples(st.just("sub_allreduce"), SUBS, st.sampled_from([64.0, 2e6])),
    st.tuples(st.just("sub_barrier"), SUBS),
    st.tuples(st.just("sub_ring"), SUBS, st.sampled_from([128.0, 1e6])),
    st.tuples(st.just("real_allreduce")),
)
#: (ops of one step, times the step repeats in the tuple, batches yielded)
BATCH = st.tuples(st.just("batch"),
                  st.lists(BATCHABLE, min_size=1, max_size=4),
                  st.integers(min_value=1, max_value=3),
                  st.integers(min_value=1, max_value=3))


def one_op(comm, subs, phase):
    """The op of a single-op phase."""
    kind = phase[0]
    if kind == "compute":
        return comm.compute(flops=phase[1], efficiency=phase[2])
    if kind == "skew":
        return comm.compute(flops=phase[1] * (1 + comm.rank % 3),
                            efficiency=0.5, label="skew")
    if kind == "elapse":
        return comm.elapse(phase[1])
    if kind == "allreduce":
        return comm.allreduce(Phantom(phase[1]))
    if kind == "real_allreduce":
        return comm.allreduce(np.arange(3.0) * comm.rank)
    if kind == "barrier":
        return comm.barrier()
    if kind == "allgather":
        return comm.allgather(Phantom(phase[1]))
    if kind == "sub_allreduce":
        return subs[phase[1]].allreduce(Phantom(phase[2]), label="sub")
    if kind == "sub_barrier":
        return subs[phase[1]].barrier(label="sub")
    if kind in ("ring", "sub_ring"):
        ring = comm if kind == "ring" else subs[phase[1]]
        shift = phase[1] if kind == "ring" else 1
        return ring.sendrecv((ring.rank + shift) % ring.size,
                             Phantom(phase[2]),
                             (ring.rank - shift) % ring.size)
    assert kind == "exchange", kind
    shift, size = phase[1], phase[2]
    return comm.exchange((((comm.rank + shift) % comm.size, Phantom(size)),),
                         ((comm.rank - shift) % comm.size,))


def fold(got):
    """A number that depends on everything an op resumed with."""
    if isinstance(got, Phantom):
        return got.nbytes
    if isinstance(got, np.ndarray):
        return float(got.sum())
    if isinstance(got, list):
        return len(got) + sum(fold(x) for x in got)
    assert got is None, got
    return 0.0


def build_program(phases):
    """An SPMD generator executing the drawn phase list on every rank."""

    def prog(comm):
        out = 0.0
        subs = ()
        if any(phase[0] == "batch" for phase in phases):
            subs = ((yield comm.split(comm.rank % 2)),
                    (yield comm.split(comm.rank // 2)))
        for phase in phases:
            kind = phase[0]
            if kind == "batch":
                step = tuple(one_op(comm, subs, inner) for inner in phase[1])
                for _ in range(phase[3]):
                    got = yield step * phase[2]
                    assert len(got) == len(step) * phase[2]
                    out += fold(got)
            elif kind == "p2p_pair":
                peer = comm.rank ^ 1
                if peer < comm.size:
                    sreq = yield comm.isend(peer, Phantom(phase[1]))
                    rreq = yield comm.irecv(peer)
                    got = yield comm.waitall([sreq, rreq])
                    out += got[1].nbytes
            else:
                out += fold((yield one_op(comm, subs, phase)))
        return out

    return prog


@given(phases=st.lists(PHASES, min_size=1, max_size=8),
       nranks=st.integers(min_value=2, max_value=8))
@settings(max_examples=40, deadline=None)
def test_random_programs_agree_across_cores(phases, nranks):
    prog = build_program(phases)
    m = machine(nranks)
    step = run_reference(prog, machine=m)   # must not deadlock
    event = run_spmd(prog, machine=m)       # must not deadlock
    # exact agreement, float for float
    assert step.clocks == event.clocks
    assert step.values == event.values
    for ts, te in zip(step.traces, event.traces):
        assert dict(ts.compute) == dict(te.compute)
        assert dict(ts.comm) == dict(te.comm)
        assert ts.bytes_sent == te.bytes_sent
        assert ts.ops == te.ops


@given(phases=st.lists(st.one_of(BATCH, BATCH, PHASES), min_size=1,
                       max_size=5),
       nranks=st.integers(min_value=1, max_value=9))
@settings(max_examples=60, deadline=None)
def test_random_batched_programs_agree_across_cores(phases, nranks):
    """Tuple batches -- multiplied, mixed with plain phases, on the world
    and on sub-communicators -- lowered op by op: values, clocks, traces
    and the insertion order of the trace buckets (``compute_seconds``
    sums in it) all equal the reference's."""
    prog = build_program(phases)
    m = machine(nranks)
    step = run_reference(prog, machine=m)
    event = run_spmd(prog, machine=m)
    assert step.clocks == event.clocks
    assert step.values == event.values
    for ts, te in zip(step.traces, event.traces):
        assert list(ts.compute.items()) == list(te.compute.items())
        assert list(ts.comm.items()) == list(te.comm.items())
        assert ts.bytes_sent == te.bytes_sent
        assert ts.ops == te.ops


@given(phases=st.lists(PHASES, min_size=1, max_size=6),
       nranks=st.integers(min_value=2, max_value=6))
@settings(max_examples=25, deadline=None)
def test_clocks_monotonic_and_consistent(phases, nranks):
    """Clocks never run backwards: every rank's final clock is at least
    its accumulated compute + blocked-communication time, and rerunning
    is bit-reproducible."""
    prog = build_program(phases)
    m = machine(nranks)
    res = run_spmd(prog, machine=m)
    for r in range(nranks):
        t = res.traces[r]
        assert res.clocks[r] >= 0.0
        # compute and blocked time partition the clock (nothing else
        # advances it), so their sum can exceed it only by float error
        assert res.clocks[r] >= t.compute_seconds - 1e-12
        assert t.comm_seconds >= 0.0
        assert t.compute_seconds + t.comm_seconds <= \
            res.clocks[r] * (1 + 1e-9) + 1e-12
    again = run_spmd(prog, machine=m)
    assert again.clocks == res.clocks
    assert again.values == res.values
