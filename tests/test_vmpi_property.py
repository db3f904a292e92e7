"""Property-based differential testing of the vmpi engine.

Hypothesis generates random-but-well-formed SPMD programs (every rank
executes the same randomly drawn phase sequence, so they are
deadlock-free by construction) and asserts the invariants on each:
virtual clocks advance monotonically, no spurious
:class:`DeadlockError` is raised, and the engine and the reference step
scheduler (:mod:`tests.vmpi_reference`) agree exactly on final clocks,
payloads and traces.
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


def build_program(phases):
    """An SPMD generator executing the drawn phase list on every rank."""

    def prog(comm):
        out = 0.0
        for phase in phases:
            kind = phase[0]
            if kind == "compute":
                yield comm.compute(flops=phase[1], efficiency=phase[2])
            elif kind == "elapse":
                yield comm.elapse(phase[1])
            elif kind == "allreduce":
                got = yield comm.allreduce(Phantom(phase[1]))
                out += got.nbytes
            elif kind == "barrier":
                yield comm.barrier()
            elif kind == "allgather":
                got = yield comm.allgather(Phantom(phase[1]))
                out += len(got)
            elif kind == "ring":
                shift, size = phase[1], phase[2]
                right = (comm.rank + shift) % comm.size
                left = (comm.rank - shift) % comm.size
                got = yield comm.sendrecv(right, Phantom(size), left)
                out += got.nbytes
            elif kind == "exchange":
                shift, size = phase[1], phase[2]
                dest = (comm.rank + shift) % comm.size
                src = (comm.rank - shift) % comm.size
                got = yield comm.exchange(((dest, Phantom(size)),), (src,))
                out += got[0].nbytes
            elif kind == "p2p_pair":
                peer = comm.rank ^ 1
                if peer < comm.size:
                    sreq = yield comm.isend(peer, Phantom(phase[1]))
                    rreq = yield comm.irecv(peer)
                    got = yield comm.waitall([sreq, rreq])
                    out += got[1].nbytes
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
