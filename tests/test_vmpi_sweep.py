"""Columns and batches against the oracle.

A job program (:mod:`repro.vmpi.job`) runs column by column over NumPy
arrays (:mod:`repro.vmpi.sweep`); a rank program's tuple batch is
*lowered* onto the per-rank path, op by op, the moment it is yielded.
Neither may be observable: this suite compares production with the
reference step scheduler (:mod:`tests.vmpi_reference`, which runs every
op rank by rank) byte for byte --

(a) every hoisted timing program, on several machines, and for three of
    them against the un-hoisted loop kept here verbatim;
(b) every batch a rank program yields, error text included;
(c) (the random programs live in ``test_vmpi_property.py``);
(d) noise-free count guards on what columns are for: no ``Request``,
    no rank step, one plan per distinct column.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.apps.ai.benchmarks import (
    BF16_FACTOR,
    GEMM_EFFICIENCY,
    GPT_HIDDEN,
    GPT_LAYERS,
    GPT_PARAMS,
    TOKENS_PER_STEP,
    TP_SIZE,
    megatron_timing_program,
    mmoclip_timing_program,
    resnet_timing_program,
)
from repro.apps.arbor import benchmark as arbor
from repro.apps.arbor.benchmark import arbor_timing_program
from repro.apps.icon.benchmark import icon_timing_program
from repro.apps.lattice import chroma
from repro.apps.lattice.chroma import chroma_timing_program
from repro.apps.lattice.dynqcd import dynqcd_timing_program
from repro.apps.md.amber import amber_timing_program
from repro.apps.md.gromacs import gromacs_timing_program
from repro.apps.nastja.benchmark import nastja_timing_program
from repro.apps.nekrs.benchmark import nekrs_timing_program
from repro.apps.parflow.benchmark import parflow_timing_program
from repro.apps.picongpu.benchmark import picongpu_timing_program
from repro.apps.qe.benchmark import qe_timing_program
from repro.apps.soma.benchmark import soma_timing_program
from repro.cluster import juwels_booster
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, LinkFault
from repro.synthetic.hpcg import hpcg_timing_program
from repro.synthetic.linktest import bisection_program
from repro.units import MIB
from repro.vmpi import Machine, Phantom, VmpiEngine, VmpiError
from repro.vmpi import engine as engine_module
from repro.vmpi import sweep as sweep_module
from repro.vmpi.decomposition import (
    CartGrid,
    halo_batch,
    halo_exchange,
    phantom_faces,
)
from tests.test_vmpi_differential import chrome_export_bytes
from tests.vmpi_reference import ReferenceEngine

ROOT = Path(__file__).resolve().parent.parent


def ranks(n):
    return Machine.on(juwels_booster(), n)


def degraded(machine):
    """``machine`` under a FaultPlan that degrades two link classes."""
    plan = FaultPlan(links=(LinkFault("inter_cell", 0.37),
                            LinkFault("intra_node", 0.81)))
    model = FaultInjector(plan).degradation()
    return replace(machine, network=machine.network.degraded(model))


#: ``id -> machine``: one rank, a periodic extent of 2 (and of 1) in
#: every 2D..4D grid, a node boundary, two cells, a heterogeneous MSA
#: job (two device kinds, module-crossing links) and degraded links
MACHINES = {
    "1rank": lambda: ranks(1),
    "2ranks": lambda: ranks(2),
    "1node": lambda: Machine.booster(1),
    "6ranks": lambda: ranks(6),
    "4nodes": lambda: Machine.booster(4),
    "msa": lambda: Machine.msa(cluster_nodes=1, booster_nodes=2),
    "degraded": lambda: degraded(Machine.booster(3)),
    "2cells": lambda: degraded(Machine.booster(50)),
}

#: ``id -> (program, args)``: every timing program that hoists its step
#: -- the job programs (``repro.vmpi.job``), whose step runs as columns,
#: and Amber's generator, which yields it as one batch per step
HOISTED = {
    "megatron": (megatron_timing_program, (3,)),
    "mmoclip": (mmoclip_timing_program, (3,)),
    "resnet": (resnet_timing_program, (3,)),
    "arbor": (arbor_timing_program, (1e6, 7, 3, 1.3)),
    "arbor-no-epoch": (arbor_timing_program, (1e6, 2, 5, 1.0)),
    "chroma": (chroma_timing_program, ((4, 4, 4, 4), 2, 2, 3)),
    "dynqcd": (dynqcd_timing_program, ((4, 4, 4, 4), 2, 3)),
    "gromacs": (gromacs_timing_program, (1_000_000, 3, 64)),
    "amber": (amber_timing_program, (1_000_000, 3)),
    "nastja": (nastja_timing_program, ((64, 64, 64), 3)),
    "nekrs": (nekrs_timing_program, (1e5, 2, 3, 2)),
    "parflow": (parflow_timing_program, ((64, 64, 32), 2, 2, 3)),
    "picongpu": (picongpu_timing_program, ((64, 64, 64), 3)),
    "soma": (soma_timing_program, (1000, 32, 16, 3)),
    "hpcg": (hpcg_timing_program, (16, 3)),
    "qe": (qe_timing_program, ((32, 32, 32), 64, 2)),
    "icon": (icon_timing_program, (1e6, 1e9, 3, 0.5)),
}

#: the big machine only for the programs whose structure depends on it
#: (Megatron: 12 pipeline stages, 4 data-parallel groups)
BIG = {"2cells": ("megatron", "chroma", "arbor")}
CASES = [(p, m) for p in HOISTED for m in MACHINES
         if p in BIG.get(m, HOISTED)]


def canon(spmd):
    return json.dumps(spmd.canonical(), sort_keys=True)


def key_order(spmd):
    """Insertion order of every rank's trace buckets: ``sum()`` over a
    bucket -- ``compute_seconds`` -- depends on it."""
    return [(list(t.compute), list(t.comm)) for t in spmd.traces]


def run_both(program, machine, args=()):
    """``(reference, production)`` results of one program."""
    return (ReferenceEngine(machine).run(program, args=args),
            VmpiEngine(machine).run(program, args=args))


def assert_identical(ref, spmd):
    assert ref.clocks == spmd.clocks
    assert canon(ref) == canon(spmd)
    assert key_order(ref) == key_order(spmd)


@pytest.fixture
def traffic(monkeypatch):
    """Counts column plans run and batches lowered by production
    engines."""
    seen = Counter()
    real_run = sweep_module.SweepPlan.run
    real_lower = engine_module._lowered

    def counting_run(self, clk, *args):
        seen["sweeps"] += 1
        seen["swept_ops"] += len(clk) * len(self.columns)
        return real_run(self, clk, *args)

    def counting_lower(r, ops):
        seen["lowered"] += 1
        return real_lower(r, ops)

    monkeypatch.setattr(sweep_module.SweepPlan, "run", counting_run)
    monkeypatch.setattr(engine_module, "_lowered", counting_lower)
    return seen


# -- (a) hoisted programs == the oracle ---------------------------------------

#: the generator: its batches run op by op, never as columns
LOWERED = {("amber", m) for m in MACHINES}


@pytest.mark.parametrize("prog,mach", CASES,
                         ids=[f"{p}@{m}" for p, m in CASES])
def test_hoisted_program_matches_the_reference(prog, mach, traffic):
    program, args = HOISTED[prog]
    ref, spmd = run_both(program, MACHINES[mach](), args)
    assert_identical(ref, spmd)
    total = sum(t.ops for t in spmd.traces)
    assert total > 0
    if (prog, mach) in LOWERED:
        assert traffic["lowered"] and not traffic["sweeps"]
    else:
        assert traffic["sweeps"] and not traffic["lowered"]
        # the columns carried the stepping loop: all but the prologue ops
        assert traffic["swept_ops"] >= total - 3 * spmd.nranks


# The stepping loops as they were written before hoisting, verbatim: a
# hoisted program must be the *same program*, op for op.

def megatron_unhoisted(comm, steps):
    tp = yield comm.split(comm.rank // TP_SIZE)           # node-local
    nodes = comm.size // TP_SIZE
    pp_stages = min(12, max(1, nodes))
    node_id = comm.rank // TP_SIZE
    pp = yield comm.split(node_id % max(1, nodes // pp_stages),
                          key=node_id)
    dp = yield comm.split((comm.rank % TP_SIZE) * pp_stages +
                          (node_id // max(1, nodes // pp_stages)) % pp_stages)
    flops_per_rank = 6.0 * GPT_PARAMS * TOKENS_PER_STEP / comm.size
    layers_per_stage = GPT_LAYERS / pp_stages
    micro_tokens = TOKENS_PER_STEP / max(1, dp.size) / 8.0  # 8 microbatches
    act_bytes = micro_tokens * GPT_HIDDEN * 2.0
    for _step in range(steps):
        yield comm.compute(flops=flops_per_rank / BF16_FACTOR,
                           bytes_moved=flops_per_rank / 300.0,
                           efficiency=GEMM_EFFICIENCY, label="gemm")
        for _micro in range(8):
            yield tp.allreduce(
                Phantom(4.0 * layers_per_stage * act_bytes / 8.0),
                label="tp-allreduce")
            if pp.size > 1:
                nxt = (pp.rank + 1) % pp.size
                prv = (pp.rank - 1) % pp.size
                yield pp.sendrecv(nxt, Phantom(act_bytes), prv, tag=7)
        yield dp.allreduce(
            Phantom(2.0 * GPT_PARAMS / (TP_SIZE * pp_stages)),
            label="dp-allreduce")
    return pp_stages


def chroma_unhoisted(comm, local_dims, trajectories, md_steps, cg_iters):
    cart = CartGrid.for_ranks(comm.size, 4, periodic=True)
    faces = phantom_faces(local_dims, itemsize=chroma.HALO_BYTES_PER_SITE)
    local_sites = float(np.prod(local_dims))
    dslash_count = 0
    for _traj in range(trajectories):
        for _md in range(md_steps):
            yield comm.compute(
                flops=chroma.FORCE_FLOPS_PER_SITE * local_sites,
                bytes_moved=600.0 * local_sites,
                efficiency=0.30, label="gauge-force")
            for _it in range(cg_iters):
                for _ in range(2):  # D then D^+
                    yield from halo_exchange(comm, cart, faces)
                    yield comm.compute(
                        flops=chroma.DSLASH_FLOPS_PER_SITE * local_sites,
                        bytes_moved=chroma.DSLASH_BYTES_PER_SITE * local_sites,
                        efficiency=0.35, label="dslash")
                yield comm.allreduce(Phantom(16.0), label="cg-reduce")
                yield comm.allreduce(Phantom(16.0), label="cg-reduce")
                dslash_count += 2
        yield comm.allreduce(Phantom(8.0), label="metropolis")
    return dslash_count


def arbor_unhoisted(comm, cells_total, steps, exchange_every, pressure):
    cells_local = cells_total / comm.size
    comps = cells_local * arbor.COMPARTMENTS_PER_CELL
    epoch = 0
    for step in range(steps):
        for share, label in ((arbor.CHANNEL_SHARE, "channels"),
                             (arbor.CABLE_SHARE, "cable"),
                             (arbor.OTHER_SHARE, "other")):
            yield comm.compute(
                flops=share * arbor.FLOPS_PER_COMP_STEP * comps,
                bytes_moved=share * arbor.BYTES_PER_COMPARTMENT * comps *
                0.3 * pressure,
                efficiency=0.60, label=label)
        if (step + 1) % exchange_every == 0:
            yield comm.allgather(Phantom(64.0 * cells_local * 0.01),
                                 label="spike-exchange")
            epoch += 1
    return epoch


def bisection_per_op(comm, message_bytes, rounds):
    """LinkTest's ``bisection_program`` as it was before its bounce loop
    became one batch (and then a job program)."""
    half = comm.size // 2
    if comm.rank >= 2 * half:
        yield comm.barrier(label="start")
        yield comm.barrier(label="stop")
        return 0.0
    partner = comm.rank + half if comm.rank < half else comm.rank - half
    yield comm.barrier(label="start")
    for _ in range(rounds):
        yield comm.sendrecv(partner, Phantom(message_bytes), partner, tag=9)
    yield comm.barrier(label="stop")
    return rounds * message_bytes


UNHOISTED = {"megatron": megatron_unhoisted, "chroma": chroma_unhoisted,
             "arbor": arbor_unhoisted, "arbor-no-epoch": arbor_unhoisted}
UNHOISTED_CASES = [(p, m) for p, m in CASES if p in UNHOISTED]


@pytest.mark.parametrize("prog,mach", UNHOISTED_CASES,
                         ids=[f"{p}@{m}" for p, m in UNHOISTED_CASES])
def test_hoisted_program_is_the_unhoisted_program(prog, mach, tmp_path):
    program, args = HOISTED[prog]
    machine = MACHINES[mach]()
    swept = VmpiEngine(machine).run(program, args=args)
    for engine in (VmpiEngine, ReferenceEngine):
        loop = engine(machine).run(UNHOISTED[prog], args=args)
        assert_identical(loop, swept)
    assert chrome_export_bytes(tmp_path, "loop", loop) == \
        chrome_export_bytes(tmp_path, "swept", swept)


#: even rank counts run as columns; odd ones (a spectator rank has no
#: bounce) rank by rank; the MSA job pairs cluster ranks with booster ranks
BISECTION_MACHINES = {
    "2ranks": lambda: ranks(2), "3ranks": lambda: ranks(3),
    "4ranks": lambda: ranks(4), "5ranks": lambda: ranks(5),
    "8ranks": lambda: ranks(8),
    "msa": lambda: Machine.msa(cluster_nodes=1, booster_nodes=1),
}


@pytest.mark.parametrize("message_bytes", [4096.0, 16 * MIB],
                         ids=["eager", "rendezvous"])
@pytest.mark.parametrize("mach", BISECTION_MACHINES)
def test_batched_bisection_is_the_per_op_loop(mach, message_bytes, traffic):
    machine = BISECTION_MACHINES[mach]()
    args = (message_bytes, 4)
    odd = machine.nranks % 2
    batched = VmpiEngine(machine).run(bisection_program, args=args)
    if odd:
        # the job's one value; the loop's spectator rank returned 0.0
        assert batched.values[-1] == 4 * message_bytes
        batched.values[-1] = 0.0
    for engine, program in ((ReferenceEngine, bisection_per_op),
                            (ReferenceEngine, bisection_program),
                            (VmpiEngine, bisection_per_op)):
        got = engine(machine).run(program, args=args)
        if odd and program is bisection_program:
            got.values[-1] = 0.0
        assert_identical(got, batched)
    if odd:
        assert traffic["lowered"] and not traffic["sweeps"]
    else:   # start barrier, four bounces, stop barrier
        assert traffic["sweeps"] == 6 and not traffic["lowered"]


# -- (b) batches: a rank program's batch runs op by op ---------------------------

def skewed(comm):
    """Per-rank compute, so no two clocks are equal."""
    return comm.compute(flops=(comm.rank + 1) * 1e9, efficiency=0.5,
                        label="skew")


def prog_unequal_lengths(comm):
    head = (skewed(comm),) * (1 + comm.rank % 2)
    for _ in range(3):
        got = yield head + (comm.allreduce(Phantom(8.0)),)
    return len(got)


def prog_heterogeneous_column(comm):
    a, b = skewed(comm), comm.allreduce(Phantom(64.0))
    for _ in range(3):
        got = yield (a, b) if comm.rank % 2 else (b, a)
    return [None if g is None else g.nbytes for g in got]


def prog_heterogeneous_labels(comm):
    step = (skewed(comm),
            comm.barrier(label="even" if comm.rank % 2 == 0 else "odd"),
            comm.compute(flops=1e9, label=f"kernel{comm.rank % 3}"))
    for _ in range(3):
        yield step
    return None


def prog_real_payload_collective(comm):
    total = np.zeros(3)
    for step in range(3):
        got = yield (skewed(comm),
                     comm.allreduce(np.full(3, float(comm.rank + step))))
        total = total + got[1]
    return total


def prog_split_in_batch(comm):
    got = yield (skewed(comm), comm.split(comm.rank % 2), comm.barrier())
    sub = got[1]
    out = yield (sub.allreduce(Phantom(8.0 * (comm.rank + 1))), skewed(comm))
    return (sub.size, out[0].nbytes)


def prog_nonblocking_in_batch(comm):
    peer = comm.rank ^ 1
    sreq, rreq, _ = yield (comm.isend(peer, Phantom(3e6)), comm.irecv(peer),
                           skewed(comm))
    got = yield (comm.wait(sreq), comm.wait(rreq), comm.barrier())
    return got[1].nbytes


def prog_half_never_batch(comm):
    ops = (skewed(comm), comm.allreduce(Phantom(128.0), label="dot"),
           comm.barrier())
    for _ in range(3):
        if comm.rank % 2:
            yield ops
        else:
            for op in ops:
                yield op
    return None


def prog_rank_returns_early(comm):
    if comm.rank == 0:
        return "gone"
    sub_step = (skewed(comm),
                comm.exchange((((comm.rank % (comm.size - 1)) + 1,
                                Phantom(256.0)),),
                              (((comm.rank - 2) % (comm.size - 1)) + 1,)))
    for _ in range(3):
        got = yield sub_step
    return got[1][0].nbytes


def prog_eager_send_ahead_of_sendrecv(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    # an eager send already queued on the ring channel: FIFO matching
    # pairs *it* with the neighbour's Sendrecv, not the column's own send
    yield comm.isend(right, ("early", comm.rank), tag=7)
    got = yield (skewed(comm), comm.sendrecv(right, Phantom(256.0), left,
                                             tag=7))
    late = yield comm.recv(left, tag=7)
    return (got[1], late.nbytes)


def prog_mutated_results(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    step = (comm.allgather(Phantom(8.0)),
            comm.exchange(((right, Phantom(64.0)),), (left,)),
            comm.gather(Phantom(8.0), root=1),
            skewed(comm))
    seen = []
    for _ in range(3):
        row = yield step
        seen.append([None if x is None else len(x) for x in row])
        # scribble on the lists this rank alone holds (the allgather's
        # is shared by all receivers of the round) and on the row itself:
        # neither may reach the next round
        for x in row[1:3]:
            if x is not None:
                x.append("scribble")
        row.clear()
    return seen


def prog_round_counters_out_of_step(comm):
    # ranks 0 and 1 have used one more round of tag 100 than the rest:
    # their next exchange can only match each other's, never the ring's
    peer = comm.rank ^ 1
    if comm.rank < 2:
        yield comm.exchange(((peer, Phantom(8.0)),), (peer,), tag=100)
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    yield (skewed(comm),
           comm.exchange(((right, Phantom(8.0)),), (left,), tag=100))


LOWERING = [
    ("unequal_lengths", prog_unequal_lengths, 4),
    ("heterogeneous_column", prog_heterogeneous_column, 4),
    ("heterogeneous_labels", prog_heterogeneous_labels, 6),
    ("real_payload_collective", prog_real_payload_collective, 4),
    ("split_in_batch", prog_split_in_batch, 6),
    ("nonblocking_in_batch", prog_nonblocking_in_batch, 4),
    ("half_never_batch", prog_half_never_batch, 5),
    ("rank_returns_early", prog_rank_returns_early, 5),
    ("eager_send_ahead_of_sendrecv", prog_eager_send_ahead_of_sendrecv, 4),
    ("mutated_results", prog_mutated_results, 4),
]


@pytest.mark.parametrize("name,program,nranks", LOWERING,
                         ids=[c[0] for c in LOWERING])
def test_lowered_batches_match_the_reference(name, program, nranks, traffic):
    ref, spmd = run_both(program, ranks(nranks))
    assert_identical(ref, spmd)
    assert traffic["lowered"] and not traffic["sweeps"]


def prog_collective_mismatch(comm):
    yield (skewed(comm),
           comm.barrier() if comm.rank else comm.allreduce(Phantom(8.0)))


def prog_deadlock(comm):
    yield (skewed(comm), comm.recv((comm.rank + 1) % comm.size))


def prog_unmatched_sendrecv(comm):
    # everyone sends to rank 0 and receives from its left: no matching
    yield (comm.sendrecv(0, Phantom(8.0), (comm.rank - 1) % comm.size),)


def prog_not_a_member(comm):
    sub = yield comm.split(comm.rank % 2)
    other = yield comm.sendrecv(comm.rank ^ 1, sub.comm_id, comm.rank ^ 1)
    yield (comm.barrier(),
           type(sub)(other, sub.rank, sub.members).barrier())


def prog_non_op(comm):
    yield (skewed(comm), "not an op")


def prog_empty_then_nested(comm):
    assert (yield ()) == []
    yield ((),)


FAILURES = [
    ("collective_mismatch", prog_collective_mismatch, 3),
    ("deadlock", prog_deadlock, 3),
    ("unmatched_sendrecv", prog_unmatched_sendrecv, 4),
    ("round_counters_out_of_step", prog_round_counters_out_of_step, 4),
    ("not_a_member", prog_not_a_member, 4),
    ("non_op", prog_non_op, 2),
    ("empty_then_nested", prog_empty_then_nested, 2),
]


@pytest.mark.parametrize("name,program,nranks", FAILURES,
                         ids=[c[0] for c in FAILURES])
def test_failures_inside_a_batch_read_like_the_reference(name, program,
                                                         nranks):
    errors = []
    for engine in (ReferenceEngine, VmpiEngine):
        with pytest.raises(VmpiError) as err:
            engine(ranks(nranks)).run(program)
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1]


def test_an_unreducible_payload_fails_like_the_reference():
    """Planning previews the round; what it trips over is not reported
    from there but by the per-rank path, as the same raw exception."""
    def prog(comm):
        yield (skewed(comm), comm.allreduce(None))

    errors = []
    for engine in (ReferenceEngine, VmpiEngine):
        with pytest.raises(TypeError) as err:
            engine(ranks(3)).run(prog)
        errors.append(str(err.value))
    assert errors[0] == errors[1]


# -- (d) count guards: what columns are for ----------------------------------------

def test_chroma_plans_each_distinct_column_once(monkeypatch, traffic):
    planned = []
    builds = []
    real_column = sweep_module._plan_column
    real_build = engine_module.build_plan

    def counting_column(eng, ops, slots):
        planned.append(type(ops[0]).__name__)
        return real_column(eng, ops, slots)

    def counting_build(members, *args):
        builds.append(len(members))
        return real_build(members, *args)

    monkeypatch.setattr(sweep_module, "_plan_column", counting_column)
    monkeypatch.setattr(engine_module, "build_plan", counting_build)
    trajectories, md_steps, cg_iters = 3, 2, 4
    spmd = VmpiEngine(Machine.booster(16)).run(
        chroma_timing_program,
        args=((4, 4, 4, 4), trajectories, md_steps, cg_iters))
    assert spmd.values == [trajectories * md_steps * cg_iters * 2] * 64
    # a trajectory is md_steps * (1 + 6 * cg_iters) + 1 ops long and has
    # five distinct columns; one exchange plan for the one (comm, tag)
    assert sorted(planned) == ["Collective", "Collective", "Compute",
                               "Compute", "Exchange"]
    assert builds == [64]
    assert traffic["sweeps"] == trajectories and not traffic["lowered"]
    assert spmd.traces[0].ops == trajectories * (md_steps * 25 + 1)


def count_linktest() -> dict:
    """Rank steps, ``Request``s and rank-ops of LinkTest on the whole
    modelled Booster; run in a fresh interpreter by
    :func:`test_linktest_at_full_scale_is_one_sweep`."""
    from repro.synthetic.linktest import (
        MESSAGE_BYTES,
        ROUNDS,
        LinktestBenchmark,
    )

    counts = Counter()

    class CountedRequest(engine_module.Request):
        def __init__(self, *args, **kw):
            counts["requests"] += 1
            super().__init__(*args, **kw)

    real_step = VmpiEngine._step_rank

    def counting_step(self, r):
        counts["rank_steps"] += 1
        return real_step(self, r)

    engine_module.Request = CountedRequest
    VmpiEngine._step_rank = counting_step
    bench = LinktestBenchmark()
    spmd = bench.run_program(bench.machine(936), bisection_program,
                             args=(MESSAGE_BYTES, ROUNDS))
    counts["ranks"] = spmd.nranks
    counts["rank_ops"] = sum(t.ops for t in spmd.traces)
    return counts


def test_linktest_at_full_scale_is_one_sweep():
    code = ("import json\n"
            "from tests.test_vmpi_sweep import count_linktest\n"
            "print(json.dumps(count_linktest()))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    # 3 744 ranks, 1 872 pairs: barrier, four bounces, barrier -- as
    # columns for the whole job: no rank step and not a single Request
    assert counts == {"ranks": 3744, "rank_ops": 6 * 3744}


def test_halo_batch_is_the_no_neighbours_rule():
    """A rank without neighbours posts no exchange at all -- in a batch
    exactly as through ``halo_exchange`` -- so op counts cannot move."""
    def prog(comm, hoisted):
        cart = CartGrid.for_ranks(comm.size, 3, periodic=False)
        faces = phantom_faces((8, 8, 8), itemsize=8)
        if hoisted:
            halo, keys = halo_batch(comm, cart, faces)
            got = yield halo + (comm.barrier(),)
            return len(halo), len(keys), len(got)
        got = yield from halo_exchange(comm, cart, faces)
        yield comm.barrier()
        return len(got)

    alone = VmpiEngine(ranks(1)).run(prog, args=(True,))
    assert alone.values == [(0, 0, 1)] and alone.traces[0].ops == 1
    assert VmpiEngine(ranks(1)).run(prog, args=(False,)).traces[0].ops == 1
    pair = VmpiEngine(ranks(2)).run(prog, args=(True,))
    assert pair.values == [(1, 1, 2)] * 2 and pair.traces[0].ops == 2
    assert VmpiEngine(ranks(2)).run(prog, args=(False,)).traces[0].ops == 2
