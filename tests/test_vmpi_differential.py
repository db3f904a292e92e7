"""Differential equivalence of the vmpi engine and its reference oracle.

The engine's heap, caches and round plans exist purely for speed; its
contract is *byte identity* with the reference step scheduler
(:mod:`tests.vmpi_reference`): same return values, same final clocks
(float for float), same per-rank traces, same Chrome trace exports.
This suite runs a corpus of programs -- covering every op family the
engine supports -- under both and compares the canonical serializations
byte for byte (``json.dumps`` equality, no tolerances).
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import juwels_booster
from repro.vmpi import (
    CollectiveMismatchError,
    DeadlockError,
    EventHeap,
    Machine,
    Phantom,
    RankFailedError,
    VmpiEngine,
    VmpiError,
    run_spmd,
)
from repro.vmpi.decomposition import (
    CartGrid,
    halo_exchange,
    halo_exchange_op,
    phantom_faces,
)
from tests.vmpi_reference import ReferenceEngine, run_reference

SRC = Path(__file__).resolve().parent.parent / "src"

#: production first, oracle second; the ids are the two schedulers' names
ENGINES = pytest.mark.parametrize(
    "engine", [VmpiEngine, ReferenceEngine], ids=["event", "step"])


def machine(nranks, **kw):
    return Machine.on(juwels_booster(), nranks, **kw)


# -- the program corpus ------------------------------------------------------
# Each entry: (name, program, nranks, args).  Programs are plain SPMD
# generators; anything deterministic is fair game.

def prog_p2p_chain(comm):
    if comm.rank == 0:
        yield comm.send(1, np.arange(5.0))
        return None
    got = yield comm.recv(comm.rank - 1)
    if comm.rank < comm.size - 1:
        yield comm.send(comm.rank + 1, got * 2.0)
    return float(np.sum(got))


def prog_tags_and_fifo(comm):
    if comm.rank == 0:
        yield comm.send(1, 111)
        yield comm.send(1, 222)
        yield comm.send(1, "low", tag=1)
        yield comm.send(1, "high", tag=2)
        return None
    a = yield comm.recv(0)
    b = yield comm.recv(0)
    high = yield comm.recv(0, tag=2)
    low = yield comm.recv(0, tag=1)
    return (a, b, low, high)


def prog_overlap(comm):
    peer = comm.rank ^ 1
    sreq = yield comm.isend(peer, Phantom(100e6))
    rreq = yield comm.irecv(peer)
    yield comm.compute(flops=1e12, efficiency=1.0)
    yield comm.waitall([sreq, rreq])
    return None


def prog_eager_vs_rendezvous(comm):
    # one message under the eager limit, one over it
    peer = comm.rank ^ 1
    if comm.rank % 2 == 0:
        yield comm.send(peer, Phantom(1024.0))
        yield comm.send(peer, Phantom(10e6))
        return None
    small = yield comm.recv(peer)
    big = yield comm.recv(peer)
    return (small.nbytes, big.nbytes)


def prog_sendrecv_ring(comm):
    token = float(comm.rank)
    for _ in range(3):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        token = yield comm.sendrecv(right, token + 1.0, left)
    return token


def prog_collectives(comm):
    total = yield comm.allreduce(np.full(3, float(comm.rank + 1)))
    top = yield comm.allreduce(comm.rank, op="max")
    data = np.arange(4.0) if comm.rank == 2 else None
    bc = yield comm.bcast(data, root=2)
    ag = yield comm.allgather(comm.rank * 2)
    gathered = yield comm.gather(comm.rank ** 2, root=0)
    items = [x + 1 for x in gathered] if comm.rank == 0 else None
    sc = yield comm.scatter(items, root=0)
    yield comm.barrier()
    return (float(total.sum()), top, float(bc.sum()), ag, sc)


def prog_alltoall_tuple(comm):
    outgoing = tuple(comm.rank * 10 + j for j in range(comm.size))
    return (yield comm.alltoall(outgoing))


def prog_alltoall_uniform_phantom(comm):
    got = yield comm.alltoall(Phantom(4096.0), label="transpose")
    return [p.nbytes for p in got]


def prog_split_subcomms(comm):
    sub = yield comm.split(comm.rank % 2)
    total = yield sub.allreduce(comm.rank)
    yield sub.barrier()
    return (sub.size, total)


def prog_halo_2d(comm):
    cart = CartGrid.for_ranks(comm.size, 2, periodic=True)
    faces = phantom_faces((32, 32), itemsize=8)
    for _ in range(3):
        yield comm.compute(flops=1e9, efficiency=0.5, label="stencil")
        got = yield from halo_exchange(comm, cart, faces)
    return sorted((k, v.nbytes) for k, v in got.items())


def prog_halo_doubled_edges(comm):
    # periodic dims of extent 2: both directions hit the same neighbour,
    # the hardest pairing case for round-based matching
    cart = CartGrid.for_ranks(comm.size, 2, periodic=True)
    faces = {(0, -1): ("a", comm.rank), (0, +1): ("b", comm.rank),
             (1, -1): ("c", comm.rank), (1, +1): ("d", comm.rank)}
    got = yield from halo_exchange(comm, cart, faces)
    return sorted(got.items())


def prog_hoisted_batch(comm):
    cart = CartGrid.for_ranks(comm.size, 2, periodic=True)
    faces = phantom_faces((16, 16), itemsize=8)
    halo, _keys = halo_exchange_op(comm, cart, faces)
    step = (comm.compute(flops=2e9, efficiency=0.4, label="dyn"),
            comm.compute(flops=1e9, efficiency=0.4, label="phys"),
            halo)
    for _ in range(4):
        yield step
    return None


def prog_exchange_subset(comm):
    # only the even ranks exchange (pairwise); odd ranks just compute --
    # exercises the engine's quiescence flush for unfillable rounds
    if comm.rank % 2 == 0:
        peer = (comm.rank + 2) % comm.size
        src = (comm.rank - 2) % comm.size
        got = yield comm.exchange(((peer, comm.rank),), (src,))
        return got
    yield comm.compute(flops=1e9, efficiency=1.0)
    return None


def prog_mixed_waitall(comm):
    reqs = []
    for peer in range(comm.size):
        if peer != comm.rank:
            reqs.append((yield comm.isend(peer, Phantom(2e6))))
    for peer in range(comm.size):
        if peer != comm.rank:
            reqs.append((yield comm.irecv(peer)))
    yield comm.compute(flops=5e10, efficiency=1.0)
    yield comm.waitall(reqs)
    yield comm.allreduce(Phantom(1e5))
    return None


def prog_elapse_and_labels(comm):
    yield comm.elapse(0.25, label="io")
    yield comm.compute(flops=1e11, efficiency=0.8, label="kernel")
    yield comm.barrier(label="sync")
    return None


CORPUS = [
    ("p2p_chain", prog_p2p_chain, 4),
    ("tags_and_fifo", prog_tags_and_fifo, 2),
    ("overlap", prog_overlap, 4),
    ("eager_vs_rendezvous", prog_eager_vs_rendezvous, 4),
    ("sendrecv_ring", prog_sendrecv_ring, 5),
    ("collectives", prog_collectives, 4),
    ("alltoall_tuple", prog_alltoall_tuple, 3),
    ("alltoall_uniform_phantom", prog_alltoall_uniform_phantom, 4),
    ("split_subcomms", prog_split_subcomms, 6),
    ("halo_2d", prog_halo_2d, 8),
    ("halo_doubled_edges", prog_halo_doubled_edges, 4),
    ("hoisted_batch", prog_hoisted_batch, 8),
    ("exchange_subset", prog_exchange_subset, 6),
    ("mixed_waitall", prog_mixed_waitall, 4),
    ("elapse_and_labels", prog_elapse_and_labels, 3),
]


def run_both(program, nranks, args=()):
    """``(reference, production)`` results of one program."""
    m = machine(nranks)
    return (run_reference(program, machine=m, args=args),
            run_spmd(program, machine=m, args=args))


def chrome_export_bytes(tmp_path, tag, spmd):
    """Chrome trace bytes of one run's vmpi counters."""
    from repro.telemetry import ManualClock, Tracer, emit_vmpi, \
        write_chrome_trace

    tracer = Tracer(clock=ManualClock(start=0.0, tick=0.5))
    with tracer.span("differential", kind="test"):
        emit_vmpi(tracer, "differential", 1, spmd)
    path = tmp_path / f"{tag}.json"
    write_chrome_trace(path, tracer)
    return path.read_bytes()


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("name,program,nranks",
                             CORPUS, ids=[c[0] for c in CORPUS])
    def test_byte_identical_results(self, name, program, nranks):
        step, event = run_both(program, nranks)
        # exact float equality on the raw clocks, then the full
        # canonical serialization byte for byte
        assert step.clocks == event.clocks
        a = json.dumps(step.canonical(), sort_keys=True)
        b = json.dumps(event.canonical(), sort_keys=True)
        assert a == b, f"{name}: canonical results diverge"

    @pytest.mark.parametrize("name,program,nranks",
                             CORPUS, ids=[c[0] for c in CORPUS])
    def test_byte_identical_traces(self, name, program, nranks):
        step, event = run_both(program, nranks)
        for r, (ts, te) in enumerate(zip(step.traces, event.traces)):
            assert dict(ts.compute) == dict(te.compute), f"rank {r}"
            assert dict(ts.comm) == dict(te.comm), f"rank {r}"
            assert ts.bytes_sent == te.bytes_sent, f"rank {r}"
            assert ts.ops == te.ops, f"rank {r}"

    def test_byte_identical_chrome_export(self, tmp_path):
        step, event = run_both(prog_halo_2d, 8)
        assert chrome_export_bytes(tmp_path, "step", step) == \
            chrome_export_bytes(tmp_path, "event", event)

    def test_repeated_event_runs_identical(self):
        """The engine is deterministic against itself (cached plans and
        cost tables produce the same floats every run)."""
        m = machine(8)
        r1 = run_spmd(prog_hoisted_batch, machine=m)
        r2 = run_spmd(prog_hoisted_batch, machine=m)
        assert r1.clocks == r2.clocks
        assert json.dumps(r1.canonical(), sort_keys=True) == \
            json.dumps(r2.canonical(), sort_keys=True)


class TestModeSelection:
    """There is nothing to select: no constructor argument, environment
    variable or CLI flag picks an engine core any more."""

    def test_invalid_mode_rejected(self):
        def prog(comm):
            yield comm.barrier()

        with pytest.raises(TypeError):
            VmpiEngine(machine(2), mode="turbo")
        with pytest.raises(TypeError):
            run_spmd(prog, machine=machine(2), mode="step")

    def test_default_mode_is_event(self, monkeypatch):
        """The one engine is the discrete-event core, whatever the
        environment says."""
        monkeypatch.setenv("REPRO_VMPI_MODE", "step")
        engine = VmpiEngine(machine(2))
        assert type(engine) is VmpiEngine
        assert isinstance(engine._heap, EventHeap)

    def test_direct_subclass_construction(self):
        """No factory dispatch: a subclass constructs as itself."""
        assert "__new__" not in vars(VmpiEngine)
        assert type(ReferenceEngine(machine(2))) is ReferenceEngine

    def test_cli_flag_is_gone(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as err:
            main(["fig2", "--vmpi-mode", "step"])
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_selection_knobs_occur_nowhere_in_src(self):
        for path in sorted(SRC.rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            assert "REPRO_VMPI_MODE" not in text, path
            assert "vmpi-mode" not in text, path

    def test_production_never_imports_the_reference(self):
        code = ("import sys\n"
                "from repro.cli import main\n"
                "assert main(['fig2', '--apps', 'Arbor']) == 0\n"
                "assert not [m for m in sys.modules if 'vmpi_reference' in m]\n")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            cwd=SRC.parent, env={"PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stderr


class TestErrorPathsBothModes:
    """Failure modes must be equivalent too: same exception type, and
    diagnostics naming each blocked rank's pending operation."""

    @staticmethod
    def run(engine, prog, nranks):
        return engine(machine(nranks)).run(prog)

    @ENGINES
    def test_deadlock_reports_pending_ops(self, engine):
        def prog(comm):
            yield comm.recv((comm.rank + 1) % comm.size)

        with pytest.raises(DeadlockError) as err:
            self.run(engine, prog, 2)
        msg = str(err.value)
        assert "rank 0" in msg and "rank 1" in msg
        assert "recv from rank" in msg

    @ENGINES
    def test_deadlock_reports_blocked_exchange(self, engine):
        def prog(comm):
            if comm.rank == 0:
                yield comm.exchange(((1, "x"),), (1,))
            # rank 1 exits without posting -- the recv can never match

        with pytest.raises(DeadlockError) as err:
            self.run(engine, prog, 2)
        assert "exchange" in str(err.value)

    @ENGINES
    def test_deadlock_reports_partial_collective(self, engine):
        def prog(comm):
            if comm.rank == 0:
                yield comm.barrier()
            # ranks 1..n never arrive

        with pytest.raises(DeadlockError) as err:
            self.run(engine, prog, 3)
        assert "collective 'barrier'" in str(err.value)
        assert "1/3 ranks arrived" in str(err.value)

    @ENGINES
    def test_full_collective_mismatch(self, engine):
        def prog(comm):
            if comm.rank == 0:
                yield comm.barrier()
            else:
                yield comm.allreduce(1)

        with pytest.raises(CollectiveMismatchError) as err:
            self.run(engine, prog, 2)
        assert "'barrier'" in str(err.value)
        assert "'allreduce'" in str(err.value)

    @ENGINES
    def test_partial_collective_mismatch(self, engine):
        """Half the comm posts barrier, half allreduce, one rank never
        arrives: reported as the collective bug it is, not a deadlock."""

        def prog(comm):
            if comm.rank == 0:
                yield comm.barrier()
            elif comm.rank == 1:
                yield comm.allreduce(1)
            # rank 2 exits immediately, so the collective never fills

        with pytest.raises(CollectiveMismatchError) as err:
            self.run(engine, prog, 3)
        assert "partial post" in str(err.value)

    @ENGINES
    def test_rank_failure_mid_collective(self, engine):
        def prog(comm):
            yield comm.barrier()
            if comm.rank == 1:
                raise ValueError("bad physics")
            yield comm.allreduce(1)  # others block here forever

        with pytest.raises(RankFailedError) as err:
            self.run(engine, prog, 3)
        assert err.value.rank == 1
        assert isinstance(err.value.original, ValueError)
        assert "bad physics" in str(err.value)

    @ENGINES
    def test_nested_batch_rejected(self, engine):
        def prog(comm):
            yield (comm.barrier(), (comm.barrier(),))

        with pytest.raises(VmpiError):
            self.run(engine, prog, 2)

    @ENGINES
    def test_wrong_size_alltoall_rejected(self, engine):
        def prog(comm):
            yield comm.alltoall(tuple(range(comm.size + 1)))

        with pytest.raises(VmpiError):
            self.run(engine, prog, 3)
