"""LinkTest: bisection bandwidth of the interconnect.

Sec. IV-B: the suite uses "LinkTest's bisection test ... a number of
test processes (one per high-speed network adapter) is separated to two
equal halves of the system, and messages are bounced between partnering
processes in parallel (bidirectional mode).  To achieve optimal
bandwidth, the message size is set to 16 MiB.  An assessment is made
mainly based on the minimum bisection bandwidth."
"""

from __future__ import annotations

import numpy as np

from ..core.benchmark import BenchmarkResult
from ..core.fom import FigureOfMerit, FomKind
from ..core.variants import MemoryVariant
from ..units import GIB, MIB, register_dims
from ..vmpi import Phantom
from ..vmpi.machine import Machine
from .base import SyntheticBenchmark

MESSAGE_BYTES = 16 * MIB
ROUNDS = 4

#: dimension annotations consumed by ``repro.check``'s UNIT3xx rules;
#: with these the analyzer proves the whole bandwidth extraction chain
#: (volume / elapsed, the bisection cap, per-pair split) is B/s
DIMS = register_dims(__name__, {
    "bisection_program.message_bytes": "B",
    "bisection_program.rounds": "1",
    "result.aggregate_bandwidth": "B/s",
    "result.per_pair_bandwidth": "B/s",
    "result.uncapped_bandwidth": "B/s",
    "result.analytic_bisection": "B/s",
})


def bisection_program(world, message_bytes: float, rounds: int):
    """Pair rank i of the lower half with rank i of the upper half and
    bounce bidirectional messages (a job program, :mod:`repro.vmpi.job`;
    returns the bytes each pair sent one way, for bandwidth extraction).

    At an odd rank count the rank out has ``None`` in the bounce column
    but posts both barriers (barriers match by position on the
    communicator), so such a job runs rank by rank.
    """
    half = world.size // 2
    payload = Phantom(message_bytes)
    bounce = tuple(world.sendrecv(partner, payload, partner, tag=9)
                   for partner in (*range(half, 2 * half), *range(half))) \
        + (None,) * (world.size % 2)
    return ((world.barrier(label="start"),), (bounce,), rounds,
            (world.barrier(label="stop"),)), rounds * message_bytes


class LinktestBenchmark(SyntheticBenchmark):
    """Runnable LinkTest benchmark."""

    NAME = "LinkTest"
    fom = FigureOfMerit(name="minimum bisection bandwidth",
                        kind=FomKind.BANDWIDTH, work=float(GIB),
                        unit="B/s")

    def _execute(self, nodes: int, *, variant: MemoryVariant | None,
                 scale: float, real: bool) -> BenchmarkResult:
        if nodes < 2:
            raise ValueError("bisection needs at least 2 nodes")
        machine = self.machine(nodes)
        spmd = self.run_program(machine, bisection_program,
                                args=(MESSAGE_BYTES, ROUNDS))
        # each pair moved ROUNDS bidirectional messages; the bounce loop
        # dominates the elapsed time
        elapsed = spmd.elapsed
        pairs = machine.nranks // 2
        volume = 2.0 * pairs * ROUNDS * MESSAGE_BYTES  # bidirectional
        raw = volume / elapsed
        analytic = machine.network.topology.bisection_bandwidth(nodes)
        # The per-stream cost model prices each pair independently; with
        # every stream crossing the same cut, the aggregate cannot exceed
        # the topology's bisection capacity -- apply the cap explicitly
        # (this is exactly the quantity LinkTest is designed to expose).
        aggregate = min(raw, analytic)
        per_pair = aggregate / pairs
        return self.result(
            nodes, spmd, fom_seconds=self.fom.time_metric(aggregate),
            verified=None if not real else per_pair > 0,
            verification=f"min bisection bandwidth {aggregate:.3g} B/s "
                         f"({pairs} pairs)" if real else "",
            aggregate_bandwidth=aggregate, per_pair_bandwidth=per_pair,
            uncapped_bandwidth=raw, analytic_bisection=analytic)
