"""Regenerate Figure 3: weak-scaling efficiency of the five
High-Scaling benchmarks, including the JUQCS computation/communication
split with its two characteristic drops."""

import time

import pytest
from conftest import once, write_bench_record

from repro.analysis import figure3
from repro.core import load_suite

#: paper-range sweep, trimmed at the top for wall-clock sanity
NODES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


@pytest.fixture(scope="module")
def fig3(suite):
    return figure3(suite, nodes=NODES)


def test_fig3_regenerate(benchmark, suite):
    data = once(benchmark, figure3, suite, (1, 2, 8, 32, 128, 256))
    print("\n" + data.render())
    assert len(data.curves) == 5


def test_fig3_arbor_and_picongpu_near_ideal(fig3):
    """The paper's best weak scalers stay near 1.0 across the sweep."""
    for name in ("Arbor", "PIConGPU"):
        for nodes, eff in fig3.curves[name].efficiency():
            assert eff > 0.9, (name, nodes, eff)


def test_fig3_chroma_and_nekrs_intermediate(fig3):
    for name in ("Chroma-QCD", "nekRS"):
        effs = dict(fig3.curves[name].efficiency())
        assert effs[512] > 0.6, name
        assert effs[512] <= 1.02, name


def test_fig3_juqcs_drop_at_two_nodes(fig3):
    """First drop: intra-node NVLink -> inter-node InfiniBand."""
    comm = dict(fig3.juqcs_comm)
    assert comm[2] < 0.5 * comm[1]


def test_fig3_juqcs_drop_in_large_scale_regime(fig3):
    """Second drop: the large-scale (>= 256 nodes) congestion regime."""
    comm = dict(fig3.juqcs_comm)
    assert comm[256] < 0.75 * comm[64]


def test_fig3_juqcs_compute_scales_perfectly(fig3):
    """The computation line stays flat -- the deviation is all network,
    exactly the paper's point."""
    comp = dict(fig3.juqcs_compute)
    for nodes, eff in comp.items():
        assert eff == pytest.approx(1.0, abs=0.05), nodes


def test_fig3_juqcs_plateau_between_drops(fig3):
    """Between 2 and 32 nodes the communication efficiency is flat."""
    comm = dict(fig3.juqcs_comm)
    assert comm[32] == pytest.approx(comm[2], rel=0.15)


def test_fig3_perf_record():
    """Regenerate a reduced Fig.-3 sweep on a fresh suite and emit its
    wall clock as the BENCH_fig3.json perf record."""
    nodes_smoke = (1, 2, 8, 32)
    ranks_per_node = 4  # JUWELS Booster: 4 GPUs = 4 ranks per node
    fresh = load_suite()  # fresh suite: nothing cached by other benches
    t0 = time.perf_counter()
    figure3(fresh, nodes=nodes_smoke)
    wall = time.perf_counter() - t0
    write_bench_record("fig3", {
        "benchmark": "bench_fig3_highscaling_weak",
        "shape": {"nodes": list(nodes_smoke)},
        "max_ranks": max(nodes_smoke) * ranks_per_node,
        "records": [{"wall_seconds": round(wall, 4)}],
    })
