"""Regenerate Figure 2: strong scaling of all Base applications.

Every Base app runs at ~0.5/0.75/1/1.5/2 x its reference node count on
the simulated JUWELS Booster; the reference execution is pinned at
(1, 1).  The assertions encode the paper's *shape*: curves decrease
with nodes (except Amber, which by design does not scale past one
node), and Arbor's published anchor points reproduce within 10 %.
"""

import pytest
from conftest import once

from repro.analysis import figure2


@pytest.fixture(scope="module")
def fig2(suite):
    return figure2(suite)


def test_fig2_regenerate(benchmark, suite):
    data = once(benchmark, figure2, suite)
    print("\n" + data.render())
    assert len(data.curves) == 16


def test_fig2_reference_points_at_unity(fig2):
    for name, curve in fig2.curves.items():
        rel = dict(curve.relative())
        assert rel[1.0] == pytest.approx(1.0), name


def test_fig2_scalable_apps_decrease(fig2):
    flat_by_design = {"Amber"}  # single-node code (Sec. IV)
    for name, curve in fig2.curves.items():
        if name in flat_by_design:
            continue
        pts = sorted(curve.points, key=lambda p: p.nodes)
        assert pts[-1].runtime < pts[0].runtime, name


def test_fig2_amber_flat(fig2):
    pts = sorted(fig2.curves["Amber"].points, key=lambda p: p.nodes)
    assert pts[-1].runtime >= pts[0].runtime * 0.95


def test_fig2_arbor_matches_paper(fig2):
    """The one curve the paper annotates numerically."""
    by_nodes = {p.nodes: p.runtime for p in fig2.curves["Arbor"].points}
    for nodes, expected in ((4, 663.0), (8, 498.0), (12, 332.0),
                            (16, 250.0)):
        assert by_nodes[nodes] == pytest.approx(expected, rel=0.10)


def test_fig2_speedup_sublinear(fig2):
    """No app may scale superlinearly to 2x nodes (sanity of the
    model), excluding memory-clamped reference anomalies."""
    for name, curve in fig2.curves.items():
        pts = sorted(curve.points, key=lambda p: p.nodes)
        ref = curve.reference
        top = pts[-1]
        if top.nodes > ref.nodes:
            speedup = ref.runtime / top.runtime
            assert speedup <= top.nodes / ref.nodes * 1.05, name
