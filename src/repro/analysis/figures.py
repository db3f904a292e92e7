"""Reproduction of the paper's Figures 2 and 3.

Figure 2: relative runtimes of all Base applications on the reference
system -- each app pinned at (1, 1) on its reference node count, with
strong-scaled points at roughly 0.5/0.75/1.5/2x.  Figure 3: weak-
scaling efficiency of the five High-Scaling benchmarks over a wide node
range, with JUQCS split into computation and communication lines.

No plotting dependencies are available offline, so figures render as
aligned data tables plus an ASCII scatter -- the *series* are the
reproduction artefact; EXPERIMENTS.md records the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.scaling import StrongScalingResult, WeakScalingResult
from ..core.suite import JupiterBenchmarkSuite
from ..core.variants import MemoryVariant
from ..telemetry.spans import current_tracer

#: Base apps plotted in Fig. 2 (name, power-of-two constraint)
FIG2_APPS: tuple[tuple[str, bool], ...] = (
    ("Amber", False),
    ("Arbor", False),
    ("Chroma-QCD", True),
    ("GROMACS", False),
    ("ICON", False),
    ("JUQCS", True),
    ("nekRS", False),
    ("ParFlow", False),
    ("PIConGPU", False),
    ("Quantum Espresso", False),
    ("SOMA", False),
    ("MMoCLIP", False),
    ("Megatron-LM", False),
    ("ResNet", False),
    ("DynQCD", True),
    ("NAStJA", False),
)

#: High-Scaling apps of Fig. 3 with their sweep variants
FIG3_APPS: tuple[tuple[str, MemoryVariant], ...] = (
    ("Arbor", MemoryVariant.LARGE),
    ("Chroma-QCD", MemoryVariant.SMALL),
    ("JUQCS", MemoryVariant.SMALL),
    ("nekRS", MemoryVariant.SMALL),
    ("PIConGPU", MemoryVariant.SMALL),
)

#: ``figure3``'s library sweep, the one the claims table measures;
#: ``jubench fig3`` has its own default, 8..936 nodes (``cli.py``)
FIG3_NODES: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


@dataclass
class Fig2Data:
    """All Base strong-scaling curves."""

    curves: dict[str, StrongScalingResult] = field(default_factory=dict)

    def render(self) -> str:
        lines = ["Fig. 2 -- Base applications, strong scaling "
                 "(relative nodes vs relative runtime)", ""]
        header = f"{'benchmark':<18} {'ref nodes':>9} {'ref time':>10}  " \
                 "relative points (x_nodes, y_runtime)"
        lines.append(header)
        lines.append("-" * len(header))
        for name, curve in self.curves.items():
            rel = "  ".join(f"({x:.2f}, {y:.2f})"
                            for x, y in curve.relative())
            if curve.failed:
                rel += "  failed: " + \
                    ", ".join(str(n) for n in curve.failed)
            lines.append(f"{name:<18} {curve.reference.nodes:>9} "
                         f"{curve.reference.runtime:>9.1f}s  {rel}")
        return "\n".join(lines)


@dataclass
class Fig3Data:
    """High-Scaling weak-scaling efficiencies, plus the JUQCS split."""

    curves: dict[str, WeakScalingResult] = field(default_factory=dict)
    juqcs_compute: list[tuple[int, float]] = field(default_factory=list)
    juqcs_comm: list[tuple[int, float]] = field(default_factory=list)

    def render(self) -> str:
        lines = ["Fig. 3 -- High-Scaling weak-scaling efficiency", ""]
        all_nodes = sorted({n for c in self.curves.values()
                            for n, _ in c.efficiency()})
        header = f"{'benchmark':<14}" + "".join(f"{n:>8}" for n in all_nodes)
        lines.append(header)
        lines.append("-" * len(header))
        for name, curve in self.curves.items():
            eff = dict(curve.efficiency())
            row = f"{name:<14}" + "".join(
                f"{eff.get(n, float('nan')):>8.3f}" if n in eff else
                f"{'-':>8}" for n in all_nodes)
            lines.append(row)
        if self.juqcs_comm:
            comp = dict(self.juqcs_compute)
            comm = dict(self.juqcs_comm)
            lines.append(f"{'JUQCS (comp.)':<14}" + "".join(
                f"{comp.get(n, float('nan')):>8.3f}" if n in comp else
                f"{'-':>8}" for n in all_nodes))
            lines.append(f"{'JUQCS (comm.)':<14}" + "".join(
                f"{comm.get(n, float('nan')):>8.3f}" if n in comm else
                f"{'-':>8}" for n in all_nodes))
        return "\n".join(lines)


def figure2(suite: JupiterBenchmarkSuite,
            apps: tuple[tuple[str, bool], ...] = FIG2_APPS) -> Fig2Data:
    """Run the Fig. 2 strong-scaling study for the given Base apps."""
    data = Fig2Data()
    with current_tracer().span("figure2", kind="driver", apps=len(apps)):
        for name, pow2 in apps:
            data.curves[name] = suite.strong_scaling_study(
                name, power_of_two=pow2)
    return data


def figure3(suite: JupiterBenchmarkSuite,
            nodes: tuple[int, ...] = FIG3_NODES,
            apps: tuple[tuple[str, MemoryVariant], ...] = FIG3_APPS
            ) -> Fig3Data:
    """Run the Fig. 3 weak-scaling study for the High-Scaling apps.

    For JUQCS the computation and communication times are additionally
    split out (relative to the smallest job), reproducing the two-line
    presentation of the paper.
    """
    data = Fig3Data()
    tracer = current_tracer()
    with tracer.span("figure3", kind="driver", apps=len(apps)):
        for name, variant in apps:
            data.curves[name] = suite.weak_scaling_study(name, nodes,
                                                         variant=variant)
        # JUQCS split: efficiency of each component separately
        juqcs = suite.get("JUQCS")
        base_comp = base_comm = None
        for n in sorted(nodes):
            with tracer.span(f"point:JUQCS-split@{n}", kind="point",
                             study="juqcs-split", benchmark="JUQCS",
                             nodes=n):
                res = juqcs.run(n, variant=MemoryVariant.SMALL)
            comp = res.details["compute_seconds"]
            comm = res.details["comm_seconds"]
            if base_comp is None:
                base_comp, base_comm = comp, max(comm, 1e-12)
            data.juqcs_compute.append((res.nodes, base_comp / comp))
            data.juqcs_comm.append((res.nodes, base_comm / max(comm, 1e-12)))
    return data
