"""The paper's claims as one table.

Each :class:`Claim` row holds an id, the paper's sentence or number
with its section, the expression that measures it through the same
functions the CLI prints (``repro.analysis.figure2``/``figure3``, the
Table I/II records behind ``render_table1``/``render_table2``, the
TCO and High-Scaling code of ``repro.core``), a tolerance and a status:

``exact``
    metadata or a closed-form law the code reproduces exactly;
``reproduced``
    a number or shape the paper prints, measured on the simulated
    JUWELS Booster;
``calibrated``
    holds because a model constant was fitted to it, so it guards the
    calibration rather than predicting anything;
``model``
    a property of the reproduction's own design (an ablation or a
    sanity bound) that the paper does not print.

``tests/test_claims.py`` evaluates every row in tier 1, and
``python tests/regen_goldens.py claims`` renders the rows into the
marked blocks of EXPERIMENTS.md, which a tier-1 test compares byte for
byte, so the document cannot drift from the code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Callable

from repro.analysis import (
    JuqcsNetworkModel,
    figure2,
    figure3,
    table1_records,
    table2_records,
)
from repro.apps.juqcs import (
    BASE_QUBITS,
    EXA_QUBITS,
    HS_QUBITS,
    state_vector_bytes,
)
from repro.cluster import topology as topo
from repro.cluster.hardware import (
    DeviceSpec,
    jupiter_booster_model,
    juwels_booster,
)
from repro.cluster.network import NetworkModel
from repro.core import (
    CHECKLIST,
    SCALE_UP,
    Category,
    HighScalingCase,
    HighScalingCommitment,
    MemoryVariant,
    ProcurementEvaluation,
    SystemProposal,
    VariantSizing,
    WorkloadMix,
    creation_pipeline,
    get_info,
    load_suite,
    prep_partition_nodes,
)
from repro.synthetic import IorBenchmark, LinktestBenchmark, OsuBenchmark
from repro.units import GIGA, MIB, TIB

EXPERIMENTS = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


# -- tolerances ---------------------------------------------------------------

@dataclass(frozen=True)
class Tolerance:
    """How close a measurement must come: ``text`` is what the document
    and a failure print, ``holds`` the test itself."""

    text: str
    holds: Callable[[Any], bool]


def _num(value: float) -> str:
    return f"{value:g}"


def near(value: float, *, rel: float = 0.0,
         abs_tol: float = 0.0) -> Tolerance:
    """``|got - value| <= max(rel * |value|, abs_tol)`` (pytest.approx's
    rule, without its default tolerance)."""
    text = (f"within {_num(rel * 100)} % of {_num(value)}" if rel
            else f"{_num(value)} ± {_num(abs_tol)}")
    return Tolerance(text, lambda got: abs(got - value)
                     <= max(rel * abs(value), abs_tol))


def above(bound: float) -> Tolerance:
    return Tolerance(f"> {_num(bound)}", lambda got: got > bound)


def at_least(bound: float) -> Tolerance:
    return Tolerance(f"≥ {_num(bound)}", lambda got: got >= bound)


def below(bound: float) -> Tolerance:
    return Tolerance(f"< {_num(bound)}", lambda got: got < bound)


def at_most(bound: float) -> Tolerance:
    return Tolerance(f"≤ {_num(bound)}", lambda got: got <= bound)


def between(low: float, high: float) -> Tolerance:
    """``low < got <= high``."""
    return Tolerance(f"in ({_num(low)}, {_num(high)}]",
                     lambda got: low < got <= high)


def equals(value: Any) -> Tolerance:
    return Tolerance(f"= {show(value)}", lambda got: got == value)


def show(value: Any) -> str:
    """A measured or expected value as the table prints it."""
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, (tuple, list)):
        return ", ".join(show(v) for v in value)
    return str(value)


# -- the shared artefacts -----------------------------------------------------

class Artefacts:
    """Everything the rows measure, each computed once, on first use."""

    @cached_property
    def suite(self):
        return load_suite()

    @cached_property
    def fig2(self):
        return figure2(self.suite)

    @cached_property
    def fig3(self):
        """The Fig. 3 sweep at ``figure3``'s default nodes, 1 to 512."""
        return figure3(self.suite)

    def fig2_runtime(self, name: str, nodes: int) -> float:
        return {p.nodes: p.runtime
                for p in self.fig2.curves[name].points}[nodes]

    def fig3_efficiency(self, name: str) -> dict[int, float]:
        return dict(self.fig3.curves[name].efficiency())

    @cached_property
    def table1(self) -> list[dict]:
        return [rec.params for rec in table1_records()]

    @cached_property
    def table2(self) -> dict[str, dict]:
        return {rec.params["benchmark"].rstrip("*"): rec.params
                for rec in table2_records()}

    @cached_property
    def pipeline(self):
        """The Fig. 1 creation pipeline over an allocation mix with one
        niche domain (``Exotic``, 0.5 %)."""
        allocations = {
            "Climate": 22.0, "QCD": 18.0, "MD": 16.0, "Neuroscience": 9.0,
            "CFD": 8.0, "Materials Science": 8.0, "AI": 7.0, "Plasma": 5.0,
            "Earth Systems": 4.0, "Biology": 2.0, "Exotic": 0.5}
        candidates = {
            "ICON": "Climate", "Chroma-QCD": "QCD", "DynQCD": "QCD",
            "GROMACS": "MD", "Amber": "MD", "Arbor": "Neuroscience",
            "nekRS": "CFD", "Quantum Espresso": "Materials Science",
            "Megatron-LM": "AI", "MMoCLIP": "AI", "PIConGPU": "Plasma",
            "ParFlow": "Earth Systems", "NAStJA": "Biology",
            "HypeCode2000": "Exotic"}
        return creation_pipeline(allocations, candidates)

    @cached_property
    def procurement(self):
        """``(evaluation, references)`` over a four-benchmark mix with
        JUQCS as its High-Scaling case."""

        mix = (WorkloadMix().add("GROMACS", 3.0).add("Arbor", 2.0)
               .add("JUQCS", 1.0).add("nekRS", 2.0))
        refs = {e.benchmark: self.suite.reference_run(e.benchmark)
                for e in mix.entries}
        case = HighScalingCase(
            "JUQCS", variants=(MemoryVariant.SMALL, MemoryVariant.LARGE),
            power_of_two=True)
        hs_ref = self.suite.run("JUQCS", case.prep_nodes(),
                                variant=MemoryVariant.LARGE).fom_seconds
        return ProcurementEvaluation(
            mix=mix, references=refs, highscaling_cases={"JUQCS": case},
            highscaling_references={"JUQCS": hs_ref}), refs

    def proposal(self, name: str, speedup: float, hs_speedup: float | None,
                 eur_per_kwh: float | None = None):
        """One candidate: every reference beaten ``speedup``-fold on
        half its nodes, plus a JUQCS High-Scaling commitment
        ``hs_speedup``-fold (none when ``None``)."""
        evaluation, refs = self.procurement
        prop = SystemProposal(name=name, system=jupiter_booster_model(),
                              capex_eur=250e6)
        if eur_per_kwh is not None:
            prop.eur_per_kwh = eur_per_kwh
        for bench, ref in refs.items():
            prop.commit(bench, nodes=max(1, ref.nodes // 2),
                        time_metric=ref.time_metric / speedup)
        hs = {} if hs_speedup is None else {"JUQCS": HighScalingCommitment(
            "JUQCS", MemoryVariant.LARGE,
            evaluation.hs_references["JUQCS"] / hs_speedup)}
        return prop, hs

    @cached_property
    def ranking(self):
        evaluation, _ = self.procurement
        return evaluation.select([self.proposal("evolution", 2.0, 2.0),
                                  self.proposal("bold", 3.2, 3.0)])

    def vfm(self, eur_per_kwh: float) -> float:
        """Value for money of a 2x proposal at this energy price."""
        evaluation, _ = self.procurement
        return evaluation.score(*self.proposal(
            "p", 2.0, 1.0, eur_per_kwh)).value_for_money

    @cached_property
    def ior(self):
        """IOR easy and hard at 128 nodes (model) and at 4 (functional)."""
        return {(variant, real): IorBenchmark(variant).run(
                    nodes=4 if real else 128, real=real)
                for variant in ("easy", "hard") for real in (False, True)}

    @cached_property
    def linktest(self) -> dict[int, float]:
        """Minimum bisection bandwidth by job size."""
        return {n: LinktestBenchmark().run(nodes=n)
                .details["aggregate_bandwidth"] for n in (48, 96, 384)}

    @cached_property
    def osu(self) -> list[tuple[int, float]]:
        """The inter-node OSU sweep: (message size, one-way time)."""
        return OsuBenchmark().sweep(True)

    def run(self, name: str, nodes: int, variant: str | None = None):
        return self.suite.run(name, nodes, variant=variant and
                              MemoryVariant(variant))

    def comm_share(self, name: str, nodes: int, variant: str) -> float:
        details = self.run(name, nodes, variant).details
        return details["comm_seconds"] / (details["comm_seconds"] +
                                          details["compute_seconds"])

    def gate_time(self, nodes: int, topology: str = "DragonflyPlus",
                  **system) -> float:
        """A JUQCS-style 256 MiB exchange with the partner half the job
        away, on a Booster with this topology and ``system`` fields
        replaced."""
        spec = replace(juwels_booster(), **system)
        net = NetworkModel(system=spec,
                           topology=getattr(topo, topology)(spec))
        return net.p2p_time(0, nodes // 2, 256 * MIB, job_nodes=nodes)


# -- measurements too long for a lambda ----------------------------------------

def _fig2_worst_unity(art: Artefacts) -> float:
    return max(abs(dict(c.relative())[1.0] - 1.0)
               for c in art.fig2.curves.values())


def _fig2_worst_decrease(art: Artefacts) -> float:
    """Largest top/bottom runtime ratio over the apps that scale."""
    worst = 0.0
    for name, curve in art.fig2.curves.items():
        if name != "Amber":     # single-node code (Sec. IV)
            pts = sorted(curve.points, key=lambda p: p.nodes)
            worst = max(worst, pts[-1].runtime / pts[0].runtime)
    return worst


def _fig2_amber(art: Artefacts) -> float:
    pts = sorted(art.fig2.curves["Amber"].points, key=lambda p: p.nodes)
    return pts[-1].runtime / pts[0].runtime


def _fig2_worst_speedup(art: Artefacts) -> float:
    """Largest speedup at the top point over the ideal one."""
    worst = 0.0
    for curve in art.fig2.curves.values():
        top = max(curve.points, key=lambda p: p.nodes)
        ref = curve.reference
        if top.nodes > ref.nodes:
            worst = max(worst, ref.runtime / top.runtime /
                        (top.nodes / ref.nodes))
    return worst


def _base_apps(art: Artefacts) -> int:
    return sum(Category.BASE in get_info(name).categories
               for name in art.fig2.curves)


def _juqcs_comm(art: Artefacts, nodes: int, over: int) -> float:
    comm = dict(art.fig3.juqcs_comm)
    return comm[nodes] / comm[over]


def _juqcs_half_memory(art: Artefacts) -> float:
    """Wire bytes of a 2-node run over gates x half the state vector."""
    res = art.run("JUQCS", 2)
    sent = sum(t.bytes_sent for t in res.spmd.traces)
    return sent / (res.details["gates"] *
                   state_vector_bytes(res.details["qubits"]) / 2)


def _variant_choice(art: Artefacts) -> tuple:
    sizing = VariantSizing()
    return tuple(sizing.best_variant(DeviceSpec(
        name=f"gpu-{gb}", peak_flops=1e15, mem_capacity=gb * GIGA,
        mem_bandwidth=3e12)).value for gb in (24, 32, 48, 96))


def _juqcs_qubit_tables(art: Artefacts) -> tuple:
    s, l_ = MemoryVariant.SMALL, MemoryVariant.LARGE
    return (BASE_QUBITS, HS_QUBITS[s], HS_QUBITS[l_], EXA_QUBITS[s],
            EXA_QUBITS[l_])


def _violation(art: Artefacts) -> tuple:
    evaluation, _ = art.procurement
    prop, _ = art.proposal("cheater", 50.0, None)
    score = evaluation.score(prop, {})      # no High-Scaling commitment
    return score.valid, score.value_for_money


def _ior(art: Artefacts, variant: str, key: str, real: bool = False):
    return art.ior[variant, real].details[key]


def _osu_bandwidth(art: Artefacts) -> float:
    size, seconds = art.osu[-1]
    return size / seconds / 1e9


# -- the table -----------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    """One checkable statement of the paper (or of the reproduction's
    own design, status ``model``)."""

    id: str
    block: str          # the EXPERIMENTS.md block the row renders into
    section: str        # where the paper says it
    paper: str          # what the paper says
    measure: Callable[[Artefacts], Any]
    tolerance: Tolerance
    status: str

    def failure(self, art: Artefacts) -> str | None:
        """``None`` when the row holds, else one line naming the claim
        id, the paper's value, the measured value and the tolerance."""
        got = self.measure(art)
        if self.tolerance.holds(got):
            return None
        return (f"claim {self.id} ({self.section}) fails: paper "
                f"{self.paper!r}; measured {show(got)}; tolerance "
                f"{self.tolerance.text}")


def _rows() -> list[Claim]:
    c = Claim
    return [
        # -- Table I ----------------------------------------------------------
        c("table1.rows", "table1", "Table I",
          "23 benchmarks: 16 applications and 7 synthetics",
          lambda a: len(a.table1), equals(23), "exact"),
        c("table1.dwarfs", "table1", "Table I",
          "every benchmark carries at least one dwarf mark",
          lambda a: sum(not any(v == "x" or (k == "other" and v)
                                for k, v in rec.items())
                        for rec in a.table1),
          equals(0), "exact"),
        # -- Table II ---------------------------------------------------------
        *(c(f"table2.{key}", "table2", "Table II", f"{name}: {cell}",
            lambda a, name=name, column=column: a.table2[name][column],
            equals(cell), "exact")
          for key, name, column, cell in (
              ("arbor_hs", "Arbor", "highscale", "642^{T,S,M,L}"),
              ("chroma_hs", "Chroma-QCD", "highscale", "512^{S,M,L}"),
              ("juqcs_hs", "JUQCS", "highscale", "512^{S,L}"),
              ("picongpu_hs", "PIConGPU", "highscale", "640^{S,M,L}"),
              ("gromacs_nodes", "GROMACS", "base_nodes", "3/128"),
              ("icon_nodes", "ICON", "base_nodes", "120/300"))),
        c("table2.nastja_cpu", "table2", "Table II",
          "NAStJA runs on the CPU module (target C)",
          lambda a: "C" in a.table2["NAStJA"]["targets"], equals(True),
          "exact"),
        # -- Figure 1 ---------------------------------------------------------
        c("fig1.checklist", "fig1", "Fig. 1",
          "the preparation checklist has 11 points",
          lambda a: len(CHECKLIST), equals(11), "exact"),
        c("fig1.selected", "fig1", "Fig. 1",
          "applications are selected by allocation share: ICON (22 %) "
          "is packaged",
          lambda a: "ICON" in a.pipeline.packaged, equals(True),
          "reproduced"),
        c("fig1.niche_dropped", "fig1", "Fig. 1",
          "a niche domain (0.5 % of allocations) is not selected",
          lambda a: "HypeCode2000" in a.pipeline.packaged, equals(False),
          "reproduced"),
        c("fig1.optimisation_rounds", "fig1", "Fig. 1",
          "preparation loops back through optimisation",
          lambda a: a.pipeline.optimisation_rounds, equals(2), "model"),
        c("fig1.workload_shares", "fig1", "Fig. 1",
          "the workload analysis is a distribution over domains",
          lambda a: abs(sum(a.pipeline.workload_analysis.values()) - 1.0),
          below(1e-12), "model"),
        # -- Figure 2 ---------------------------------------------------------
        c("fig2.apps", "fig2", "Fig. 2",
          "all 16 Base applications are plotted",
          lambda a: len(a.fig2.curves), equals(16), "exact"),
        c("fig2.base_category", "fig2", "Table II, Fig. 2",
          "every plotted application is in the Base category",
          _base_apps, equals(16), "exact"),
        c("fig2.reference_foms", "fig2", "§II-C, Fig. 2",
          "every reference execution yields a time metric (FOM > 0 s)",
          lambda a: min(c_.reference.runtime
                        for c_ in a.fig2.curves.values()),
          above(0.0), "reproduced"),
        c("fig2.reference_unity", "fig2", "Fig. 2",
          "each curve passes through its reference execution at (1, 1); "
          "measured: largest distance of y from 1 at x = 1",
          _fig2_worst_unity, at_most(1e-6), "exact"),
        c("fig2.decreasing", "fig2", "Fig. 2",
          "every application but Amber gets faster with more nodes; "
          "measured: worst runtime ratio, largest over smallest job",
          _fig2_worst_decrease, below(1.0), "reproduced"),
        c("fig2.amber_flat", "fig2", "§IV, Fig. 2",
          "Amber is a single-node code and does not scale beyond one "
          "node; measured: runtime ratio, largest over smallest job",
          _fig2_amber, at_least(0.95), "reproduced"),
        c("fig2.sublinear", "fig2", "Fig. 2",
          "no application scales superlinearly to 2x nodes; measured: "
          "worst speedup over ideal at the top point",
          _fig2_worst_speedup, at_most(1.05), "model"),
        *(c(f"fig2.arbor_{nodes}", "fig2", "Fig. 2",
            f"Arbor: {seconds:g} s on {nodes} nodes{note}",
            lambda a, nodes=nodes: a.fig2_runtime("Arbor", nodes),
            near(seconds, rel=0.10), "reproduced")
          for nodes, seconds, note in (
              (4, 663.0, " (memory-clamped)"), (8, 498.0, " (reference)"),
              (12, 332.0, ""), (16, 250.0, ""))),
        c("fig2.arbor_clamped", "fig2", "§IV-A2a, Fig. 2",
          "Arbor's L workload does not fit 4 nodes",
          lambda a: a.run("Arbor", 4).details["workload_clamped"],
          equals(True), "reproduced"),
        c("fig2.arbor_below_line", "fig2", "§IV-A2a, Fig. 2",
          "so its 4-node point sits below the perfect-scaling line; "
          "measured: runtime at 4 over 8 nodes",
          lambda a: a.fig2_runtime("Arbor", 4) / a.fig2_runtime("Arbor", 8),
          below(2.0), "reproduced"),
        # -- Figure 3 ---------------------------------------------------------
        c("fig3.apps", "fig3", "Fig. 3",
          "five High-Scaling benchmarks are swept",
          lambda a: len(a.fig3.curves), equals(5), "exact"),
        *(c(f"fig3.{key}_efficient", "fig3", "Fig. 3",
            f"{name} {text}; measured: lowest efficiency",
            lambda a, name=name: min(a.fig3_efficiency(name).values()),
            above(0.9), "reproduced")
          for key, name, text in (
              ("arbor", "Arbor", "scales up to the full Booster, using "
                                 "resources efficiently"),
              ("picongpu", "PIConGPU", "shear flow imposes no significant "
                                       "load imbalance"))),
        *(c(f"fig3.{key}_512", "fig3", "Fig. 3",
            f"{name} lands between the near-ideal codes and JUQCS; "
            "measured: efficiency at 512 nodes",
            lambda a, name=name: a.fig3_efficiency(name)[512],
            between(0.6, 1.02), "reproduced")
          for key, name in (("chroma", "Chroma-QCD"), ("nekrs", "nekRS"))),
        c("fig3.juqcs_drop_ib", "fig3", "§IV-A2c, Fig. 3",
          "JUQCS drops from intra-node to inter-node GPU communication "
          "(1 to 2 nodes); measured: comm. efficiency, 2 over 1 node",
          lambda a: _juqcs_comm(a, 2, 1), below(0.5), "reproduced"),
        c("fig3.juqcs_drop_large_scale", "fig3", "§IV-A2c, Fig. 3",
          "and drops again entering the large-scale regime at 256 nodes; "
          "measured: comm. efficiency, 256 over 64 nodes",
          lambda a: _juqcs_comm(a, 256, 64), below(0.75), "reproduced"),
        c("fig3.juqcs_plateau", "fig3", "§IV-A2c, Fig. 3",
          "between the drops the communication efficiency is flat; "
          "measured: comm. efficiency, 32 over 2 nodes",
          lambda a: _juqcs_comm(a, 32, 2), near(1.0, rel=0.15),
          "reproduced"),
        c("fig3.juqcs_compute_flat", "fig3", "§IV-A2c, Fig. 3",
          "the computation line scales perfectly; measured: largest "
          "distance of the efficiency from 1",
          lambda a: max(abs(e - 1.0) for _, e in a.fig3.juqcs_compute),
          at_most(0.05), "reproduced"),
        # -- Sec. II and IV text ----------------------------------------------
        c("partition.prep_nodes", "text", "§II-C",
          "the 50 PFLOP/s(th) preparation partition is about 640 nodes",
          lambda a: prep_partition_nodes(), near(640, abs_tol=40),
          "reproduced"),
        c("partition.power_of_two", "text", "§II-C",
          "512 nodes for codes that need a power of two",
          lambda a: prep_partition_nodes(power_of_two=True), equals(512),
          "exact"),
        c("partition.scale_up", "text", "§II-C",
          "results extrapolate 20x to the 1 EFLOP/s(th) partition",
          lambda a: SCALE_UP, near(20.0, rel=1e-6), "exact"),
        c("tco.ranking", "text", "§II-B",
          "value for money ranks a faster proposal first",
          lambda a: tuple(s.proposal for s in a.ranking),
          equals(("bold", "evolution")), "reproduced"),
        c("tco.valid", "text", "§II-B",
          "proposals that commit every benchmark are valid",
          lambda a: all(s.valid for s in a.ranking), equals(True),
          "reproduced"),
        c("tco.rule_violation", "text", "§II-C",
          "a proposal without its High-Scaling commitment is "
          "disqualified; measured: (valid, value for money)",
          _violation, equals((False, 0.0)), "reproduced"),
        c("tco.energy_price", "text", "§II-B",
          "the TCO includes energy, so a cheaper kWh buys more value; "
          "measured: value for money at 0.05 over 0.45 EUR/kWh",
          lambda a: a.vfm(0.05) / a.vfm(0.45), above(1.0), "reproduced"),
        c("juqcs.memory_law", "text", "§IV-A2c",
          "n qubits need 2^n x 16 B: 36 -> 1 TiB, 41 -> 32 TiB, "
          "42 -> 64 TiB, 45 -> 0.5 PiB; measured: TiB",
          lambda a: tuple(state_vector_bytes(n) / TIB
                          for n in (36, 41, 42, 45)),
          equals((1.0, 32.0, 64.0, 512.0)), "exact"),
        c("juqcs.qubits", "text", "§IV-A2c, Table II",
          "Base 36 qubits; High-Scaling S/L 41/42; exascale S/L 45/46",
          _juqcs_qubit_tables, equals((36, 41, 42, 45, 46)), "exact"),
        c("juqcs.regimes", "text", "§IV-A2c",
          "the network model's regimes at 1, 16, 128 and 512 nodes",
          lambda a: tuple(JuqcsNetworkModel().regime(ranks)
                          for ranks in (4, 64, 512, 2048)),
          equals(("intra-node", "intra-cell", "inter-cell", "large-scale")),
          "reproduced"),
        c("juqcs.half_memory", "text", "§IV-A2c",
          "a non-local gate moves half of all memory (2^n/2 amplitudes); "
          "measured: wire bytes over gates x half the state",
          _juqcs_half_memory, near(1.0, rel=0.01), "reproduced"),
        c("juqcs.msa", "text", "§IV-A2c, Table II",
          "JUQCS runs across Cluster and Booster modules (MSA)",
          lambda a: a.suite.get("JUQCS").run_msa(2, 2).verified,
          equals(True), "reproduced"),
        c("arbor.channels", "text", "§IV-A2a",
          "52 % of the time in ion channels",
          lambda a: a.run("Arbor", 8).details["channel_share"],
          near(0.52, abs_tol=0.02), "calibrated"),
        c("arbor.cable", "text", "§IV-A2a",
          "33 % in the cable equation",
          lambda a: a.run("Arbor", 8).details["cable_share"],
          near(0.33, abs_tol=0.02), "calibrated"),
        c("arbor.comm_hidden", "text", "§IV-A2a",
          "communication is hidden completely; measured: comm. over "
          "compute time at 16 nodes",
          lambda a: (lambda d: d["comm_seconds"] / d["compute_seconds"])(
              a.run("Arbor", 16).details),
          below(0.05), "reproduced"),
        c("ior.transfer_size", "text", "§IV-B",
          "IOR easy writes 16 MiB transfers; measured: MiB",
          lambda a: _ior(a, "easy", "transfer_size") / MIB,
          equals(16), "exact"),
        c("ior.easy_vs_hard", "text", "§IV-B",
          "easy (file per process) outruns hard (4 KiB, shared file); "
          "measured: write bandwidth ratio at 128 nodes",
          lambda a: _ior(a, "easy", "write_bandwidth") /
          _ior(a, "hard", "write_bandwidth"), above(3.0), "reproduced"),
        c("ior.read_vs_write", "text", "§IV-B",
          "IOR easy reads at least as fast as it writes; measured: ratio",
          lambda a: _ior(a, "easy", "read_bandwidth") /
          _ior(a, "easy", "write_bandwidth"), at_least(1.0), "model"),
        c("ior.functional", "text", "§IV-B",
          "both variants verify in a functional run on 4 nodes",
          lambda a: (a.ior["easy", True].verified,
                     a.ior["hard", True].verified),
          equals((True, True)), "reproduced"),
        c("ior.easy_locks", "text", "§IV-B",
          "file per process takes no shared-file locks",
          lambda a: _ior(a, "easy", "lock_conflicts", real=True),
          equals(0), "reproduced"),
        c("ior.hard_locks", "text", "§IV-B",
          "the shared file contends for locks",
          lambda a: _ior(a, "hard", "lock_conflicts", real=True),
          above(0), "reproduced"),
        c("linktest.grows", "text", "§IV-B",
          "the bisection bandwidth grows with the job; measured: "
          "96 over 48 nodes",
          lambda a: a.linktest[96] / a.linktest[48], above(1.0),
          "reproduced"),
        c("linktest.taper", "text", "§IV-B",
          "the DragonFly+ taper shows beyond one cell; measured: "
          "per-node bandwidth at 384 over 48 nodes",
          lambda a: (a.linktest[384] / 192) / (a.linktest[48] / 24),
          below(1.0), "reproduced"),
        c("osu.latency", "text", "§IV-B",
          "HDR200 small-message latency; measured: seconds",
          lambda a: a.osu[0][1], near(5e-6, rel=0.2), "calibrated"),
        c("osu.bandwidth", "text", "§IV-B",
          "large messages reach the bandwidth regime; measured: GB/s",
          _osu_bandwidth, above(10.0), "reproduced"),
        # -- ablations (design choices of Sec. V-B) ---------------------------
        c("variants.juqcs_qubits", "ablation", "§II-C",
          "doubling the memory adds one qubit; measured: L - S qubits "
          "at 8 nodes",
          lambda a: a.run("JUQCS", 8, "L").details["qubits"] -
          a.run("JUQCS", 8, "S").details["qubits"], equals(1), "exact"),
        c("variants.juqcs_fom", "ablation", "§II-C",
          "and twice the data takes longer; measured: FOM L over S",
          lambda a: a.run("JUQCS", 8, "L").fom_seconds /
          a.run("JUQCS", 8, "S").fom_seconds, above(1.5), "model"),
        c("variants.nekrs_elements", "ablation", "§II-C",
          "nekRS S < M < L elements at 128 nodes",
          lambda a: tuple(int(a.run("nekRS", 128, v).details["elements"])
                          for v in "SML"),
          Tolerance("increasing", lambda e: e[0] < e[1] < e[2]), "exact"),
        c("variants.selection", "ablation", "§II-C",
          "a proposal runs the largest variant its accelerator fits; "
          "measured: at 24, 32, 48 and 96 GB",
          _variant_choice, equals(("S", "M", "L", "L")), "exact"),
        c("variants.comm_share", "ablation", "§V-B",
          "smaller variants are artificially limited compute profiles; "
          "measured: Chroma comm. share at 16 nodes, S over L",
          lambda a: a.comm_share("Chroma-QCD", 16, "S") /
          a.comm_share("Chroma-QCD", 16, "L"), above(1.0), "model"),
        c("topology.intra_cell", "ablation", "Fig. 3",
          "inside a cell DragonFly+ equals a fat tree; measured: "
          "exchange time ratio at 2 nodes",
          lambda a: a.gate_time(2) / a.gate_time(2, "FatTree"),
          near(1.0, rel=1e-6), "model"),
        c("topology.taper", "ablation", "Fig. 3",
          "across cells DragonFly+ pays the taper; measured: ratio at "
          "128 nodes",
          lambda a: a.gate_time(128) / a.gate_time(128, "FatTree"),
          above(1.2), "model"),
        c("topology.congestion", "ablation", "Fig. 3",
          "and the large-scale congestion regime on top; measured: "
          "ratio at 512 nodes",
          lambda a: a.gate_time(512) / a.gate_time(512, "FatTree"),
          above(2.0), "model"),
        c("topology.fat_tree_flat", "ablation", "Fig. 3",
          "a fat tree is flat at any scale; measured: 512 over 32 nodes",
          lambda a: a.gate_time(512, "FatTree") / a.gate_time(32, "FatTree"),
          near(1.0, rel=1e-6), "model"),
        c("topology.untapered", "ablation", "Fig. 3",
          "without the taper the congestion regime remains; measured: "
          "512 over 128 nodes",
          lambda a: a.gate_time(512, cell_uplink_taper=1.0) /
          a.gate_time(128, cell_uplink_taper=1.0), above(1.5), "model"),
    ]


CLAIMS: list[Claim] = _rows()


# -- the EXPERIMENTS.md blocks -------------------------------------------------

#: the blocks, in document order
BLOCKS = ("table1", "table2", "fig1", "fig2", "fig3", "text", "ablation")

_BLOCK = re.compile(r"(<!-- claims:(\w+) -->\n).*?(<!-- /claims:\2 -->)",
                    re.S)


def render_block(block: str, art: Artefacts) -> str:
    """The markdown of one block: its rows, then for ``fig3`` the
    efficiencies as ``jubench fig3 --nodes 1,2,...,512`` prints them."""
    lines = ["| id | paper | section | measured | tolerance | status |",
             "|---|---|---|---|---|---|"]
    for claim in CLAIMS:
        if claim.block == block:
            lines.append(
                f"| `{claim.id}` | {claim.paper} | {claim.section} | "
                f"{show(claim.measure(art))} | {claim.tolerance.text} | "
                f"{claim.status} |")
    if block == "fig3":
        lines += ["", "```", art.fig3.render(), "```"]
    return "\n".join(lines) + "\n"


def render_experiments(text: str, art: Artefacts) -> str:
    """``text`` (EXPERIMENTS.md) with every claims block regenerated."""
    found = [m.group(2) for m in _BLOCK.finditer(text)]
    if found != list(BLOCKS):
        raise ValueError(f"EXPERIMENTS.md claims blocks {found}, "
                         f"expected {list(BLOCKS)}")
    return _BLOCK.sub(lambda m: m.group(1) + render_block(m.group(2), art)
                      + m.group(3), text)
