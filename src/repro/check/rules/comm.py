"""COMM5xx: static MPI-protocol verification of vmpi rank programs.

One project-scoped rule lifts every rank program's communication
skeleton out of the AST (``repro.check.protocol``) and replays it at
small concrete sizes against an abstract model of the engine's exact
matching semantics.  Six rule ids:

* **COMM501** -- a collective sits under rank-dependent control flow
  with non-covering branches: some ranks post it, some never do (or
  take a different communication path), so the collective can never
  complete;
* **COMM502** -- ranks of one communicator disagree on the *order* of
  collectives: the same sequence position mixes different kinds;
* **COMM503** -- a send/recv wait-for cycle in the per-tag channel
  graph: a genuine deadlock.  Every COMM503 verdict is backed by the
  differential oracle -- the flagged configuration deadlocks in the
  reference step scheduler (``tests/vmpi_reference.py``);
* **COMM504** -- two concurrent transfers of one batch share a
  (communicator, channel, tag): the tag no longer discriminates the
  messages and matching silently falls back to posting order;
* **COMM505** -- a rooted/reducing collective's root or reduce op is
  not derivably consistent across ranks (subset-participation
  mismatch);
* **COMM506** -- an orphan endpoint: a send nobody receives, a receive
  whose peer already terminated, or asymmetric exchange counts.

The pass is deliberately quiet at its soundness boundary: programs it
cannot resolve (rank-dependent branching around communication on
unproven values, opaque generators, out-of-range peers that would
crash before communicating) produce *no* findings, and replays that
had to approximate unknown loop bounds suppress the exact-trace
verdicts (COMM503/COMM506).  See DESIGN.md §12.
"""

from __future__ import annotations

from ..findings import Severity
from ..protocol import DEFAULT_SIZES, analyze_modules
from .base import Collector, ModuleInfo, Rule

ID_SEVERITY = {
    "COMM501": Severity.ERROR,
    "COMM502": Severity.ERROR,
    "COMM503": Severity.ERROR,
    "COMM504": Severity.WARNING,
    "COMM505": Severity.ERROR,
    "COMM506": Severity.ERROR,
}

ID_DESCRIPTIONS = {
    "COMM501": ("A collective is issued under rank-dependent control "
                "flow with non-covering branches; ranks that skip it "
                "leave the collective incomplete forever."),
    "COMM502": ("Ranks of one communicator post collectives in "
                "different orders: the same sequence position mixes "
                "different collective kinds."),
    "COMM503": ("Send/recv wait-for cycle in the per-tag channel "
                "graph: no rank in the cycle can progress (deadlock, "
                "differentially validated against the step engine)."),
    "COMM504": ("Concurrent transfers in one batch share a "
                "(communicator, channel, tag); the tag no longer "
                "discriminates the messages and matching falls back "
                "to posting order."),
    "COMM505": ("A rooted or reducing collective's root/reduce op is "
                "not derivably consistent across ranks "
                "(subset-participation mismatch)."),
    "COMM506": ("Unmatched point-to-point endpoint: a send nobody "
                "receives, a receive whose peer terminated without "
                "sending, or asymmetric exchange transfer counts."),
}


class CommProtocolRule(Rule):
    """COMM501..COMM506: protocol replay over extracted skeletons."""

    id = "COMM501"
    ids = ("COMM502", "COMM503", "COMM504", "COMM505", "COMM506")
    name = "comm-protocol"
    severity = Severity.ERROR
    description = ID_DESCRIPTIONS["COMM501"]
    #: project scope: verdicts depend on *all* modules (helpers are
    #: inlined across module boundaries), so per-module caching would
    #: be unsound; they are cached as part of the project entry
    scope = "project"

    #: communicator sizes each program is replayed at
    sizes = DEFAULT_SIZES

    def __init__(self) -> None:
        self._modules: list[ModuleInfo] = []

    def descriptors(self) -> list[dict]:
        return [{"id": rid, "name": f"{self.name}-{rid[-3:]}",
                 "description": ID_DESCRIPTIONS[rid],
                 "severity": ID_SEVERITY[rid]}
                for rid in sorted(ID_SEVERITY)]

    def applies_to(self, relpath: str) -> bool:
        # the analyzer's own code and its fixtures talk *about*
        # protocols; only model/app code communicates
        return "check/" not in relpath

    def check_module(self, module: ModuleInfo, out: Collector) -> None:
        self._modules.append(module)

    def finalize(self, out: Collector) -> None:
        modules = sorted(self._modules, key=lambda m: m.relpath)
        findings = analyze_modules(
            [(m.relpath, m.tree) for m in modules], sizes=self.sizes)
        for finding in findings:
            if not self.emits(finding.rule_id):
                continue
            out.add(self, finding.relpath, finding.line,
                    finding.message, rule_id=finding.rule_id,
                    severity=ID_SEVERITY[finding.rule_id],
                    trace=list(finding.trace))
        self._modules = []
