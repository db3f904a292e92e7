"""Declarative, seeded fault plans.

The paper's procurement methodology depends on benchmark runs being
*replicable at scale*, where node failures, link degradation and
stragglers are the norm rather than the exception.  A
:class:`FaultPlan` describes such an environment as data: which task
attempts fail, which nodes crash (and when they return), which nodes
straggle and by how much, and which link classes lose bandwidth.

Two properties make the plan testable:

* **deterministic** -- whether a fault fires is a pure function of the
  plan and the injection site ``(label, attempt)`` / virtual time.
  Rate-based rules draw their "randomness" from a stable content hash
  of ``(seed, label, attempt)``, so the same plan injects the same
  faults regardless of worker count, thread interleaving or host.
* **replayable** -- plans round-trip through JSON
  (:meth:`FaultPlan.save` / :meth:`FaultPlan.load`, the CLI's
  ``--faults PLAN.json``) and regenerate bit-identically from a seed
  (:meth:`FaultPlan.generate`, the CLI's ``--fault-seed``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields, replace
from fnmatch import fnmatchcase
from typing import Any

from ..exec.cache import hash_fraction

#: link-class slugs a :class:`LinkFault` may target (plus ``"*"``).
LINK_CLASSES = ("intra_node", "intra_cell", "inter_cell")
#: task-fault kinds: a transient fault fails the attempt, a retry may pass
TASK_FAULT_KINDS = ("transient",)


class FaultPlanError(ValueError):
    """A fault-plan file is missing, not JSON, or not a plan."""


class InjectedFault(RuntimeError):
    """A plan-scheduled fault (injected by the harness, not organic).

    Raised inside the engine's fault boundary exactly like a real
    transient failure, so retries/backoff/circuit-breaking exercise
    the same code paths a production incident would.
    """


@dataclass(frozen=True)
class TaskFaultRule:
    """Fail matching task attempts with an :class:`InjectedFault`.

    ``match`` is an ``fnmatch`` pattern over the engine task label
    (e.g. ``run:JUQCS`` or ``strong:Arbor@*``); ``attempts`` lists the
    1-based attempt ordinals at risk.  With ``rate < 1`` each listed
    ``(label, attempt)`` site fails with that probability, drawn
    deterministically via :func:`hash_fraction`.
    """

    match: str = "*"
    attempts: tuple[int, ...] = (1,)
    rate: float = 1.0
    seed: int = 0
    kind: str = "transient"
    message: str = ""

    def __post_init__(self) -> None:
        if not self.attempts or min(self.attempts) < 1:
            raise ValueError("attempts must be 1-based ordinals")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")
        if self.kind not in TASK_FAULT_KINDS:
            raise ValueError(f"unknown task fault kind {self.kind!r}; "
                             f"choose from {TASK_FAULT_KINDS}")

    def applies(self, label: str, attempt: int) -> bool:
        if attempt not in self.attempts:
            return False
        if not fnmatchcase(label, self.match):
            return False
        if self.rate >= 1.0:
            return True
        return hash_fraction(self.seed, label, attempt) < self.rate

    def describe(self, label: str, attempt: int) -> str:
        if self.message:
            return self.message
        return (f"injected {self.kind} fault: rule {self.match!r} "
                f"hit {label!r} attempt {attempt}")


@dataclass(frozen=True)
class NodeFault:
    """Node ``node`` crashes at virtual time ``at``.

    ``duration=None`` means the node never returns; otherwise it
    rejoins the scheduler's free pool at ``at + duration``.
    """

    node: int
    at: float
    duration: float | None = None

    def __post_init__(self) -> None:
        if self.node < 0 or self.at < 0:
            raise ValueError("node and crash time must be non-negative")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("crash duration must be positive")


@dataclass(frozen=True)
class StragglerFault:
    """Node ``node`` runs ``factor``x slower during the window."""

    node: int
    factor: float
    at: float = 0.0
    duration: float | None = None

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError("straggler factor must be >= 1")
        if self.node < 0 or self.at < 0:
            raise ValueError("node and start time must be non-negative")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("straggler duration must be positive")


@dataclass(frozen=True)
class LinkFault:
    """A link class retains only ``factor`` of its bandwidth.

    ``link`` is one of :data:`LINK_CLASSES` or ``"*"`` (all classes).
    """

    link: str
    factor: float

    def __post_init__(self) -> None:
        if self.link != "*" and self.link not in LINK_CLASSES:
            raise ValueError(f"unknown link class {self.link!r}; choose "
                             f"from {LINK_CLASSES} or '*'")
        if not 0.0 < self.factor <= 1.0:
            raise ValueError("bandwidth factor must be within (0, 1]")


@dataclass(frozen=True)
class FaultPlan:
    """The full declarative fault schedule of one chaos run."""

    seed: int = 0
    tasks: tuple[TaskFaultRule, ...] = ()
    nodes: tuple[NodeFault, ...] = ()
    stragglers: tuple[StragglerFault, ...] = ()
    links: tuple[LinkFault, ...] = ()

    # -- engine side --------------------------------------------------------

    def check_task(self, label: str, attempt: int) -> TaskFaultRule | None:
        """First rule scheduling a fault at ``(label, attempt)``."""
        for rule in self.tasks:
            if rule.applies(label, attempt):
                return rule
        return None

    def check_and_raise(self, label: str, attempt: int) -> None:
        """Engine guard hook: raise on scheduled attempts.

        Module-path bound method of a frozen dataclass, so
        ``functools.partial(plan.check_and_raise, label)`` pickles into
        process-pool workers.  Emits one ``fault`` telemetry event on
        the ambient tracer (the engine's per-attempt collector inside
        workers) before raising.
        """
        rule = self.check_task(label, attempt)
        if rule is None:
            return
        from ..telemetry.spans import current_tracer  # avoid import cost

        tracer = current_tracer()
        tracer.emit({"type": "fault", "category": "task", "target": label,
                     "action": "inject", "at": tracer.now(),
                     "detail": rule.describe(label, attempt)})
        raise InjectedFault(rule.describe(label, attempt))

    def failing_attempts(self, label: str, upto: int = 16) -> list[int]:
        """Attempt ordinals in ``1..upto`` that would fail for a label."""
        return [a for a in range(1, upto + 1)
                if self.check_task(label, a) is not None]

    def max_task_failures(self) -> int:
        """Highest attempt ordinal any task rule can fail.

        A retry budget of at least this many retries guarantees every
        task converges (the first attempt past the budget is clean),
        because rules only schedule faults at listed ordinals.
        """
        return max((max(rule.attempts) for rule in self.tasks), default=0)

    # -- cluster side -------------------------------------------------------

    def cluster_timeline(self) -> list[tuple[float, str, int, float]]:
        """Scheduler events as sorted ``(time, action, node, factor)``.

        Actions: ``crash`` / ``restore`` (node pool membership) and
        ``slow`` / ``unslow`` (straggler factor on/off).
        """
        events: list[tuple[float, str, int, float]] = []
        for nf in self.nodes:
            events.append((nf.at, "crash", nf.node, 0.0))
            if nf.duration is not None:
                events.append((nf.at + nf.duration, "restore", nf.node, 0.0))
        for sf in self.stragglers:
            events.append((sf.at, "slow", sf.node, sf.factor))
            if sf.duration is not None:
                events.append((sf.at + sf.duration, "unslow", sf.node, 0.0))
        return sorted(events)

    def link_factors(self) -> dict[str, float]:
        """Effective per-link-class bandwidth multipliers (min-combined)."""
        factors: dict[str, float] = {}
        for lf in self.links:
            targets = LINK_CLASSES if lf.link == "*" else (lf.link,)
            for name in targets:
                factors[name] = min(factors.get(name, 1.0), lf.factor)
        return factors

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "tasks": [{"match": r.match, "attempts": list(r.attempts),
                       "rate": r.rate, "seed": r.seed, "kind": r.kind,
                       "message": r.message} for r in self.tasks],
            "nodes": [{"node": f.node, "at": f.at, "duration": f.duration}
                      for f in self.nodes],
            "stragglers": [{"node": f.node, "factor": f.factor, "at": f.at,
                            "duration": f.duration}
                           for f in self.stragglers],
            "links": [{"link": f.link, "factor": f.factor}
                      for f in self.links],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultPlan":
        """The plan ``to_dict`` wrote; a key it would not write, or a
        value its fields reject, is a ``ValueError`` naming it."""
        data = _entry(data, cls, "the plan")
        tasks = [_entry(r, TaskFaultRule, f"tasks[{i}]")
                 for i, r in enumerate(data.get("tasks", ()))]
        nodes = [_entry(f, NodeFault, f"nodes[{i}]")
                 for i, f in enumerate(data.get("nodes", ()))]
        stragglers = [_entry(f, StragglerFault, f"stragglers[{i}]")
                      for i, f in enumerate(data.get("stragglers", ()))]
        links = [_entry(f, LinkFault, f"links[{i}]")
                 for i, f in enumerate(data.get("links", ()))]
        return cls(
            seed=int(data.get("seed", 0)),
            tasks=tuple(TaskFaultRule(
                match=str(r.get("match", "*")),
                attempts=tuple(int(a) for a in r.get("attempts", (1,))),
                rate=float(r.get("rate", 1.0)),
                seed=int(r.get("seed", 0)),
                kind=str(r.get("kind", "transient")),
                message=str(r.get("message", "")))
                for r in tasks),
            nodes=tuple(NodeFault(
                node=int(f["node"]), at=float(f["at"]),
                duration=None if f.get("duration") is None
                else float(f["duration"]))
                for f in nodes),
            stragglers=tuple(StragglerFault(
                node=int(f["node"]), factor=float(f["factor"]),
                at=float(f.get("at", 0.0)),
                duration=None if f.get("duration") is None
                else float(f["duration"]))
                for f in stragglers),
            links=tuple(LinkFault(link=str(f["link"]),
                                  factor=float(f["factor"]))
                        for f in links),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path: Any) -> None:
        """Write the plan atomically (:func:`~repro.exec.jsonl.replace_file`)."""
        from ..exec.jsonl import replace_file

        replace_file(path, self.to_json())

    @classmethod
    def load(cls, path: Any) -> "FaultPlan":
        try:
            with open(path, encoding="utf-8") as fh:
                return cls.from_dict(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError,
                AttributeError) as exc:
            raise FaultPlanError(f"{path}: not a fault plan: "
                                 f"{type(exc).__name__}: {exc}") from exc

    # -- generation ---------------------------------------------------------

    @classmethod
    def generate(cls, seed: int, *, labels: tuple[str, ...] = ("*",),
                 max_task_failures: int = 2, fault_rate: float = 0.7,
                 nodes: int = 0, crashes: int = 2, stragglers: int = 1,
                 link_faults: int = 1, horizon: float = 200.0
                 ) -> "FaultPlan":
        """A reproducible random plan from a seed.

        Per label pattern, the first ``k <= max_task_failures`` attempts
        fail (``k`` drawn per label; with probability ``1 - fault_rate``
        the label is spared), so a retry budget of
        ``max_task_failures`` always converges.  Cluster faults target
        the first ``nodes`` node ids within the ``horizon`` of virtual
        seconds; pass ``nodes=0`` to skip them.
        """
        rng = random.Random(seed)
        task_rules = []
        for label in labels:
            if rng.random() >= fault_rate:
                continue
            k = rng.randint(1, max(1, max_task_failures))
            task_rules.append(TaskFaultRule(
                match=label, attempts=tuple(range(1, k + 1)),
                kind="transient"))
        node_faults = []
        straggler_faults = []
        link_fault_list = []
        if nodes > 0:
            for _ in range(crashes):
                at = rng.uniform(0.0, horizon * 0.6)
                duration = rng.uniform(horizon * 0.05, horizon * 0.3)
                node_faults.append(NodeFault(node=rng.randrange(nodes),
                                             at=at, duration=duration))
            for _ in range(stragglers):
                straggler_faults.append(StragglerFault(
                    node=rng.randrange(nodes),
                    factor=rng.uniform(1.5, 4.0),
                    at=rng.uniform(0.0, horizon * 0.5),
                    duration=rng.uniform(horizon * 0.1, horizon * 0.5)))
        for _ in range(link_faults):
            link_fault_list.append(LinkFault(
                link=rng.choice(LINK_CLASSES),
                factor=rng.uniform(0.3, 0.9)))
        return cls(seed=seed, tasks=tuple(task_rules),
                   nodes=tuple(node_faults),
                   stragglers=tuple(straggler_faults),
                   links=tuple(link_fault_list))

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)


def _entry(data: Any, kind: type, where: str) -> dict[str, Any]:
    """``data`` as one ``kind`` of a plan file: an object whose keys are
    all fields of ``kind`` (a misspelt key must not drop a fault)."""
    if not isinstance(data, dict):
        raise TypeError(f"{where} must be an object, "
                        f"got {type(data).__name__}")
    known = [f.name for f in fields(kind)]
    for key in data:
        if key not in known:
            raise ValueError(f"unknown key {key!r} in {where}; "
                             f"expected {', '.join(known)}")
    return data
