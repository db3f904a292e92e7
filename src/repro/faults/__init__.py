"""Deterministic fault injection and chaos testing (``repro.faults``).

A :class:`FaultPlan` declares node crashes, stragglers, link
degradation and transient task faults as data (seeded-generated or
authored explicitly); a :class:`FaultInjector` hooks the plan into the
execution engine's retry boundary, the cluster scheduler's free pool
and the network model's bandwidths.  Every fault fires from the
injected clock and content-hash determinism, so the same plan yields
the same journal and trace bit-for-bit -- see
:mod:`repro.faults.report` for the byte-stable artifacts.
"""

from .injector import FaultInjector, LinkDegradationModel
from .plan import (
    LINK_CLASSES,
    FaultPlan,
    FaultPlanError,
    InjectedFault,
    LinkFault,
    NodeFault,
    StragglerFault,
    TaskFaultRule,
    hash_fraction,
)
from .report import canonical_journal, chaos_trace_events, write_chaos_trace

__all__ = [
    "LINK_CLASSES",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "InjectedFault",
    "LinkDegradationModel",
    "LinkFault",
    "NodeFault",
    "StragglerFault",
    "TaskFaultRule",
    "canonical_journal",
    "chaos_trace_events",
    "hash_fraction",
    "write_chaos_trace",
]
