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

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "injector": ("FaultInjector", "LinkDegradationModel"),
    "plan": (
        "FaultPlan", "FaultPlanError", "InjectedFault", "LINK_CLASSES",
        "LinkFault", "NodeFault", "StragglerFault", "TaskFaultRule",
        "hash_fraction"
    ),
    "report": ("canonical_journal", "chaos_trace_events", "write_chaos_trace"),
})
