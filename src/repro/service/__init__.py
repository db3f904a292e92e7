"""Benchmark-as-a-service control plane (``repro.service``).

The funcx-style service layer over :mod:`repro.exec`: versioned
content-addressed envelopes (:mod:`~repro.service.envelope`), endpoint
registration with heartbeat leases (:mod:`~repro.service.endpoint`),
a fair-share interchange with admission control
(:mod:`~repro.service.interchange`), a futures-based client
(:mod:`~repro.service.client`) and a durable result store with a
canonical byte-stable export (:mod:`~repro.service.store`).

Everything is deterministic on an injectable clock; the CLI wires the
loopback pair ``jubench serve`` / ``jubench submit`` on top.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "client": (
        "CancelledError", "RejectedError", "ServiceClient", "ServiceError",
        "ServiceFuture", "TaskFailedError"
    ),
    "endpoint": ("Capabilities", "LeaseTable", "LocalEndpoint"),
    "envelope": (
        "EnvelopeError", "RESULT_STATUSES", "ResultEnvelope", "SERVICE_SCHEMA",
        "SERVICE_VERSION", "TaskEnvelope"
    ),
    "interchange": ("BenchmarkService",),
    "store": ("ResultStore", "execute_direct"),
})
