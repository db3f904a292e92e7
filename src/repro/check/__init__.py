"""``repro.check``: suite-invariant static analyzer + runtime sanitizers.

The paper's procurement methodology only works because benchmark runs
are replicable; this package machine-checks the invariants the rest of
the codebase silently assumes:

* **determinism** (DET001/DET002) -- no wall clocks or unseeded RNG in
  model code, where they would poison the content-addressed cache key;
* **contracts** (CON101..CON104) -- every registered benchmark declares
  a FOM, High-Scaling variants keep T<S<M<L fraction order, ``$param``
  references resolve, unit prefixes are not abused as quantities;
* **concurrency** (LCK201 + :class:`LockOrderWatcher`) -- module-level
  state is mutated under a lock, and lock acquisition order stays
  acyclic at runtime;
* **dimensions** (UNIT301..UNIT305, ``repro.check.dims`` +
  ``rules/dataflow``) -- a flow-sensitive dimensional dataflow pass
  proving that quantities keep their physical dimension (seconds,
  bytes, rates) through the cost model, seeded by ``repro.units``
  constants and the ``DIMS = register_dims(...)`` annotation registry;
* **protocols** (COMM501..COMM506, ``repro.check.protocol`` +
  ``rules/comm``) -- every vmpi rank program's communication skeleton
  is lifted from the AST and replayed at small sizes against an
  abstract model of the engine's matching semantics: rank-divergent
  or misordered collectives, wait-for deadlocks (differentially
  validated against the step engine), tag collisions, inconsistent
  roots, and orphan endpoints;
* **cross-layer** (XLY401..XLY403) -- telemetry event types exist in
  the schema, CLI flags are documented in the README, rule ids are
  registered exactly once.

Run it as ``jubench check`` or ``python -m repro.check``.  With
``--cache-dir`` every result is keyed on the bytes it read, so an
unchanged tree is hashed and looked up, never parsed; ``--workers``
is accepted, but the rules are GIL-bound and it is measured to buy
nothing.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "dims": ("Dim", "DimRegistry", "build_registry", "parse_dim"),
    "engine": ("Analyzer", "CheckReport", "runtime_contract_findings"),
    "findings": (
        "Baseline", "BaselineEntry", "Finding", "Severity", "load_baseline",
        "save_baseline"
    ),
    "protocol": ("ProtocolFinding", "analyze_modules", "rank_programs",
                 "unresolved_replays"),
    "reporters": ("render_human", "render_json", "render_sarif"),
    "rules": (
        "RULE_CLASSES", "default_rules", "expand_rule_prefixes", "rule_ids"
    ),
    "sanitizer": (
        "LockGraph", "LockOrderError", "LockOrderWatcher", "install",
        "install_from_env", "installed_graph", "uninstall"
    ),
})
