"""Run records: the provenance-complete unit of the history database.

A :class:`RunRecord` captures everything needed to interpret one
benchmark execution years later: *what* ran (benchmark name + resolved
parameter set), *where* (machine-config hash), *which code* (git
commit + cache code-version tag + history schema version), *how* the
virtual MPI was driven (engine core mode, seed), *what came out* (the
FOM and any secondary figures), and *how it spent its time* (per-span
rollups from :mod:`repro.telemetry`, a digest link to the exec
journal).

Two derived identities matter:

* :attr:`RunRecord.record_key` -- the content address of the full
  record including the code fingerprint; re-running unchanged code on
  an unchanged configuration reproduces the key.
* :attr:`RunRecord.series_key` -- the trajectory identity, *excluding*
  the code fingerprint: successive commits land on the same series, so
  the detector can compare them over time.

Both are computed once per record, on first use: assigning a field
they are hashed from drops them, and they cannot be assigned.

Wall-clock measurements (bench harness timings, host names) are
provenance, not results: they live in :attr:`RunRecord.volatile` and
are excluded from :meth:`RunRecord.canonical`, which is how canonical
exports stay byte-identical across worker counts and replays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any

from ..exec.cache import CODE_VERSION, machine_config_hash, stable_hash

#: History database schema identity (meta header of every JSONL DB).
HISTORY_SCHEMA = "repro.history/v1"
HISTORY_VERSION = 1

#: the fields :attr:`RunRecord.series_key` / ``record_key`` hash, and
#: the read-only attributes derived from them
_KEY_FIELDS = frozenset({"benchmark", "params", "machine_hash", "vmpi_mode",
                         "code", "code_version", "seed"})
_DERIVED = frozenset({"series_key", "record_key", "value"})


def _git_head(root: Path) -> str | None:
    """The commit hash ``root``'s repository points at, from disk.

    Reads ``.git/HEAD`` (following one level of symbolic ref through
    the loose ref file or ``packed-refs``) without invoking git; any
    missing or malformed piece yields ``None``.
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref:"):
        return head or None
    ref = head.split(None, 1)[1].strip()
    try:
        return (git / ref).read_text(encoding="utf-8").strip() or None
    except OSError:
        pass
    try:
        packed = (git / "packed-refs").read_text(encoding="utf-8")
    except OSError:
        return None
    for line in packed.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[1] == ref:
            return parts[0]
    return None


def code_fingerprint(root: str | Path | None = None) -> str:
    """The code identity entering every record: git commit if the
    working tree is a repository (searched upward from ``root``, which
    defaults to this package's source tree), else the cache layer's
    :data:`~repro.exec.cache.CODE_VERSION` tag."""
    start = Path(root) if root is not None \
        else Path(__file__).resolve().parent
    for candidate in (start, *start.parents):
        if (candidate / ".git").exists():
            commit = _git_head(candidate)
            if commit is not None:
                return commit
            break
    return CODE_VERSION


@dataclass
class RunRecord:
    """One benchmark execution, with full provenance."""

    #: benchmark key (Table II name, or a bench id like ``fig2``)
    benchmark: str
    #: resolved parameter set (nodes, variant, scale, study, ...)
    params: dict[str, Any] = field(default_factory=dict)
    #: the normalised time-metric FOM; ``None`` for records whose only
    #: figures are volatile wall-clock measurements
    fom_seconds: float | None = None
    #: secondary figures of merit (efficiencies, speedups, ...)
    foms: dict[str, float] = field(default_factory=dict)
    #: virtual-MPI engine core that produced the result (``"event"``
    #: since there is only one; older databases also hold ``"step"``)
    vmpi_mode: str = ""
    #: human-readable machine name + config content hash
    machine: str = ""
    machine_hash: str = ""
    #: code identity (git commit or CODE_VERSION) + cache version tag
    code: str = ""
    code_version: str = CODE_VERSION
    schema_version: int = HISTORY_VERSION
    #: RNG / fault-plan seed the run was driven by (None = unseeded)
    seed: int | None = None
    #: per-span rollup, canonical part: name -> {"count": n}.  The
    #: summed wall-clock seconds per span live in
    #: ``volatile["span_seconds"]`` -- timing is provenance the DB
    #: keeps, but only counts enter the byte-stable canonical form.
    spans: dict[str, dict[str, float]] = field(default_factory=dict)
    #: digest of the run's canonical exec journal (provenance link)
    journal: str | None = None
    #: position within the record's series (assigned by the store)
    seq: int = -1
    #: non-reproducible provenance (wall clocks, host names); excluded
    #: from the canonical form
    volatile: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.benchmark:
            raise ValueError("run record needs a benchmark key")
        if self.fom_seconds is not None and self.fom_seconds <= 0:
            raise ValueError(
                f"{self.benchmark}: FOM time metric must be positive")

    # -- identity -----------------------------------------------------------

    def __setattr__(self, name: str, value: Any) -> None:
        # the keys are memoised on first use; assigning a field they
        # are computed from drops them (the store only assigns ``seq``).
        # record_key reads series_key, so it is never memoised alone.
        state = self.__dict__
        if name in _KEY_FIELDS:
            if "series_key" in state:
                del state["series_key"]
                state.pop("record_key", None)
        elif name in _DERIVED:
            raise AttributeError(f"RunRecord.{name} is derived from the "
                                 f"record's fields and cannot be set")
        state[name] = value

    @cached_property
    def series_key(self) -> str:
        """Trajectory identity: same benchmark, parameters, machine
        and engine core -- across code versions."""
        digest = stable_hash({"benchmark": self.benchmark,
                              "params": self.params,
                              "machine": self.machine_hash,
                              "vmpi_mode": self.vmpi_mode})
        slug = "".join(c if c.isalnum() or c in "-._" else "_"
                       for c in self.benchmark)
        return f"{slug}-{digest[:16]}"

    @cached_property
    def record_key(self) -> str:
        """Content address of this exact run (series + code identity)."""
        digest = stable_hash({"series": self.series_key, "code": self.code,
                              "code_version": self.code_version,
                              "seed": self.seed})
        return f"{self.series_key}-{digest[:16]}"

    @property
    def value(self) -> float | None:
        """The number a trajectory plots: the FOM when the record has
        one, else the bench harness's volatile wall-clock seconds."""
        if self.fom_seconds is not None:
            return self.fom_seconds
        wall = self.volatile.get("wall_seconds")
        return float(wall) if wall is not None else None

    # -- serialisation ------------------------------------------------------

    def canonical(self) -> dict[str, Any]:
        """The replay-stable form: everything except :attr:`volatile`,
        plus the derived keys (so exports are self-describing)."""
        return {"benchmark": self.benchmark, "params": dict(self.params),
                "fom_seconds": self.fom_seconds, "foms": dict(self.foms),
                "vmpi_mode": self.vmpi_mode, "machine": self.machine,
                "machine_hash": self.machine_hash, "code": self.code,
                "code_version": self.code_version,
                "schema_version": self.schema_version, "seed": self.seed,
                "spans": {k: dict(v) for k, v in self.spans.items()},
                "journal": self.journal, "seq": self.seq,
                "series_key": self.series_key,
                "record_key": self.record_key}

    def to_line(self) -> dict[str, Any]:
        """The full JSONL form (canonical fields + volatile section)."""
        line = self.canonical()
        line["volatile"] = dict(self.volatile)
        return line

    @classmethod
    def from_line(cls, line: dict[str, Any]) -> "RunRecord":
        fom = line.get("fom_seconds")
        return cls(benchmark=str(line["benchmark"]),
                   params=dict(line.get("params", {})),
                   fom_seconds=None if fom is None else float(fom),
                   foms={str(k): float(v)
                         for k, v in line.get("foms", {}).items()},
                   vmpi_mode=str(line.get("vmpi_mode", "")),
                   machine=str(line.get("machine", "")),
                   machine_hash=str(line.get("machine_hash", "")),
                   code=str(line.get("code", "")),
                   code_version=str(line.get("code_version", CODE_VERSION)),
                   schema_version=int(line.get("schema_version",
                                               HISTORY_VERSION)),
                   seed=line.get("seed"),
                   spans={str(k): dict(v)
                          for k, v in line.get("spans", {}).items()},
                   journal=line.get("journal"),
                   seq=int(line.get("seq", -1)),
                   volatile=dict(line.get("volatile", {})))


def record(benchmark: str, fom_seconds: float | None = None, *,
           params: dict[str, Any] | None = None,
           foms: dict[str, float] | None = None,
           system: Any = None,
           seed: int | None = None, tracer: Any = None,
           engine: Any = None, code: str | None = None,
           volatile: dict[str, Any] | None = None) -> RunRecord:
    """Build a fully stamped :class:`RunRecord` from live objects.

    The shared helper every producer goes through (suite CLI commands,
    ``ContinuousBenchmarking``, the fig2/fig3 benches): ``system`` (a
    :class:`~repro.cluster.hardware.SystemSpec`) becomes the machine
    stamp, ``tracer`` (a :class:`~repro.telemetry.spans.Tracer`)
    contributes the per-span rollup, ``engine`` (an
    :class:`~repro.exec.engine.ExecutionEngine`) links the canonical
    journal digest, and the environment supplies the code fingerprint
    when not given explicitly.  ``vmpi_mode`` is stamped ``"event"``:
    there is one engine core, and the constant keeps new records in
    the series that databases written while there were two already hold.
    """
    from ..telemetry.spans import span_rollup

    machine = machine_hash = ""
    if system is not None:
        machine = getattr(system, "name", str(system))
        machine_hash = machine_config_hash(system)
    extra = dict(volatile or {})
    spans: dict[str, dict[str, float]] = {}
    if tracer is not None and getattr(tracer, "enabled", False):
        rollup = span_rollup(tracer.finished())
        spans = {name: {"count": entry["count"]}
                 for name, entry in rollup.items()}
        extra["span_seconds"] = {name: entry["seconds"]
                                 for name, entry in rollup.items()}
    journal = None
    if engine is not None and len(engine.journal):
        journal = engine.journal.digest()
    return RunRecord(benchmark=benchmark, params=dict(params or {}),
                     fom_seconds=fom_seconds, foms=dict(foms or {}),
                     vmpi_mode="event", machine=machine,
                     machine_hash=machine_hash,
                     code=code if code is not None else code_fingerprint(),
                     seed=seed, spans=spans, journal=journal,
                     volatile=extra)


def stamp(payload: dict[str, Any], *, system: Any = None,
          code: str | None = None) -> dict[str, Any]:
    """Stamp a bench-record payload with its provenance block.

    ``BENCH_*.json`` perf records used to be hand-rolled unversioned
    dicts; this adds the shared ``provenance`` section (git commit,
    history schema name/version, cache code-version tag and the
    machine-config hash) without touching the bench's own keys.
    """
    from ..cluster.hardware import juwels_booster

    sysm = juwels_booster() if system is None else system
    out = dict(payload)
    out["provenance"] = {
        "code": code if code is not None else code_fingerprint(),
        "code_version": CODE_VERSION,
        "schema": HISTORY_SCHEMA,
        "schema_version": HISTORY_VERSION,
        "machine": getattr(sysm, "name", str(sysm)),
        "machine_hash": machine_config_hash(sysm),
    }
    return out
