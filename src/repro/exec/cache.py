"""Content-addressed result caching (the exaCB incremental property).

A benchmark execution is fully determined by *what* ran (benchmark
name), *how* it was parameterised (the resolved parameter values),
*where* it ran (the machine/platform configuration) and *which code*
ran it (a version tag).  :func:`result_key` hashes exactly that tuple
into a stable content address; re-running an unchanged benchmark then
becomes a cache lookup instead of an execution.

Two backends share the :class:`ResultCache` protocol:

* :class:`MemoryCache` -- in-process, stores arbitrary Python values,
* :class:`DiskCache` -- one JSON document per key, survives processes
  (values must be JSON-serialisable; callers encode/decode).

Both are thread-safe and count hits/misses/stores in
:class:`CacheStats` -- the statistics the incremental-execution tests
assert on ("a warm rerun performs zero executions").  Neither is
bounded: an entry lives until ``clear`` (or, on disk, until it is
deleted).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import threading
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Protocol

from .jsonl import ENCODER, replace_file

#: Code-version tag entering every cache key.  Bump on any change that
#: alters benchmark results, so stale caches can never be replayed.
CODE_VERSION = "jupiter-repro-1"


def _canonical(obj: Any) -> Any:
    """Reduce a value to a canonical JSON-representable form.

    Exact builtin types are dispatched first: they are what content
    addresses are made of, and for them the ``isinstance`` ladder below
    would return the same value.  A ``str``-keyed dict is left for
    :data:`~repro.exec.jsonl.ENCODER` to sort.  Subclasses (enums,
    ``numpy.float64``), sets, non-``str`` keys and foreign objects take
    the ladder, so every input hashes to the bytes the ladder gives.
    """
    kind = type(obj)
    if kind is str or kind is int or kind is bool or obj is None:
        return obj
    if kind is float:
        return repr(obj)
    if kind is list or kind is tuple:
        return [_canonical(v) for v in obj]
    if kind is dict and all(type(k) is str for k in obj):
        return {k: _canonical(v) for k, v in obj.items()}
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(),
                                                         key=lambda i: str(i[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_canonical(v) for v in obj)
    if isinstance(obj, enum.Enum):
        return _canonical(obj.value)
    if isinstance(obj, float):
        # repr() round-trips exactly; json.dumps would too, but be explicit
        return repr(obj)
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    return str(obj)


def stable_hash(obj: Any) -> str:
    """A stable SHA-256 content hash of an arbitrary (JSON-like) value."""
    blob = ENCODER.encode(_canonical(obj)).encode()
    return hashlib.sha256(blob).hexdigest()


def machine_config_hash(system: Any) -> str:
    """Stable content hash of a machine configuration.

    Accepts a :class:`~repro.cluster.hardware.SystemSpec` (hashed
    field-by-field via ``dataclasses.asdict``) or any JSON-like value;
    two runs share the hash exactly when every modelled hardware
    quantity matches.  A frozen system is hashed once: equal systems
    share the memo entry, a changed quantity makes a new one.
    """
    if dataclasses.is_dataclass(system) and not isinstance(system, type):
        try:
            return _system_hash(system)
        except TypeError:           # not hashable: nothing to memoise on
            return stable_hash(dataclasses.asdict(system))[:16]
    return stable_hash(system)[:16]


@lru_cache(maxsize=64)
def _system_hash(system: Any) -> str:
    return stable_hash(dataclasses.asdict(system))[:16]


def hash_fraction(*parts: Any) -> float:
    """A deterministic pseudo-uniform draw in ``[0, 1)`` from content.

    Replaces ``random.random()`` at sites that must stay reproducible
    across worker counts and call order (fault-rate decisions, backoff
    jitter): the value depends only on ``parts`` via
    :func:`stable_hash`, never on execution history.
    """
    return int(stable_hash(list(parts))[:12], 16) / float(16 ** 12)


def result_key(benchmark: str, params: dict[str, Any], *,
               platform: str = "", version: str = CODE_VERSION) -> str:
    """The content address of one benchmark execution.

    Hashes ``(benchmark name, resolved parameters, machine/platform
    config, code version tag)``; the benchmark name is kept as a
    readable prefix (slashes and spaces sanitised for disk backends).
    """
    digest = stable_hash({"benchmark": benchmark, "params": params,
                          "platform": platform, "version": version})
    slug = "".join(c if c.isalnum() or c in "-._" else "_"
                   for c in benchmark)
    return f"{slug}-{digest[:32]}"


@dataclass
class CacheStats:
    """Hit/miss/store counters of one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache (0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores}


class ResultCache(Protocol):
    """What the execution engine requires of a cache backend."""

    stats: CacheStats

    def get(self, key: str) -> tuple[bool, Any]:
        """``(found, value)``; counts a hit or a miss."""

    def put(self, key: str, value: Any) -> None:
        """Store a value (counts a store)."""


class MemoryCache:
    """In-process result cache holding arbitrary Python values."""

    def __init__(self):
        self.stats = CacheStats()
        self._data: dict[str, Any] = {}
        self._lock = threading.Lock()

    def get(self, key: str) -> tuple[bool, Any]:
        with self._lock:
            if key in self._data:
                self.stats.hits += 1
                return True, self._data[key]
            self.stats.misses += 1
            return False, None

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self.stats.stores += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()


class DiskCache:
    """On-disk JSON result cache: one ``<key>.json`` document per entry.

    Values must be JSON-serialisable (the engine's ``encode`` hook
    converts rich results).  The directory is the only state, so
    processes sharing it see each other's entries.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self._lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> tuple[bool, Any]:
        path = self._path(key)
        with self._lock:
            try:
                value = json.loads(path.read_text())["value"]
            except FileNotFoundError:
                self.stats.misses += 1
                return False, None
            except (OSError, ValueError, KeyError, TypeError):
                # torn, not JSON, or not a {"value": ...} object:
                # drop it; the caller recomputes and rewrites it
                path.unlink(missing_ok=True)
                self.stats.misses += 1
                return False, None
            self.stats.hits += 1
            return True, value

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            payload = json.dumps({"key": key, "value": value}, sort_keys=True)
            # atomic: another process sharing the directory never reads
            # (and deletes as torn) a half-written entry
            replace_file(self._path(key), payload)
            self.stats.stores += 1

    def keys(self) -> list[str]:
        """The keys of the entries in the directory, sorted."""
        return sorted(path.stem for path in self.directory.glob("*.json"))

    def __len__(self) -> int:
        return len(self.keys())

    def clear(self) -> None:
        with self._lock:
            for key in self.keys():
                self._path(key).unlink(missing_ok=True)
