"""Content addresses: one canonicaliser, every key computed once per object.

``stable_hash`` dispatches on exact builtin types before its
``isinstance`` ladder, and ``RunRecord.series_key``/``record_key`` and
``TaskEnvelope.task_id`` are memoised.  Both are pure speed-ups: every
key must stay byte-identical, because exec caches, history DBs (series
continuity), spools and goldens are addressed by them.  Four kinds of
evidence:

* a Hypothesis differential of ``stable_hash`` against the ladder-only
  implementation it replaced, kept here verbatim as the oracle;
* literal digests pinned from the implementation before the change;
* memo soundness: memoised == recomputed for seeded DBs and envelope
  streams, new objects get new keys, attribute assignment never leaves
  a stale key, pickling keeps keys;
* count guards in a fresh interpreter: a closed service loop hashes
  each task id once, opening/exporting/compacting a history DB hashes
  at most twice per record.
"""

import dataclasses
import enum
import hashlib
import importlib
import json
import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import MemoryVariant
from repro.core.benchmark import BenchmarkResult
from repro.exec import ExecutionEngine, MemoryCache
from repro.exec.cache import hash_fraction, result_key, stable_hash
from repro.history import HistoryStore, RunRecord
from repro.service import (
    BenchmarkService,
    Capabilities,
    LocalEndpoint,
    ServiceClient,
    TaskEnvelope,
    execute_direct,
)

ROOT = Path(__file__).resolve().parent.parent


# -- the oracle: stable_hash and the three key derivations as they were -------

def _oracle_canonical(obj):
    """Reduce a value to a canonical JSON-representable form."""
    if isinstance(obj, dict):
        return {str(k): _oracle_canonical(v) for k, v in sorted(obj.items(),
                                                                key=lambda i: str(i[0]))}
    if isinstance(obj, (list, tuple)):
        return [_oracle_canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_oracle_canonical(v) for v in obj)
    if isinstance(obj, enum.Enum):
        return _oracle_canonical(obj.value)
    if isinstance(obj, float):
        # repr() round-trips exactly; json.dumps would too, but be explicit
        return repr(obj)
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    return str(obj)


def oracle_stable_hash(obj):
    """A stable SHA-256 content hash of an arbitrary (JSON-like) value."""
    blob = json.dumps(_oracle_canonical(obj), sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _slug(name):
    return "".join(c if c.isalnum() or c in "-._" else "_" for c in name)


def oracle_series_key(rec):
    digest = oracle_stable_hash({"benchmark": rec.benchmark,
                                 "params": rec.params,
                                 "machine": rec.machine_hash,
                                 "vmpi_mode": rec.vmpi_mode})
    return f"{_slug(rec.benchmark)}-{digest[:16]}"


def oracle_record_key(rec):
    series = oracle_series_key(rec)
    digest = oracle_stable_hash({"series": series, "code": rec.code,
                                 "code_version": rec.code_version,
                                 "seed": rec.seed})
    return f"{series}-{digest[:16]}"


def oracle_task_id(env):
    digest = oracle_stable_hash({
        "schema": env.schema, "client": env.client,
        "benchmark": env.benchmark, "key": env.key,
        "params": env.params, "seq": env.seq})
    return f"{_slug(env.benchmark)}-{digest[:24]}"


def outcome(fn, value):
    """``fn(value)``, or the type of what it raised (sorting a set of
    mixed types fails the same way on both sides)."""
    try:
        return fn(value)
    except Exception as exc:  # noqa: BLE001 -- compared, not handled
        return type(exc)


# -- (a) the differential -----------------------------------------------------

class Color(enum.Enum):
    RED = "red"
    ONE = 1
    HALF = 0.5
    NOTHING = None
    PAIR = (1, "x")


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Tag(str, enum.Enum):
    A = "a"
    B = "b"


class Opaque:
    """An object only ``str()`` can canonicalise."""

    def __init__(self, n):
        self.n = n

    def __str__(self):
        return f"Opaque<{self.n}>"


class MyInt(int):
    pass


class MyStr(str):
    pass


class MyFloat(float):
    pass


class MyList(list):
    pass


class MyDict(dict):
    pass


SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf,
                                  1e300, -1e300, 5e-324, 0.1 + 0.2])
ENUMS = st.sampled_from([*Color, *Level, *Tag, *MemoryVariant])
NUMPY = st.one_of(st.floats().map(np.float64), st.integers(-2**63, 2**63 - 1)
                  .map(np.int64), st.booleans().map(np.bool_),
                  st.floats(width=32).map(np.float32),
                  st.text(max_size=4).map(np.str_))
KEYS = st.one_of(st.text(max_size=6), st.integers(), st.booleans(), st.none(),
                 st.floats(), ENUMS, st.text(max_size=4).map(MyStr),
                 st.integers().map(MyInt), st.builds(Opaque, st.integers()),
                 st.binary(max_size=3))
LEAVES = st.one_of(KEYS, SPECIAL_FLOATS, NUMPY, st.floats().map(MyFloat),
                   st.complex_numbers(allow_nan=False, max_magnitude=1e6))
VALUES = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.lists(inner, max_size=4).map(MyList),
    st.dictionaries(st.text(max_size=6), inner, max_size=4),
    st.dictionaries(st.text(max_size=6), inner, max_size=4).map(MyDict),
    st.dictionaries(st.integers(), inner, max_size=4),
    st.dictionaries(KEYS, inner, max_size=4),
    # keys that are str instances without being exactly str
    st.dictionaries(st.one_of(st.text(max_size=4), st.sampled_from(Tag),
                              st.text(max_size=4).map(MyStr)),
                    inner, max_size=4),
    st.sets(st.integers(), max_size=4),
    st.frozensets(st.text(max_size=4), max_size=4),
    st.sets(st.floats(), max_size=4),
    st.frozensets(ENUMS, max_size=4),
    st.sets(KEYS, max_size=4),
), max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(VALUES)
@example({1: "int", "1": "str", True: "bool", "True": "text"})
@example({"a": {"b": [1, 2.5, None, Level.HIGH]}, Tag.B: -0.0})
@example({MyStr("k"): [MyInt(3), MyFloat(0.5)], "j": MyDict(z=1)})
@example({"nodes": np.int64(8), "scale": np.float64(0.5), "nan": math.nan})
@example([{MemoryVariant.LARGE, MemoryVariant.TINY}, frozenset({"x", "y"})])
def test_stable_hash_equals_the_ladder_oracle(value):
    assert outcome(stable_hash, value) == outcome(oracle_stable_hash, value)


def oracle_result_key(benchmark, params, platform):
    digest = oracle_stable_hash({"benchmark": benchmark, "params": params,
                                 "platform": platform,
                                 "version": "jupiter-repro-1"})
    return f"{_slug(benchmark)}-{digest[:32]}"


@settings(max_examples=100, deadline=None)
@given(st.lists(VALUES, max_size=3))
def test_hash_fraction_and_result_key_equal_the_oracle(parts):
    assert outcome(lambda p: hash_fraction(*p), parts) == outcome(
        lambda p: int(oracle_stable_hash(p)[:12], 16) / float(16 ** 12),
        parts)
    params = {"parts": parts, "nodes": 8}
    assert outcome(lambda p: result_key("Arbor/x y", p, platform="booster"),
                   params) == \
        outcome(lambda p: oracle_result_key("Arbor/x y", p, "booster"),
                params)


# -- (b) digests pinned before the change -------------------------------------

COMMIT = "3fa7277d20e669171200a878822d719ca5050cef"
#: ``result_key`` -- and with it ``task_id`` and ``to_wire``, which carry
#: the key -- re-pinned when the key started hashing the machine
#: configuration instead of the system's name; everything else is as
#: pinned at ``COMMIT``
PINNED = {
    "result_key": "Arbor-3928851fba281bec3a1b9f36f2703dc0",
    "machine_hash": "a26b7ca07453c035",
    "series_key": "Arbor-f1eaaffdd567b985",
    "record_key": "Arbor-f1eaaffdd567b985-09f857ef3a992877",
    "task_id": "Arbor-268c4b057474e1ca4abe50d6",
    # sha256 of the sorted-key compact JSON of each serialised form
    "to_line": "ea2804f4ccf84c279fab5356fb64427d3dfe957471523696fdeb668ae7ca7e18",
    "to_wire": "5b04d9e052282a67c6847ec498f93ad84d21c3b09f1305a4ea081c3092d6b965",
}


def _sha(doc):
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _pinned_record():
    from repro.cluster import juwels_booster
    from repro.history import machine_config_hash

    return RunRecord(
        benchmark="Arbor", params={"nodes": 8, "scale": 1.0,
                                   "variant": None},
        fom_seconds=663.0, foms={"efficiency": 0.98}, vmpi_mode="event",
        machine="JUWELS Booster",
        machine_hash=machine_config_hash(juwels_booster()), code=COMMIT,
        seed=7, spans={"suite.run": {"count": 1}}, seq=2,
        volatile={"wall_seconds": 1.5})


def test_pinned_digests_hold():
    from repro.core import load_suite

    key = load_suite().run_key("Arbor", 8)
    assert key == PINNED["result_key"]
    rec = _pinned_record()
    assert rec.machine_hash == PINNED["machine_hash"]
    assert rec.series_key == PINNED["series_key"]
    assert rec.record_key == PINNED["record_key"]
    assert _sha(rec.to_line()) == PINNED["to_line"]
    env = TaskEnvelope(client="client0", benchmark="Arbor", key=key,
                       params={"nodes": 8, "variant": None, "scale": 1.0,
                               "real": False}, seq=3)
    assert env.task_id == PINNED["task_id"]
    assert _sha(env.to_wire()) == PINNED["to_wire"]


# -- (c) memo soundness -------------------------------------------------------

class StubSuite:
    """Constant-time suite facade: the FOM is a function of the request."""

    def run_key(self, name, nodes=None, *, variant=None, scale=1.0,
                real=False):
        return result_key(name, {"nodes": nodes or 4, "scale": scale,
                                 "real": real,
                                 "variant": variant.value if variant
                                 else None})

    def run(self, name, nodes=None, *, variant=None, scale=1.0, real=False):
        return BenchmarkResult(benchmark=name, nodes=nodes or 4,
                               fom_seconds=1.0 + len(name) * 0.25 + scale)


def seeded_specs(seed, tasks, clients=8):
    """Per client, its submissions in order (the service workload's shape)."""
    rng = random.Random(seed)
    specs = [[] for _ in range(clients)]
    for i in range(tasks):
        specs[i % clients].append({
            "benchmark": rng.choice(("Alpha", "Beta", "Gamma", "Delta")),
            "nodes": rng.choice((1, 2, 4, 8)),
            "scale": rng.choice((0.25, 0.5, 0.75, 1.0))})
    return specs


def seeded_envelopes(seed, tasks):
    specs = seeded_specs(seed, tasks)
    packers = [ServiceClient(None, f"client{c}", suite=StubSuite())
               for c in range(len(specs))]
    return [packers[c].make_envelope(**spec)
            for c in range(len(specs)) for spec in specs[c]]


def seeded_records(seed, count):
    """Records over 12 series, appended in a seeded interleaving."""
    rng = random.Random(seed)
    shapes = [(f"app{i:02d}", nodes) for i in range(3)
              for nodes in (1, 4, 16, 64)]
    out = []
    for k in range(count):
        name, nodes = rng.choice(shapes)
        out.append(RunRecord(
            benchmark=name,
            params={"study": "perf", "nodes": nodes, "scale": 0.5},
            fom_seconds=rng.uniform(10.0, 500.0),
            foms={"efficiency": rng.random()}, vmpi_mode="event",
            machine="JUWELS Booster", machine_hash="perfbench",
            code=f"commit{k:04d}", seed=rng.choice((None, seed)),
            volatile={"wall_seconds": rng.random()}))
    return out


def seeded_db(seed, count, path):
    HistoryStore(path).extend(seeded_records(seed, count))
    return path


@pytest.mark.parametrize("seed", [1, 2024])
def test_memoised_record_keys_equal_recomputed_ones(seed, tmp_path):
    store = HistoryStore(seeded_db(seed, 300, tmp_path / "db.jsonl"))
    for rec in store.records:
        fresh = RunRecord.from_line(rec.to_line())
        for r in (rec, fresh):
            assert r.series_key == oracle_series_key(rec)
            assert r.record_key == oracle_record_key(rec)
    # the export is built from memoised keys and equals one built from
    # fresh objects
    again = HistoryStore()
    for rec in store.records:
        again._adopt(RunRecord.from_line(rec.to_line()))
    assert again.canonical_export() == store.canonical_export()


@pytest.mark.parametrize("seed", [1, 2024])
def test_memoised_task_ids_equal_recomputed_ones(seed):
    for env in seeded_envelopes(seed, 400):
        assert env.task_id == oracle_task_id(env)
        fresh = TaskEnvelope.from_wire(env.to_wire())   # re-derives the id
        assert fresh.task_id == env.task_id and fresh == env


def test_new_envelopes_get_new_ids():
    env = seeded_envelopes(3, 1)[0]
    before = env.task_id
    moved = env.with_seq(env.seq + 1)
    assert moved.task_id != before and moved.task_id == oracle_task_id(moved)
    other = dataclasses.replace(env, client="someone-else")
    assert other.task_id != before and other.task_id == oracle_task_id(other)
    assert env.task_id == before
    with pytest.raises(dataclasses.FrozenInstanceError):
        env.seq = 9


#: every field the two record keys are computed from, with a new value
IDENTITY_EDITS = {"benchmark": "Other", "params": {"nodes": 2},
                  "machine_hash": "elsewhere", "vmpi_mode": "step",
                  "code": "another-commit", "code_version": "v2", "seed": 99}


@pytest.mark.parametrize("name", IDENTITY_EDITS)
def test_assigning_an_identity_field_never_leaves_a_stale_key(name):
    rec = seeded_records(5, 1)[0]
    series, record_key = rec.series_key, rec.record_key   # memoised now
    setattr(rec, name, IDENTITY_EDITS[name])
    assert rec.series_key == oracle_series_key(rec)
    assert rec.record_key == oracle_record_key(rec)
    assert rec.record_key != record_key
    if name in ("benchmark", "params", "machine_hash", "vmpi_mode"):
        assert rec.series_key != series


def test_other_fields_keep_the_keys_and_keys_cannot_be_assigned():
    rec = seeded_records(6, 1)[0]
    keys = rec.series_key, rec.record_key
    rec.seq = 41
    rec.volatile = {"host": "x"}
    rec.fom_seconds = 12.0
    assert (rec.series_key, rec.record_key) == keys
    for derived in ("series_key", "record_key", "value"):
        with pytest.raises(AttributeError):
            setattr(rec, derived, "forged")
    assert (rec.series_key, rec.record_key) == keys


def test_pickle_round_trip_keeps_keys_and_equality():
    rec = seeded_records(7, 1)[0]
    env = seeded_envelopes(7, 1)[0]
    cold = pickle.loads(pickle.dumps(rec)), pickle.loads(pickle.dumps(env))
    rec.record_key, env.task_id                           # memoise
    warm = pickle.loads(pickle.dumps(rec)), pickle.loads(pickle.dumps(env))
    for r, e in (cold, warm):
        assert r == rec and e == env
        assert (r.series_key, r.record_key) == (rec.series_key,
                                                rec.record_key)
        assert e.task_id == env.task_id
    r.params = {"nodes": 3}            # an unpickled record still drops them
    assert r.series_key == oracle_series_key(r) != rec.series_key


def test_serialised_forms_equal_the_oracles():
    for rec in seeded_records(8, 40):
        line = rec.to_line()
        assert line["series_key"] == oracle_series_key(rec)
        assert line["record_key"] == oracle_record_key(rec)
        assert rec.canonical() == {k: v for k, v in line.items()
                                   if k != "volatile"}
    for env in seeded_envelopes(8, 40):
        assert env.to_wire()["task_id"] == oracle_task_id(env)


def test_result_export_carries_the_oracle_task_ids():
    envelopes = seeded_envelopes(9, 64)
    direct = execute_direct(envelopes, suite=StubSuite())
    finals = json.loads(direct.canonical_export())["results"]
    assert sorted(r["task_id"] for r in finals) == \
        sorted(oracle_task_id(env) for env in envelopes)


# -- (d) count guards in a fresh interpreter ----------------------------------

def closed_loop(specs, clients, service):
    """Each client submits its next spec once the previous one resolved."""
    cursors = [0] * len(clients)
    last = [None] * len(clients)
    remaining = sum(len(s) for s in specs)
    while remaining:
        for c, client in enumerate(clients):
            if cursors[c] == len(specs[c]):
                continue
            if last[c] is not None and not last[c].done():
                continue
            spec = dict(specs[c][cursors[c]])
            last[c] = client.submit(spec.pop("benchmark"), **spec)
            cursors[c] += 1
            remaining -= 1
        service.step()
    service.drain()


def count_hashes(tasks, records, keep, work):
    """``stable_hash`` calls per phase; run in a fresh interpreter by
    :func:`test_each_content_address_is_computed_once_per_object`."""
    # (``repro.history.record`` the attribute is the ``record`` function)
    record_module = importlib.import_module("repro.history.record")
    envelope_module = importlib.import_module("repro.service.envelope")
    calls = {"n": 0}

    def counting(obj):
        calls["n"] += 1
        return stable_hash(obj)

    db = seeded_db(11, records, Path(work) / "db.jsonl")
    envelope_module.stable_hash = counting
    record_module.stable_hash = counting
    counts = {}

    suite = StubSuite()
    service = BenchmarkService()
    cache = MemoryCache()
    for i in range(2):
        service.register_endpoint(LocalEndpoint(
            f"ep{i}", suite=suite,
            engine=ExecutionEngine(workers=1, cache=cache),
            capabilities=Capabilities(workers=1)))
    clients = [ServiceClient(service, f"client{c}", suite=suite)
               for c in range(8)]
    calls["n"] = 0
    closed_loop(seeded_specs(11, tasks), clients, service)
    assert service.store.counts() == {"ok": tasks}
    counts["loop"] = calls["n"]

    calls["n"] = 0
    HistoryStore(db).canonical_export()
    counts["open_export"] = calls["n"]
    calls["n"] = 0
    HistoryStore(db).compact(keep, Path(work) / "compacted.jsonl")
    counts["open_compact"] = calls["n"]
    return counts


def test_each_content_address_is_computed_once_per_object(tmp_path):
    tasks, records = 200, 240
    code = ("import json\n"
            "from tests.test_content_address import count_hashes\n"
            f"print(json.dumps(count_hashes({tasks}, {records}, 5, "
            f"{str(tmp_path)!r})))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    # before memoisation: 4 per task, 9 and 8.25 per record
    assert counts["loop"] == tasks
    assert records <= counts["open_export"] <= 2 * records
    assert records <= counts["open_compact"] <= 2 * records
