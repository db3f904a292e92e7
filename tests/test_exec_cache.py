"""Tests of the content-addressed result cache (repro.exec.cache):
key stability, memory/disk backends and statistics."""

import json

import pytest

from repro.core import MemoryVariant
from repro.exec import (
    CODE_VERSION,
    DiskCache,
    MemoryCache,
    result_key,
    stable_hash,
)


class TestStableHash:
    def test_dict_order_irrelevant(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_tuple_and_list_equivalent(self):
        assert stable_hash((1, 2, 3)) == stable_hash([1, 2, 3])

    def test_sets_are_canonicalised(self):
        assert stable_hash({"x", "y", "z"}) == stable_hash({"z", "y", "x"})

    def test_enum_hashes_as_value(self):
        assert stable_hash(MemoryVariant.SMALL) == stable_hash("S")

    def test_distinct_values_distinct_hashes(self):
        seen = {stable_hash(v) for v in
                (1, 1.0, "1", True, None, [1], {"1": 1})}
        # int 1 / True and float 1.0 may only collide via canonical JSON;
        # repr(1.0) = '1.0' != 1, and True is bool -> kept as true
        assert len(seen) >= 5

    def test_nested_stability(self):
        a = {"p": {"nodes": 8, "variant": None}, "t": (1, 2)}
        b = {"t": [1, 2], "p": {"variant": None, "nodes": 8}}
        assert stable_hash(a) == stable_hash(b)


class TestResultKey:
    def test_deterministic(self):
        k1 = result_key("Arbor", {"nodes": 8}, platform="JUWELS Booster")
        k2 = result_key("Arbor", {"nodes": 8}, platform="JUWELS Booster")
        assert k1 == k2
        assert k1.startswith("Arbor-")

    def test_every_component_enters_the_key(self):
        base = result_key("Arbor", {"nodes": 8}, platform="A", version="v1")
        assert result_key("nekRS", {"nodes": 8}, platform="A",
                          version="v1") != base
        assert result_key("Arbor", {"nodes": 16}, platform="A",
                          version="v1") != base
        assert result_key("Arbor", {"nodes": 8}, platform="B",
                          version="v1") != base
        assert result_key("Arbor", {"nodes": 8}, platform="A",
                          version="v2") != base

    def test_default_version_is_code_version(self):
        assert result_key("X", {}) == result_key("X", {},
                                                 version=CODE_VERSION)

    def test_key_is_filename_safe(self):
        key = result_key("Quantum Espresso", {"nodes": 8})
        assert "/" not in key and " " not in key


class TestMemoryCache:
    def test_miss_then_hit(self):
        cache = MemoryCache()
        assert cache.get("k") == (False, None)
        cache.put("k", 42)
        assert cache.get("k") == (True, 42)
        assert cache.stats.snapshot() == {"hits": 1, "misses": 1,
                                          "stores": 1}
        assert cache.stats.hit_rate == 0.5

    def test_stores_rich_objects_unencoded(self):
        cache = MemoryCache()
        obj = object()
        cache.put("k", obj)
        assert cache.get("k")[1] is obj

    def test_clear(self):
        cache = MemoryCache()
        cache.put("k", 1)
        cache.clear()
        assert len(cache) == 0


class TestDiskCache:
    def test_roundtrip_and_persistence(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("k1", {"fom": 1.25, "nodes": 8})
        assert cache.get("k1") == (True, {"fom": 1.25, "nodes": 8})
        # a fresh instance over the same directory sees the entry
        reopened = DiskCache(tmp_path)
        assert reopened.get("k1") == (True, {"fom": 1.25, "nodes": 8})
        assert reopened.stats.hits == 1

    def test_float_roundtrip_exact(self, tmp_path):
        cache = DiskCache(tmp_path)
        value = 0.1 + 0.2          # a float that doesn't print prettily
        cache.put("f", value)
        assert cache.get("f")[1] == value

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("k", 1)
        (tmp_path / "k.json").write_text("{not json")
        assert cache.get("k") == (False, None)

    @pytest.mark.parametrize("content", [
        '{"key": "k", "val', "[]", '"value"', "7", "null", '{"key": "k"}',
    ], ids=["torn", "list", "string", "number", "null", "no-value"])
    def test_torn_or_wrong_shaped_entry_is_a_dropped_miss(self, tmp_path,
                                                          content):
        """Anything that does not decode to ``{"value": ...}`` is a miss;
        the entry is dropped so the recomputed value can replace it."""
        cache = DiskCache(tmp_path)
        cache.put("k", 1)
        (tmp_path / "k.json").write_text(content)
        assert cache.get("k") == (False, None)
        assert not (tmp_path / "k.json").exists() and len(cache) == 0
        cache.put("k", 2)
        assert DiskCache(tmp_path).get("k") == (True, 2)

    def test_suite_recomputes_a_wrong_shaped_entry(self, tmp_path, capsys):
        """``jubench suite --cache-dir D`` with one entry overwritten by
        ``[]``: the same stdout as the cold run, and the entry rewritten."""
        from repro.cli import main

        argv = ["suite", "--benchmarks", "Arbor,STREAM", "--cache-dir",
                str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        entry = sorted(tmp_path.glob("Arbor-*.json"))[0]
        written = entry.read_text()
        entry.write_text("[]")
        assert main(argv) == 0
        assert capsys.readouterr().out == cold
        assert entry.read_text() == written

    def test_values_stored_as_json(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("k", [1, 2.5, "x"])
        payload = json.loads((tmp_path / "k.json").read_text())
        assert payload == {"key": "k", "value": [1, 2.5, "x"]}

    def test_clear(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0
        assert not list(tmp_path.glob("*.json"))


def test_a_changed_machine_model_misses_the_disk_cache(tmp_path,
                                                       monkeypatch, capsys):
    """The result key hashes the machine configuration, not its name:
    after halving the A100's memory bandwidth a warm ``--cache-dir``
    run recomputes and prints what an uncached run prints (it used to
    replay the results of the old machine)."""
    from dataclasses import replace

    from repro.cli import main
    from repro.cluster import hardware

    def run(*extra):
        assert main(["suite", "--benchmarks", "STREAM,Arbor", *extra]) == 0
        return capsys.readouterr().out

    cache = str(tmp_path / "cache")
    before = run("--cache-dir", cache)
    assert run("--cache-dir", cache) == before          # a plain warm hit
    monkeypatch.setattr(hardware, "A100", replace(
        hardware.A100, mem_bandwidth=hardware.A100.mem_bandwidth / 2))
    warm = run("--cache-dir", cache)
    assert warm == run("--no-cache")
    assert warm != before
