"""The content-addressed result cache: keying, LRU tier, disk tier."""

from __future__ import annotations

from repro import encode_program
from repro.service.cache import ResultCache, cache_key
from repro.service.jobs import JobSpec
from repro.service.telemetry import Registry
from tests.conftest import build_tiny_program

DIGEST = "ab" * 32


def spec(**kwargs):
    kwargs.setdefault("benchmark", "antlr")
    kwargs.setdefault("analysis", "insens")
    return JobSpec(**kwargs)


class TestCacheKey:
    def test_deterministic(self):
        assert cache_key(DIGEST, spec()) == cache_key(DIGEST, spec())

    def test_depends_on_facts_digest(self):
        real = encode_program(build_tiny_program()).digest()
        assert cache_key(real, spec()) != cache_key(DIGEST, spec())

    def test_depends_on_analysis_and_budget(self):
        base = cache_key(DIGEST, spec())
        assert cache_key(DIGEST, spec(analysis="2objH")) != base
        assert cache_key(DIGEST, spec(max_tuples=10)) != base
        assert cache_key(DIGEST, spec(max_seconds=1.0)) != base

    def test_depends_on_heuristic(self):
        a = cache_key(DIGEST, spec(introspective="A"))
        b = cache_key(DIGEST, spec(introspective="B"))
        assert a != b
        assert cache_key(
            DIGEST, spec(introspective="A", heuristic_constants="1,2,3")
        ) != a

    def test_constants_are_normalized(self):
        """Whitespace and explicit defaults key identically."""
        assert cache_key(
            DIGEST, spec(introspective="B", heuristic_constants="5,7")
        ) == cache_key(
            DIGEST, spec(introspective="B", heuristic_constants=" 5 , 7 ")
        )
        assert cache_key(DIGEST, spec(introspective="A")) == cache_key(
            DIGEST, spec(introspective="A", heuristic_constants="100,100,200")
        )

    def test_trace_flag_is_part_of_the_key(self):
        # Traced payloads carry an extra section; they must never be
        # served to (or seeded from) untraced requests.
        assert cache_key(DIGEST, spec(trace=True)) != cache_key(DIGEST, spec())

    def test_priority_is_not_part_of_the_key(self):
        assert cache_key(DIGEST, spec(priority=9)) == cache_key(DIGEST, spec())


class TestMemoryTier:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        assert cache.get("k") is None
        cache.put("k", {"state": "done"})
        assert cache.get("k") == {"state": "done"}

    def test_returned_payload_is_a_copy(self):
        cache = ResultCache(capacity=4)
        cache.put("k", {"state": "done"})
        cache.get("k")["state"] = "mutated"
        assert cache.get("k")["state"] == "done"

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        cache.get("a")  # refresh a; b becomes LRU
        cache.put("c", {"v": 3})
        assert cache.get("b") is None
        assert cache.get("a") == {"v": 1}
        assert cache.get("c") == {"v": 3}
        assert len(cache) == 2

    def test_hit_miss_counters(self):
        reg = Registry()
        hits = reg.counter("hits", "h")
        misses = reg.counter("misses", "m")
        cache = ResultCache(capacity=2, hits=hits, misses=misses)
        cache.get("nope")
        cache.put("k", {})
        cache.get("k")
        assert misses.total() == 1
        assert hits.value(tier="memory") == 1


class TestDiskTier:
    def test_survives_a_new_instance(self, tmp_path):
        first = ResultCache(capacity=2, cache_dir=str(tmp_path))
        first.put("deadbeef", {"state": "done", "answer": 42})
        fresh = ResultCache(capacity=2, cache_dir=str(tmp_path))
        assert fresh.get("deadbeef") == {"state": "done", "answer": 42}

    def test_disk_hit_counts_and_promotes(self, tmp_path):
        reg = Registry()
        hits = reg.counter("hits", "h")
        seeded = ResultCache(capacity=2, cache_dir=str(tmp_path))
        seeded.put("k", {"v": 1})
        fresh = ResultCache(capacity=2, cache_dir=str(tmp_path), hits=hits)
        fresh.get("k")
        fresh.get("k")
        assert hits.value(tier="disk") == 1
        assert hits.value(tier="memory") == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(capacity=2, cache_dir=str(tmp_path))
        (tmp_path / "bad.json").write_text("{not json")
        assert cache.get("bad") is None

    def test_no_disk_dir_means_memory_only(self, tmp_path):
        cache = ResultCache(capacity=1)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})  # evicts a; nothing on disk to recover
        assert cache.get("a") is None

    def test_clear_drops_the_disk_tier_too(self, tmp_path):
        # Regression: clear() used to empty only the memory tier, so the
        # next get() resurrected every "cleared" entry from its JSON file.
        cache = ResultCache(capacity=2, cache_dir=str(tmp_path))
        cache.put("k1", {"v": 1})
        cache.put("k2", {"v": 2})
        assert list(tmp_path.glob("*.json"))
        cache.clear()
        assert len(cache) == 0
        assert not list(tmp_path.glob("*.json"))
        assert cache.get("k1") is None
        assert cache.get("k2") is None

    def test_clear_without_disk_dir(self):
        cache = ResultCache(capacity=2)
        cache.put("k", {"v": 1})
        cache.clear()
        assert cache.get("k") is None

    def test_failed_disk_write_leaves_no_tmp_debris(self, tmp_path, monkeypatch):
        # Regression: put() used to mkstemp and then leak the temp file
        # whenever the dump or the rename failed, littering the cache
        # directory with orphaned *.tmp files forever.
        cache = ResultCache(capacity=4, cache_dir=str(tmp_path))

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.service.cache.os.replace", exploding_replace)
        cache.put("k1", {"v": 1})
        monkeypatch.undo()
        # An unserializable payload fails inside json.dump instead.
        cache.put("k2", {"v": object()})
        assert not list(tmp_path.glob("*.tmp"))
        # The memory tier still holds both entries (disk is best-effort).
        assert cache.get("k1") == {"v": 1}

    def test_failed_disk_write_is_logged_and_counted(
        self, tmp_path, monkeypatch, caplog
    ):
        errors = Registry().counter("errors", "e")
        cache = ResultCache(capacity=4, cache_dir=str(tmp_path), errors=errors)

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.service.cache.os.replace", exploding_replace)
        cache.put("k1", {"v": 1})
        assert errors.value(op="put") == 1
        assert "result-cache put failed" in caplog.text
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_clear_unlink_is_logged_and_counted(
        self, tmp_path, monkeypatch, caplog
    ):
        errors = Registry().counter("errors", "e")
        cache = ResultCache(capacity=4, cache_dir=str(tmp_path), errors=errors)
        cache.put("k1", {"v": 1})
        cache.put("k2", {"v": 2})

        def exploding_unlink(self, missing_ok=False):
            raise OSError("read-only file system")

        monkeypatch.setattr("repro.service.cache.Path.unlink", exploding_unlink)
        cache.clear()
        assert errors.value(op="clear") == 2
        assert caplog.text.count("result-cache clear failed") == 2
        assert len(cache) == 0  # the memory tier is gone regardless

    def test_concurrent_clear_does_not_resurrect_from_disk(
        self, tmp_path, monkeypatch
    ):
        # Regression: get() promoted a disk read into the memory tier
        # without noticing that clear() had run in between, resurrecting
        # an entry the caller had just invalidated.  The interleaving:
        # get() misses memory, reads the JSON file, then — before the
        # promotion — clear() wipes both tiers.
        cache = ResultCache(capacity=4, cache_dir=str(tmp_path))
        cache.put("k", {"v": 1})
        # Force the next get to take the disk path.
        with cache._lock:
            cache._memory.clear()

        original = cache._load_disk

        def load_then_lose_the_race(key):
            payload = original(key)
            cache.clear()  # the concurrent clear lands mid-get
            return payload

        monkeypatch.setattr(cache, "_load_disk", load_then_lose_the_race)
        # The in-flight get may still return the value it already read …
        assert cache.get("k") == {"v": 1}
        monkeypatch.undo()
        # … but it must NOT have re-populated the cleared memory tier.
        assert len(cache) == 0
        assert cache.get("k") is None
