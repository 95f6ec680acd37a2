"""Tests for repro.lru: the one byte-budgeted, build-once LRU behind the
pack store, the reference-index cache and the serve daemon."""

import random
import sys
import threading
import time

import pytest

from repro import perf
from repro.lru import LRU


def _lru(max_bytes):
    return LRU(max_bytes, evictions="lru.evictions")


class TestEvictionRule:
    def test_eviction_order_and_byte_accounting(self):
        cache = _lru(100)
        cache.put("a", "A", 40)
        cache.put("b", "B", 40)
        assert cache.nbytes == 80
        assert cache.get("a") == "A"  # a hit moves "a" to the tail
        with perf.recording() as recorder:
            cache.put("c", "C", 40)  # 120 > 100: the oldest, "b", goes
        assert recorder.counters["lru.evictions"] == 1
        assert list(cache._entries) == ["a", "c"]
        assert cache.nbytes == 80
        cache.put("d", "D", 100)  # evicts everything older
        assert list(cache._entries) == ["d"]
        assert cache.nbytes == 100
        assert cache.stats.evictions == 3
        assert cache.stats.current_bytes == 100

    def test_oversize_entry_is_returned_not_kept(self):
        cache = _lru(100)
        cache.put("a", "A", 60)
        with perf.recording() as recorder:
            assert cache.put("big", "BIG", 101) == "BIG"
        assert "big" not in cache
        assert list(cache._entries) == ["a"]
        assert cache.nbytes == 60
        assert cache.stats.evictions == 0
        assert "lru.evictions" not in recorder.counters

    def test_budget_zero_keeps_nothing(self):
        cache = _lru(0)
        assert cache.put("a", "A", 0) == "A"
        assert cache.get_or_build("b", lambda: "B", lambda _v: 0,
                                  "lru") == "B"
        assert len(cache) == 0
        assert cache.nbytes == 0
        assert not cache._build_locks

    def test_existing_entry_wins_a_put(self):
        cache = _lru(100)
        cache.put("a", "first", 30)
        cache.put("b", "B", 30)
        # The losing put still counts as a use: "b" is now the oldest.
        assert cache.put("a", "second", 50) == "first"
        assert cache.nbytes == 60
        cache.put("c", "C", 50)
        assert list(cache._entries) == ["a", "c"]
        assert cache.get("a") == "first"

    def test_pop_uncharges(self):
        cache = _lru(100)
        cache.put("a", "A", 30)
        cache.put("b", "B", 20)
        assert cache.pop("a") == "A"
        assert cache.nbytes == 20
        assert cache.pop("a") is None
        assert cache.nbytes == 20
        assert cache.stats.lookups == 0  # pop is not a lookup

    def test_contains_is_neither_a_lookup_nor_a_use(self):
        cache = _lru(100)
        cache.put("a", "A", 50)
        cache.put("b", "B", 50)
        assert "a" in cache and "z" not in cache
        assert cache.stats.lookups == 0
        cache.put("c", "C", 50)  # "a" is still the oldest
        assert list(cache._entries) == ["b", "c"]

    def test_get_counts_hits_and_misses(self):
        cache = _lru(100)
        cache.put("a", "A", 10)
        assert cache.get("a") == "A"
        assert cache.get("z") is None
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.hit_rate) == (1, 1, 0.5)

    def test_clear_drops_entries_keeps_counters(self):
        cache = _lru(100)
        cache.put("a", "A", 10)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.nbytes == 0
        assert cache.stats.hits == 1


class TestBuildOnce:
    def test_get_or_build_counts_under_its_counter(self):
        cache = _lru(100)
        with perf.recording() as recorder:
            assert cache.get_or_build("k", lambda: "V", lambda _v: 10,
                                      "x") == "V"
            assert cache.get_or_build("k", lambda: "W", lambda _v: 10,
                                      "x") == "V"
        assert recorder.counters["x.misses"] == 1
        assert recorder.counters["x.hits"] == 1
        assert cache.nbytes == 10

    def test_one_build_per_key_across_8_threads(self):
        cache = _lru(1 << 20)
        barrier = threading.Barrier(8)
        builds = []
        results = []

        def build():
            builds.append(1)
            time.sleep(0.05)  # let every other thread reach the key lock
            return object()

        def fetch():
            barrier.wait()
            results.append(cache.get_or_build("k", build, lambda _v: 1,
                                              "lru"))

        threads = [threading.Thread(target=fetch) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
            assert not t.is_alive()
        assert len(builds) == 1
        assert len(results) == 8
        assert all(r is results[0] for r in results)
        stats = cache.stats
        assert (stats.misses, stats.hits) == (1, 7)

    def test_slow_build_does_not_delay_a_hit_on_another_key(self):
        cache = _lru(1 << 20)
        cache.put("b", "B", 1)
        started, release = threading.Event(), threading.Event()

        def slow():
            started.set()
            release.wait(10)
            return "A"

        slow_thread = threading.Thread(target=cache.get_or_build,
                                   args=("a", slow, lambda _v: 1, "lru"))
        slow_thread.start()
        try:
            assert started.wait(10)
            t0 = time.perf_counter()
            assert cache.get_or_build("b", lambda: "never", lambda _v: 1,
                                      "lru") == "B"
            assert cache.get("b") == "B"
            assert time.perf_counter() - t0 < 2.0
            assert slow_thread.is_alive()  # the slow build is still running
        finally:
            release.set()
            slow_thread.join(30)
        assert not slow_thread.is_alive()
        assert cache.get("a") == "A"

    def test_stress_keeps_its_accounts(self):
        # More threads than cores, switching often: get_or_build, get,
        # put and pop race over a few keys under a budget that keeps
        # evicting.  A lost update shows as a wrong value, charged bytes
        # that disagree with the entries, or a build lock that outlives
        # its entry.
        cache = _lru(100)
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(400):
                    key, op = rng.randrange(6), rng.random()
                    if op < 0.6:
                        value = cache.get_or_build(
                            key, lambda: key, lambda _v: 30, "lru")
                    elif op < 0.8:
                        value = cache.get(key)
                    elif op < 0.9:
                        value = cache.put(key, key, 30)
                    else:
                        value = cache.pop(key)
                    assert value in (key, None)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert not errors
        assert cache.nbytes == sum(n for _v, n in cache._entries.values())
        assert cache.nbytes <= cache.max_bytes
        assert set(cache._build_locks) <= set(cache._entries)
        assert cache.stats.evictions > 0

    def test_raising_build_leaves_no_lock_and_the_next_call_rebuilds(self):
        cache = _lru(100)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("build failed")
            return "V"

        with pytest.raises(RuntimeError):
            cache.get_or_build("k", flaky, lambda _v: 1, "lru")
        assert not cache._build_locks
        assert "k" not in cache
        assert cache.get_or_build("k", flaky, lambda _v: 1, "lru") == "V"
        assert len(calls) == 2
        assert cache.stats.misses == 2
        assert "k" in cache

    # The next three came from tests/test_pipeline.py, where they drove
    # the same lock map through ReferenceIndexCache.

    def test_build_lock_map_is_bounded_by_entries(self):
        # Regression: per-key build locks must die with their entries.
        # Churning many distinct keys through a small budget used to
        # leave one lock behind per key ever seen — a leak on a
        # long-lived daemon serving an open-ended key space.
        cache = _lru(150_000)
        for key in range(50):
            cache.get_or_build(key, bytes, lambda _v: 72_000, "lru")
        assert len(cache._build_locks) <= len(cache._entries)
        assert len(cache._build_locks) < 50

    def test_oversized_artifact_leaves_no_lock_behind(self):
        cache = _lru(1)
        for key in range(10):
            cache.get_or_build(key, bytes, lambda _v: 2, "lru")
        assert len(cache._entries) == 0
        assert len(cache._build_locks) == 0

    def test_clear_drops_build_locks(self):
        cache = _lru(1 << 20)
        cache.get_or_build("k", bytes, lambda _v: 1_000, "lru")
        assert len(cache._build_locks) == 1
        cache.clear()
        assert len(cache._build_locks) == 0
