"""The ``repro.store`` contract suite.

Covers the pack store end to end: ≥50 versions across ≥3 packages
round-tripping byte-exact through publish/close/reopen, similarity-
grouped base selection with its delta-vs-full fallback and chain-depth
limit, chain collapse (a client K versions behind gets ONE composed
in-place delta, asserted via perf counters), gc/repack semantics, and
the :class:`~repro.store.VersionStore` protocol conformance shared by
:class:`~repro.store.MemoryStore` and
:class:`~repro.store.PackStore` — including the documented
``latest``-ordering contract.

Crash-safety (torn packs, stale indexes, repair) lives in
``tests/test_store_crash.py``.
"""

import asyncio
import os
import random
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

import repro
from repro import perf
from repro.delta import DEFAULT_SEED_LENGTH
from repro.exceptions import StoreError
from repro.serve import DeltaServer, ServeConfig, pull_async, run_load_async
from repro.store import (
    MemoryStore,
    PackStore,
    StoreConfig,
    VersionStore,
    content_digest,
)
from repro.store.pack import STORED_DELTA, STORED_FULL
from repro.store.packstore import LOCK_NAME
from repro.workloads import make_binary_blob, mutate

SEED = 19980601

#: fsync off: these tests hammer publish in loops and the durability
#: path itself is exercised by tests/test_store_crash.py.
FAST = StoreConfig(fsync=False)


def _publish_chain(store, package, rng, releases, size=8192):
    """Publish a mutate-derived release chain; returns [(digest, bytes)]."""
    image = make_binary_blob(rng, size)
    chain = []
    for _ in range(releases):
        digest = store.publish(package, image)
        chain.append((digest, bytes(image)))
        image = mutate(image, rng)
    return chain


class TestStoreConfig:
    def test_defaults_validate(self):
        StoreConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"algorithm": "magic"},
        {"max_chain_depth": 0},
        {"delta_max_ratio": 0.0},
        {"delta_max_ratio": 1.5},
        {"min_delta_size": -1},
        {"similarity_window": 0},
        {"delta_max_ratio": float("nan")},
        {"max_chain_depth": -1},
        {"cache_bytes": -1},
    ])
    def test_nonsense_rejected(self, kwargs):
        with pytest.raises(ValueError):
            StoreConfig(**kwargs).validate()

    def test_frozen(self):
        with pytest.raises(AttributeError):
            StoreConfig().max_chain_depth = 3


class TestLifecycle:
    def test_init_twice_refuses(self, tmp_path):
        PackStore.init(tmp_path / "s", FAST)
        with pytest.raises(StoreError) as exc:
            PackStore.init(tmp_path / "s", FAST)
        assert exc.value.kind == "pack"

    def test_open_uninitialized_refuses(self, tmp_path):
        with pytest.raises(StoreError) as exc:
            PackStore(tmp_path / "nowhere")
        assert exc.value.kind == "pack"
        assert "store init" in str(exc.value)

    def test_empty_store_shape(self, tmp_path):
        store = PackStore.init(tmp_path / "s", FAST)
        assert store.packages() == []
        assert "pkg" not in store
        assert store.generation == 1
        assert store.fsck().ok

    def test_unknown_package_and_digest_raise_keyerror(self, tmp_path):
        store = PackStore.init(tmp_path / "s", FAST)
        store.publish("pkg", b"x" * 512)
        with pytest.raises(KeyError):
            store.latest("nope")
        with pytest.raises(KeyError):
            store.get("pkg", "0" * 40)


class TestRoundTrip:
    """The acceptance bar: ≥50 versions, ≥3 packages, byte-exact."""

    PACKAGES = 3
    RELEASES = 17  # 3 x 17 = 51 versions

    @pytest.fixture(scope="class")
    def populated(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("roundtrip") / "store"
        store = PackStore.init(root, FAST)
        rng = random.Random(SEED)
        chains = {}
        for p in range(self.PACKAGES):
            package = "pkg%02d" % p
            chains[package] = _publish_chain(store, package, rng,
                                             self.RELEASES, size=4096)
        store.close()
        return root, chains

    def test_every_version_survives_reopen_byte_exact(self, populated):
        root, chains = populated
        store = PackStore(root, FAST)
        assert store.damage == []
        for package, chain in chains.items():
            assert store.versions(package) == [d for d, _ in chain]
            for digest, image in chain:
                assert store.get(package, digest) == image
            digest, latest = store.latest(package)
            assert (digest, latest) == chain[-1]

    def test_fsck_verifies_all_versions(self, populated):
        root, chains = populated
        store = PackStore(root, FAST)
        report = store.fsck()
        assert report.ok
        assert report.packages == self.PACKAGES
        assert report.versions == self.PACKAGES * self.RELEASES
        assert report.verified == report.versions
        assert report.versions >= 50

    def test_deltification_actually_compresses(self, populated):
        root, chains = populated
        store = PackStore(root, FAST)
        stats = store.stats()
        assert stats["delta_objects"] > stats["full_objects"]
        assert stats["stored_bytes"] < stats["object_bytes"] // 2
        assert stats["max_depth"] <= store.config.max_chain_depth
        for package in chains:
            for entry in store.log(package)[1:]:
                if entry["stored"] == STORED_DELTA:
                    assert entry["base"]
                    assert entry["depth"] >= 1

    def test_gc_is_byte_stable_and_bumps_generation(self, populated,
                                                    tmp_path):
        root, chains = populated
        import shutil
        work = tmp_path / "store"
        shutil.copytree(root, work)
        store = PackStore(work, FAST)
        old_pack = store.pack_path
        report = store.gc()
        assert report.objects_after == report.objects_before
        assert report.dropped_versions == 0
        assert store.generation == 2
        assert not old_pack.exists()
        for package, chain in chains.items():
            for digest, image in chain:
                assert store.get(package, digest) == image
        assert store.fsck().ok


class TestBaseSelection:
    def test_similar_versions_deltify_dissimilar_store_full(self, tmp_path):
        store = PackStore.init(tmp_path / "s", FAST)
        rng = random.Random(SEED)
        base = make_binary_blob(rng, 8192)
        with perf.recording() as recorder:
            store.publish("pkg", base)
            store.publish("pkg", mutate(base, rng))
            # An unrelated blob: no probe lands, similarity gating
            # stores it full even though the log has candidates.
            store.publish("pkg", make_binary_blob(rng, 8192))
        log = store.log("pkg")
        assert [e["stored"] for e in log] == [
            STORED_FULL, STORED_DELTA, STORED_FULL]
        assert log[1]["base"] == log[0]["digest"]
        assert recorder.counters["store.publish.delta"] == 1
        assert recorder.counters["store.publish.full"] == 2

    def test_delta_vs_full_ratio_fallback(self, tmp_path):
        # A ratio no real delta beats: similar bytes still store full,
        # through the explicit fallback path (Snippet-1 style).
        cfg = StoreConfig(fsync=False, delta_max_ratio=0.001)
        store = PackStore.init(tmp_path / "s", cfg)
        rng = random.Random(SEED)
        base = make_binary_blob(rng, 8192)
        with perf.recording() as recorder:
            store.publish("pkg", base)
            store.publish("pkg", mutate(base, rng))
        assert recorder.counters["store.publish.fallback"] == 1
        assert [e["stored"] for e in store.log("pkg")] == [
            STORED_FULL, STORED_FULL]

    def test_min_delta_size_stores_small_images_full(self, tmp_path):
        cfg = StoreConfig(fsync=False, min_delta_size=100_000)
        store = PackStore.init(tmp_path / "s", cfg)
        rng = random.Random(SEED)
        base = make_binary_blob(rng, 4096)
        store.publish("pkg", base)
        store.publish("pkg", mutate(base, rng))
        assert all(e["stored"] == STORED_FULL for e in store.log("pkg"))

    def test_chain_depth_limit_bounds_every_chain(self, tmp_path):
        cfg = StoreConfig(fsync=False, max_chain_depth=2,
                          similarity_window=2)
        store = PackStore.init(tmp_path / "s", cfg)
        rng = random.Random(SEED)
        with perf.recording() as recorder:
            _publish_chain(store, "pkg", rng, 10)
        assert store.stats()["max_depth"] <= 2
        assert all(e["depth"] <= 2 for e in store.log("pkg"))
        # The limit actually bit: deep candidates were skipped.
        assert recorder.counters["store.publish.depth_limited"] >= 1
        assert store.fsck().ok

    def test_dedupe_same_bytes_one_object(self, tmp_path):
        store = PackStore.init(tmp_path / "s", FAST)
        blob = b"shared payload " * 100
        with perf.recording() as recorder:
            d1 = store.publish("alpha", blob)
            d2 = store.publish("beta", blob)
        assert d1 == d2 == content_digest(blob)
        assert recorder.counters["store.publish.dedupe"] == 1
        assert store.stats()["objects"] == 1
        assert store.get("alpha", d1) == store.get("beta", d2) == blob


class TestPublishTableReuse:
    """Each publish keeps its package's newest seed table for the next
    diff of that package; pack bytes never depend on it."""

    PACKAGES = ("app", "lib", "fw")
    RELEASES = 14
    #: Depth 3 makes a 14-release train re-base past the depth limit
    #: (a base older than the previous version) and re-anchor full.
    CONFIG = dict(fsync=False, max_chain_depth=3)

    @classmethod
    def _images(cls):
        rng = random.Random(SEED)
        images = {p: [make_binary_blob(rng, 8192)] for p in cls.PACKAGES}
        for package in cls.PACKAGES:
            for _ in range(cls.RELEASES - 1):
                images[package].append(mutate(images[package][-1], rng))
        return images, rng

    @staticmethod
    def _tables(store):
        return {key[1]: value
                for key, (value, _size) in store._cache._entries.items()
                if isinstance(key, tuple) and key[0] == "seed-table"}

    def _run(self, root, fast, **config):
        """Publish the interleaved trains, then a cross-package dedupe
        and one more release, then gc; returns everything observable."""
        images, rng = self._images()
        previous = repro.delta.use_fast_paths(fast)
        try:
            store = PackStore.init(root, StoreConfig(**self.CONFIG, **config))
            newest = {}
            with perf.recording() as recorder:
                for r in range(self.RELEASES):
                    for package in self.PACKAGES:
                        newest[package] = store.publish(
                            package, images[package][r])
                        tables = self._tables(store)
                        assert set(tables) <= set(self.PACKAGES)
                        if package in tables and \
                                store.log(package)[-1]["stored"] \
                                == STORED_DELTA:
                            assert tables[package][0] == newest[package]
            counters = dict(recorder.counters)
            logs = {p: store.log(p) for p in self.PACKAGES}
            shared = store.publish("lib", images["app"][5])
            extra = mutate(images["lib"][-1], rng)
            store.publish("lib", extra)
            assert store.get("lib", shared) == store.get(
                "app", shared) == images["app"][5]
            assert store.latest("lib")[1] == extra
            pack = store.pack_path.read_bytes()
            tail = store.log("lib")[-2:]
            gc = store.gc(keep_last=6).to_json()
            after = (store.pack_path.read_bytes(),
                     {p: store.log(p) for p in self.PACKAGES})
            assert store.fsck().ok
            store.close()
            assert not self._tables(store)
        finally:
            repro.delta.use_fast_paths(previous)
        return counters, logs, pack, tail, gc, after

    @staticmethod
    def _expected_reuses(logs):
        """Delta publishes whose base is the package's previous version,
        itself stored as a delta (so its own publish ran the diff)."""
        count = 0
        for log in logs.values():
            for prev, entry in zip(log, log[1:]):
                if entry["stored"] == STORED_DELTA \
                        and entry["base"] == prev["digest"] \
                        and prev["stored"] == STORED_DELTA:
                    count += 1
        return count

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "scalar"])
    def test_bytes_identical_with_tables_off(self, tmp_path, fast):
        kept = self._run(tmp_path / "kept", fast)
        off = self._run(tmp_path / "off", fast, cache_bytes=0)
        assert kept[1:] == off[1:]
        counters, logs = kept[0], kept[1]
        # The train exercised both depth-limit outcomes.
        kinds = [(e["stored"], e["base"] == p["digest"])
                 for log in logs.values() for p, e in zip(log, log[1:])]
        assert (STORED_FULL, False) in kinds
        assert (STORED_DELTA, False) in kinds
        assert counters.get("store.publish.fallback", 0) == 0
        assert counters["store.publish.table_reused"] \
            == self._expected_reuses(logs) > 0
        assert "store.publish.table_reused" not in off[0]

    def test_bytes_identical_fast_vs_scalar(self, tmp_path):
        fast = self._run(tmp_path / "fast", True)
        scalar = self._run(tmp_path / "scalar", False)
        assert fast[1:] == scalar[1:]
        assert fast[0]["store.publish.table_reused"] \
            == scalar[0]["store.publish.table_reused"]

    def test_close_drops_tables_and_next_publish_diffs_cold(self, tmp_path):
        store = PackStore.init(tmp_path / "s", StoreConfig(**self.CONFIG))
        images, _rng = self._images()
        previous = repro.delta.use_fast_paths(True)
        try:
            for r in range(3):
                store.publish("app", images["app"][r])
        finally:
            repro.delta.use_fast_paths(previous)
        assert set(self._tables(store)) == {"app"}
        # Charged its probe arrays: 2^16 int64 slot offsets plus the
        # 8-byte-per-seed fingerprint array of the version it indexes.
        seeds = len(images["app"][2]) - DEFAULT_SEED_LENGTH + 1
        charged = [size for key, (_v, size) in store._cache._entries.items()
                   if isinstance(key, tuple) and key[0] == "seed-table"]
        assert charged == [(1 << 19) + 8 * seeds] == [594_512]
        store.close()
        assert not self._tables(store) and store._cache.nbytes == 0
        with perf.recording() as recorder:
            store.publish("app", images["app"][3])
        assert "store.publish.table_reused" not in recorder.counters
        assert recorder.counters["store.publish.delta"] == 1
        assert set(self._tables(store)) == {"app"}

    def test_other_algorithms_keep_no_tables(self, tmp_path):
        store = PackStore.init(tmp_path / "s", StoreConfig(
            algorithm="greedy", **self.CONFIG))
        images, _rng = self._images()
        for r in range(4):
            store.publish("app", images["app"][r])
        assert not self._tables(store)


class TestChainCollapse:
    """A client K versions behind costs ONE composed in-place delta."""

    def test_five_behind_one_payload_counters_pinned(self, tmp_path):
        store = PackStore.init(tmp_path / "s", FAST)
        rng = random.Random(SEED)
        chain = _publish_chain(store, "pkg", rng, 6)
        have, want = chain[0][0], chain[-1][0]
        with perf.recording() as recorder:
            payload = store.chain("pkg", have, want)
        assert payload is not None
        buf = bytearray(chain[0][1])
        repro.patch_in_place(buf, payload)
        assert bytes(buf) == chain[-1][1]
        assert recorder.counters["store.chain.collapsed"] == 1
        assert recorder.counters["store.chain.hops"] == 5
        # Every hop came from somewhere accountable: the stored pack
        # delta when storage-aligned, a fresh diff otherwise.
        assert (recorder.counters.get("store.chain.stored_hops", 0)
                + recorder.counters.get("store.chain.hop_diffs", 0)) == 5
        # With default config the storage chain is the release chain,
        # so most hops are reused, not re-diffed.
        assert recorder.counters.get("store.chain.stored_hops", 0) >= 3

    def test_one_behind_and_every_intermediate_pair(self, tmp_path):
        store = PackStore.init(tmp_path / "s", FAST)
        rng = random.Random(SEED)
        chain = _publish_chain(store, "pkg", rng, 4, size=4096)
        for i in range(len(chain)):
            for j in range(i + 1, len(chain)):
                payload = store.chain("pkg", chain[i][0], chain[j][0])
                assert payload is not None
                buf = bytearray(chain[i][1])
                repro.patch_in_place(buf, payload)
                assert bytes(buf) == chain[j][1]

    def test_chain_declines_when_it_cannot_help(self, tmp_path):
        store = PackStore.init(tmp_path / "s", FAST)
        rng = random.Random(SEED)
        chain = _publish_chain(store, "pkg", rng, 3, size=4096)
        d0, d2 = chain[0][0], chain[2][0]
        assert store.chain("nope", d0, d2) is None
        assert store.chain("pkg", "f" * 40, d2) is None
        assert store.chain("pkg", d0, d0) is None
        assert store.chain("pkg", d2, d0) is None  # backwards

    def test_chain_survives_gc(self, tmp_path):
        store = PackStore.init(tmp_path / "s", FAST)
        rng = random.Random(SEED)
        chain = _publish_chain(store, "pkg", rng, 5, size=4096)
        store.gc()
        payload = store.chain("pkg", chain[0][0], chain[-1][0])
        buf = bytearray(chain[0][1])
        repro.patch_in_place(buf, payload)
        assert bytes(buf) == chain[-1][1]

    def test_memory_store_always_declines(self):
        store = MemoryStore()
        d1 = store.publish("pkg", b"a" * 512)
        d2 = store.publish("pkg", b"b" * 512)
        assert store.chain("pkg", d1, d2) is None


def _all_payloads(store, digests):
    """``{(i, j): chain payload}`` for every pair ``i < j`` of ``digests``."""
    return {(i, j): store.chain("pkg", digests[i], digests[j])
            for i in range(len(digests))
            for j in range(i + 1, len(digests))}


def _hop_counts(recorder):
    c = recorder.counters
    return (c.get("store.chain.hop_cache.hits", 0),
            c.get("store.chain.hop_cache.misses", 0),
            c.get("store.chain.hops", 0))


class TestHopCache:
    """``chain()`` computes each hop's script once per store lifetime,
    and a warm store serves exactly the bytes a cold one does."""

    RELEASES = 13

    @pytest.fixture
    def warm(self, tmp_path):
        # 13 releases under the default max_chain_depth of 8: the tail
        # re-anchors, so some hops are storage-aligned and some are not.
        store = PackStore.init(tmp_path / "s", FAST)
        rng = random.Random(SEED)
        chain = _publish_chain(store, "pkg", rng, self.RELEASES)
        with perf.recording() as recorder:
            _all_payloads(store, [d for d, _ in chain])
        assert recorder.counters["store.chain.hop_diffs"] > 0
        assert recorder.counters["store.chain.stored_hops"] > 0
        return store, chain, rng

    def _fresh(self, store, **config):
        return PackStore(store.root, StoreConfig(fsync=False, **config))

    def test_warm_payloads_match_fresh_store_and_apply(self, warm):
        from repro.delta import decode_delta

        store, chain, _rng = warm
        digests = [d for d, _ in chain]
        with perf.recording() as recorder:
            hot = _all_payloads(store, digests)
        hits, misses, hops = _hop_counts(recorder)
        assert (hits, misses) == (hops, 0)
        assert recorder.counters.get("diff.correcting.calls", 0) == 0
        cold = _all_payloads(self._fresh(store), digests)
        assert hot == cold
        for (i, j), payload in hot.items():
            script, _header = decode_delta(payload)
            repro.check_in_place_safe(script)
            buf = bytearray(chain[i][1])
            repro.patch_in_place(buf, payload)
            assert bytes(buf) == chain[j][1]

    def test_payloads_identical_after_publish_and_gc(self, warm):
        store, chain, rng = warm
        digests = [d for d, _ in chain]
        digests.append(store.publish("pkg", mutate(chain[-1][1], rng)))
        hot = _all_payloads(store, digests)
        assert hot == _all_payloads(self._fresh(store), digests)
        # Trimming the log resets every chain, so gc re-deltifies and
        # some hops change kind (re-diffed <-> stored); the cache keys
        # on content, so its entries stay valid.
        kept = digests[-10:]

        def aligned():
            base = {e["digest"]: e["base"] for e in store.log("pkg")}
            return {(cur, nxt) for cur, nxt in zip(kept, kept[1:])
                    if base[nxt] == cur}

        before = aligned()
        report = store.gc(keep_last=10)
        assert report.redeltified > 0 and aligned() != before
        with perf.recording() as recorder:
            hot = _all_payloads(store, kept)
        assert _hop_counts(recorder)[1] == 0
        assert hot == _all_payloads(self._fresh(store), kept)

    def test_tiny_budget_evicts_and_zero_budget_computes(self, warm):
        store, chain, _rng = warm
        # The re-anchored tail: stored and re-diffed hops both occur.
        digests = [d for d, _ in chain[6:]]
        expected = _all_payloads(store, digests)
        # One hop script fits at a time; reconstructions never do.
        with perf.recording() as recorder:
            tiny = _all_payloads(self._fresh(store, cache_bytes=6000),
                                 digests)
        assert tiny == expected
        assert recorder.counters["store.cache.evictions"] > 0
        hits, misses, hops = _hop_counts(recorder)
        assert hits > 0 and hits + misses == hops
        with perf.recording() as recorder:
            off = _all_payloads(self._fresh(store, cache_bytes=0), digests)
        assert off == expected
        hits, misses, hops = _hop_counts(recorder)
        assert (hits, misses) == (0, hops)
        assert recorder.counters["store.chain.hop_diffs"] \
            == recorder.counters["diff.correcting.calls"]

    def test_counters_add_up_and_close_clears(self, warm):
        store, chain, _rng = warm
        have, want = chain[2][0], chain[-1][0]
        with perf.recording() as recorder:
            store.chain("pkg", have, want)
            store.close()
            store.chain("pkg", have, want)
        hits, misses, hops = _hop_counts(recorder)
        assert hops == 2 * (self.RELEASES - 3)
        assert (hits, misses) == (hops // 2, hops // 2)
        assert recorder.counters["store.chain.stored_hops"] \
            + recorder.counters["store.chain.hop_diffs"] == hops

    def test_concurrent_pulls_compute_each_hop_once(self, warm):
        """More pulling threads than cores, switching often: every
        payload is exact and each distinct hop is computed once."""
        import sys
        import threading

        store, chain, _rng = warm
        store.close()
        digests = [d for d, _ in chain[4:]]
        expected = _all_payloads(self._fresh(store), digests)
        errors = []

        def puller(seed):
            order = list(expected)
            random.Random(seed).shuffle(order)
            try:
                for i, j in order:
                    if store.chain("pkg", digests[i], digests[j]) \
                            != expected[i, j]:
                        errors.append((i, j))
            except Exception as exc:  # reported through ``errors``
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with perf.recording() as recorder:
                threads = [threading.Thread(target=puller, args=(k,))
                           for k in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        hits, misses, hops = _hop_counts(recorder)
        assert hops == 4 * sum(j - i for i, j in expected)
        assert (hits, misses) == (hops - (len(digests) - 1),
                                  len(digests) - 1)

    def test_readers_proceed_while_chain_composes(self, tmp_path,
                                                  monkeypatch):
        """``get`` and ``versions`` must not wait for another thread's
        ``chain()`` to finish its unlocked work (here: compose)."""
        import threading

        from repro.store import packstore

        store = PackStore.init(tmp_path / "s", FAST)
        chain = _publish_chain(store, "pkg", random.Random(SEED), 4,
                               size=4096)
        entered, release = threading.Event(), threading.Event()
        compose_chain = packstore.compose_chain

        def parked(hops):
            entered.set()
            release.wait(30)
            return compose_chain(hops)

        monkeypatch.setattr(packstore, "compose_chain", parked)
        served = {}
        chainer = threading.Thread(target=lambda: served.setdefault(
            "payload", store.chain("pkg", chain[0][0], chain[-1][0])))
        chainer.start()
        try:
            assert entered.wait(30)
            reads = {}

            def read():
                reads["get"] = store.get("pkg", chain[1][0])
                reads["versions"] = store.versions("pkg")

            reader = threading.Thread(target=read, daemon=True)
            reader.start()
            reader.join(timeout=10)
            assert not reader.is_alive(), "reader blocked behind chain()"
        finally:
            release.set()
            chainer.join(30)
        assert reads == {"get": chain[1][1],
                         "versions": [d for d, _ in chain]}
        buf = bytearray(chain[0][1])
        repro.patch_in_place(buf, served["payload"])
        assert bytes(buf) == chain[-1][1]


class TestGc:
    def test_keep_last_trims_and_drops_unreachable(self, tmp_path):
        store = PackStore.init(tmp_path / "s", FAST)
        rng = random.Random(SEED)
        chain = _publish_chain(store, "pkg", rng, 6, size=4096)
        report = store.gc(keep_last=3)
        assert report.dropped_versions == 3
        assert report.objects_after < report.objects_before
        assert store.versions("pkg") == [d for d, _ in chain[-3:]]
        for digest, image in chain[-3:]:
            assert store.get("pkg", digest) == image
        for digest, _ in chain[:3]:
            with pytest.raises(KeyError):
                store.get("pkg", digest)
        assert store.fsck().ok

    def test_keep_last_validates(self, tmp_path):
        store = PackStore.init(tmp_path / "s", FAST)
        with pytest.raises(ValueError):
            store.gc(keep_last=0)

    def test_gc_report_schema(self, tmp_path):
        store = PackStore.init(tmp_path / "s", FAST)
        store.publish("pkg", b"x" * 512)
        data = store.gc().to_json()
        assert data["schema"] == "repro.store.gc/1"
        assert data["objects_after"] == 1
        assert data["repaired"] == []


def _cli(*args):
    """Run ``python -m repro.cli ARGS`` on this checkout; returns stdout."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-m", "repro.cli", *args],
                         capture_output=True, text=True, env=env,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


class TestTwoWriters:
    """Several handles, in one process or several, on one directory:
    the writer lock keeps every acknowledged publish, in publish order."""

    @staticmethod
    def _train(rng, releases):
        images = [make_binary_blob(rng, 4096)]
        while len(images) < releases:
            images.append(mutate(images[-1], rng))
        return images

    @staticmethod
    def _assert_reopens_with(root, expected):
        """``expected``: package -> [(digest, image)] in publish order."""
        reopened = PackStore(root, FAST)
        assert not reopened.damage
        for package, versions in expected.items():
            assert reopened.versions(package) == [d for d, _ in versions]
            for digest, image in versions:
                assert reopened.get(package, digest) == image
        report = reopened.fsck()
        assert report.ok, report.problems
        assert report.versions == sum(len(v) for v in expected.values())
        return reopened

    def test_cli_and_second_handle_publishes_survive(self, tmp_path):
        # A long-lived handle used to append at its own idea of the pack
        # length and truncate after it, silently cutting off the CLI's
        # acknowledged publish.
        root = tmp_path / "s"
        rng = random.Random(SEED)
        images = self._train(rng, 6)
        cli_image = make_binary_blob(rng, 4096)
        (tmp_path / "cli.bin").write_bytes(cli_image)
        a = PackStore.init(root, FAST)
        app = [(a.publish("app", images[0]), images[0])]
        assert "published" in _cli("store", "add", "--no-fsync", str(root),
                                   "cli", str(tmp_path / "cli.bin"))
        app.append((a.publish("app", images[1]), images[1]))
        b = PackStore(root, FAST)
        for i, handle in enumerate((b, a, b, a), start=2):
            app.append((handle.publish("app", images[i]), images[i]))
        reopened = self._assert_reopens_with(root, {
            "app": app, "cli": [(content_digest(cli_image), cli_image)]})
        # Base choice saw the other handle's versions: every release
        # is a delta against the one before it, whoever published it.
        log = reopened.log("app")
        assert [e["base"] for e in log[1:]] == [e["digest"] for e in log[:-1]]

    def test_stale_handle_gc_keeps_other_publishes(self, tmp_path):
        root = tmp_path / "s"
        images = self._train(random.Random(SEED), 4)
        a = PackStore.init(root, FAST)
        b = PackStore(root, FAST)
        app = [(a.publish("app", images[0]), images[0]),
               (b.publish("app", images[1]), images[1])]
        a.gc()
        # b's pack generation is gone: it follows a's gc, then appends.
        app.append((b.publish("app", images[2]), images[2]))
        app.append((a.publish("app", images[3]), images[3]))
        self._assert_reopens_with(root, {"app": app})

    def test_two_handles_in_two_threads(self, tmp_path):
        root = tmp_path / "s"
        rng = random.Random(SEED)
        trains = {"p0": self._train(rng, 6), "p1": self._train(rng, 6)}
        PackStore.init(root, FAST)
        barrier = threading.Barrier(2)
        published = {}
        errors = []

        def writer(package):
            try:
                store = PackStore(root, FAST)
                barrier.wait()
                published[package] = [(store.publish(package, image), image)
                                      for image in trains[package]]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(p,))
                   for p in trains]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
            assert not t.is_alive()
        assert not errors
        self._assert_reopens_with(root, published)

    def test_directory_refusing_the_lock_still_opens_for_reads(
            self, tmp_path):
        root = tmp_path / "s"
        store = PackStore.init(root, FAST)
        digest = store.publish("app", b"v1" * 300)
        (root / LOCK_NAME).unlink()
        (root / LOCK_NAME).mkdir()  # the lock file cannot be opened
        reopened = PackStore(root, FAST)
        assert reopened.get("app", digest) == b"v1" * 300
        assert reopened.fsck().ok
        with pytest.raises(StoreError, match="writer lock"):
            reopened.publish("app", b"v2" * 300)
        assert reopened.versions("app") == [digest]


@pytest.fixture(params=["memory", "pack"])
def any_store(request, tmp_path):
    """Both VersionStore implementations, for the shared conformance bar."""
    if request.param == "memory":
        return MemoryStore()
    return PackStore.init(tmp_path / "conformance", FAST)


class TestVersionStoreConformance:
    """One contract, two implementations (see repro.store.api docs)."""

    def test_satisfies_protocol(self, any_store):
        assert isinstance(any_store, VersionStore)

    def test_publish_get_latest(self, any_store):
        digest = any_store.publish("pkg", b"v1" * 300)
        assert any_store.get("pkg", digest) == b"v1" * 300
        assert any_store.latest("pkg") == (digest, b"v1" * 300)
        assert any_store.packages() == ["pkg"]
        assert "pkg" in any_store and "other" not in any_store
        assert content_digest(b"v1" * 300) == digest

    def test_latest_is_publish_order(self, any_store):
        """Satellite: the documented latest-ordering contract."""
        a = any_store.publish("pkg", b"alpha" * 200)
        b = any_store.publish("pkg", b"beta" * 200)
        assert any_store.latest("pkg")[0] == b
        assert any_store.versions("pkg") == [a, b]

    def test_republish_moves_to_head(self, any_store):
        a = any_store.publish("pkg", b"alpha" * 200)
        b = any_store.publish("pkg", b"beta" * 200)
        assert any_store.publish("pkg", b"alpha" * 200) == a
        digest, latest = any_store.latest("pkg")
        assert digest == a and latest == b"alpha" * 200
        # Moved, not duplicated.
        assert any_store.versions("pkg") == [b, a]

    def test_chain_never_lies(self, any_store):
        """chain() either declines or returns a byte-exact payload."""
        rng = random.Random(SEED)
        chain = _publish_chain(any_store, "pkg", rng, 3, size=4096)
        payload = any_store.chain("pkg", chain[0][0], chain[-1][0])
        if payload is not None:
            buf = bytearray(chain[0][1])
            repro.patch_in_place(buf, payload)
            assert bytes(buf) == chain[-1][1]


class TestPersistentOrdering:
    def test_republish_order_survives_reopen(self, tmp_path):
        root = tmp_path / "s"
        store = PackStore.init(root, FAST)
        a = store.publish("pkg", b"alpha" * 200)
        b = store.publish("pkg", b"beta" * 200)
        store.publish("pkg", b"alpha" * 200)
        store.close()
        reopened = PackStore(root, FAST)
        assert reopened.versions("pkg") == [b, a]
        assert reopened.latest("pkg")[0] == a


class TestDeprecationShims:
    def test_new_homes_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            content_digest(b"payload")
            MemoryStore().publish("pkg", b"payload")


class TestServeFromStore:
    """The serving acceptance: DeltaServer consumes any VersionStore."""

    def _chain_store(self, root, releases=6):
        store = PackStore.init(root, FAST)
        rng = random.Random(SEED)
        chain = _publish_chain(store, "pkg", rng, releases)
        return store, [image for _digest, image in chain]

    def test_five_behind_served_one_composed_delta(self, tmp_path):
        store, chain = self._chain_store(tmp_path / "s")

        async def go(server):
            async with server:
                return await pull_async(server.host, server.port, "pkg",
                                        chain[0])

        with perf.recording() as recorder:
            server = DeltaServer(store, ServeConfig(port=0))
            outcome = asyncio.run(go(server))
        assert outcome.status == "applied"
        assert outcome.image == chain[-1]
        # Exactly one collapsed chain payload — the pipeline encoder
        # never ran.
        assert server.counters["chain_served"] == 1
        assert server.counters["encodes"] == 0
        assert recorder.counters["serve.chain_served"] == 1
        assert recorder.counters["store.chain.collapsed"] == 1
        assert recorder.counters["store.chain.hops"] == 5
        assert recorder.counters.get("serve.encodes", 0) == 0

    def test_unknown_reference_falls_back_to_pipeline(self, tmp_path):
        # A client holding bytes the store never published is a
        # structured failure, exactly as with the in-memory store.
        store, chain = self._chain_store(tmp_path / "s", releases=2)

        async def go(server):
            async with server:
                return await pull_async(server.host, server.port, "pkg",
                                        b"never published" * 100)

        outcome = asyncio.run(go(DeltaServer(store, ServeConfig(port=0))))
        assert outcome.status == "failed"
        assert "unknown-version" in outcome.reason

    def test_load_storm_against_pack_store(self, tmp_path):
        store = PackStore.init(tmp_path / "s", FAST)
        report = asyncio.run(run_load_async(
            clients=12, packages=2, releases=3, size=4096, seed=SEED,
            store=store))
        assert report.silent == []
        assert report.applied == report.byte_exact == report.clients
        # Every distinct pair was answered from the store's chains; the
        # pipeline encoder stayed cold.
        assert report.server_counters["chain_served"] >= 1
        assert report.counters.get("serve.encodes", 0) == 0
