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
from repro.serve import pull_async
from repro.serve.daemon import DeltaServer, ServeConfig
from repro.serve.loadgen import run_load_async
from repro.store import (
    MemoryStore,
    PackStore,
    StoreConfig,
    VersionStore,
    content_digest,
)
from repro.store.pack import STORED_DELTA, STORED_FULL
from repro.store.packstore import (
    LOCK_NAME,
    SIMILARITY_PROBE_LEN,
    SIMILARITY_PROBES,
    SIMILARITY_THRESHOLD,
    _probe_hits,
    _probes,
)
from repro.workloads import MutationProfile, make_binary_blob, mutate

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


def _containment(probes, candidate):
    """Full-scan oracle of base scoring: the fraction of ``probes``
    found anywhere in ``candidate``."""
    if not probes:
        return 0.0
    hits = sum(1 for probe in probes if candidate.find(probe) >= 0)
    return hits / len(probes)


def _probes_of(image):
    return _probes(image, SIMILARITY_PROBES, SIMILARITY_PROBE_LEN)


class TestBaseScoringOracle:
    """The windowed, early-stopping scorer against the full scan: the
    same hit count whenever a candidate can still win, and "out of
    reach" only when it cannot."""

    #: Insert, delete and move edits only, from light to heavy, so hit
    #: counts spread over the whole range around the threshold.
    EDITS = [MutationProfile(edits_per_kb=rate, max_edit=128, weights={
        "insert": 1.0, "delete": 1.0, "move": 1.0})
        for rate in (0.5, 2.0, 4.0, 8.0)]

    def _pairs(self):
        rng = random.Random(SEED)
        pairs = []
        for size in (8192, 3001, 600, 47, 30):
            image = make_binary_blob(rng, size)
            candidates = [image, make_binary_blob(rng, size), b"",
                          image[:10], image[size // 3:size // 3 + 40],
                          image[size // 2:]]
            for profile in self.EDITS:
                candidates.append(mutate(image, rng, profile))
                candidates.append(mutate(candidates[-1], rng, profile))
            pairs += [(image, c) for c in candidates]
        # Shorter than one probe, and the empty image.
        for image in (b"x", rng.randbytes(SIMILARITY_PROBE_LEN - 1),
                      rng.randbytes(SIMILARITY_PROBE_LEN), b""):
            pairs += [(image, image * 3), (image, b""),
                      (image, rng.randbytes(100))]
        return pairs

    def test_hits_match_the_full_scan(self):
        counts = set()
        stopped = 0
        for image, candidate in self._pairs():
            probes, spacing = _probes_of(image)
            expected = round(_containment(probes, candidate) * len(probes))
            counts.add(expected)
            for need in range(len(probes) + 2):
                hits = _probe_hits(probes, spacing, candidate, need)
                if expected >= need:
                    assert hits == expected, (len(image), need)
                else:
                    assert hits is None, (len(image), need)
                    stopped += 1
        # Not vacuous: hit counts spread from none to all 32 probes.
        assert {0, SIMILARITY_PROBES} <= counts and len(counts) > 10
        assert stopped

    def test_probe_layout(self):
        assert _probes_of(b"") == ([], 0)
        assert _probes_of(b"short") == ([b"short"], 0)
        image = bytes(range(256)) * 4
        probes, spacing = _probes_of(image)
        assert len(probes) == SIMILARITY_PROBES and spacing > 0
        assert probes == [image[i * spacing:i * spacing
                                + SIMILARITY_PROBE_LEN]
                          for i in range(SIMILARITY_PROBES)]

    def test_threshold_score_qualifies(self, tmp_path):
        # Five probes of a 120-byte image: three hits score exactly the
        # threshold, which is enough.
        store = PackStore.init(tmp_path / "s",
                               StoreConfig(fsync=False, min_delta_size=0))
        base = random.Random(SEED).randbytes(5 * SIMILARITY_PROBE_LEN)
        version = bytearray(base)
        version[3 * SIMILARITY_PROBE_LEN + 5] ^= 0xFF
        version[4 * SIMILARITY_PROBE_LEN + 5] ^= 0xFF
        probes, _spacing = _probes_of(bytes(version))
        assert _containment(probes, base) == 3 / 5 == SIMILARITY_THRESHOLD
        first = store.publish("pkg", base)
        store.publish("pkg", bytes(version))
        assert store.log("pkg")[-1]["base"] == first

    def test_publish_picks_the_oracles_base(self, tmp_path):
        """Every publish of a branching history takes the candidate the
        full-scan score picks: the first best at or above the threshold
        among the newest versions and the newest chain's anchor."""
        cfg = StoreConfig(fsync=False, min_delta_size=0, delta_max_ratio=1.0,
                          max_chain_depth=2, similarity_window=3)
        store = PackStore.init(tmp_path / "s", cfg)
        rng = random.Random(SEED)
        images = {}
        history = [make_binary_blob(rng, 4096)]
        for _ in range(30):
            history.append(mutate(rng.choice(history[-4:]), rng,
                                  rng.choice(self.EDITS)))
        history.insert(12, make_binary_blob(rng, 4096))
        history.insert(20, b"")
        chosen = set()
        depth_limited = 0
        for image in history:
            log = store.log("pkg") if "pkg" in store else []
            expected = self._oracle_base(cfg, log, images, image)
            with perf.recording() as recorder:
                digest = store.publish("pkg", image)
            images[digest] = image
            if recorder.counters.get("store.publish.fallback"):
                # A chosen base whose delta lost to the full image.
                assert expected and store.log("pkg")[-1]["base"] == ""
            else:
                assert store.log("pkg")[-1]["base"] == expected
            chosen.add(expected)
            depth_limited += recorder.counters.get(
                "store.publish.depth_limited", 0)
        assert depth_limited and "" in chosen and len(chosen) > 5

    @staticmethod
    def _oracle_base(cfg, log, images, image):
        if len(image) < cfg.min_delta_size or not log:
            return ""
        by_digest = {e["digest"]: e for e in log}
        candidates = []
        for entry in reversed(log[-cfg.similarity_window:]):
            candidates.append(entry)
        anchor = log[-1]
        while anchor["base"]:
            anchor = by_digest[anchor["base"]]
        if anchor not in candidates:
            candidates.append(anchor)
        probes, _spacing = _probes_of(image)
        best, best_score = "", 0.0
        for entry in candidates:
            if entry["depth"] + 1 > cfg.max_chain_depth:
                continue
            score = _containment(probes, images[entry["digest"]])
            if score >= SIMILARITY_THRESHOLD and score > best_score:
                best, best_score = entry["digest"], score
        return best


class TestPublishTableReuse:
    """Each delta publish keeps one seed table for its package's next
    diff: its own version's below the depth limit, its base's at the
    limit.  Pack bytes never depend on it."""

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
                        entry = store.log(package)[-1]
                        assert entry["digest"] == newest[package]
                        if package in tables and \
                                entry["stored"] == STORED_DELTA:
                            assert tables[package][0] == self._kept(entry)
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

    @classmethod
    def _kept(cls, entry):
        """The version whose table a delta publish leaves kept: its own
        when it can still be a base, else its base's."""
        if entry["depth"] < cls.CONFIG["max_chain_depth"]:
            return entry["digest"]
        return entry["base"]

    @classmethod
    def _expected_reuses(cls, logs):
        """Delta publishes whose base is the version its package's
        previous delta publish left kept (a full publish runs no diff
        and leaves the kept table as it was)."""
        count = 0
        for log in logs.values():
            kept = None
            for entry in log:
                if entry["stored"] == STORED_DELTA:
                    count += entry["base"] == kept
                    kept = cls._kept(entry)
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
        reuses = self._expected_reuses(logs)
        assert counters["store.publish.table_reused"] == reuses > 0
        assert "store.publish.table_reused" not in off[0]
        # Each diff fingerprints its version once, and a base only when
        # its table was not kept (a cold base).
        deltas = sum(e["stored"] == STORED_DELTA
                     for log in logs.values() for e in log)
        calls = "fingerprint.fast_calls" if fast \
            else "fingerprint.reference_calls"
        assert counters[calls] == deltas + (deltas - reuses)
        assert off[0][calls] == 2 * deltas

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


def _compose_calls(monkeypatch):
    """Count ``compose_scripts`` calls (every fold of two scripts)."""
    from repro.core import compose

    calls = []
    real = compose.compose_scripts

    def counted(first, second):
        calls.append(1)
        return real(first, second)

    monkeypatch.setattr(compose, "compose_scripts", counted)
    return calls


def _multi_hop_pairs(n):
    """Pairs ``i < j`` of ``n`` versions at least two hops apart."""
    return sum(1 for i in range(n) for j in range(i + 2, n))


class TestSpanMemo:
    """``chain()`` composes each multi-hop span once, by extending the
    cached span of its path minus the last hop, and serves exactly the
    bytes a store without the memo does."""

    RELEASES = 13

    @pytest.fixture
    def train(self, tmp_path):
        # 13 releases under the default max_chain_depth of 8: the tail
        # re-anchors, so the spans fold stored and re-diffed hops.
        store = PackStore.init(tmp_path / "s", FAST)
        chain = _publish_chain(store, "pkg", random.Random(SEED),
                               self.RELEASES)
        store.close()
        return store, chain

    def _fresh(self, store, **config):
        return PackStore(store.root, StoreConfig(fsync=False, **config))

    def test_warm_fresh_and_uncached_payloads_agree(self, train,
                                                    monkeypatch):
        store, chain = train
        digests = [d for d, _ in chain]
        calls = _compose_calls(monkeypatch)
        with perf.recording() as recorder:
            cold = _all_payloads(store, digests)
        spans = _multi_hop_pairs(self.RELEASES)
        assert recorder.counters["store.chain.span_cache.misses"] == spans
        assert len(calls) == spans
        with perf.recording() as recorder:
            warm = _all_payloads(store, digests)
        assert recorder.counters["store.chain.span_cache.hits"] == spans
        assert "store.chain.span_cache.misses" not in recorder.counters
        assert len(calls) == spans
        assert warm == cold == _all_payloads(self._fresh(store), digests)
        del calls[:]
        off = _all_payloads(self._fresh(store, cache_bytes=0), digests)
        assert off == cold
        # Nothing kept: every pull folds its whole path again.
        assert len(calls) == sum(j - i - 1 for i, j in off)
        for (i, j), payload in cold.items():
            buf = bytearray(chain[i][1])
            repro.patch_in_place(buf, payload)
            assert bytes(buf) == chain[j][1]

    def test_longest_cached_prefix_is_extended(self, train, monkeypatch):
        store, chain = train
        digests = [d for d, _ in chain]
        store.chain("pkg", digests[0], digests[5])
        calls = _compose_calls(monkeypatch)
        with perf.recording() as recorder:
            payload = store.chain("pkg", digests[0], digests[9])
        # Spans 0..5 is found; 0..6 through 0..9 are composed.
        assert len(calls) == 4
        assert recorder.counters["store.chain.span_cache.hits"] == 1
        assert recorder.counters["store.chain.span_cache.misses"] == 4
        assert payload == self._fresh(store).chain("pkg", digests[0],
                                                   digests[9])

    def test_republish_and_gc_change_the_path_and_the_payload(self, train):
        store, chain = train
        digests = [d for d, _ in chain]
        have, want = digests[0], digests[6]
        store.chain("pkg", have, want)
        # Re-publishing a version moves it to the log head, so the path
        # from ``have`` to ``want`` no longer passes through it.
        store.publish("pkg", chain[3][1])
        assert store.versions("pkg")[-1] == digests[3]
        with perf.recording() as recorder:
            after = store.chain("pkg", have, want)
        # The new path's spans are composed, extending the one prefix
        # both paths share (0..2); none of the old path's is served.
        assert recorder.counters["store.chain.span_cache.hits"] == 1
        assert recorder.counters["store.chain.span_cache.misses"] == 3
        assert after == self._fresh(store).chain("pkg", have, want)
        buf = bytearray(chain[0][1])
        repro.patch_in_place(buf, after)
        assert bytes(buf) == chain[6][1]
        # gc trims the log to its newest ten and re-deltifies; the paths
        # between kept versions are unchanged, and so are their payloads,
        # which match a fresh store's.
        warm = _all_payloads(store, store.versions("pkg"))
        store.gc(keep_last=10)
        kept = store.versions("pkg")
        assert len(kept) == 10
        hot = _all_payloads(store, kept)
        assert hot == {(i, j): warm[i + 3, j + 3] for i, j in hot}
        assert hot == _all_payloads(self._fresh(store), kept)

    def test_concurrent_pulls_compose_each_span_once(self, train,
                                                     monkeypatch):
        import sys
        import threading

        store, chain = train
        digests = [d for d, _ in chain[3:]]
        expected = _all_payloads(self._fresh(store), digests)
        calls = _compose_calls(monkeypatch)
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
        spans = _multi_hop_pairs(len(digests))
        assert recorder.counters["store.chain.span_cache.misses"] == spans
        assert len(calls) == spans

    def test_hundreds_of_releases_behind_without_recursion(self, tmp_path):
        import sys

        store = PackStore.init(tmp_path / "s", FAST)
        rng = random.Random(SEED)
        image = bytearray(rng.randbytes(48))
        images, digests = [], []
        for _ in range(300):
            images.append(bytes(image))
            digests.append(store.publish("pkg", image))
            image[rng.randrange(len(image))] ^= 1 + rng.randrange(255)
        assert len(set(digests)) == len(digests)
        # Far less stack than one frame per hop.
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 150)
        try:
            with perf.recording() as recorder:
                payload = store.chain("pkg", digests[0], digests[-1])
        finally:
            sys.setrecursionlimit(limit)
        assert recorder.counters["store.chain.span_cache.misses"] == 298
        buf = bytearray(images[0])
        repro.patch_in_place(buf, payload)
        assert bytes(buf) == images[-1]
        assert payload == self._fresh(store, cache_bytes=0).chain(
            "pkg", digests[0], digests[-1])


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
