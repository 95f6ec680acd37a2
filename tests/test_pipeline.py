"""Tests for repro.pipeline: the reference index cache and batch executor."""

import hashlib
import random
import threading

import pytest

import repro
from repro.core.convert import ConversionReport
from repro.delta import (
    DEFAULT_SEED_LENGTH,
    FullSeedIndex,
    SparseSeedIndex,
    correcting_delta,
    greedy_delta,
    onepass_delta,
    use_fast_paths,
)
from repro.faults import FaultPlan, FaultSpec
from repro.pipeline import (
    ARTIFACT_KEYWORDS,
    BatchReport,
    DeltaPipeline,
    PipelineConfig,
    PipelineJob,
    ReferenceIndexCache,
)
from repro.pipeline import executor as executor_mod
from repro.store import content_digest
from repro.workloads import make_binary_blob, make_source_file, mutate


@pytest.fixture
def batch_pair(rng):
    """One reference plus several derived versions (the serving shape)."""
    reference = make_source_file(rng, 8_000)
    versions = []
    for i in range(5):
        version = mutate(reference, rng)
        if i % 2:  # mix shorter and longer versions
            version = version + make_source_file(rng, 600)
        else:
            version = version[: len(version) - 400]
        versions.append(version)
    return reference, versions


def _fingerprint_charge(image):
    """What a cache charges for ``image``'s fingerprints: 8 bytes per
    seed as a fast-path array, more as a scalar-path list."""
    cache = ReferenceIndexCache()
    cache.fingerprints(image)
    return cache.stats.current_bytes


class TestReferenceIndexCache:
    def test_second_fetch_is_a_hit(self, rng):
        reference = rng.randbytes(4_000)
        cache = ReferenceIndexCache()
        first = cache.artifact("greedy", reference)
        second = cache.artifact("greedy", reference)
        assert first is second
        stats = cache.stats
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hits / stats.lookups == 0.5
        assert stats.lookups == 2

    def test_keyed_by_content_not_identity(self, rng):
        data = rng.randbytes(2_000)
        cache = ReferenceIndexCache()
        cache.artifact("correcting", bytes(data))
        # Same bytes, different object.
        cache.artifact("correcting", bytearray(data))
        assert cache.stats.hits == 1

    def test_distinct_params_are_distinct_entries(self, rng):
        reference = rng.randbytes(2_000)
        cache = ReferenceIndexCache()
        cache.artifact("greedy", reference, seed_length=8)
        cache.artifact("greedy", reference, seed_length=16)
        assert len(cache) == 2
        assert cache.stats.misses == 2

    def test_lru_eviction_respects_budget(self, rng):
        # Fits two of the eight fingerprint entries (15,880 bytes each
        # under the fast paths: 8 bytes * 1,985 seeds).
        charge = _fingerprint_charge(rng.randbytes(2_000))
        cache = ReferenceIndexCache(max_bytes=int(2.8 * charge))
        for _ in range(8):
            cache.artifact("onepass", rng.randbytes(2_000))
        stats = cache.stats
        assert stats.evictions > 0
        assert stats.current_bytes <= stats.max_bytes
        assert len(cache) < 8

    def test_lru_evicts_least_recently_used(self, rng):
        a, b, c = (rng.randbytes(2_000) for _ in range(3))
        # Budget fits two fingerprint entries, not three.
        cache = ReferenceIndexCache(max_bytes=int(2.5 * _fingerprint_charge(a)))
        cache.artifact("onepass", a)
        cache.artifact("onepass", b)
        cache.artifact("onepass", a)  # refresh a; b is now the LRU entry
        cache.artifact("onepass", c)  # evicts b
        assert cache.has("onepass", a)
        assert not cache.has("onepass", b)
        assert cache.has("onepass", c)

    def test_oversized_artifact_built_but_not_retained(self, rng):
        reference = rng.randbytes(4_000)
        cache = ReferenceIndexCache(max_bytes=1)
        fingerprints = cache.artifact("onepass", reference)
        assert len(fingerprints) == len(reference) - DEFAULT_SEED_LENGTH + 1
        assert len(cache) == 0

    def test_has_and_warm(self, rng):
        reference = rng.randbytes(3_000)
        cache = ReferenceIndexCache()
        assert not cache.has("greedy", reference)
        assert cache.warm("greedy", reference)
        assert cache.has("greedy", reference)
        # has() is a peek: it never counts as a lookup.
        assert cache.stats.lookups == 1
        # Algorithms without reference-side state cannot be warmed.
        assert not cache.warm("tichy", reference)
        assert not cache.has("tichy", reference)

    def test_clear_drops_entries_keeps_counters(self, rng):
        cache = ReferenceIndexCache()
        cache.artifact("correcting", rng.randbytes(1_000))
        # The table, and nested in its build the image's fingerprints.
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 2
        assert cache.stats.current_bytes == 0

    def test_seed_table_build_is_timed_on_miss_only(self, rng):
        reference = rng.randbytes(3_000)
        cache = ReferenceIndexCache()
        with repro.perf.recording() as miss:
            table = cache.artifact("correcting", reference)
        assert miss.counters["table.seed.build.calls"] == 1
        assert miss.counters["table.seed.build.seconds"] >= 0
        with repro.perf.recording() as hit:
            assert cache.artifact("correcting", reference) is table
        assert "table.seed.build.calls" not in hit.counters

    def test_seed_table_charged_what_it_holds(self, rng):
        pytest.importorskip("numpy")
        reference = rng.randbytes(3_000)
        cache = ReferenceIndexCache()
        previous = use_fast_paths(True)
        try:
            table = cache.artifact("correcting", reference,
                                   table_size=1 << 10)
        finally:
            use_fast_paths(previous)
        fingerprints = cache.fingerprints(reference)
        # 2^10 int64 slot offsets plus the 8-byte-per-seed array the
        # table shares with the image's own fingerprint entry.
        assert table.probe_arrays()[1] is fingerprints
        seeds = len(reference) - DEFAULT_SEED_LENGTH + 1
        assert table.nbytes == 8 * (1 << 10) + 8 * seeds == 32_072
        assert cache.stats.current_bytes == table.nbytes + 8 * seeds

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            ReferenceIndexCache(max_bytes=0)

    def test_concurrent_fetch_builds_once(self, rng):
        reference = rng.randbytes(6_000)
        cache = ReferenceIndexCache()
        results = []
        barrier = threading.Barrier(6)

        def fetch():
            barrier.wait()
            results.append(cache.artifact("greedy", reference))

        threads = [threading.Thread(target=fetch) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.stats.misses == 1
        assert all(r is results[0] for r in results)

    def test_builds_of_distinct_keys_run_concurrently(self, rng, monkeypatch):
        # Two builds for different keys must overlap: each build blocks
        # on a barrier that only releases when BOTH builds are inside
        # their build function at once.  Under a single global build
        # lock this times out and raises BrokenBarrierError.
        import repro.pipeline.cache as cache_mod
        barrier = threading.Barrier(2, timeout=10)
        real = cache_mod._seed_fingerprint_array

        def gated(data, seed_length):
            barrier.wait()
            return real(data, seed_length)

        monkeypatch.setattr(cache_mod, "_seed_fingerprint_array", gated)
        cache = ReferenceIndexCache()
        errors = []

        def fetch(buf):
            try:
                cache.artifact("onepass", buf)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=fetch, args=(rng.randbytes(1_000),))
                   for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.stats.misses == 2

    def test_digest_hashes_through_memoryview(self, rng, monkeypatch):
        # The digest must hash the buffer zero-copy: sha1 receives a
        # memoryview of the original buffer, never a materialized copy.
        # (The implementation lives in repro.records, the shared home
        # of every content-addressed layer's digest.)
        import repro.records as digest_mod
        data = rng.randbytes(4_096)
        seen = []
        real = digest_mod.hashlib.sha1

        def spy(buf):
            seen.append(buf)
            return real(buf)

        monkeypatch.setattr(digest_mod.hashlib, "sha1", spy)
        for buf in (data, bytearray(data), memoryview(data)):
            assert content_digest(buf) == real(data).hexdigest()
        assert len(seen) == 3
        for view, original in zip(seen, (data, bytearray(data))):
            assert isinstance(view, memoryview)
        assert seen[1].obj is not data  # bytearray hashed in place ...
        assert isinstance(seen[1].obj, bytearray)  # ... not copied to bytes

    def test_digest_copies_only_non_contiguous_views(self, rng):
        data = rng.randbytes(2_048)
        strided = memoryview(data)[::2]
        assert not strided.c_contiguous
        assert content_digest(strided) == content_digest(bytes(strided))


class TestCachedDiffers:
    """A shared cache must never change differencing output."""

    @pytest.mark.parametrize("differ", [greedy_delta, onepass_delta,
                                        correcting_delta])
    def test_cached_output_identical(self, differ, batch_pair):
        reference, versions = batch_pair
        cache = ReferenceIndexCache()
        name = differ.__name__[:-len("_delta")]
        for version in versions:
            plain = differ(reference, version)
            kwargs = {ARTIFACT_KEYWORDS[name]: cache.artifact(name, reference)}
            if name == "correcting":
                kwargs["version_fingerprints"] = cache.fingerprints(version)
            cached = differ(reference, version, **kwargs)
            assert cached.commands == plain.commands
            assert cached.version_length == plain.version_length
        assert cache.stats.hits == len(versions) - 1

    def test_greedy_accepts_prebuilt_index(self, sample_pair):
        reference, version = sample_pair
        index = FullSeedIndex(reference, 16, 64)
        plain = greedy_delta(reference, version, seed_length=16)
        indexed = greedy_delta(reference, version, seed_length=16, index=index)
        assert indexed.commands == plain.commands

    def test_greedy_rejects_mismatched_index(self, sample_pair):
        reference, version = sample_pair
        index = FullSeedIndex(reference, 8, 64)
        with pytest.raises(ValueError):
            greedy_delta(reference, version, seed_length=16, index=index)

    @pytest.mark.parametrize("version_len", [0, DEFAULT_SEED_LENGTH - 1,
                                             DEFAULT_SEED_LENGTH, 500])
    def test_correcting_rejects_mismatched_version_fingerprints(
            self, rng, version_len):
        reference = rng.randbytes(400)
        version = rng.randbytes(version_len)
        seeds = max(0, version_len - DEFAULT_SEED_LENGTH + 1)
        fingerprints = ReferenceIndexCache().fingerprints(version)
        assert len(fingerprints) == seeds
        correcting_delta(reference, version, version_fingerprints=fingerprints)
        with pytest.raises(ValueError, match="version fingerprints"):
            correcting_delta(reference, version,
                             version_fingerprints=list(range(seeds + 1)))
        if seeds:
            with pytest.raises(ValueError, match="version fingerprints"):
                correcting_delta(reference, version,
                                 version_fingerprints=fingerprints[1:])
            # The right image's fingerprints at another seed length.
            with pytest.raises(ValueError, match="version fingerprints"):
                correcting_delta(reference, version, seed_length=8,
                                 version_fingerprints=fingerprints)


class TestEveryImageFingerprintedOnce:
    """A pipeline's cache fingerprints each image of a train once, however
    many diffs read it as a version or as a reference."""

    @staticmethod
    def _jobs(rng):
        """Every (have < want) pair of a five-release train."""
        images = [make_binary_blob(rng, 8_192)]
        for _ in range(4):
            images.append(mutate(images[-1], rng))
        jobs = [PipelineJob(images[have], images[want],
                            "%d->%d" % (have, want))
                for want in range(len(images)) for have in range(want)]
        return images, jobs

    @staticmethod
    def _run(jobs, executor, monkeypatch, plan=None):
        """The batch, its perf counters and the keywords of each diff."""
        keywords = []
        differ = executor_mod.ALGORITHMS["correcting"]

        def spy(reference, version, **kwargs):
            keywords.append(sorted(kwargs))
            return differ(reference, version, **kwargs)

        monkeypatch.setitem(executor_mod.ALGORITHMS, "correcting", spy)
        previous = use_fast_paths(True)
        try:
            with repro.perf.recording() as recorder:
                with DeltaPipeline(PipelineConfig(
                        executor=executor, workers=2,
                        fault_plan=plan)) as pipe:
                    batch = pipe.run(jobs)
        finally:
            use_fast_paths(previous)
            monkeypatch.setitem(executor_mod.ALGORITHMS, "correcting",
                                differ)
        assert batch.ok_jobs == batch.jobs
        return batch, recorder.counters, keywords

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_each_image_fingerprinted_once(self, executor, rng, monkeypatch):
        pytest.importorskip("numpy")
        images, jobs = self._jobs(rng)
        batch, counters, keywords = self._run(jobs, executor, monkeypatch)
        assert counters["fingerprint.fast_calls"] == len(images) == 5
        assert counters["cache.fingerprints.misses"] == len(images)
        # Each job fetches its version's array and each of the four cold
        # tables its reference's: 14 lookups, one miss per image.
        assert counters["cache.fingerprints.hits"] == \
            len(jobs) + (len(images) - 1) - len(images) == 9
        assert (counters["cache.reference.hits"],
                counters["cache.reference.misses"]) == (6, 4)
        assert keywords == [["table", "version_fingerprints"]] * len(jobs)

        # The cache.lookup fault bypasses the cache: every diff runs
        # cold, fingerprinting both of its images, and ships the same
        # payload bytes.
        plan = FaultPlan([FaultSpec(site="cache.lookup", count=99)])
        cold, cold_counters, cold_keywords = self._run(
            jobs, executor, monkeypatch, plan)
        assert cold_keywords == [[]] * len(jobs)
        assert cold_counters["fingerprint.fast_calls"] == 2 * len(jobs)
        assert not any(name.startswith("cache.")
                       for name in cold_counters)

        def digests(result_batch):
            return [hashlib.sha1(r.payload).hexdigest()
                    for r in result_batch.results]

        assert digests(batch) == digests(cold)
        for result, job in zip(batch.results, jobs):
            assert bytes(repro.patch_in_place(bytearray(job.reference),
                                              result.payload)) == job.version


class TestSparseGreedyTier:
    """The cache's sampled greedy tier for over-budget references."""

    def test_stride_one_when_full_index_fits(self):
        cache = ReferenceIndexCache()  # default 128 MB budget
        assert cache.greedy_stride(8_000) == 1

    def test_stride_grows_with_reference(self):
        cache = ReferenceIndexCache()
        stride = cache.greedy_stride(12 << 20)
        assert stride > 1
        # A tighter budget forces sparser sampling.
        tighter = ReferenceIndexCache(max_bytes=64 << 20)
        assert tighter.greedy_stride(12 << 20) > stride

    def test_greedy_index_degrades_to_sparse_tier(self, rng):
        cache = ReferenceIndexCache(max_bytes=100_000)
        reference = rng.randbytes(20_000)
        index = cache.artifact("greedy", reference)
        assert isinstance(index, SparseSeedIndex)
        assert index.stride == cache.greedy_stride(len(reference))
        # Sparse enough to be retained: the point of the tier.
        assert cache.stats.evictions == 0
        assert cache.artifact("greedy", reference) is index
        assert cache.stats.hits == 1

    def test_has_and_warm_track_the_sparse_tier(self, rng):
        cache = ReferenceIndexCache(max_bytes=100_000)
        reference = rng.randbytes(20_000)
        assert not cache.has("greedy", reference)
        assert cache.warm("greedy", reference)
        assert cache.has("greedy", reference)
        assert isinstance(cache.artifact("greedy", reference), SparseSeedIndex)

    def test_greedy_over_sparse_cache_round_trips(self, rng):
        cache = ReferenceIndexCache(max_bytes=100_000)
        reference = rng.randbytes(20_000)
        for _ in range(3):
            version = mutate(reference, rng)
            script = greedy_delta(reference, version,
                                  index=cache.artifact("greedy", reference))
            assert repro.apply_delta(script, reference) == version
        assert cache.stats.misses == 1
        assert cache.stats.evictions == 0

    def test_multi_mib_greedy_pipeline_runs_warm(self, rng):
        # The footgun this tier fixes: greedy over a 12 MiB reference
        # used to price its full index over the default budget, so every
        # job rebuilt a >1 GB-estimated index and thrashed the LRU.  Now
        # the sparse tier is built once, retained, and every later job
        # (and batch) is a cache hit with zero evictions.
        pytest.importorskip("numpy")
        reference = rng.randbytes(12 << 20)
        versions = [
            mutate(reference[base:base + 16_384], rng)
            for base in (0, 5 << 20, 10 << 20)
        ]
        jobs = [PipelineJob(reference, v, "v%d" % i)
                for i, v in enumerate(versions)]
        with DeltaPipeline(PipelineConfig(algorithm="greedy",
                                          executor="serial")) as pipe:
            cold = pipe.run(jobs)
            warm = pipe.run(jobs)
            stats = pipe.cache.stats
        assert cold.cache_hits == len(jobs) - 1
        assert warm.cache_hits == len(jobs)
        assert stats.misses == 1
        assert stats.evictions == 0
        for batch in (cold, warm):
            for result, version in zip(batch.results, versions):
                buf = bytearray(reference)
                assert bytes(repro.patch_in_place(buf, result.payload)) == version


class TestDeltaPipeline:
    def _check_batch(self, batch, reference, versions, executor):
        assert isinstance(batch, BatchReport)
        assert batch.jobs == len(versions)
        assert batch.wall_seconds > 0
        for i, result in enumerate(batch.results):
            report = result.report
            assert report.name == "v%d" % i  # submission order preserved
            buf = bytearray(reference)
            assert bytes(repro.patch_in_place(buf, result.payload)) == versions[i]
            assert report.executor == executor
            assert report.delta_bytes == len(result.payload)
            assert report.version_bytes == len(versions[i])
            assert isinstance(report.conversion, ConversionReport)
            for stage in (report.queue_seconds, report.diff_seconds,
                          report.convert_seconds, report.encode_seconds,
                          report.total_seconds):
                assert stage >= 0.0

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_round_trip(self, executor, batch_pair):
        reference, versions = batch_pair
        jobs = [PipelineJob(reference, v, "v%d" % i)
                for i, v in enumerate(versions)]
        with DeltaPipeline(PipelineConfig(executor=executor, workers=3)) as pipe:
            batch = pipe.run(jobs)
        self._check_batch(batch, reference, versions, executor)

    def test_process_executor_round_trip(self, batch_pair):
        reference, versions = batch_pair
        jobs = [PipelineJob(reference, v, "v%d" % i)
                for i, v in enumerate(versions)]
        with DeltaPipeline(PipelineConfig(executor="process", workers=2)) as pipe:
            batch = pipe.run(jobs)
            self._check_batch(batch, reference, versions, "process")
            # The worker-local caches persist across run() calls, so a
            # second batch against the same reference hits everywhere.
            again = pipe.run(jobs)
        assert again.cache_hits == len(jobs)

    def test_warm_makes_every_job_hit(self, batch_pair):
        reference, versions = batch_pair
        jobs = [PipelineJob(reference, v, "v%d" % i)
                for i, v in enumerate(versions)]
        with DeltaPipeline(PipelineConfig(algorithm="greedy", executor="thread")) as pipe:
            assert pipe.warm([reference]) == 1
            batch = pipe.run(jobs)
        assert batch.cache_hits == len(jobs)
        assert batch.cache_hit_rate == 1.0
        assert batch.cache_stats is not None
        stats = batch.cache_stats
        assert stats.hits / stats.lookups > 0.5

    def test_cold_then_warm_batches(self, batch_pair):
        reference, versions = batch_pair
        jobs = [PipelineJob(reference, v, "v%d" % i)
                for i, v in enumerate(versions)]
        with DeltaPipeline(PipelineConfig(executor="serial")) as pipe:
            cold = pipe.run(jobs)
            warm = pipe.run(jobs)
        assert cold.cache_hits == len(jobs) - 1  # first job builds the table
        assert warm.cache_hits == len(jobs)

    def test_tichy_bypasses_cache(self, batch_pair):
        reference, versions = batch_pair
        jobs = [PipelineJob(reference, v, "v%d" % i)
                for i, v in enumerate(versions)]
        with DeltaPipeline(PipelineConfig(algorithm="tichy", executor="serial")) as pipe:
            batch = pipe.run(jobs)
        self._check_batch(batch, reference, versions, "serial")
        assert batch.cache_hits == 0
        assert batch.cache_stats.lookups == 0

    def test_scratch_and_ordering_pass_through(self, batch_pair):
        reference, versions = batch_pair
        jobs = [PipelineJob(reference, v, "v%d" % i)
                for i, v in enumerate(versions)]
        with DeltaPipeline(PipelineConfig(executor="serial", scratch_budget=256,
                                          ordering="locality")) as pipe:
            batch = pipe.run(jobs)
        self._check_batch(batch, reference, versions, "serial")
        for result in batch.results:
            assert result.report.conversion.scratch_used <= 256

    def test_batch_report_aggregates(self, batch_pair):
        reference, versions = batch_pair
        jobs = [PipelineJob(reference, v, "v%d" % i)
                for i, v in enumerate(versions)]
        with DeltaPipeline(PipelineConfig(executor="serial")) as pipe:
            batch = pipe.run(jobs)
        assert batch.total_version_bytes == sum(map(len, versions))
        assert batch.total_delta_bytes == sum(
            r.report.delta_bytes for r in batch.results)
        assert batch.compute_seconds > 0

    def test_invalid_algorithm_rejected(self):
        with pytest.raises(ValueError):
            DeltaPipeline(PipelineConfig(algorithm="magic"))

    def test_invalid_executor_rejected(self):
        with pytest.raises(ValueError):
            DeltaPipeline(PipelineConfig(executor="fibers"))

    def test_empty_batch(self):
        with DeltaPipeline(PipelineConfig(executor="serial")) as pipe:
            batch = pipe.run([])
        assert batch.jobs == 0
        assert batch.cache_hit_rate == 0.0

    def test_shared_external_cache(self, batch_pair):
        """Every thread worker reads the pipeline's one cache, so a
        table warmed there before the batch serves every job."""
        reference, versions = batch_pair
        jobs = [PipelineJob(reference, v, "v%d" % i)
                for i, v in enumerate(versions)]
        with DeltaPipeline(PipelineConfig(executor="thread")) as pipe:
            cache = pipe.cache
            cache.warm("correcting", reference)
            batch = pipe.run(jobs)
        assert batch.cache_hits == len(jobs)
        assert pipe.cache is cache

class TestPipelineConfig:
    """The consolidated configuration object."""

    def test_defaults_reproduce_default_pipeline(self, batch_pair):
        reference, versions = batch_pair
        jobs = [PipelineJob(reference, v, "v%d" % i)
                for i, v in enumerate(versions)]
        with DeltaPipeline(PipelineConfig()) as pipe:
            assert pipe.config.algorithm == "correcting"
            assert pipe.config.executor == "thread"
            assert pipe.config.retries == 0
            assert pipe.config == PipelineConfig()
            batch = pipe.run(jobs)
        # Every emitted payload is decoded and checked before it ships.
        assert all(r.report.integrity == "verified" for r in batch.results)

    def test_chain_is_primary_plus_fallbacks(self):
        config = PipelineConfig(algorithm="greedy",
                                fallback=("onepass", "raw"))
        assert config.chain() == ("greedy", "onepass", "raw")

    def test_validate_rejects_bad_fields(self):
        for bad in (PipelineConfig(algorithm="magic"),
                    PipelineConfig(executor="fibers"),
                    PipelineConfig(retries=-1),
                    PipelineConfig(stage_timeout=0),
                    PipelineConfig(fallback=("magic",))):
            with pytest.raises(ValueError):
                bad.validate()

    def test_config_and_kwargs_together_rejected(self):
        with pytest.raises(TypeError):
            DeltaPipeline(PipelineConfig(), algorithm="greedy")

    def test_config_is_frozen_and_shareable(self, batch_pair):
        import dataclasses
        reference, versions = batch_pair
        base = PipelineConfig(algorithm="greedy")
        with pytest.raises(dataclasses.FrozenInstanceError):
            base.algorithm = "onepass"
        variant = dataclasses.replace(base, executor="serial")
        jobs = [PipelineJob(reference, versions[0], "v0")]
        for config in (base, variant):
            with DeltaPipeline(config) as pipe:
                assert pipe.run(jobs).ok_jobs == 1
