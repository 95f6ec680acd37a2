"""Tests for repro.pipeline.shm: arena lifecycle, zero-copy mappings,
and the shared-memory executor's no-orphan guarantees."""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro import perf
from repro.faults import FaultPlan, FaultSpec
from repro.pipeline import (
    EXECUTORS,
    DeltaPipeline,
    PipelineConfig,
    PipelineJob,
    ReferenceIndexCache,
    SegmentMapping,
    SharedBufferArena,
    SharedBufferDescriptor,
)
from repro.pipeline.shm import SHM_DIR
from repro.store import content_digest
from repro.workloads import make_source_file, mutate


def _shm_entries(prefix):
    """Live /dev/shm segments carrying ``prefix`` (empty off-Linux)."""
    if not os.path.isdir(SHM_DIR):
        return []
    return [n for n in os.listdir(SHM_DIR) if n.startswith(prefix)]


@pytest.fixture
def batch(rng):
    reference = make_source_file(rng, 8_000)
    versions = [mutate(reference, rng) for _ in range(4)]
    jobs = [PipelineJob(reference, v, "v%d" % i)
            for i, v in enumerate(versions)]
    return reference, versions, jobs


class TestContentDigest:
    def test_matches_cache_digest(self, rng):
        data = rng.randbytes(1_000)
        assert content_digest(data) == ReferenceIndexCache.digest(data)


class TestSharedBufferArena:
    def test_publish_map_round_trip(self, rng):
        data = rng.randbytes(10_000)
        with SharedBufferArena() as arena:
            descriptor = arena.publish(data)
            assert descriptor.length == len(data)
            assert descriptor.digest == content_digest(data)
            mapping = SegmentMapping(descriptor)
            assert bytes(mapping.buf) == data
            mapping.close()

    def test_dedupe_by_content(self, rng):
        data = rng.randbytes(2_000)
        with SharedBufferArena() as arena:
            first = arena.publish(bytes(data))
            second = arena.publish(bytes(data))  # equal bytes, new object
            assert second.segment == first.segment
            assert arena.refcount(first) == 2
            assert len(arena) == 1

    def test_same_object_skips_rehash(self, rng):
        data = rng.randbytes(2_000)
        with SharedBufferArena() as arena:
            first = arena.publish(data)
            second = arena.publish(data)
            assert second == first or second.segment == first.segment
            assert arena.refcount(first) == 2

    def test_no_dedupe_creates_fresh_segments(self, rng):
        data = rng.randbytes(2_000)
        with SharedBufferArena() as arena:
            a = arena.publish(data, dedupe=False)
            b = arena.publish(data, dedupe=False)
            assert a.segment != b.segment
            assert a.digest == ""
            assert len(arena) == 2

    def test_release_unlinks_at_refcount_zero(self, rng):
        data = rng.randbytes(2_000)
        with SharedBufferArena() as arena:
            first = arena.publish(bytes(data))
            second = arena.publish(bytes(data))
            arena.release(first)
            assert arena.refcount(second) == 1
            assert _shm_entries(first.segment) or not os.path.isdir(SHM_DIR)
            arena.release(second)
            assert arena.refcount(second) == 0
            assert len(arena) == 0
            assert not _shm_entries(first.segment)

    def test_republish_after_full_release(self, rng):
        data = rng.randbytes(2_000)
        with SharedBufferArena() as arena:
            first = arena.publish(bytes(data))
            arena.release(first)
            again = arena.publish(bytes(data))
            assert arena.refcount(again) == 1
            mapping = SegmentMapping(again)
            assert bytes(mapping.buf) == data
            mapping.close()

    def test_empty_buffer_needs_no_segment(self):
        with SharedBufferArena() as arena:
            descriptor = arena.publish(b"")
            assert descriptor.segment == ""
            assert len(arena) == 0
            arena.release(descriptor)  # must not raise
            mapping = SegmentMapping(descriptor)
            assert bytes(mapping.buf) == b""
            mapping.close()

    def test_close_unlinks_everything(self, rng):
        arena = SharedBufferArena()
        names = [arena.publish(rng.randbytes(1_000), dedupe=False).segment
                 for _ in range(3)]
        assert len(arena) == 3
        arena.close()
        assert arena.closed
        assert len(arena) == 0
        for name in names:
            assert not _shm_entries(name)
        arena.close()  # idempotent

    def test_publish_after_close_rejected(self):
        arena = SharedBufferArena()
        arena.close()
        with pytest.raises(ValueError):
            arena.publish(b"data")

    def test_release_after_close_is_noop(self, rng):
        arena = SharedBufferArena()
        descriptor = arena.publish(rng.randbytes(500))
        arena.close()
        arena.release(descriptor)  # must not raise

    def test_segment_names_listing(self, rng):
        with SharedBufferArena() as arena:
            a = arena.publish(rng.randbytes(500), dedupe=False)
            b = arena.publish(rng.randbytes(500), dedupe=False)
            assert arena.segment_names == sorted([a.segment, b.segment])

    def test_unlink_while_mapped_is_safe(self, rng):
        """Linux semantics: the reader's mapping survives the unlink."""
        data = rng.randbytes(4_000)
        with SharedBufferArena() as arena:
            descriptor = arena.publish(data)
            mapping = SegmentMapping(descriptor)
            arena.release(descriptor)  # unlinks the name
            assert not _shm_entries(descriptor.segment)
            assert bytes(mapping.buf) == data  # memory still valid
            mapping.close()


class TestSegmentMappingLifecycle:
    def test_close_is_idempotent(self, rng):
        with SharedBufferArena() as arena:
            descriptor = arena.publish(rng.randbytes(1_000))
            mapping = SegmentMapping(descriptor)
            mapping.close()
            mapping.close()

    def test_descriptor_is_pickle_cheap(self, rng):
        import pickle
        with SharedBufferArena() as arena:
            descriptor = arena.publish(rng.randbytes(100_000))
            wire = pickle.dumps(descriptor)
            assert len(wire) < 300  # the point of the design
            assert pickle.loads(wire) == descriptor


class TestProcessExitCleanup:
    def test_atexit_sweep_reclaims_unclosed_arena(self):
        """A normally-exiting process that never called close() still
        unlinks its segments via the module atexit sweep."""
        script = (
            "import sys; sys.path.insert(0, %r)\n"
            "from repro.pipeline.shm import SharedBufferArena\n"
            "arena = SharedBufferArena(prefix='ipdatexit')\n"
            "d = arena.publish(b'x' * 50_000)\n"
            "print(d.segment)\n"
            # no close(): the atexit sweep must handle it
        ) % os.path.join(os.path.dirname(__file__), "..", "src")
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, check=True)
        name = out.stdout.strip()
        assert name
        assert not _shm_entries(name)

    def test_power_cut_reclaims_segments(self):
        """SIGKILL mid-publish (the 'device.power' story: the host dies
        with no chance to run cleanup) must not orphan segments — the
        resource tracker is the backstop behind the atexit sweep."""
        script = (
            "import sys, time; sys.path.insert(0, %r)\n"
            "from repro.pipeline.shm import SharedBufferArena\n"
            "arena = SharedBufferArena(prefix='ipdpower')\n"
            "d = arena.publish(b'x' * 50_000)\n"
            "print(d.segment, flush=True)\n"
            "time.sleep(60)\n"
        ) % os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.Popen([sys.executable, "-c", script],
                                stdout=subprocess.PIPE, text=True)
        try:
            name = proc.stdout.readline().strip()
            assert _shm_entries(name) or not os.path.isdir(SHM_DIR)
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
        for _ in range(100):  # tracker cleanup is async; allow 10s
            if not _shm_entries(name):
                break
            time.sleep(0.1)
        assert not _shm_entries(name)


class TestPipelineSegmentHygiene:
    def test_batch_releases_every_segment(self, batch):
        _reference, _versions, jobs = batch
        with DeltaPipeline(PipelineConfig(executor="process-shm",
                                          workers=2)) as pipe:
            result = pipe.run(jobs)
            assert result.ok_jobs == len(jobs)
            arena = pipe._arena
            assert arena is not None and len(arena) == 0
            prefix = arena._prefix
            assert not _shm_entries(prefix)
        assert not _shm_entries(prefix)

    def test_quarantined_batch_leaves_no_orphans(self, batch):
        _reference, _versions, jobs = batch
        plan = FaultPlan([FaultSpec(site="diff.worker", count=99)])
        with DeltaPipeline(PipelineConfig(executor="process-shm",
                                          workers=2,
                                          fault_plan=plan)) as pipe:
            result = pipe.run(jobs)
            assert len(result.quarantined) == len(jobs)
            arena = pipe._arena
            assert len(arena) == 0
            prefix = arena._prefix
            assert not _shm_entries(prefix)

    def test_close_sweeps_arena(self, batch):
        _reference, _versions, jobs = batch
        pipe = DeltaPipeline(PipelineConfig(executor="process-shm",
                                            workers=2))
        pipe.run(jobs)
        prefix = pipe._arena._prefix
        pipe.close()
        assert pipe._arena is None
        assert not _shm_entries(prefix)


class TestExecutorMatrix:
    def test_all_executors_byte_identical(self, batch):
        reference, versions, jobs = batch
        payloads = {}
        for executor in EXECUTORS:
            with DeltaPipeline(PipelineConfig(executor=executor,
                                              workers=2)) as pipe:
                result = pipe.run(jobs)
            assert result.ok_jobs == len(jobs), (executor,
                                                 result.quarantined)
            assert [r.report.executor for r in result.results] == \
                [executor] * len(jobs)
            payloads[executor] = [r.payload for r in result.results]
        baseline = payloads["serial"]
        for executor, got in payloads.items():
            assert got == baseline, executor
        assert not _shm_entries("ipd-")

    def test_process_shm_cache_hits_across_batches(self, batch):
        _reference, _versions, jobs = batch
        # One worker so every job lands on the same worker cache.
        with DeltaPipeline(PipelineConfig(executor="process-shm",
                                          workers=1)) as pipe:
            pipe.run(jobs)
            # Worker caches key on the descriptor digest, which is
            # stable across batches even though the segment is new.
            again = pipe.run(jobs)
        assert again.cache_hits == len(jobs)


class TestWorkerCounterAggregation:
    @pytest.mark.parametrize("executor", ["process", "process-shm"])
    def test_worker_counters_reach_parent_recorder(self, executor, batch):
        _reference, _versions, jobs = batch
        with DeltaPipeline(PipelineConfig(executor=executor,
                                          workers=2)) as pipe:
            with perf.recording() as recorder:
                result = pipe.run(jobs)
        assert result.ok_jobs == len(jobs)
        counters = recorder.counters
        # Stage counters recorded inside the worker processes must have
        # been merged back, not silently dropped.
        assert counters["pipeline.diff.jobs"] == len(jobs)
        assert counters["diff.correcting.calls"] == len(jobs)
        assert counters["pipeline.diff.seconds"] > 0
        # So must those of conversion and encode, which run there too.
        assert counters["convert.calls"] == len(jobs)
        assert counters["pipeline.convert.seconds"] > 0
        assert counters["pipeline.encode.seconds"] > 0

    def test_thread_executor_unchanged(self, batch):
        _reference, _versions, jobs = batch
        with DeltaPipeline(PipelineConfig(executor="thread",
                                          workers=2)) as pipe:
            with perf.recording() as recorder:
                pipe.run(jobs)
        assert recorder.counters["pipeline.diff.jobs"] == len(jobs)
