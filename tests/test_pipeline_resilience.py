"""Fault-matrix tests: the pipeline survives injected faults, deterministically.

The contract under test (ISSUE 2 acceptance criteria):

* a batch of N jobs with injected faults always returns N
  ``PipelineResult`` objects — failures come back structured
  (quarantined), never raised;
* the same fault seed reproduces byte-identical failure/retry traces
  across runs *and* across the serial, thread and process executors.
"""

import random

import pytest

import repro
from repro.delta import ALGORITHMS
from repro.faults import FaultPlan, FaultSpec
from repro.pipeline import DeltaPipeline, PipelineConfig, PipelineJob
from repro.workloads import make_source_file, mutate

EXECUTORS_UNDER_TEST = ("serial", "thread", "process")


@pytest.fixture(scope="module")
def small_batch():
    """A small reference/versions set (kept tiny: the matrix reruns it a lot)."""
    rng = random.Random(0xFA11)
    reference = make_source_file(rng, 2_500)
    versions = [mutate(reference, rng) for _ in range(3)]
    return reference, versions


def _jobs(small_batch):
    reference, versions = small_batch
    return [PipelineJob(reference, v, "v%d" % i)
            for i, v in enumerate(versions)]


def _run(small_batch, executor, specs, seed=0, **kwargs):
    """One pipeline run under a fresh plan built from ``specs``."""
    kwargs.setdefault("diff_workers", 2)
    kwargs.setdefault("convert_workers", 2)
    plan = FaultPlan([FaultSpec(**spec) for spec in specs], seed=seed)
    config = PipelineConfig(executor=executor, fault_plan=plan, **kwargs)
    with DeltaPipeline(config) as pipe:
        return pipe.run(_jobs(small_batch))


# Scenario -> (fault specs, pipeline kwargs, expectation checker).  Each
# exercises one leg of the resilience triad: retry, fallback, quarantine.
SCENARIOS = {
    "retry": dict(
        specs=[dict(site="diff.worker", nth=1)],
        kwargs=dict(retries=1),
        check=lambda b: (b.ok_jobs == b.jobs and len(b.retried) == b.jobs
                         and not b.fallbacks and not b.quarantined),
    ),
    "fallback": dict(
        specs=[dict(site="diff.worker", count=2)],
        kwargs=dict(retries=1, fallback=("greedy", "raw")),
        check=lambda b: (b.ok_jobs == b.jobs and b.fallbacks
                         and not b.quarantined),
    ),
    "quarantine": dict(
        specs=[dict(site="convert.evict", count=99)],
        kwargs=dict(retries=1, fallback=("greedy", "raw")),
        check=lambda b: (b.ok_jobs == 0 and len(b.quarantined) == b.jobs),
    ),
}


class TestFaultMatrix:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_matrix_is_deterministic_across_runs_and_executors(
            self, scenario, small_batch):
        cfg = SCENARIOS[scenario]
        traces = []
        for executor in EXECUTORS_UNDER_TEST:
            for _rerun in range(2):
                batch = _run(small_batch, executor, cfg["specs"],
                             seed=42, **cfg["kwargs"])
                # N jobs in -> N structured results out, regardless of faults.
                assert batch.jobs == 3
                assert cfg["check"](batch), (scenario, executor)
                traces.append(batch.trace)
        assert all(t == traces[0] for t in traces), (
            "trace diverged across runs/executors for %r" % scenario)

    @pytest.mark.parametrize("executor", EXECUTORS_UNDER_TEST)
    def test_quarantined_results_are_structured(self, executor, small_batch):
        batch = _run(small_batch, executor,
                     [dict(site="diff.worker", count=99)])
        assert len(batch.results) == 3
        for result in batch.results:
            assert not result.ok
            assert result.payload == b""
            assert result.report.quarantined
            assert result.report.attempts == 1  # no retries configured
            assert "InjectedFault" in result.report.failure
            assert result.report.trace[-1].startswith(
                "%s: quarantined" % result.report.name)

    def test_probabilistic_plan_same_seed_same_trace(self, small_batch):
        spec = [dict(site="diff.worker", probability=0.5)]
        kwargs = dict(retries=2, fallback=("raw",))
        first = _run(small_batch, "serial", spec, seed=1, **kwargs)
        second = _run(small_batch, "thread", spec, seed=1, **kwargs)
        assert first.trace == second.trace
        assert first.fault_events > 0  # seed 1 does fire for these jobs
        assert first.ok_jobs == first.jobs  # raw floor always lands

    def test_different_seed_changes_the_trace(self, small_batch):
        spec = [dict(site="diff.worker", probability=0.5)]
        kwargs = dict(retries=2, fallback=("raw",))
        a = _run(small_batch, "serial", spec, seed=1, **kwargs)
        b = _run(small_batch, "serial", spec, seed=2, **kwargs)
        assert a.trace != b.trace


class TestDegradationChain:
    def test_fallback_to_second_differ(self, small_batch):
        # Only the first diff call fails: the primary's lone attempt dies,
        # the first fallback link (greedy) succeeds.
        batch = _run(small_batch, "serial",
                     [dict(site="diff.worker", nth=1)],
                     fallback=("greedy", "raw"))
        reference, versions = small_batch
        for i, result in enumerate(batch.results):
            assert result.ok
            assert result.report.fallback == "greedy"
            assert result.report.attempts == 2
            buf = bytearray(reference)
            assert bytes(repro.patch_in_place(buf, result.payload)) == versions[i]

    def test_raw_floor_survives_total_differ_failure(self, small_batch):
        # Every differ call fails, for every algorithm: only the raw
        # full-rewrite floor can serve the job — and it round-trips.
        batch = _run(small_batch, "serial",
                     [dict(site="diff.worker", count=999)],
                     retries=1, fallback=("greedy", "raw"))
        reference, versions = small_batch
        assert batch.ok_jobs == batch.jobs
        for i, result in enumerate(batch.results):
            assert result.report.fallback == "raw"
            # A raw rewrite carries the whole version as literals.
            assert result.report.delta_bytes > len(versions[i])
            buf = bytearray(reference)
            assert bytes(repro.patch_in_place(buf, result.payload)) == versions[i]

    def test_unknown_fallback_rejected(self):
        with pytest.raises(ValueError):
            DeltaPipeline(PipelineConfig(fallback=("sorcery",)))

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            DeltaPipeline(PipelineConfig(retries=-1))


class TestCacheDegrade:
    def test_cache_fault_degrades_without_failing_the_job(self, small_batch):
        batch = _run(small_batch, "serial",
                     [dict(site="cache.lookup", count=99)])
        reference, versions = small_batch
        assert batch.ok_jobs == batch.jobs
        assert batch.cache_hits == 0  # every lookup was bypassed
        for result in batch.results:
            assert result.report.attempts == 1
            assert any("cache bypassed" in line for line in result.report.trace)
            assert result.report.faults  # recorded, not fatal


class TestTimeouts:
    def test_injected_timeout_is_retryable(self, small_batch):
        batch = _run(small_batch, "serial",
                     [dict(site="diff.worker", nth=1, error="timeout")],
                     retries=1)
        assert batch.ok_jobs == batch.jobs
        for result in batch.results:
            assert result.report.attempts == 2
            assert any("StageTimeoutError" in f for f in result.report.faults)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_watchdog_flags_real_overruns(self, executor, small_batch):
        # A budget no real diff can meet: every attempt times out and the
        # job quarantines instead of raising or hanging.
        with DeltaPipeline(PipelineConfig(
                executor=executor, stage_timeout=1e-9,
                diff_workers=2, convert_workers=2)) as pipe:
            batch = pipe.run(_jobs(small_batch))
        assert len(batch.results) == 3
        for result in batch.results:
            assert result.report.quarantined
            assert "stage exceeded" in result.report.failure

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            DeltaPipeline(PipelineConfig(stage_timeout=0))


class TestFaultIsolationBugfixes:
    """Regression tests for the PR-1 executor bugs (bare fut.result())."""

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_raising_differ_never_escapes_run(self, executor, small_batch,
                                              monkeypatch):
        calls = {"n": 0}
        real = ALGORITHMS["correcting"]

        def flaky(reference, version, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:  # poison exactly one mid-batch job
                raise RuntimeError("differ exploded")
            return real(reference, version, **kwargs)

        monkeypatch.setitem(ALGORITHMS, "correcting", flaky)
        pipe = DeltaPipeline(PipelineConfig(
            executor=executor, diff_workers=2, convert_workers=2))
        batch = pipe.run(_jobs(small_batch))  # must not raise
        assert len(batch.results) == 3
        failed = [r for r in batch.results if not r.ok]
        assert len(failed) == 1
        assert failed[0].report.failure == "RuntimeError: differ exploded"
        assert sum(1 for r in batch.results if r.ok) == 2
        # The pools survived the failure: a clean batch still works, and
        # close() after the failed batch neither hangs nor raises.
        monkeypatch.setitem(ALGORITHMS, "correcting", real)
        again = pipe.run(_jobs(small_batch))
        assert again.ok_jobs == 3
        pipe.close()

    def test_mid_batch_failure_leaves_no_orphans(self, small_batch,
                                                 monkeypatch):
        def always_boom(reference, version, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setitem(ALGORITHMS, "correcting", always_boom)
        pipe = DeltaPipeline(PipelineConfig(
            executor="thread", diff_workers=2, convert_workers=2))
        batch = pipe.run(_jobs(small_batch))
        assert len(batch.results) == 3
        assert batch.ok_jobs == 0
        pipe.close()  # would hang if queued work leaked
        assert pipe._diff_pool is None and pipe._convert_pool is None
