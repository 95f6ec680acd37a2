"""Tests for repro.fleet: campaign driver, crash-point checker, fleet
synthesis — plus the adversarial workload generators and deterministic
backoff jitter that ride along with them."""

import json
import random

import pytest

import repro.fleet.campaign as campaign_module
from repro import diff, make_in_place, perf
from repro.core.apply import apply_delta
from repro.exceptions import StoreError
from repro.faults import (
    BACKOFF_FACTOR,
    BACKOFF_JITTER,
    FaultPlan,
    jitter_draw,
)
from repro.fleet import (
    CAMPAIGN_SCHEMA,
    CampaignReport,
    DeviceOutcome,
    RolloutPolicy,
    check_crash_points,
    check_double_cut,
    check_torn_journal,
    count_write_boundaries,
    make_fleet,
    make_release_train,
    percentile,
    run_campaign,
)
from repro.store import MemoryStore, PackStore, StoreConfig, content_digest
from repro.workloads import (
    ADVERSARIAL_GENERATORS,
    InDelProcess,
    ReplicaSyncProcess,
    indel_arbitrary,
    indel_random,
    replica_sync,
)


# ---------------------------------------------------------------------------
# Adversarial workload generators (Wang et al. InDel, replica-sync)
# ---------------------------------------------------------------------------


class TestInDelWorkloads:
    def test_deterministic_given_rng(self):
        data = random.Random(1).randbytes(4096)
        for name, generator in sorted(ADVERSARIAL_GENERATORS.items()):
            a = generator(data, random.Random(7))
            b = generator(data, random.Random(7))
            assert a == b, name
            assert a != data, name

    def test_round_trips_through_delta(self):
        data = random.Random(2).randbytes(4096)
        for name, generator in sorted(ADVERSARIAL_GENERATORS.items()):
            edited = generator(data, random.Random(9))
            script = diff(data, edited)
            assert bytes(apply_delta(script, data)) == edited, name

    def test_indel_changes_length(self):
        # Insertions and deletions shift the file, unlike the
        # block-rewrite corpus mutators.
        data = random.Random(3).randbytes(4096)
        out = indel_random(data, random.Random(3), edits=200, p_insert=1.0)
        assert len(out) == len(data) + 200
        out = indel_random(data, random.Random(3), edits=200, p_insert=0.0)
        # A deletion drawn at the very end of the file is a no-op, so
        # the shrink is bounded, not exact.
        assert len(data) - 200 <= len(out) < len(data)

    def test_arbitrary_regime_clusters_edits(self):
        data = bytes(4096)  # all zeros: edited bytes are visible
        out = indel_arbitrary(data, random.Random(4), edits=64,
                              p_insert=1.0, window_fraction=0.05)
        touched = [i for i, b in enumerate(out) if b != 0]
        assert touched
        # Every random insertion landed inside one narrow window.
        span = max(touched) - min(touched)
        assert span <= int(len(out) * 0.05) + 64

    def test_replica_sync_is_block_sparse(self):
        process = ReplicaSyncProcess(block_size=256, sparsity=0.05,
                                     parity_blocks=0)
        data = random.Random(5).randbytes(64 * 256)
        out = process.apply(data, random.Random(5))
        assert len(out) == len(data)
        dirty = [
            b for b in range(64)
            if out[b * 256:(b + 1) * 256] != data[b * 256:(b + 1) * 256]
        ]
        assert 1 <= len(dirty) <= 8  # sparse, not a rewrite

    def test_replica_sync_parity_fan_out(self):
        # stripe = 4 data + 1 parity; a data rewrite must recompute its
        # stripe's parity block as the XOR of the stripe's data blocks.
        block, width = 128, 4
        data = random.Random(6).randbytes(block * 10)
        out = replica_sync(data, random.Random(6), block_size=block,
                           sparsity=0.3, stripe_width=width, parity_blocks=1)
        stripe_bytes = block * (width + 1)
        for s in range(len(out) // stripe_bytes):
            base = s * stripe_bytes
            parity = bytearray(block)
            for d in range(width):
                chunk = out[base + d * block: base + (d + 1) * block]
                for i, byte in enumerate(chunk):
                    parity[i] ^= byte
            stored = out[base + width * block: base + stripe_bytes]
            if stored != data[base + width * block: base + stripe_bytes]:
                # Parity was rewritten, so it must equal the stripe XOR.
                assert bytes(parity) == stored

    def test_validation(self):
        with pytest.raises(ValueError):
            InDelProcess(regime="chaotic")
        with pytest.raises(ValueError):
            InDelProcess(p_insert=1.5)
        with pytest.raises(ValueError):
            ReplicaSyncProcess(sparsity=0.0)


# ---------------------------------------------------------------------------
# Fleet synthesis
# ---------------------------------------------------------------------------


class TestFleetSynthesis:
    def test_deterministic(self):
        train = make_release_train(("app",), releases=3, size=1024, seed=4)
        assert make_fleet(50, train, seed=9) == make_fleet(50, train, seed=9)
        assert make_fleet(50, train, seed=9) != make_fleet(50, train, seed=10)

    def test_release_train_deterministic_and_distinct(self):
        a = make_release_train(("app", "kernel"), releases=4, size=2048, seed=1)
        b = make_release_train(("app", "kernel"), releases=4, size=2048, seed=1)
        assert a == b
        for chain in a.values():
            assert len(chain) == 4
            assert len(set(chain)) == 4  # every release differs

    def test_staleness_skew(self):
        train = make_release_train(("app",), releases=6, size=512, seed=2)
        fleet = make_fleet(600, train, seed=2)
        latest = 5
        skips = [latest - d.have for d in fleet]
        assert all(1 <= s <= 5 for s in skips)
        # 1-behind dominates; the deep tail exists but is small.
        assert skips.count(1) > skips.count(5) > 0

    def test_max_skip_cap(self):
        train = make_release_train(("app",), releases=6, size=512, seed=2)
        fleet = make_fleet(100, train, seed=2, max_skip=2)
        assert all(5 - d.have <= 2 for d in fleet)


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------

_FAULTY_PLAN = (
    "device.power:p=0.06:fuel=1500; delta.truncate:p=0.04; "
    "delta.bitflip:p=0.04; channel.transmit:p=0.05; storage.bitflip:p=0.01"
)


def _small_campaign(devices=300, seed=7, executor="serial", policy=None,
                    plan=_FAULTY_PLAN, fault_seed=42, **kwargs):
    train = make_release_train(("app", "kernel"), releases=4, size=4096,
                               seed=1)
    fleet = make_fleet(devices, train, seed=1)
    fault_plan = FaultPlan.parse(plan, seed=fault_seed) if plan else None
    return run_campaign(train, fleet, policy=policy or RolloutPolicy(),
                        fault_plan=fault_plan, seed=seed, executor=executor,
                        **kwargs)


class TestCampaign:
    def test_ten_thousand_devices_no_silent_failures(self):
        """The acceptance bar: a seeded 10^4-device campaign with power
        cuts and corrupted downloads ends with every device verified
        byte-exact or quarantined with a structured reason."""
        train = make_release_train(("app", "kernel"), releases=3, size=2048,
                                   seed=3)
        fleet = make_fleet(10_000, train, seed=3)
        plan = FaultPlan.parse(_FAULTY_PLAN, seed=13)
        report = run_campaign(train, fleet, policy=RolloutPolicy(),
                              fault_plan=plan, seed=13, executor="serial")
        assert report.devices == 10_000
        assert report.silent_failures() == []
        counters = report.counters
        assert counters["updated"] + counters["quarantined"] \
            + counters["deferred"] == 10_000
        # The fault plan actually bit: cuts and corrupt downloads fired.
        assert counters["power_cuts"] > 50
        assert counters["fault_events"] > 500
        assert counters["updated"] > 9_000
        # Success in run_journaled_session requires the reconstructed
        # image to equal the release bytes, so "updated" == byte-exact;
        # every other status must carry a structured reason.
        for outcome in report.outcomes:
            if outcome.status != "updated":
                assert outcome.reason
                assert outcome.kind in ("corruption", "transient", "")
        # Serialization re-enforces the same invariant.
        artifact = report.to_dict()
        assert artifact["schema"] == CAMPAIGN_SCHEMA
        assert artifact["counters"] == counters

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_counters_identical_across_executors(self, executor):
        baseline = _small_campaign(devices=240, executor="serial")
        other = _small_campaign(devices=240, executor=executor, workers=4)
        assert baseline.counters == other.counters
        assert baseline.bandwidth == other.bandwidth
        # Per-device terminal states match, not just the sums.
        key = lambda r: sorted((o.device, o.status, o.reason)
                               for o in r.outcomes)
        assert key(baseline) == key(other)

    def test_abort_threshold_defers_remainder(self):
        report = _small_campaign(
            devices=200, plan="channel.transmit:p=1.0",
            policy=RolloutPolicy(retry_budget=0))
        counters = report.counters
        assert counters["updated"] == 0
        assert report.stages[0].aborted
        assert counters["deferred"] > 0
        assert counters["quarantined"] + counters["deferred"] == 200
        for outcome in report.outcomes:
            if outcome.status == "deferred":
                assert "aborted at stage 1" in outcome.reason
            elif outcome.status == "quarantined":
                assert outcome.kind == "transient"
                assert "retry budget exhausted" in outcome.reason
        assert report.silent_failures() == []

    def test_bandwidth_and_latency_accounting(self):
        report = _small_campaign(devices=120, plan=None)
        bandwidth = report.bandwidth
        assert bandwidth["full_image_bytes"] > 0
        assert 0.0 < bandwidth["savings_ratio"] < 1.0
        assert bandwidth["saved_bytes"] == (
            bandwidth["full_image_bytes"] - bandwidth["delta_bytes_sent"])
        latency = report.latency
        assert 0.0 < latency["p50_seconds"] <= latency["p99_seconds"]

    def test_chain_composition_payloads_cover_skips(self):
        # Devices more than one release behind get a composed payload,
        # and the cohort map shows one entry per (package, have).
        report = _small_campaign(devices=150, plan=None)
        assert any("@0->" in key for key in report.cohorts)
        assert all(size > 0 for size in report.cohorts.values())

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RolloutPolicy(stages=(0.5, 0.1, 1.0)).validate()
        with pytest.raises(ValueError):
            RolloutPolicy(stages=(0.5,)).validate()
        with pytest.raises(ValueError):
            _small_campaign(devices=10, executor="quantum")

    def test_artifact_round_trip(self, tmp_path):
        report = _small_campaign(devices=60)
        path = tmp_path / "campaign.json"
        report.write(str(path), include_devices=True)
        data = json.loads(path.read_text())
        assert data["schema"] == CAMPAIGN_SCHEMA
        assert len(data["devices"]) == 60
        assert data["counters"] == report.counters

    def test_artifact_carries_no_encode_choice(self):
        # Every cohort payload comes from VersionStore.chain(), so the
        # report has no encode policy and no pipeline batch summaries.
        data = _small_campaign(devices=20, plan=None).to_dict()
        assert data["schema"] == "repro.fleet.campaign/2"
        assert "encode_batches" not in data
        assert "encode" not in data["policy"]


# One 12-release train (past the store's max_chain_depth of 8), recorded
# before the campaign sourced every "compose" payload from a store: the
# counters, cohort sizes and payload digests must never drift.  (Payload
# CRC32s cannot pin anything here: an IPD2 payload ends with its own
# CRC32, so every payload's CRC32 is the same residue.)
_PINNED_COUNTERS = {
    "devices": 150, "updated": 149, "quarantined": 1, "deferred": 0,
    "sessions": 152, "attempts": 178, "boots": 161, "power_cuts": 11,
    "fault_events": 57, "retried_sessions": 2,
}
_PINNED_COHORTS = {
    "app@0->11": 1899, "app@1->11": 1899, "app@2->11": 1797,
    "app@3->11": 1650, "app@4->11": 1397, "app@5->11": 1199,
    "app@6->11": 1199, "app@7->11": 1043, "app@8->11": 655,
    "app@9->11": 494, "app@10->11": 145,
}
_PINNED_PAYLOADS = [
    "9f31d32c17ee", "921b5f65985e", "88697f46cb5a", "ba25a2c3ec41",
    "bf993ff44984", "5f5438edb9ec", "eebb1c167230", "05f88252bbcc",
    "ce44a7a59f03", "80aa1e00adf7", "39840de1bd97",
]


class _FailingChainStore(PackStore):
    """A pack store whose ``chain`` fails for one ``have`` digest."""

    failing_have = ""

    def chain(self, package, have, want):
        if have == self.failing_have:
            raise StoreError("injected chain failure", kind="chain")
        return super().chain(package, have, want)


class TestStoreChainCohorts:
    """The "compose" policy takes every payload from ``VersionStore.chain``."""

    def _run(self, monkeypatch, train, fleet, store=None):
        """(report, {have: payload digest prefix}) of one campaign."""
        payloads = {}
        real = campaign_module.run_journaled_session

        def spy(payload, reference, expected, **kwargs):
            payloads[reference] = content_digest(payload)[:12]
            return real(payload, reference, expected, **kwargs)

        monkeypatch.setattr(campaign_module, "run_journaled_session", spy)
        report = run_campaign(
            train, fleet, policy=RolloutPolicy(),
            fault_plan=FaultPlan.parse(_FAULTY_PLAN, seed=42), seed=3,
            executor="serial", store=store)
        image_have = {image: have for have, image
                      in reversed(list(enumerate(train["app"])))}
        return report, {image_have[ref]: digest
                        for ref, digest in payloads.items()}

    def _train(self):
        train = make_release_train(("app",), releases=12, size=2048, seed=3)
        return train, make_fleet(150, train, seed=3)

    def test_payloads_identical_with_and_without_store(self, monkeypatch,
                                                       tmp_path):
        train, fleet = self._train()
        plain, plain_payloads = self._run(monkeypatch, train, fleet)
        store = PackStore.init(tmp_path / "s", StoreConfig(fsync=False))
        stored, stored_payloads = self._run(monkeypatch, train, fleet,
                                            store=store)
        for report, payloads in ((plain, plain_payloads),
                                 (stored, stored_payloads)):
            assert report.counters == _PINNED_COUNTERS
            assert report.cohorts == _PINNED_COHORTS
            assert [payloads[have] for have in range(11)] == _PINNED_PAYLOADS
        # The caller's store now holds the train.
        assert len(store.versions("app")) == 12

    def test_failing_chain_defers_only_its_cohort(self, monkeypatch,
                                                  tmp_path):
        train, fleet = self._train()
        store = _FailingChainStore.init(tmp_path / "s",
                                        StoreConfig(fsync=False))
        store.failing_have = content_digest(train["app"][4])
        report, payloads = self._run(monkeypatch, train, fleet, store=store)
        assert report.cohorts["app@4->11"] == -1
        assert {k: v for k, v in report.cohorts.items()
                if k != "app@4->11"} == {
                    k: v for k, v in _PINNED_COHORTS.items()
                    if k != "app@4->11"}
        assert 4 not in payloads
        assert [payloads[h] for h in range(11) if h != 4] == [
            d for h, d in enumerate(_PINNED_PAYLOADS) if h != 4]
        deferred = [o for o in report.outcomes if o.status == "deferred"]
        assert deferred and all(o.have == 4 for o in deferred)
        assert all(o.reason == "store chain failed: StoreError: injected "
                   "chain failure" for o in deferred)
        assert deferred == [o for o in report.outcomes if o.have == 4]
        assert report.silent_failures() == []

    def test_store_without_chains_defers_every_stale_cohort(self,
                                                            monkeypatch):
        train, fleet = self._train()
        report, payloads = self._run(monkeypatch, train, fleet,
                                     store=MemoryStore())
        assert payloads == {}
        assert set(report.cohorts.values()) == {-1}
        for outcome in report.outcomes:
            assert outcome.status == "deferred"
            assert outcome.reason == ("store has no chain for cohort "
                                      "app@%d->11" % outcome.have)

    def test_repeated_image_is_current_without_a_session(self, monkeypatch):
        rng = random.Random(11)
        image = rng.randbytes(2048)
        other = image[:1000] + rng.randbytes(48) + image[1048:]
        train = {"app": [image, other, image]}
        fleet = make_fleet(40, train, seed=2)
        assert {d.have for d in fleet} == {0, 1}
        report, payloads = self._run(monkeypatch, train, fleet)
        assert list(report.cohorts) == ["app@1->2"]
        assert set(payloads) == {1}
        for outcome in report.outcomes:
            assert outcome.status == "updated"
            assert outcome.sessions == (1 if outcome.have == 1 else 0)

    def test_store_chain_counter_counts_cohorts(self):
        train, fleet = self._train()
        with perf.recording() as recorder:
            report = run_campaign(train, fleet, seed=3)
        counters = recorder.counters
        assert counters["campaign.store_chain"] == len(report.cohorts) == 11
        assert counters["store.chain.collapsed"] == 11


class TestReportInvariants:
    def test_silent_failure_refuses_serialization(self):
        outcome = DeviceOutcome(device="d", package="p", have=0, want=1,
                                status="quarantined", reason="")
        with pytest.raises(ValueError, match="silent failure"):
            outcome.to_dict()
        outcome.reason = "why"
        assert outcome.to_dict()["reason"] == "why"

    def test_unknown_status_refused(self):
        outcome = DeviceOutcome(device="d", package="p", have=0, want=1,
                                status="mystery", reason="r")
        with pytest.raises(ValueError, match="unknown status"):
            outcome.to_dict()

    def test_percentile(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50.0) == 50.0
        assert percentile(values, 99.0) == 99.0
        assert percentile(values, 100.0) == 100.0
        assert percentile([], 50.0) == 0.0
        with pytest.raises(ValueError):
            percentile(values, 150.0)


# ---------------------------------------------------------------------------
# Crash-point recovery checker
# ---------------------------------------------------------------------------


def _overlap_script():
    """Multi-segment update with self-overlapping copies (backup records)."""
    r = random.Random(5)
    old = bytearray(r.randbytes(2400))
    new = bytearray(old)
    new[0:500] = old[150:650]       # overlapping copy
    new[700:1100] = old[800:1200]   # another shifted region
    new[1200:1350] = r.randbytes(150)
    old, new = bytes(old), bytes(new)
    result = make_in_place(diff(old, new), old)
    return result.script, old, new


def _scratch_script():
    """Swap cycle routed through scratch (spill/fill records)."""
    r = random.Random(6)
    old = bytearray(r.randbytes(1536))
    new = bytearray(old)
    new[0:384] = old[384:768]
    new[384:768] = old[0:384]
    new[900:940] = r.randbytes(40)
    old, new = bytes(old), bytes(new)
    result = make_in_place(diff(old, new), old, scratch_budget=512)
    assert result.script.scratch_length > 0
    return result.script, old, new


class TestCrashPoints:
    def test_exhaustive_enumeration_passes_every_boundary(self):
        """Acceptance: every journal write boundary of a multi-segment
        update resumes to the exact bytes."""
        kinds = set()
        for script, old, new in (_overlap_script(), _scratch_script()):
            report = check_crash_points(script, old, new, chunk_size=96)
            assert report.ok, report.failures[:5]
            assert report.checked == report.boundaries > 0
            assert report.exact == report.checked  # byte-exact everywhere
            assert report.halted == 0  # clean cuts never merely "halt"
            kinds.update(report.record_kinds)
        # Across the two scripts every journal record kind was covered.
        assert kinds == {"state", "scratch", "backup"}

    def test_boundary_count_matches_written_bytes(self):
        script, old, new = _overlap_script()
        boundaries = count_write_boundaries(script, old, chunk_size=96)
        assert boundaries >= len(new) - sum(
            1 for a, b in zip(old, new) if a == b
        )  # at least every changed byte is written

    def test_double_cut_recovery_is_exact(self):
        """Satellite: recovery interrupted by a second power cut still
        lands byte-exact at every sampled (first, second) boundary pair."""
        for script, old, new in (_overlap_script(), _scratch_script()):
            report = check_double_cut(script, old, new, chunk_size=96,
                                      first_stride=53, second_stride=47)
            assert report.ok, report.failures[:5]
            assert report.checked > 100
            assert report.exact == report.checked

    def test_torn_journal_contract(self):
        """Every journal-sector truncation either recovers or halts with
        a structured report — wrong bytes are always detected."""
        script, old, new = _overlap_script()
        boundaries = count_write_boundaries(script, old, chunk_size=96)
        for fuel in (1, boundaries // 3, boundaries - 2):
            report = check_torn_journal(script, old, new, fuel=fuel,
                                        chunk_size=96)
            assert report.ok, report.failures[:5]
            assert report.checked == report.boundaries + 1
            assert report.exact + report.halted == report.checked

    def test_checker_rejects_bad_fuel(self):
        script, old, new = _overlap_script()
        with pytest.raises(ValueError):
            check_torn_journal(script, old, new, fuel=10 ** 9)
        with pytest.raises(ValueError):
            check_crash_points(script, old, new, stride=0)


# ---------------------------------------------------------------------------
# Deterministic backoff jitter (satellite)
# ---------------------------------------------------------------------------


class TestDeterministicJitter:
    def test_jitter_draw_is_pure(self):
        assert jitter_draw(7, "job-1", 3) == jitter_draw(7, "job-1", 3)
        assert 0.0 <= jitter_draw(7, "job-1", 3) < 1.0
        assert jitter_draw(7, "job-1", 3) != jitter_draw(7, "job-1", 4)
        assert jitter_draw(7, "job-1", 3) != jitter_draw(7, "job-2", 3)
        assert jitter_draw(7, "job-1", 3) != jitter_draw(8, "job-1", 3)

    def test_pipeline_backoff_derives_from_fault_seed(self, monkeypatch):
        from repro.pipeline import DeltaPipeline, PipelineConfig, PipelineJob
        import repro.pipeline.executor as executor_module

        r = random.Random(0)
        reference = r.randbytes(2048)
        version = reference[:1000] + r.randbytes(64) + reference[1000:]
        plan_text = "diff.worker:count=2"

        def run_once(executor):
            delays = []
            monkeypatch.setattr(executor_module.time, "sleep", delays.append)
            config = PipelineConfig(
                executor=executor, retries=3, backoff_base=0.25,
                fault_plan=FaultPlan.parse(plan_text, seed=99),
            )
            with DeltaPipeline(config) as pipeline:
                batch = pipeline.run(
                    [PipelineJob(reference, version, "job-a")])
            assert batch.ok_jobs == 1
            assert batch.results[0].report.attempts == 3
            return delays

        serial = run_once("serial")
        threaded = run_once("thread")
        assert serial and serial == threaded
        # The delays are exactly the pure-function schedule.
        expected = [
            min(executor_module.BACKOFF_CAP,
                0.25 * (BACKOFF_FACTOR ** (attempt - 1)))
            * (1.0 + BACKOFF_JITTER * jitter_draw(99, "job-a", attempt))
            for attempt in (1, 2)
        ]
        assert serial == pytest.approx(expected)

    def test_pipeline_never_sleeps_after_its_last_attempt(self,
                                                          monkeypatch):
        from repro.faults import backoff_delay
        from repro.pipeline import DeltaPipeline, PipelineConfig, PipelineJob
        import repro.pipeline.executor as executor_module

        r = random.Random(0)
        reference = r.randbytes(2048)
        version = reference[:1000] + r.randbytes(64) + reference[1000:]

        def sleeps(fallback):
            delays = []
            monkeypatch.setattr(executor_module.time, "sleep", delays.append)
            config = PipelineConfig(
                executor="serial", retries=1, backoff_base=0.25,
                fallback=fallback,
                fault_plan=FaultPlan.parse("diff.worker:count=99", seed=99),
            )
            with DeltaPipeline(config) as pipeline:
                batch = pipeline.run(
                    [PipelineJob(reference, version, "job-a")])
            report = batch.results[0].report
            assert report.quarantined
            assert report.attempts == 2 * (1 + len(fallback))
            return delays

        def schedule(attempts):
            return [backoff_delay(attempt, 0.25, executor_module.BACKOFF_CAP,
                                  seed=99, scope="job-a")
                    for attempt in attempts]

        assert sleeps(()) == schedule([1])
        # The wait between chain links stays.
        assert sleeps(("onepass",)) == schedule([1, 2, 3])

    def test_updater_backoff_derives_from_fault_seed(self, monkeypatch):
        """The simulated session retransmits at once: nothing real to
        wait on, so surviving two link faults never sleeps."""
        import time

        from repro.device import UpdateServer, get_channel, \
            run_journaled_session

        server = UpdateServer()
        r = random.Random(1)
        old = r.randbytes(2048)
        new = old[:512] + r.randbytes(128) + old[512 + 128:]
        server.publish("pkg", old)
        server.publish("pkg", new)

        delays = []
        monkeypatch.setattr(time, "sleep", delays.append)
        outcome = run_journaled_session(
            server.build_payload("pkg", 0, 1, "in-place"),
            server.release("pkg", 0), server.release("pkg", 1),
            channel=get_channel("modem-56k"), scope="pkg",
            fault_plan=FaultPlan.parse("channel.transmit:count=2", seed=5),
        )
        assert outcome.succeeded
        assert outcome.attempts == 3
        assert len(outcome.faults) == 2
        assert delays == []
