"""The serving acceptance storm: 200+ concurrent pulls, zero silence.

This is the load-level contract from the issue: hundreds of concurrent
clients — mixed distinct and duplicate (reference, target) pairs —
through a fault storm of connection drops, frame corruption, and one
mid-pull power cut.  Every client must reach a terminal state
(byte-exact applied, structured failure, or backpressure-refused);
duplicate pairs must coalesce to a single encode; the daemon must never
crash; and a SIGTERM-style drain mid-storm must let in-flight pulls
finish.  :class:`~repro.serve.loadgen.LoadReport` enforces the
zero-silent-failure invariant at accounting time, so these tests mostly
assert that its ``silent`` list stays empty.
"""

import asyncio

import pytest

from repro.faults import FaultPlan
from repro.serve.loadgen import build_clients, build_corpus, run_load
from repro.store import content_digest

SEED = 19980601


class TestCorpus:
    def test_build_clients_guarantees_duplicate_pairs(self):
        _store, chains = build_corpus(packages=2, releases=3, size=2048,
                                      seed=SEED)
        specs = build_clients(chains, 10)
        pairs = [s.pair for s in specs]
        # 2 packages x 2 stale releases = 4 distinct pairs over 10
        # clients: every pair is duplicated.
        assert len(set(pairs)) == 4
        for pair in set(pairs):
            assert pairs.count(pair) >= 2

    def test_expected_bytes_are_the_published_latest(self):
        store, chains = build_corpus(packages=1, releases=2, size=2048,
                                     seed=SEED)
        (spec,) = build_clients(chains, 1)
        _digest, latest = store.latest(spec.package)
        assert spec.expected == latest
        assert spec.want == content_digest(latest)


class TestCleanLoad:
    def test_every_duplicate_pair_coalesces(self):
        report = run_load(clients=24, packages=2, releases=2, size=4096,
                          seed=SEED)
        assert report.silent == []
        assert report.applied == 24
        assert report.byte_exact == 24
        # One encode per distinct pair; the other 22 requests were
        # answered by coalescing onto an in-flight encode or by the
        # payload cache — never by re-encoding.
        assert report.counters.get("serve.encodes") == report.distinct_pairs
        served_without_encode = (
            report.server_counters["coalesced"]
            + report.server_counters["payload_hits"])
        assert served_without_encode == 24 - report.distinct_pairs


class TestAcceptanceStorm:
    """The issue's headline number: >=200 concurrent pulls under faults."""

    @pytest.fixture(scope="class")
    def storm(self):
        server_plan = FaultPlan.parse(
            "serve.accept:p=0.05;serve.frame:p=0.02", seed=42)
        client_plan = FaultPlan.parse("client.recv:p=0.03", seed=43)
        return run_load(
            clients=200,
            packages=3,
            releases=3,
            size=8192,
            seed=SEED,
            server_fault_plan=server_plan,
            client_fault_plan=client_plan,
            power_cut_client=17,
            power_cut_fuel=600,
            max_inflight=64,
            max_attempts=8,
            backoff_base=0.001,
            chunk_size=1 << 12,
        )

    def test_zero_silent_failures(self, storm):
        assert storm.silent == []
        assert storm.terminal == storm.clients == 200

    def test_applied_pulls_are_byte_exact(self, storm):
        assert storm.byte_exact == storm.applied
        # The storm is survivable: the overwhelming majority applies,
        # and whatever failed did so with a structured reason.
        assert storm.applied >= 190
        for outcome in storm.outcomes:
            if outcome.status == "failed":
                assert outcome.reason

    def test_duplicate_pairs_coalesce_under_fire(self, storm):
        # Six distinct stale pairs across 200 clients: the encoder ran
        # once per pair even with retries and resumes in the mix.
        assert storm.distinct_pairs == 6
        assert storm.counters.get("serve.encodes") == 6

    def test_faults_actually_fired(self, storm):
        assert storm.power_cuts >= 1
        assert storm.resumes >= 1
        assert storm.client_faults >= 1
        assert storm.server_counters["accept_faults"] >= 1
        assert storm.server_counters["frame_corruptions"] >= 1

    def test_daemon_survived_and_drained(self, storm):
        assert storm.counters.get("serve.drained") == 1
        assert storm.server_counters["served"] >= storm.applied


class TestDrainMidStorm:
    def test_inflight_pulls_complete_after_drain_request(self):
        report = run_load(
            clients=40,
            packages=2,
            releases=2,
            size=4096,
            seed=SEED,
            max_attempts=2,
            backoff_base=0.001,
            # Stagger the fleet so the drain request lands while early
            # pulls are genuinely in flight; the io_timeout bounds
            # clients whose connection sat in the kernel's accept
            # backlog when the listener closed (a peer that will never
            # answer must become a structured fault, not a hang).
            stagger=0.005,
            io_timeout=2.0,
            drain_after=20,
        )
        assert report.silent == []
        # The drain landed mid-storm: pulls already accepted finished
        # byte-exact, later arrivals terminated structurally (refused by
        # the draining daemon or failed on the closed socket) — nobody
        # hung, nobody vanished.
        assert report.applied >= 1
        assert report.byte_exact == report.applied
        assert report.terminal == 40
        for outcome in report.outcomes:
            if outcome.status == "failed":
                assert ("draining" in outcome.reason
                        or "exhausted" in outcome.reason)


class TestBackpressureUnderLoad:
    def test_overload_refuses_structurally(self):
        report = run_load(
            clients=30,
            packages=1,
            releases=2,
            size=4096,
            seed=SEED,
            max_inflight=2,
            max_attempts=1,
            chunk_size=1 << 12,
        )
        assert report.silent == []
        assert report.terminal == 30
        # With one attempt and a tiny admission window, most clients are
        # refused — as a structured RETRY, not a timeout or a crash.
        assert report.refused >= 1
        assert report.server_counters["refused"] >= report.refused
        for outcome in report.outcomes:
            if outcome.status == "refused":
                assert outcome.retry_after > 0
