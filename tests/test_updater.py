"""Unit tests for end-to-end update sessions (repro.device.updater)."""

import random

import pytest

from repro.device.channel import Channel, get_channel
from repro.device.memory import ConstrainedDevice
from repro.device.updater import (
    STRATEGIES,
    UpdateServer,
    run_journaled_session,
    run_update,
)
from repro.workloads import make_binary_blob, mutate


@pytest.fixture(scope="module")
def releases():
    rng = random.Random(123)
    old = make_binary_blob(rng, 30_000)
    mid = mutate(old, rng)
    new = mutate(mid, rng)
    return old, mid, new


@pytest.fixture
def server(releases):
    server = UpdateServer()
    for image in releases:
        server.publish("firmware", image)
    return server


class TestUpdateServer:
    def test_publish_and_release(self, server, releases):
        assert server.latest_release("firmware") == 2
        assert server.release("firmware", 0) == releases[0]

    def test_latest_unknown_package(self, server):
        with pytest.raises(KeyError):
            server.latest_release("ghost")

    def test_payload_strategies_differ(self, server, releases):
        full = server.build_payload("firmware", 0, 1, "full")
        delta = server.build_payload("firmware", 0, 1, "delta")
        in_place = server.build_payload("firmware", 0, 1, "in-place")
        assert full == releases[1]
        assert len(delta) < len(full)
        assert len(in_place) < len(full)
        # Write offsets make the in-place payload no smaller than the delta.
        assert len(in_place) >= len(delta)

    def test_unknown_strategy(self, server):
        with pytest.raises(ValueError):
            server.build_payload("firmware", 0, 1, "telepathy")


class TestRunUpdate:
    def test_in_place_on_constrained_device(self, server, releases):
        device = ConstrainedDevice(releases[0], ram=24 * 1024)
        outcome = run_update(server, device, get_channel("modem-56k"),
                             "firmware", have=0, want=1, strategy="in-place")
        assert outcome.succeeded, outcome.failure
        assert device.image == releases[1]
        assert outcome.payload_bytes < outcome.image_bytes
        assert outcome.transfer_seconds > 0

    def test_two_space_fails_on_constrained_device(self, server, releases):
        device = ConstrainedDevice(releases[0], ram=24 * 1024)
        outcome = run_update(server, device, get_channel("modem-56k"),
                             "firmware", have=0, want=1, strategy="delta")
        assert not outcome.succeeded
        assert "OutOfMemoryError" in outcome.failure

    def test_two_space_succeeds_with_ram(self, server, releases):
        device = ConstrainedDevice(releases[0], ram=256 * 1024)
        outcome = run_update(server, device, get_channel("modem-56k"),
                             "firmware", have=0, want=1, strategy="delta")
        assert outcome.succeeded, outcome.failure

    def test_full_strategy(self, server, releases):
        device = ConstrainedDevice(releases[0], ram=256 * 1024)
        outcome = run_update(server, device, get_channel("modem-56k"),
                             "firmware", have=0, want=1, strategy="full")
        assert outcome.succeeded
        assert outcome.payload_bytes == len(releases[1])
        assert outcome.payload_bytes == outcome.image_bytes

    def test_want_defaults_to_latest(self, server, releases):
        device = ConstrainedDevice(releases[1], ram=24 * 1024)
        outcome = run_update(server, device, get_channel("modem-56k"),
                             "firmware", have=1, strategy="in-place")
        assert outcome.succeeded
        assert device.image == releases[2]

    def test_chained_updates(self, server, releases):
        device = ConstrainedDevice(releases[0], ram=24 * 1024)
        for have, want in ((0, 1), (1, 2)):
            outcome = run_update(server, device, get_channel("isdn-128k"),
                                 "firmware", have=have, want=want,
                                 strategy="in-place")
            assert outcome.succeeded, outcome.failure
        assert device.image == releases[2]
        assert device.updates_applied == 2

    def test_in_place_payload_smaller_than_image(self, server, releases):
        device = ConstrainedDevice(releases[0], ram=24 * 1024)
        outcome = run_update(server, device, get_channel("cellular-9.6k"),
                             "firmware", have=0, want=1, strategy="in-place")
        # The motivating win: delta transfer is several times faster.
        full_time = get_channel("cellular-9.6k").transfer_time(len(releases[1]))
        assert outcome.transfer_seconds < full_time / 2

    def test_retransmission_on_corruption(self, server, releases):
        # 60% corruption: retries should usually recover for two-space.
        lossy = Channel("lossy", 56_000, corruption_rate=0.6)
        device = ConstrainedDevice(releases[0], ram=256 * 1024)
        outcome = run_update(server, device, lossy, "firmware", have=0, want=1,
                             strategy="delta", max_retries=50,
                             rng=random.Random(1))
        assert outcome.succeeded
        assert outcome.attempts > 1


class TestResilientUpdates:
    """Fault-plane integration: link faults and power cuts, deterministically."""

    def _plan(self, *specs, seed=0):
        from repro.faults import FaultPlan, FaultSpec

        return FaultPlan([FaultSpec(**spec) for spec in specs], seed=seed)

    def test_injected_transmit_faults_are_retried(self, server, releases):
        plan = self._plan(dict(site="channel.transmit", count=2,
                               error="transmission"))
        device = ConstrainedDevice(releases[0], ram=24 * 1024)
        outcome = run_update(server, device, get_channel("modem-56k"),
                             "firmware", have=0, want=1, strategy="in-place",
                             max_retries=5, fault_plan=plan)
        assert outcome.succeeded, outcome.failure
        assert outcome.attempts == 3  # two drops, then delivery
        assert len(outcome.faults) == 2
        assert all("TransmissionError" in f for f in outcome.faults)
        assert device.image == releases[1]

    def test_persistent_transmit_faults_exhaust_retries(self, server, releases):
        plan = self._plan(dict(site="channel.transmit", count=99,
                               error="transmission"))
        device = ConstrainedDevice(releases[0], ram=24 * 1024)
        outcome = run_update(server, device, get_channel("modem-56k"),
                             "firmware", have=0, want=1, strategy="in-place",
                             max_retries=3, fault_plan=plan)
        assert not outcome.succeeded
        assert "exhausted 3 transmission attempts" in outcome.failure
        assert device.image == releases[0]  # untouched: nothing was delivered

    def test_journaled_update_resumes_after_power_cuts(self, server, releases):
        plan = self._plan(
            dict(site="device.power", nth=1, error="power", fuel=700),
            dict(site="device.power", nth=2, error="power", fuel=2_000),
        )
        outcome = run_journaled_session(
            server.build_payload("firmware", 0, 1, "in-place"),
            server.release("firmware", 0), server.release("firmware", 1),
            channel=get_channel("modem-56k"), scope="firmware",
            fault_plan=plan)
        assert outcome.succeeded, outcome.failure
        assert outcome.boots == 3  # two cuts, third boot finishes
        assert outcome.power_cuts == 2
        assert outcome.journal_peak_bytes > 0
        assert len(outcome.faults) == 2
        assert all("PowerFailureError" in f for f in outcome.faults)

    def test_journaled_update_combined_link_and_power_faults(self, server,
                                                             releases):
        plan = self._plan(
            dict(site="channel.transmit", nth=1, error="transmission"),
            dict(site="device.power", nth=1, error="power", fuel=500),
        )
        outcome = run_journaled_session(
            server.build_payload("firmware", 0, 1, "in-place"),
            server.release("firmware", 0), server.release("firmware", 1),
            channel=get_channel("isdn-128k"), scope="firmware",
            fault_plan=plan)
        assert outcome.succeeded, outcome.failure
        assert outcome.attempts == 2  # one retransmission
        assert outcome.boots == 2     # one power cut
        assert outcome.power_cuts == 1

    def test_journaled_update_runs_out_of_boots(self, server, releases):
        plan = self._plan(dict(site="device.power", count=99, error="power",
                               fuel=64))
        outcome = run_journaled_session(
            server.build_payload("firmware", 0, 1, "in-place"),
            server.release("firmware", 0), server.release("firmware", 1),
            channel=get_channel("modem-56k"), scope="firmware",
            max_boots=3, fault_plan=plan)
        assert not outcome.succeeded
        assert outcome.boots == 3
        assert outcome.power_cuts == 3
        assert "power failed on every" in outcome.failure

    def test_journaled_update_same_plan_same_outcome(self, server, releases):
        def session():
            plan = self._plan(
                dict(site="device.power", probability=0.6, error="power",
                     fuel=900),
                seed=3,
            )
            return run_journaled_session(
                server.build_payload("firmware", 0, 1, "in-place"),
                server.release("firmware", 0), server.release("firmware", 1),
                channel=get_channel("modem-56k"), scope="firmware",
                max_boots=32, fault_plan=plan)

        first, second = session(), session()
        assert first.succeeded and second.succeeded
        assert first.boots == second.boots
        assert first.power_cuts == second.power_cuts
        assert first.faults == second.faults

    def test_journaled_update_clean_run_is_single_boot(self, server, releases):
        outcome = run_journaled_session(
            server.build_payload("firmware", 0, 1, "in-place"),
            server.release("firmware", 0), server.release("firmware", 1),
            channel=get_channel("modem-56k"), scope="firmware")
        assert outcome.succeeded
        assert outcome.boots == 1
        assert outcome.power_cuts == 0
        assert outcome.faults == []
