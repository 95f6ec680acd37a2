"""Crash-safety tests for the journaled in-place applier.

The harness kills the power at *every* possible write boundary (and in
the middle of writes — partial slice writes land) and verifies the patch
always resumes to exactly the right image.  This is the strongest test
in the suite: it sweeps thousands of crash points over scripts that
exercise self-overlapping copies, spills, fills, growth, and shrinkage.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.commands import (
    AddCommand,
    CopyCommand,
    DeltaScript,
    FillCommand,
    SpillCommand,
)
from repro.device.journal import (
    CrashingStorage,
    Journal,
    JournaledApplier,
    PowerFailureError,
    apply_with_power_failures,
)
from repro.exceptions import ReproError
from repro.workloads import mutate


def run_clean(script, reference) -> bytes:
    """Apply with no crashes through the journaled path."""
    return apply_with_power_failures(script, reference, [None])


class TestCrashingStorage:
    def test_partial_write_lands_prefix(self):
        storage = CrashingStorage(b"00000000", fuel=3)
        with pytest.raises(PowerFailureError):
            storage[0:6] = b"ABCDEF"
        assert storage.snapshot() == b"ABC00000"

    def test_fuel_none_never_crashes(self):
        storage = CrashingStorage(b"0000")
        storage[0:4] = b"abcd"
        assert storage.snapshot() == b"abcd"
        assert storage.bytes_written == 4

    def test_single_byte_write(self):
        storage = CrashingStorage(b"0000", fuel=0)
        with pytest.raises(PowerFailureError):
            storage[1] = 65

    def test_resize(self):
        storage = CrashingStorage(b"abcd")
        storage.resize(6)
        assert len(storage) == 6
        storage.resize(2)
        assert storage.snapshot() == b"ab"


class TestJournaledApplierCleanRun:
    def test_matches_plain_apply(self, sample_pair):
        ref, ver = sample_pair
        result = repro.diff_in_place(ref, ver)
        assert run_clean(result.script, ref) == ver

    def test_with_scratch_commands(self, rng):
        ref = rng.randbytes(3_000)
        ver = ref[1500:] + ref[:1500]
        result = repro.diff_in_place(ref, ver)
        base = repro.diff(ref, ver)
        scratched = repro.make_in_place(base, ref, scratch_budget=1 << 14)
        assert run_clean(scratched.script, ref) == ver

    def test_idempotent_after_completion(self, sample_pair):
        ref, ver = sample_pair
        result = repro.diff_in_place(ref, ver)
        storage = CrashingStorage(ref)
        journal = Journal()
        JournaledApplier(result.script, journal).run(storage)
        assert journal.complete
        # Running again must be a no-op.
        JournaledApplier(result.script, journal).run(storage)
        assert storage.snapshot() == ver

    def test_schedule_exhaustion_raises(self, sample_pair):
        ref, ver = sample_pair
        result = repro.diff_in_place(ref, ver)
        with pytest.raises(ReproError):
            apply_with_power_failures(result.script, ref, [0, 0])


def crash_sweep(script, reference, expected, *, stride=1, chunk_size=7):
    """Crash at every ``stride``-th write boundary, resume, check image."""
    # First, count total storage writes in a clean run.
    probe = CrashingStorage(reference)
    JournaledApplier(script, Journal()).run(probe, chunk_size=chunk_size)
    total = probe.bytes_written
    for crash_at in range(0, total, stride):
        image = apply_with_power_failures(
            script, reference, [crash_at, None], chunk_size=chunk_size
        )
        assert image == expected, "crash at write %d of %d" % (crash_at, total)


#: The hand-built crash-sweep scripts: name -> (reference, script,
#: chunk_size).  Each exercises one shape of in-place step.
SWEEP_SCRIPTS = {
    "plain": (
        bytes(range(64)),
        DeltaScript(
            [CopyCommand(32, 0, 16), CopyCommand(48, 24, 16),
             AddCommand(16, b"Z" * 8), AddCommand(40, b"Q" * 8)],
            version_length=48,
        ),
        7,
    ),
    "self_overlap": (
        bytes(range(64)),
        DeltaScript(
            [CopyCommand(8, 0, 24),    # src > dst: left-to-right overlap
             CopyCommand(30, 34, 24),  # src < dst: right-to-left overlap
             AddCommand(24, b"." * 10), AddCommand(58, b"!" * 6)],
            version_length=64,
        ),
        5,
    ),
    "spill_fill": (
        bytes(range(48)),
        # Swap two blocks via scratch.
        DeltaScript(
            [SpillCommand(0, 0, 24), CopyCommand(24, 0, 24),
             FillCommand(0, 24, 24)],
            version_length=48,
        ),
        7,
    ),
    "growing": (
        bytes(range(40)),
        DeltaScript(
            [CopyCommand(0, 0, 40), AddCommand(40, b"tail-bytes-here!")],
            version_length=56,
        ),
        7,
    ),
    "shrinking": (
        bytes(range(64)),
        DeltaScript([CopyCommand(32, 0, 20)], version_length=20),
        7,
    ),
}


def sweep(name):
    """Crash-sweep one of :data:`SWEEP_SCRIPTS` against its two-space image."""
    ref, script, chunk_size = SWEEP_SCRIPTS[name]
    crash_sweep(script, ref, repro.apply_delta(script, ref),
                chunk_size=chunk_size)


class TestCrashSweeps:
    def test_plain_copies_and_adds(self):
        assert repro.is_in_place_safe(SWEEP_SCRIPTS["plain"][1])
        sweep("plain")

    def test_self_overlapping_copies_both_directions(self):
        ref, script, _chunk_size = SWEEP_SCRIPTS["self_overlap"]
        script.validate(reference_length=len(ref))
        assert repro.is_in_place_safe(script)
        sweep("self_overlap")

    def test_spill_fill_script(self):
        sweep("spill_fill")

    def test_growing_version(self):
        sweep("growing")

    def test_shrinking_version(self):
        sweep("shrinking")

    def test_realistic_delta_sampled_crashes(self, rng):
        ref = rng.randbytes(4_000)
        ver = mutate(ref, rng)
        result = repro.diff_in_place(ref, ver)
        crash_sweep(result.script, ref, ver, stride=97)

    def test_realistic_with_scratch_sampled_crashes(self, rng):
        ref = rng.randbytes(4_000)
        ver = ref[2_000:] + ref[:2_000]
        base = repro.diff(ref, ver)
        result = repro.make_in_place(base, ref, scratch_budget=1 << 14)
        assert result.report.spilled_count >= 1
        crash_sweep(result.script, ref, ver, stride=131)

    def test_multiple_crashes_in_one_update(self, rng):
        ref = rng.randbytes(2_000)
        ver = mutate(ref, rng)
        result = repro.diff_in_place(ref, ver)
        image = apply_with_power_failures(
            result.script, ref, [50, 50, 50, 50, None]
        )
        assert image == ver


class TestCrashPointDigest:
    """Every crash point of :data:`SWEEP_SCRIPTS`, pinned byte for byte.

    The sweeps check that each cut recovers.  This test pins what each
    cut leaves behind: the bytes written before the power failed, the
    journal's durable form and the storage image.  It also pins what
    the resumed boot writes.  An applier change that still recovers but
    moves, splits or reorders a write, or changes a journal state,
    changes the digest.
    """

    #: SHA-256 over the states below, recorded from the applier whose
    #: writes and journal states every later applier must keep.
    DIGEST = ("dcc86a69adf8ce8d5d22a50faeb4b446"
              "ab256878f88b5a8f394cd290470dd39e")

    @staticmethod
    def crash_point_digest() -> str:
        digest = hashlib.sha256()
        for name, (ref, script, chunk_size) in SWEEP_SCRIPTS.items():
            probe = CrashingStorage(ref)
            JournaledApplier(script, Journal()).run(probe,
                                                    chunk_size=chunk_size)
            for cut in range(probe.bytes_written):
                storage = CrashingStorage(ref, fuel=cut)
                journal = Journal()
                with pytest.raises(PowerFailureError):
                    JournaledApplier(script, journal).run(
                        storage, chunk_size=chunk_size)
                digest.update(repr((name, cut, storage.bytes_written,
                                    journal.to_bytes(),
                                    storage.snapshot())).encode())
                # Reboot from the journal's durable form and finish.
                journal = Journal.from_bytes(journal.to_bytes())
                storage.fuel = None
                JournaledApplier(script, journal).run(storage,
                                                      chunk_size=chunk_size)
                assert storage.snapshot() == repro.apply_delta(script, ref)
                digest.update(repr((storage.bytes_written,
                                    journal.to_bytes(),
                                    storage.snapshot())).encode())
        return digest.hexdigest()

    def test_every_crash_point_is_unchanged(self):
        assert self.crash_point_digest() == self.DIGEST


class TestCrashResumeProperty:
    """Hypothesis: any crash schedule, any input — resume is exact."""

    @given(
        seed=st.integers(0, 2**31),
        fuels=st.lists(st.integers(0, 600), min_size=0, max_size=6),
        scratch=st.sampled_from([0, 4096]),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_crash_schedules(self, seed, fuels, scratch):
        rng = random.Random(seed)
        ref = rng.randbytes(rng.randint(64, 1_500))
        ver = mutate(ref, rng)
        base = repro.diff(ref, ver)
        result = repro.make_in_place(base, ref, scratch_budget=scratch)
        image = apply_with_power_failures(
            result.script, ref, list(fuels) + [None],
            chunk_size=rng.choice([1, 3, 64, 4096]),
        )
        assert image == ver


class TestJournalFootprint:
    def test_journal_stays_small(self, sample_pair):
        ref, ver = sample_pair
        result = repro.diff_in_place(ref, ver)
        storage = CrashingStorage(ref)
        journal = Journal()
        JournaledApplier(result.script, journal).run(storage)
        # No scratch, and overlaps are cleared after each command: the
        # journal ends at its fixed footprint (progress counter, applied
        # digest, flags and record framing).
        assert journal.size_bytes == 24

    def test_journal_bounded_by_scratch_plus_overlap(self, rng):
        ref = rng.randbytes(3_000)
        ver = ref[1500:] + ref[:1500]
        base = repro.diff(ref, ver)
        result = repro.make_in_place(base, ref, scratch_budget=1 << 14)
        journal = Journal()
        JournaledApplier(result.script, journal).run(CrashingStorage(ref))
        assert journal.size_bytes <= 24 + result.script.scratch_length


class TestDoublePowerCutResume:
    """Satellite coverage: a second power cut *during recovery* must
    still land byte-exact, both at the raw journal layer and through a
    full ``run_journaled_session``."""

    def _double_cut(self, script, reference, expected, f1, f2,
                    chunk_size=7):
        """Cut at f1, resume and cut again at f2, then finish clean —
        with every boot resuming from the journal's durable bytes."""
        storage = CrashingStorage(reference, fuel=f1)
        journal = Journal()
        with pytest.raises(PowerFailureError):
            JournaledApplier(script, journal).run(storage,
                                                  chunk_size=chunk_size)
        journal = Journal.from_bytes(journal.to_bytes())
        storage = CrashingStorage(storage.snapshot(), fuel=f2)
        with pytest.raises(PowerFailureError):
            JournaledApplier(script, journal).run(storage,
                                                  chunk_size=chunk_size)
        journal = Journal.from_bytes(journal.to_bytes())
        storage = CrashingStorage(storage.snapshot())
        JournaledApplier(script, journal).run(storage,
                                              chunk_size=chunk_size)
        assert storage.snapshot() == expected

    def test_journal_layer_double_cut_grid(self, rng):
        ref = rng.randbytes(3_000)
        ver = mutate(ref, rng)
        result = repro.diff_in_place(ref, ver)
        probe = CrashingStorage(ref)
        JournaledApplier(result.script, Journal()).run(probe, chunk_size=7)
        total = probe.bytes_written
        for f1 in (0, 1, total // 3, total - 1):
            for f2 in (0, 1, 29):
                self._double_cut(result.script, ref, ver, f1, f2)

    def test_journal_layer_double_cut_with_scratch(self, rng):
        ref = rng.randbytes(3_000)
        ver = ref[1500:] + ref[:1500]
        base = repro.diff(ref, ver)
        result = repro.make_in_place(base, ref, scratch_budget=1 << 14)
        assert result.script.scratch_length > 0
        for f1, f2 in ((3, 5), (500, 40), (2000, 0)):
            self._double_cut(result.script, ref, ver, f1, f2)

    def _session_server(self, size=8192, seed=17):
        from repro.device import UpdateServer

        r = random.Random(seed)
        old = r.randbytes(size)
        new = bytearray(old)
        new[0:1024] = old[2048:3072]
        new[4096:4160] = r.randbytes(64)
        server = UpdateServer()
        server.publish("pkg", old)
        server.publish("pkg", bytes(new))
        return server

    def test_session_survives_two_power_cuts(self):
        from repro.device import get_channel, run_journaled_session
        from repro.faults import FaultPlan

        server = self._session_server()
        # device.power with count=2 cuts the power on boots 1 AND 2;
        # boot 3 runs with unlimited fuel and must finish byte-exact.
        plan = FaultPlan.parse("device.power:count=2:fuel=300", seed=3)
        outcome = run_journaled_session(
            server.build_payload("pkg", 0, 1, "in-place"),
            server.release("pkg", 0), server.release("pkg", 1),
            channel=get_channel("t1-1.5m"), scope="pkg", fault_plan=plan)
        assert outcome.succeeded
        assert outcome.power_cuts == 2
        assert outcome.boots == 3

    def test_session_survives_three_power_cuts(self):
        from repro.device import get_channel, run_journaled_session
        from repro.faults import FaultPlan

        server = self._session_server(seed=23)
        plan = FaultPlan.parse("device.power:count=3:fuel=150", seed=9)
        outcome = run_journaled_session(
            server.build_payload("pkg", 0, 1, "in-place"),
            server.release("pkg", 0), server.release("pkg", 1),
            channel=get_channel("t1-1.5m"), scope="pkg", fault_plan=plan)
        assert outcome.succeeded
        assert outcome.power_cuts == 3
        assert outcome.boots == 4

    def test_double_cut_with_rot_halts_structurally(self):
        from repro.device import get_channel, run_journaled_session
        from repro.faults import FaultPlan

        server = self._session_server(seed=29)
        # Reference rot lands on boot 2, between the two cuts: the
        # resume-integrity gate must halt with a structured corruption
        # report rather than install garbage.
        plan = FaultPlan.parse(
            "device.power:count=2:fuel=300; storage.bitflip:nth=2", seed=5)
        outcome = run_journaled_session(
            server.build_payload("pkg", 0, 1, "in-place"),
            server.release("pkg", 0), server.release("pkg", 1),
            channel=get_channel("t1-1.5m"), scope="pkg", fault_plan=plan)
        assert not outcome.succeeded
        assert outcome.corruption
        assert outcome.failure
        assert outcome.power_cuts >= 1
