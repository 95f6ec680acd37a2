"""End-to-end integrity plane tests: the ``IPD2`` container, the
verify-then-mutate apply gate, journal torn-state recovery, and the
corruption-vs-transient fault matrix for journaled updates."""

import random
import zlib

import pytest

from repro import patch, patch_in_place
from repro.core.apply import (
    preflight_in_place,
    storage_crc32,
    verify_reference,
)
from repro.core.commands import (
    AddCommand,
    CopyCommand,
    DeltaScript,
    FillCommand,
    SpillCommand,
)
from repro.core.convert import make_in_place
from repro.delta import correcting_delta
from repro.delta.encode import (
    FORMAT_INPLACE,
    FORMAT_SEQUENTIAL,
    MAGIC,
    MAGIC_V2,
    WIRE_V1,
    WIRE_V2,
    decode_delta,
    encode_delta,
    encoded_size,
    version_checksum,
)
from repro.delta.varint import encode_varint
from repro.device.channel import get_channel
from repro.device.flash import FlashArray
from repro.device.journal import CrashingStorage, Journal, JournaledApplier
from repro.device.memory import ConstrainedDevice
from repro.device.updater import UpdateServer, run_journaled_session
from repro.exceptions import (
    DeltaFormatError,
    DeltaRangeError,
    IntegrityError,
    VerificationError,
)
from repro.faults import FaultPlan, FaultSpec
from repro.workloads import make_binary_blob, mutate


def _pair(seed=7, size=9_000):
    rng = random.Random(seed)
    old = make_binary_blob(rng, size)
    new = mutate(old, rng)
    return old, new


def _v2_payload(old, new, **kwargs):
    script = correcting_delta(old, new)
    result = make_in_place(script, old, **kwargs)
    return encode_delta(result.script, FORMAT_INPLACE,
                        version_crc32=version_checksum(new), reference=old)


class TestWireV2:
    def test_round_trip_carries_reference_digest(self):
        old, new = _pair()
        payload = _v2_payload(old, new)
        assert payload[:4] == MAGIC_V2
        script, header = decode_delta(payload)
        assert header.magic == WIRE_V2
        assert header.has_checksum
        assert header.has_reference
        assert header.reference_length == len(old)
        assert header.reference_crc32 == zlib.crc32(old) & 0xFFFFFFFF
        assert patch_in_place(bytearray(old), payload) == bytearray(new)

    def test_wire_default_is_v1_without_reference(self):
        old, new = _pair()
        script = correcting_delta(old, new)
        assert encode_delta(script, FORMAT_SEQUENTIAL)[:4] == MAGIC
        assert encode_delta(script, FORMAT_SEQUENTIAL,
                            wire=WIRE_V2)[:4] == MAGIC_V2

    def test_v1_with_reference_is_rejected(self):
        old, new = _pair()
        script = correcting_delta(old, new)
        with pytest.raises(DeltaFormatError):
            encode_delta(script, FORMAT_SEQUENTIAL, wire=WIRE_V1,
                         reference=old)

    def test_encoded_size_prices_v2_exactly(self):
        old, new = _pair()
        script = correcting_delta(old, new)
        payload = encode_delta(script, FORMAT_SEQUENTIAL,
                               version_crc32=version_checksum(new),
                               reference=old)
        assert encoded_size(script, FORMAT_SEQUENTIAL, wire=WIRE_V2,
                            reference_length=len(old)) == len(payload)

    def test_absent_version_checksum_is_explicit(self):
        old, new = _pair()
        script = correcting_delta(old, new)
        payload = encode_delta(script, FORMAT_SEQUENTIAL, reference=old)
        _, header = decode_delta(payload)
        assert header.has_checksum is False
        # IPD1 keeps the legacy heuristic: CRC 0 means "absent".
        _, h1 = decode_delta(encode_delta(script, FORMAT_SEQUENTIAL))
        assert h1.has_checksum is False
        _, h2 = decode_delta(encode_delta(script, FORMAT_SEQUENTIAL,
                                          version_crc32=123))
        assert h2.has_checksum is True

    def test_both_containers_reconstruct_identically(self):
        old, new = _pair(seed=11)
        script = correcting_delta(old, new)
        v1 = encode_delta(script, FORMAT_SEQUENTIAL)
        v2 = encode_delta(script, FORMAT_SEQUENTIAL, reference=old)
        assert patch(old, v1) == patch(old, v2) == new


class TestGoldenBlobs:
    """Pinned wire bytes: the formats are frozen, not merely round-trip
    stable.  A change to any hex string is a breaking format change."""

    REF = bytes(range(10, 42))
    SCRIPT = DeltaScript([CopyCommand(src=4, dst=0, length=8),
                          AddCommand(8, b"delta!"),
                          CopyCommand(src=0, dst=14, length=4)], 18)
    GOLDEN_V1 = bytes.fromhex(
        "49504431021200efbeadde0204000801080664656c74612102000e0400"
    )
    GOLDEN_V2 = bytes.fromhex(
        "4950443202071200efbeadde201b36ec680204000801080664656c7461"
        "2102000e0405898ce194001ab9706d"
    )

    def test_v1_bytes_are_stable(self):
        assert encode_delta(self.SCRIPT, FORMAT_INPLACE,
                            version_crc32=0xDEADBEEF) == self.GOLDEN_V1

    def test_v2_bytes_are_stable(self):
        assert encode_delta(self.SCRIPT, FORMAT_INPLACE,
                            version_crc32=0xDEADBEEF,
                            reference=self.REF) == self.GOLDEN_V2

    def test_golden_blobs_decode(self):
        for blob in (self.GOLDEN_V1, self.GOLDEN_V2):
            script, header = decode_delta(blob)
            assert script == self.SCRIPT
            assert header.version_crc32 == 0xDEADBEEF

    #: A journal sector: state, scratch mirror and backup records.
    GOLDEN_JOURNAL = bytes.fromhex(
        "010603cdab3412009217b59c020d7370696c6c6564206279746573ac1a"
        "2b26030a1173617665642d72756ebc59bbb5"
    )

    def test_journal_bytes_are_stable(self):
        journal = Journal(next_index=3, applied_crc=0x1234ABCD,
                          scratch=bytearray(b"spilled bytes"),
                          backup_offset=17, backup_data=b"saved-run")
        assert journal.to_bytes() == self.GOLDEN_JOURNAL
        assert Journal.from_bytes(self.GOLDEN_JOURNAL) == journal


class _GuardedBuffer(bytearray):
    """A bytearray that counts every mutation, for abort-before-mutate
    proofs."""

    def __init__(self, data):
        super().__init__(data)
        self.writes = 0

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self.writes += 1
        super().__delitem__(key)

    def extend(self, more):
        self.writes += 1
        super().extend(more)


class TestAbortBeforeMutate:
    def test_wrong_reference_leaves_buffer_untouched(self):
        old, new = _pair(seed=21)
        payload = _v2_payload(old, new)
        wrong = _GuardedBuffer(mutate(old, random.Random(99)))
        before = bytes(wrong)
        with pytest.raises(IntegrityError) as info:
            patch_in_place(wrong, payload)
        assert info.value.kind == "reference"
        assert wrong.writes == 0
        assert bytes(wrong) == before

    def test_same_length_wrong_bytes_also_aborts(self):
        old, new = _pair(seed=22)
        payload = _v2_payload(old, new)
        wrong = _GuardedBuffer(old[:-1] + bytes([old[-1] ^ 0x40]))
        with pytest.raises(IntegrityError):
            patch_in_place(wrong, payload)
        assert wrong.writes == 0

    def test_constrained_device_aborts_with_image_intact(self):
        old, new = _pair(seed=23)
        payload = _v2_payload(old, new)
        device = ConstrainedDevice(mutate(old, random.Random(5)),
                                   ram=64 * 1024)
        before = device.image
        with pytest.raises(IntegrityError):
            device.apply_delta_in_place(payload)
        assert device.image == before

    def test_two_space_patch_checks_reference(self):
        old, new = _pair(seed=24)
        payload = _v2_payload(old, new)
        with pytest.raises(IntegrityError):
            patch(mutate(old, random.Random(6)), payload)

    def test_out_of_bounds_write_caught_preflight(self):
        script = DeltaScript([CopyCommand(src=0, dst=100, length=50)], 18)
        header = decode_delta(encode_delta(script, FORMAT_INPLACE))[1]
        buf = _GuardedBuffer(b"x" * 18)
        with pytest.raises(DeltaRangeError):
            preflight_in_place(script, header, buf)
        assert buf.writes == 0

    def test_read_beyond_reference_caught_preflight(self):
        script = DeltaScript([CopyCommand(src=10, dst=0, length=20)], 20)
        header = decode_delta(encode_delta(script, FORMAT_INPLACE))[1]
        buf = _GuardedBuffer(b"y" * 8)  # far shorter than the reads
        with pytest.raises(DeltaRangeError):
            preflight_in_place(script, header, buf)
        assert buf.writes == 0


def understated_scratch_payload():
    """``(reference, version, payload)``: an ``IPD2`` payload, trailer and
    segment CRCs intact, whose header declares 16 bytes of scratch while
    its spill and fill use 512."""
    rng = random.Random(512)
    old = rng.randbytes(2048)
    new = old[512:1024] + old[:512] + old[1024:]
    script = DeltaScript([SpillCommand(0, 0, 512), CopyCommand(512, 0, 512),
                          FillCommand(0, 512, 512),
                          CopyCommand(1024, 1024, 1024)], len(new))
    honest = encode_delta(script, FORMAT_INPLACE,
                          version_crc32=version_checksum(new), reference=old)
    head = honest[:6] + encode_varint(len(new))
    assert honest.startswith(head + encode_varint(512))
    body = head + encode_varint(16) + honest[len(head) + 2:-4]
    return old, new, body + zlib.crc32(body).to_bytes(4, "little")


class TestDeclaredScratch:
    """Preflight holds spills and fills to the scratch the header
    declares, the size every applier allocates or charges RAM for."""

    def test_preflight_refuses(self):
        old, _new, payload = understated_scratch_payload()
        script, header = decode_delta(payload)
        assert (header.scratch_length, script.scratch_length) == (16, 512)
        buf = _GuardedBuffer(old)
        with pytest.raises(DeltaRangeError,
                           match="spill 0 writes beyond declared scratch "
                                 "size 16"):
            preflight_in_place(script, header, buf)
        assert buf.writes == 0

    def test_constrained_device_refuses_with_image_intact(self):
        old, _new, payload = understated_scratch_payload()
        device = ConstrainedDevice(old, ram=64 * 1024)
        with pytest.raises(DeltaRangeError):
            device.apply_delta_in_place(payload)
        assert device.image == old

    def test_pull_refuses(self):
        import asyncio

        from repro.serve.protocol import T_DATA, T_END, T_META, encode_msg

        from .test_serve import _pull_from_stub

        old, _new, payload = understated_scratch_payload()
        meta = {"length": len(payload), "crc32": zlib.crc32(payload),
                "offset": 0, "want": "w" * 40}
        outcome = asyncio.run(_pull_from_stub(
            [(T_META, encode_msg(meta)), (T_DATA, payload), (T_END, b"")],
            reference=old))
        assert outcome.status == "failed"
        assert outcome.reason.startswith(
            "preflight rejected payload: DeltaRangeError: spill 0 writes "
            "beyond declared scratch size 16")


def ipdz_framed(payload):
    """``payload`` framed as ``IPDZ``: the magic, the raw length as a
    varint, then the zlib body.  No receiver unwraps it: to every parser
    it is a file with an unknown magic."""
    return b"IPDZ" + encode_varint(len(payload)) + zlib.compress(payload)


class TestEnvelopeRefused:
    """A zlib-framed payload is refused before any write, on every path
    a payload reaches a device by."""

    @pytest.fixture()
    def framed(self):
        old, new = _pair(seed=41)
        return old, new, ipdz_framed(_v2_payload(old, new))

    def test_patch_in_place(self, framed):
        old, _new, payload = framed
        buf = _GuardedBuffer(old)
        with pytest.raises(DeltaFormatError, match="bad magic"):
            patch_in_place(buf, payload)
        assert buf.writes == 0
        assert bytes(buf) == old

    @pytest.mark.parametrize("method", ["apply_delta_in_place",
                                        "apply_delta_streaming"])
    def test_constrained_device(self, framed, method):
        old, _new, payload = framed
        device = ConstrainedDevice(old, ram=64 * 1024)
        with pytest.raises(DeltaFormatError, match="bad magic"):
            getattr(device, method)(payload)
        assert device.image == old
        assert device.ram.in_use == 0
        assert device.updates_applied == 0

    def test_pull(self, framed):
        import asyncio

        from repro.serve.protocol import T_DATA, T_END, T_META, encode_msg

        from .test_serve import _pull_from_stub

        old, _new, payload = framed
        meta = {"length": len(payload), "crc32": zlib.crc32(payload),
                "offset": 0, "want": "w" * 40}
        outcome = asyncio.run(_pull_from_stub(
            [(T_META, encode_msg(meta)), (T_DATA, payload), (T_END, b"")],
            reference=old))
        assert outcome.status == "failed"
        assert outcome.reason.startswith(
            "payload rejected: DeltaFormatError: not a delta file")
        assert outcome.boots == 0

    def test_journaled_session(self, framed):
        old, new, payload = framed
        outcome = run_journaled_session(payload, old, new,
                                        channel=get_channel("isdn-128k"))
        assert not outcome.succeeded
        assert outcome.boots == 0
        assert outcome.failure == "exhausted 3 transmission attempts"
        assert all("DeltaFormatError" in f for f in outcome.faults)


class TestVersionCheck:
    """Every consumer checks the rebuilt image against the version CRC
    the payload carries, as the device and the journaled session do."""

    @pytest.mark.parametrize("apply", [
        patch,
        lambda old, payload: patch_in_place(bytearray(old), payload),
    ], ids=["patch", "patch_in_place"])
    def test_wrong_recorded_crc_is_refused(self, apply):
        old, new = _pair(seed=25)
        script = make_in_place(correcting_delta(old, new), old).script
        payload = encode_delta(script, FORMAT_INPLACE, reference=old,
                               version_crc32=version_checksum(new) ^ 1)
        with pytest.raises(VerificationError, match="!= delta's"):
            apply(old, payload)
        device = ConstrainedDevice(old, ram=64 * 1024)
        with pytest.raises(VerificationError, match="!= delta's"):
            device.apply_delta_in_place(payload)


class TestVerifyHelpers:
    def test_storage_crc32_matches_zlib(self):
        data = make_binary_blob(random.Random(3), 70_000)
        assert storage_crc32(data) == zlib.crc32(data) & 0xFFFFFFFF
        assert storage_crc32(data, 100) == zlib.crc32(data[:100]) & 0xFFFFFFFF

    def test_verify_reference_is_noop_for_v1(self):
        old, new = _pair(seed=31)
        script = correcting_delta(old, new)
        _, header = decode_delta(encode_delta(script, FORMAT_SEQUENTIAL))
        verify_reference(header, b"anything at all")  # must not raise

    def test_flash_crc32_and_verify_image(self):
        # The digest helpers run on device storage directly: the flash
        # array's length and slice reads are all they need.
        old, new = _pair(seed=32)
        payload = _v2_payload(old, new)
        _, header = decode_delta(payload)
        flash = FlashArray(old, block_size=1024)
        assert storage_crc32(flash) == zlib.crc32(old) & 0xFFFFFFFF
        verify_reference(header, flash)  # matches: no raise
        flash[0] = flash[0] ^ 0xFF
        with pytest.raises(IntegrityError):
            verify_reference(header, flash)


class TestJournalIntegrity:
    def _journal(self):
        journal = Journal()
        journal.next_index = 3
        journal.applied_crc = 0x1234ABCD
        journal.scratch = bytearray(b"spilled bytes")
        journal.backup_offset = 17
        journal.backup_data = b"saved-run"
        return journal

    def test_round_trip(self):
        journal = self._journal()
        back = Journal.from_bytes(journal.to_bytes())
        assert back == journal
        assert back.torn_tail is False

    def test_torn_tail_recovers_previous_records(self):
        journal = self._journal()
        blob = journal.to_bytes()
        for cut in range(1, len(blob)):
            torn = Journal.from_bytes(blob[:cut])
            # Recovery is write-ahead sound: a cut mid-record drops the
            # torn record and flags it; a cut exactly on a record
            # boundary is indistinguishable from a cleanly shorter
            # journal, whose re-serialization must be the very prefix.
            if not torn.torn_tail:
                assert torn.to_bytes() == blob[:cut]
            assert torn.next_index in (0, journal.next_index)

    def test_mid_stream_rot_raises(self):
        journal = self._journal()
        blob = bytearray(journal.to_bytes())
        blob[2] ^= 0x10  # inside the first record, more records follow
        with pytest.raises(IntegrityError) as info:
            Journal.from_bytes(bytes(blob))
        assert info.value.kind == "journal"

    def test_flipped_final_record_is_torn_not_fatal(self):
        journal = self._journal()
        blob = bytearray(journal.to_bytes())
        blob[-1] ^= 0x01  # the trailing CRC byte of the last record
        back = Journal.from_bytes(bytes(blob))
        assert back.torn_tail is True

    def test_resume_verification_detects_rot(self):
        old, new = _pair(seed=41, size=6_000)
        script = correcting_delta(old, new)
        result = make_in_place(script, old)
        storage = CrashingStorage(old, fuel=len(new) // 2)
        journal = Journal()
        applier = JournaledApplier(result.script, journal)
        with pytest.raises(Exception):  # power cut mid-apply
            applier.run(storage)
        assert journal.next_index > 0
        # Rot lands inside an already-applied region while "powered off".
        interval = result.script.commands[0].write_interval
        storage.flip(interval.start)
        storage.fuel = None
        with pytest.raises(IntegrityError) as info:
            JournaledApplier(result.script, journal).run(storage)
        assert info.value.kind == "resume"


class TestJournaledUpdateIntegrity:
    @pytest.fixture()
    def server(self):
        rng = random.Random(123)
        old = make_binary_blob(rng, 30_000)
        new = mutate(old, rng)
        server = UpdateServer()
        server.publish("firmware", old)
        server.publish("firmware", new)
        return server

    def _plan(self, *specs, seed=0):
        return FaultPlan([FaultSpec(**spec) for spec in specs], seed=seed)

    def test_truncated_delivery_is_retransmitted(self, server):
        plan = self._plan(dict(site="delta.truncate", nth=1, error="truncate"))
        outcome = run_journaled_session(
            server.build_payload("firmware", 0, 1, "in-place"),
            server.release("firmware", 0), server.release("firmware", 1),
            channel=get_channel("isdn-128k"), scope="firmware",
            fault_plan=plan)
        assert outcome.succeeded, outcome.failure
        assert outcome.attempts == 2
        assert any("TruncatedDelivery" in f for f in outcome.faults)
        assert any("IntegrityError" in f or "DeltaFormatError" in f
                   for f in outcome.faults)

    def test_preflight_bitflip_halts_with_corruption(self, server):
        # Rot before the very first write: the preflight reference
        # digest fails and nothing is mutated.
        plan = self._plan(dict(site="storage.bitflip", nth=1,
                               error="bitflip", offset=12))
        outcome = run_journaled_session(
            server.build_payload("firmware", 0, 1, "in-place"),
            server.release("firmware", 0), server.release("firmware", 1),
            channel=get_channel("isdn-128k"), scope="firmware",
            fault_plan=plan)
        assert not outcome.succeeded
        assert outcome.corruption
        assert "IntegrityError" in outcome.failure

    def test_power_and_bitflip_matrix_never_silent_garbage(self, server):
        # The acceptance sweep: under combined power cuts and flash rot
        # every session either installs the exact version bytes
        # (succeeded => oracle-compared inside run_journaled_session) or
        # halts with an explicit corruption/power report.
        detected = 0
        for seed in range(12):
            plan = self._plan(
                dict(site="device.power", probability=0.5, error="power",
                     fuel=2_000),
                dict(site="storage.bitflip", probability=0.4,
                     error="bitflip"),
                seed=seed,
            )
            outcome = run_journaled_session(
                server.build_payload("firmware", 0, 1, "in-place"),
                server.release("firmware", 0), server.release("firmware", 1),
                channel=get_channel("isdn-128k"), scope="firmware",
                max_boots=64, fault_plan=plan)
            if outcome.succeeded:
                continue
            assert outcome.failure, "silent failure with no report"
            if outcome.corruption:
                detected += 1
        assert detected > 0  # the sweep actually exercised detection

    def test_matrix_is_deterministic(self, server):
        def session(seed):
            plan = self._plan(
                dict(site="device.power", probability=0.5, error="power",
                     fuel=2_000),
                dict(site="storage.bitflip", probability=0.4,
                     error="bitflip"),
                seed=seed,
            )
            out = run_journaled_session(
                server.build_payload("firmware", 0, 1, "in-place"),
                server.release("firmware", 0), server.release("firmware", 1),
                channel=get_channel("isdn-128k"), scope="firmware",
                max_boots=64, fault_plan=plan)
            return (out.succeeded, out.corruption, out.boots, tuple(out.faults))

        for seed in (1, 4, 9):
            assert session(seed) == session(seed)
