"""Corruption fuzz: every truncation and bit flip must be *diagnosed*.

The contract under test: feeding a damaged delta to the decoder raises
:class:`~repro.exceptions.DeltaFormatError` or
:class:`~repro.exceptions.IntegrityError` — never ``IndexError``,
never silent acceptance of wrong bytes.  For the self-verifying
``IPD2`` container the guarantee is total (the trailer CRC covers the
whole file); for legacy ``IPD1`` it covers structure only, so the flip
matrix there asserts "raises cleanly or decodes" rather than "raises".

All randomness is seeded so a failure reproduces exactly; the failing
offset is carried in the assertion message.
"""

import io
import random

import pytest

from repro.delta import correcting_delta
from repro.delta.encode import (
    FORMAT_INPLACE,
    FORMAT_SEQUENTIAL,
    decode_delta,
    encode_delta,
    version_checksum,
)
from repro.delta.stream import iter_delta_commands
from repro.core.convert import make_in_place
from repro.device.journal import Journal
from repro.exceptions import DeltaFormatError, IntegrityError
from repro.records import encode_record
from repro.store.pack import (
    PACK_MAGIC,
    REC_OBJECT,
    REC_REF,
    encode_object_payload,
    scan_records,
)
from repro.workloads import make_binary_blob, mutate

SEED = 19980601
OK_ERRORS = (DeltaFormatError, IntegrityError)


def _payloads():
    rng = random.Random(SEED)
    old = make_binary_blob(rng, 5_000)
    new = mutate(old, rng)
    script = correcting_delta(old, new)
    in_place = make_in_place(script, old).script
    crc = version_checksum(new)
    return {
        "v1-sequential": encode_delta(script, FORMAT_SEQUENTIAL,
                                      version_crc32=crc),
        "v1-inplace": encode_delta(in_place, FORMAT_INPLACE,
                                   version_crc32=crc),
        "v2-sequential": encode_delta(script, FORMAT_SEQUENTIAL,
                                      version_crc32=crc, reference=old),
        "v2-inplace": encode_delta(in_place, FORMAT_INPLACE,
                                   version_crc32=crc, reference=old),
    }


PAYLOADS = _payloads()


def _drain(data):
    """Stream-decode ``data`` completely, discarding the commands."""
    _header, commands = iter_delta_commands(io.BytesIO(data))
    for _ in commands:
        pass


@pytest.mark.parametrize("name", sorted(PAYLOADS))
class TestTruncation:
    def test_every_strict_prefix_raises(self, name):
        payload = PAYLOADS[name]
        for cut in range(len(payload)):
            with pytest.raises(OK_ERRORS):
                decode_delta(payload[:cut])
                pytest.fail("prefix of %d/%d bytes decoded silently (%s, "
                            "seed %d)" % (cut, len(payload), name, SEED))

    def test_every_strict_prefix_raises_streaming(self, name):
        payload = PAYLOADS[name]
        # Sampled (every 7th cut) to keep the streaming pass fast; the
        # buffered pass above is exhaustive.
        for cut in range(0, len(payload), 7):
            with pytest.raises(OK_ERRORS):
                _drain(payload[:cut])
                pytest.fail("streamed prefix of %d/%d bytes accepted (%s, "
                            "seed %d)" % (cut, len(payload), name, SEED))

    def test_trailing_garbage_raises(self, name):
        payload = PAYLOADS[name]
        with pytest.raises(OK_ERRORS):
            decode_delta(payload + b"\x00")


@pytest.mark.parametrize("name", ["v2-sequential", "v2-inplace"])
class TestBitFlipsV2:
    def test_every_byte_flip_is_detected(self, name):
        payload = PAYLOADS[name]
        rng = random.Random(SEED)
        blob = bytearray(payload)
        for offset in range(len(blob)):
            original = blob[offset]
            blob[offset] ^= 1 << rng.randrange(8)
            try:
                with pytest.raises(OK_ERRORS):
                    decode_delta(bytes(blob))
            except BaseException:
                pytest.fail("flip at offset %d not diagnosed (%s, seed %d)"
                            % (offset, name, SEED))
            finally:
                blob[offset] = original

    def test_flips_are_detected_streaming(self, name):
        payload = PAYLOADS[name]
        rng = random.Random(SEED + 1)
        blob = bytearray(payload)
        for offset in range(0, len(blob), 5):
            original = blob[offset]
            blob[offset] ^= 1 << rng.randrange(8)
            try:
                with pytest.raises(OK_ERRORS):
                    _drain(bytes(blob))
            except BaseException:
                pytest.fail("streamed flip at offset %d not diagnosed "
                            "(%s, seed %d)" % (offset, name, SEED))
            finally:
                blob[offset] = original


@pytest.mark.parametrize("name", ["v1-sequential", "v1-inplace"])
class TestBitFlipsV1:
    def test_flips_never_crash_the_decoder(self, name):
        # IPD1 has no trailer, so a flip may legitimately decode (e.g.
        # inside add data) — but it must never escape as IndexError,
        # ValueError or the like.
        payload = PAYLOADS[name]
        rng = random.Random(SEED + 2)
        blob = bytearray(payload)
        for offset in range(len(blob)):
            original = blob[offset]
            blob[offset] ^= 1 << rng.randrange(8)
            try:
                decode_delta(bytes(blob))
            except OK_ERRORS:
                pass
            except BaseException as exc:
                pytest.fail("flip at offset %d escaped as %r (%s, seed %d)"
                            % (offset, exc, name, SEED))
            finally:
                blob[offset] = original


class TestSegmentGranularity:
    def test_body_flip_reports_segment_with_offset(self):
        rng = random.Random(SEED)
        old = make_binary_blob(rng, 20_000)
        new = mutate(old, rng)
        payload = encode_delta(correcting_delta(old, new), FORMAT_SEQUENTIAL,
                               version_crc32=version_checksum(new),
                               reference=old)
        blob = bytearray(payload)
        mid = len(blob) // 2
        blob[mid] ^= 0x04
        # Streaming cannot see the trailer first, so detection happens
        # at the next segment checkpoint, with a wire offset.
        with pytest.raises(IntegrityError) as info:
            _drain(bytes(blob))
        assert info.value.kind == "segment"
        assert info.value.offset >= 0


# -- the framed-record codec (pack records and journal records) -----------


def _pack_body():
    """A real multi-record pack: (bytes, record offsets, record ends)."""
    rng = random.Random(SEED)
    chunks = []
    image = make_binary_blob(rng, 600)
    for version in range(3):
        chunks.append(encode_record(REC_OBJECT, encode_object_payload(
            {"digest": "d%d" % version, "base": "", "size": len(image)},
            image[:200])))
        chunks.append(encode_record(REC_REF, encode_object_payload(
            {"package": "pkg", "digest": "d%d" % version}, b"")))
        image = mutate(image, rng)
    starts, pos = [], len(PACK_MAGIC)
    for chunk in chunks:
        starts.append(pos)
        pos += len(chunk)
    return PACK_MAGIC + b"".join(chunks), starts, starts[1:] + [pos]


def _journal_states():
    """A multi-record journal and the state each record prefix holds."""
    fields = dict(next_index=300, applied_crc=0x1234ABCD)
    states = [Journal(),
              Journal(**fields),
              Journal(scratch=bytearray(b"spilled" * 20), **fields),
              Journal(scratch=bytearray(b"spilled" * 20), backup_offset=17,
                      backup_data=b"saved-run", **fields)]
    ends = [0] + [len(state.to_bytes()) for state in states[1:]]
    return states[-1].to_bytes(), states, ends


class TestFramedRecordFuzz:
    """One codec, one fuzz: every strict prefix and every single-bit flip
    of a multi-record pack body and of a multi-record journal."""

    def test_pack_prefix_keeps_intact_records(self):
        pack, starts, ends = _pack_body()
        for cut in range(len(PACK_MAGIC), len(pack)):
            records, damage = scan_records(pack[:cut], start=len(PACK_MAGIC))
            intact = sum(1 for end in ends if end <= cut)
            assert [r.offset for r in records] == starts[:intact], cut
            if cut in ends or cut == len(PACK_MAGIC):
                assert damage is None, cut
            else:
                assert damage.kind == "torn", cut
                assert damage.offset == starts[intact], cut

    def test_pack_bit_flip_is_one_torn_damage_at_its_record(self):
        pack, starts, ends = _pack_body()
        clean, _ = scan_records(pack, start=len(PACK_MAGIC))
        for bit in range(len(PACK_MAGIC) * 8, len(pack) * 8):
            blob = bytearray(pack)
            blob[bit // 8] ^= 1 << (bit % 8)
            hit = next(i for i, end in enumerate(ends) if bit // 8 < end)
            records, damage = scan_records(bytes(blob),
                                           start=len(PACK_MAGIC))
            assert records == clean[:hit], bit
            assert damage is not None and damage.kind == "torn", bit
            assert damage.offset == starts[hit], bit

    def test_journal_prefix_drops_only_the_torn_tail(self):
        blob, states, ends = _journal_states()
        for cut in range(len(blob)):
            intact = max(i for i, end in enumerate(ends) if end <= cut)
            journal = Journal.from_bytes(blob[:cut])
            assert journal == states[intact], cut
            assert journal.torn_tail == (cut != ends[intact]), cut

    def test_journal_bit_flip_is_torn_or_refused(self):
        blob, states, ends = _journal_states()
        for bit in range(len(blob) * 8):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            hit = next(i for i, end in enumerate(ends) if bit // 8 < end) - 1
            try:
                journal = Journal.from_bytes(bytes(flipped))
            except IntegrityError as exc:
                assert exc.kind == "journal", bit
                continue
            assert journal.torn_tail, bit
            assert journal == states[hit], bit
