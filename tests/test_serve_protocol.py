"""Wire-protocol fuzz: every damaged frame must be *diagnosed*.

Mirrors tests/test_corruption_fuzz.py at the transport layer.  The
contract: feeding any truncated prefix or any single-bit-flipped
mutation of a valid frame to the parser raises a structured
:class:`~repro.exceptions.IntegrityError` with ``kind="frame"`` — never
an ``IndexError``, never a deadlock, never a silently short read.  The
async reader gets the same truncation matrix through real stream pairs,
bounded by a timeout so a would-be hang fails the test instead of
wedging it.

All corruption is exhaustive (every prefix, every bit) on seeded
payloads, so a failure reproduces exactly; assertion messages carry the
offsets.
"""

import asyncio
import random
import struct

import pytest

from repro.exceptions import IntegrityError
from repro.serve import protocol
from repro.serve.protocol import (
    FRAME_TYPES,
    T_DATA,
    T_END,
    T_META,
    T_PULL,
    decode_msg,
    encode_frame,
    encode_msg,
    parse_frame,
    read_frame,
)

SEED = 19980601


def _frames():
    rng = random.Random(SEED)
    return {
        "pull": encode_frame(T_PULL, encode_msg(
            {"package": "pkg000", "have": "a" * 40, "want": "latest",
             "offset": 0})),
        "meta": encode_frame(T_META, encode_msg(
            {"length": 4096, "crc32": 0xDEADBEEF, "want": "b" * 40,
             "offset": 0, "algorithm": "correcting"})),
        "data": encode_frame(T_DATA, rng.randbytes(257)),
        "end": encode_frame(T_END, encode_msg({"crc32": 1})),
        "empty-data": encode_frame(T_DATA, b""),
    }


FRAMES = _frames()

#: A DATA header declaring one byte more than the frame ceiling allows.
OVERSIZE_HEADER = struct.pack("<BBI", protocol.FRAME_MAGIC, T_DATA,
                              protocol.MAX_PAYLOAD + 1)


class TestRoundTrip:
    def test_every_frame_round_trips(self):
        for name, frame in FRAMES.items():
            ftype, payload = parse_frame(frame)
            assert encode_frame(ftype, payload) == frame, name

    def test_encode_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            encode_frame(0x7F, b"")

    def test_encode_rejects_oversize_payload(self):
        with pytest.raises(ValueError):
            encode_frame(T_DATA, b"\0" * (protocol.MAX_PAYLOAD + 1))

    def test_msg_round_trip_is_byte_deterministic(self):
        msg = {"b": 2, "a": 1, "nested": "x"}
        assert encode_msg(msg) == encode_msg(dict(reversed(list(msg.items()))))
        assert decode_msg(encode_msg(msg)) == msg


class TestTruncationFuzz:
    def test_every_strict_prefix_raises_frame_error(self):
        for name, frame in FRAMES.items():
            for cut in range(len(frame)):
                with pytest.raises(IntegrityError) as err:
                    parse_frame(frame[:cut])
                assert err.value.kind == "frame", \
                    "frame %s cut at %d raised kind=%r" % (
                        name, cut, err.value.kind)

    def test_trailing_garbage_raises(self):
        # A shrunken length field must not silently drop payload tail.
        for name, frame in FRAMES.items():
            with pytest.raises(IntegrityError) as err:
                parse_frame(frame + b"\x00")
            assert err.value.kind == "frame", name


class TestBitFlipFuzz:
    def test_every_single_bit_flip_raises_frame_error(self):
        for name, frame in FRAMES.items():
            for offset in range(len(frame)):
                for bit in range(8):
                    corrupt = bytearray(frame)
                    corrupt[offset] ^= 1 << bit
                    with pytest.raises(IntegrityError) as err:
                        parse_frame(bytes(corrupt))
                    assert err.value.kind == "frame", \
                        "frame %s flip at offset %d bit %d raised " \
                        "kind=%r" % (name, offset, bit, err.value.kind)

    def test_oversize_length_rejected_before_allocation(self):
        # A length field declaring more than the ceiling (a bit flip can
        # declare gigabytes) must be refused by the ceiling, not buffered.
        with pytest.raises(IntegrityError) as err:
            parse_frame(OVERSIZE_HEADER + b"\0" * 8)
        assert err.value.kind == "frame"
        assert "ceiling" in str(err.value)

    def test_bad_magic_is_structured(self):
        frame = bytearray(FRAMES["pull"])
        frame[0] = 0x00
        with pytest.raises(IntegrityError) as err:
            parse_frame(bytes(frame))
        assert err.value.kind == "frame"
        assert err.value.offset == 0


class TestMalformedControlPayloads:
    def test_non_json_payload_is_frame_error(self):
        with pytest.raises(IntegrityError) as err:
            decode_msg(b"\xff\xfe not json")
        assert err.value.kind == "frame"

    def test_non_object_json_is_frame_error(self):
        with pytest.raises(IntegrityError) as err:
            decode_msg(b"[1,2,3]")
        assert err.value.kind == "frame"


class TestAsyncReader:
    """The stream reader under the same damage: structured, never hung."""

    @staticmethod
    def _read_from(data: bytes, timeout: float = 5.0):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await asyncio.wait_for(read_frame(reader),
                                          timeout=timeout)
        return asyncio.run(go())

    def test_valid_frames_read_back(self):
        for name, frame in FRAMES.items():
            ftype, payload = self._read_from(frame)
            assert encode_frame(ftype, payload) == frame, name

    def test_every_truncated_stream_raises_not_hangs(self):
        frame = FRAMES["meta"]
        for cut in range(len(frame)):
            with pytest.raises(IntegrityError) as err:
                self._read_from(frame[:cut])
            assert err.value.kind == "frame", "cut at %d" % cut

    def test_flipped_stream_raises_frame_error(self):
        frame = FRAMES["data"]
        rng = random.Random(SEED)
        for _ in range(64):
            offset = rng.randrange(len(frame))
            bit = rng.randrange(8)
            corrupt = bytearray(frame)
            corrupt[offset] ^= 1 << bit
            with pytest.raises(IntegrityError) as err:
                self._read_from(bytes(corrupt))
            assert err.value.kind == "frame", \
                "flip at offset %d bit %d" % (offset, bit)

    def test_reader_enforces_payload_ceiling(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(OVERSIZE_HEADER)
            reader.feed_eof()
            return await asyncio.wait_for(read_frame(reader), timeout=5.0)

        with pytest.raises(IntegrityError) as err:
            asyncio.run(go())
        assert err.value.kind == "frame"
        assert "ceiling" in str(err.value)

    def test_frame_types_are_distinct(self):
        assert len(set(FRAME_TYPES)) == len(FRAME_TYPES)
