"""Unit tests for the delta wire formats (repro.delta.encode)."""

import random
import zlib

import pytest

from repro.core.apply import apply_delta
from repro.core.commands import (
    AddCommand,
    CopyCommand,
    DeltaScript,
    FillCommand,
    SpillCommand,
)
from repro.delta import correcting_delta
from repro.delta.encode import (
    ALL_FORMATS,
    FLAG_HAS_REFERENCE,
    FLAG_HAS_VERSION_CRC,
    FLAG_SEGMENT_CRCS,
    FORMAT_INPLACE,
    FORMAT_INPLACE_FIXED,
    FORMAT_SEQUENTIAL,
    FORMAT_SEQUENTIAL_FIXED,
    MAX_ADD_CHUNK,
    OP_ADD,
    OP_COPY,
    OP_CRC,
    OP_END,
    OP_FILL,
    OP_SPILL,
    SEGMENT_TARGET_BYTES,
    WIRE_V1,
    WIRE_V2,
    decode_delta,
    encode_delta,
    encoded_size,
    version_checksum,
)
from repro.delta.varint import encode_varint
from repro.exceptions import DeltaFormatError
from repro.workloads import mutate


def sample_script() -> DeltaScript:
    return DeltaScript(
        [CopyCommand(100, 0, 40), AddCommand(40, b"A" * 10), CopyCommand(0, 50, 30)],
        version_length=80,
    )


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_sample_script(self, fmt):
        script = sample_script()
        payload = encode_delta(script, fmt)
        decoded, header = decode_delta(payload)
        assert header.format == fmt
        assert header.version_length == 80
        assert decoded.version_length == 80
        # Command-for-command equality modulo add splitting (none here).
        assert decoded.commands == script.commands

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_real_delta(self, fmt, sample_pair):
        ref, ver = sample_pair
        script = correcting_delta(ref, ver)
        payload = encode_delta(script, fmt, version_crc32=version_checksum(ver))
        decoded, header = decode_delta(payload)
        assert apply_delta(decoded, ref) == ver
        assert header.version_crc32 == version_checksum(ver)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_long_add_split_and_reassembled(self, fmt):
        script = DeltaScript([AddCommand(0, bytes(1000))], version_length=1000)
        payload = encode_delta(script, fmt)
        decoded, _ = decode_delta(payload)
        adds = decoded.adds()
        assert len(adds) == 4  # 255 + 255 + 255 + 235
        assert all(a.length <= MAX_ADD_CHUNK for a in adds)
        assert apply_delta(decoded, b"") == bytes(1000)

    def test_inplace_preserves_command_order(self):
        # The converter's permutation is the whole point: out-of-write-order
        # command sequences must survive serialization exactly.
        script = DeltaScript(
            [CopyCommand(0, 50, 30), CopyCommand(100, 0, 40), AddCommand(40, b"x" * 10)],
            version_length=80,
        )
        decoded, _ = decode_delta(encode_delta(script, FORMAT_INPLACE))
        assert [c.dst for c in decoded.commands] == [50, 0, 40]

    def test_sequential_requires_contiguous_tiling(self):
        gappy = DeltaScript([CopyCommand(0, 10, 5)], version_length=20)
        with pytest.raises(DeltaFormatError):
            encode_delta(gappy, FORMAT_SEQUENTIAL)

    def test_sequential_sorts_for_you(self):
        script = DeltaScript(
            [CopyCommand(0, 50, 30), CopyCommand(100, 0, 50)], version_length=80
        )
        decoded, _ = decode_delta(encode_delta(script, FORMAT_SEQUENTIAL))
        assert [c.dst for c in decoded.commands] == [0, 50]


class TestEncodedSize:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_matches_encoder(self, fmt, sample_pair):
        ref, ver = sample_pair
        script = correcting_delta(ref, ver)
        assert encoded_size(script, fmt) == len(encode_delta(script, fmt))

    def test_offsets_cost_more(self):
        script = sample_script()
        assert encoded_size(script, FORMAT_INPLACE) > encoded_size(script, FORMAT_SEQUENTIAL)
        assert encoded_size(script, FORMAT_INPLACE_FIXED) > \
            encoded_size(script, FORMAT_SEQUENTIAL_FIXED)

    def test_fixed_costs_more_than_varint(self):
        script = sample_script()
        assert encoded_size(script, FORMAT_SEQUENTIAL_FIXED) > \
            encoded_size(script, FORMAT_SEQUENTIAL)

    def test_unknown_format(self):
        with pytest.raises(DeltaFormatError):
            encoded_size(sample_script(), 99)


class TestMalformedInput:
    def test_bad_magic(self):
        with pytest.raises(DeltaFormatError):
            decode_delta(b"NOPE" + bytes(20))

    def test_unknown_format_byte(self):
        payload = bytearray(encode_delta(sample_script(), FORMAT_INPLACE))
        payload[4] = 42
        with pytest.raises(DeltaFormatError):
            decode_delta(bytes(payload))

    def test_truncated_everywhere(self):
        payload = encode_delta(sample_script(), FORMAT_INPLACE)
        for cut in range(len(payload) - 1):
            with pytest.raises(DeltaFormatError):
                decode_delta(payload[:cut])

    def test_missing_end_opcode(self):
        payload = encode_delta(sample_script(), FORMAT_INPLACE)
        with pytest.raises(DeltaFormatError):
            decode_delta(payload[:-1])

    def test_unknown_opcode(self):
        payload = bytearray(encode_delta(DeltaScript([], 0), FORMAT_INPLACE))
        payload[-1] = 0x77  # replace OP_END with junk
        payload.append(0x00)
        with pytest.raises(DeltaFormatError):
            decode_delta(bytes(payload))

    def test_zero_length_commands_rejected(self):
        # Hand-craft a copy with length 0.
        good = encode_delta(DeltaScript([], 4), FORMAT_INPLACE)
        body = good[:-1] + bytes([0x02, 0, 0, 0]) + b"\x00"
        with pytest.raises(DeltaFormatError):
            decode_delta(body)

    def test_fixed_value_overflow(self):
        script = DeltaScript([CopyCommand(1 << 33, 0, 4)], version_length=4)
        with pytest.raises(DeltaFormatError):
            encode_delta(script, FORMAT_INPLACE_FIXED)


class TestChecksum:
    def test_checksum_stability(self):
        assert version_checksum(b"abc") == version_checksum(b"abc")
        assert version_checksum(b"abc") != version_checksum(b"abd")


# ---------------------------------------------------------------------------
# The one-pass writer against the per-codeword oracle
# ---------------------------------------------------------------------------

def _oracle_put_int(out, value, fixed):
    if fixed:
        if value > 0xFFFFFFFF:
            raise DeltaFormatError(
                "value %d does not fit the fixed 4-byte field" % value)
        out += value.to_bytes(4, "little")
    else:
        out += encode_varint(value)


def _oracle_codewords(commands, fixed, with_offsets):
    """One ``bytes`` per codeword, varints built one by one."""
    for cmd in commands:
        if isinstance(cmd, CopyCommand):
            word = bytearray((OP_COPY,))
            _oracle_put_int(word, cmd.src, fixed)
            if with_offsets:
                _oracle_put_int(word, cmd.dst, fixed)
            _oracle_put_int(word, cmd.length, fixed)
            yield bytes(word)
        elif isinstance(cmd, SpillCommand):
            word = bytearray((OP_SPILL,))
            for value in (cmd.src, cmd.scratch, cmd.length):
                _oracle_put_int(word, value, fixed)
            yield bytes(word)
        elif isinstance(cmd, FillCommand):
            word = bytearray((OP_FILL,))
            for value in (cmd.scratch, cmd.dst, cmd.length):
                _oracle_put_int(word, value, fixed)
            yield bytes(word)
        else:
            done = 0
            while done < cmd.length:
                step = min(MAX_ADD_CHUNK, cmd.length - done)
                word = bytearray((OP_ADD,))
                if with_offsets:
                    _oracle_put_int(word, cmd.dst + done, fixed)
                word.append(step)
                word += cmd.data[done:done + step]
                done += step
                yield bytes(word)


def _oracle_encode(script, fmt, *, version_crc32=None, reference=None,
                   wire=None):
    """The per-codeword writer: codewords from a generator, an ``IPD2``
    body built apart and checkpointed after each word, then a header."""
    if wire is None:
        wire = WIRE_V2 if reference is not None else WIRE_V1
    if wire == WIRE_V1 and reference is not None:
        raise DeltaFormatError("IPD1 cannot carry a reference")
    fixed = fmt in (FORMAT_SEQUENTIAL_FIXED, FORMAT_INPLACE_FIXED)
    with_offsets = fmt in (FORMAT_INPLACE, FORMAT_INPLACE_FIXED)
    scratch_length = script.scratch_length
    if scratch_length and not with_offsets:
        raise DeltaFormatError("spill/fill need an in-place format")
    commands = list(script.commands)
    if not with_offsets:
        commands.sort(key=lambda c: c.dst)
        cursor = 0
        for cmd in commands:
            if cmd.dst != cursor:
                raise DeltaFormatError("not contiguous")
            cursor = cmd.dst + cmd.length
        if cursor != script.version_length:
            raise DeltaFormatError("short cover")
    crc = (version_crc32 if version_crc32 is not None else 0) & 0xFFFFFFFF
    if wire == WIRE_V1:
        out = bytearray(b"IPD1") + bytes((fmt,))
        out += encode_varint(script.version_length)
        out += encode_varint(scratch_length) + crc.to_bytes(4, "little")
        for word in _oracle_codewords(commands, fixed, with_offsets):
            out += word
        return bytes(out) + bytes((OP_END,))
    body = bytearray()
    seg_start = 0
    for word in _oracle_codewords(commands, fixed, with_offsets):
        body += word
        if len(body) - seg_start >= SEGMENT_TARGET_BYTES:
            body += bytes((OP_CRC,)) + zlib.crc32(
                body[seg_start:]).to_bytes(4, "little")
            seg_start = len(body)
    if len(body) > seg_start:
        body += bytes((OP_CRC,)) + zlib.crc32(
            body[seg_start:]).to_bytes(4, "little")
    flags = ((FLAG_HAS_VERSION_CRC if version_crc32 is not None else 0)
             | (FLAG_HAS_REFERENCE if reference is not None else 0)
             | (FLAG_SEGMENT_CRCS if body else 0))
    out = bytearray(b"IPD2") + bytes((fmt, flags))
    out += encode_varint(script.version_length)
    out += encode_varint(scratch_length) + crc.to_bytes(4, "little")
    out += encode_varint(len(reference) if reference is not None else 0)
    out += (zlib.crc32(reference) if reference is not None
            else 0).to_bytes(4, "little")
    out += body + bytes((OP_END,))
    return bytes(out + zlib.crc32(out).to_bytes(4, "little"))


#: Values either side of every varint width boundary, and one past the
#: fixed 4-byte field's range.
_BOUNDARY_VALUES = (0, 1, 127, 128, 16383, 16384, (1 << 21) - 1, 1 << 21,
                    (1 << 28) - 1, 1 << 28, 1 << 35)


def _random_script(rng, scratch):
    """A random in-place shaped script: copies, adds (some longer than
    one add codeword), optional spills and fills, fields drawn near the
    varint width boundaries, in random order.  ``version_length`` is
    the end of the furthest write."""
    commands = []
    end = 0

    def value():
        if rng.random() < 0.4:
            return max(0, rng.choice(_BOUNDARY_VALUES) + rng.randint(-1, 1))
        return rng.randrange(1 << rng.choice((7, 14, 21, 24)))

    for _ in range(rng.randint(0, 60)):
        roll = rng.random()
        if scratch and roll < 0.1:
            commands.append(SpillCommand(value(), value(), max(1, value())))
            continue
        if scratch and roll < 0.2:
            cmd = FillCommand(value(), value(), max(1, value()))
        elif roll < 0.55:
            cmd = CopyCommand(value(), value(), max(1, value()))
        else:
            size = rng.choice((1, 2, 254, 255, 256, 510, 511, 700, 1500))
            cmd = AddCommand(value(), rng.randbytes(size))
        commands.append(cmd)
        end = max(end, cmd.dst + cmd.length)
    return DeltaScript(commands, end)


def _tiling_script(rng):
    """A write-ordered script covering ``[0, L)`` without gaps, so the
    sequential formats encode it too."""
    commands = []
    cursor = 0
    for _ in range(rng.randint(0, 60)):
        if rng.random() < 0.5:
            length = rng.choice((1, 127, 128, 16383, 16384, rng.randint(1, 900)))
            cmd = CopyCommand(rng.choice(_BOUNDARY_VALUES[:8]), cursor, length)
        else:
            cmd = AddCommand(cursor, rng.randbytes(
                rng.choice((1, 255, 256, 700, rng.randint(1, 300)))))
        commands.append(cmd)
        cursor += cmd.length
    rng.shuffle(commands)
    return DeltaScript(commands, cursor)


def _outcome(encode, script, fmt, **kwargs):
    try:
        return None, encode(script, fmt, **kwargs)
    except (DeltaFormatError, ValueError, OverflowError) as exc:
        return type(exc), None


class TestEncodeOracle:
    """``encode_delta`` writes the bytes the per-codeword writer does, or
    raises the same exception type, and ``encoded_size`` prices them."""

    @pytest.mark.parametrize("scratch", [False, True],
                             ids=["plain", "spill_fill"])
    @pytest.mark.parametrize("block", range(4))
    def test_random_scripts_match_oracle(self, block, scratch):
        outcomes = {"bytes": 0, "error": 0, "checkpointed": 0}
        for case in range(25):
            rng = random.Random(block * 1000 + case + 500 * scratch)
            script = (_random_script(rng, scratch) if case % 2 or scratch
                      else _tiling_script(rng))
            reference = rng.randbytes(rng.randint(0, 300))
            for fmt in ALL_FORMATS:
                for wire in (WIRE_V1, WIRE_V2):
                    for crc in (None, rng.randrange(1 << 32)):
                        for ref in (None, reference):
                            kwargs = dict(version_crc32=crc, reference=ref,
                                          wire=wire)
                            expected = _outcome(_oracle_encode, script, fmt,
                                                **kwargs)
                            got = _outcome(encode_delta, script, fmt, **kwargs)
                            assert got == expected, (block, case, fmt, kwargs)
                            if expected[1] is None:
                                outcomes["error"] += 1
                                continue
                            outcomes["bytes"] += 1
                            outcomes["checkpointed"] += \
                                wire == WIRE_V2 and len(got[1]) > 2048
                            assert encoded_size(
                                script, fmt, wire=wire,
                                reference_length=len(ref)
                                if ref is not None else 0) == len(got[1])
                            if wire == WIRE_V2:
                                decoded, _ = decode_delta(got[1])
                                assert len(decoded) >= len(script)
        # Both outcomes occur, and IPD2 bodies cross several segments.
        assert outcomes["bytes"] > 100 and outcomes["error"] > 20, outcomes
        assert outcomes["checkpointed"] > 50, outcomes

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_boundary_fields_and_long_adds(self, fmt):
        """Every field width boundary in every field position, adds split
        over several codewords, and a body crossing the segment target
        many times."""
        commands = []
        cursor = 0
        for value in _BOUNDARY_VALUES[:8]:
            # The value as a source, a write offset and a length.
            commands.append(CopyCommand(value, cursor, 1))
            commands.append(CopyCommand(0, cursor + 1, max(1, value)))
            cursor += 1 + max(1, value)
            commands.append(AddCommand(cursor, bytes(range(256)) * 3))
            cursor += 768
        script = DeltaScript(commands, cursor)
        reference = random.Random(7).randbytes((1 << 21) + 1)
        for wire in (WIRE_V1, WIRE_V2):
            kwargs = dict(version_crc32=version_checksum(b"v"), wire=wire,
                          reference=reference if wire == WIRE_V2 else None)
            payload = encode_delta(script, fmt, **kwargs)
            assert payload == _oracle_encode(script, fmt, **kwargs)
            assert encoded_size(
                script, fmt, wire=wire,
                reference_length=len(reference) if wire == WIRE_V2 else 0
            ) == len(payload)
            decoded, _ = decode_delta(payload)
            assert apply_delta(decoded, reference) == \
                apply_delta(script, reference)

    def test_empty_script_matches_oracle(self):
        for fmt in ALL_FORMATS:
            for wire in (WIRE_V1, WIRE_V2):
                script = DeltaScript([], 0)
                assert encode_delta(script, fmt, wire=wire) == \
                    _oracle_encode(script, fmt, wire=wire)
