"""Unit tests for the two reconstruction engines (repro.core.apply)."""

import pytest

import repro
from repro.core.apply import _directional_copy, apply_delta, apply_in_place, reconstruct
from repro.core.commands import AddCommand, CopyCommand, DeltaScript
from repro.delta import FORMAT_INPLACE, encode_delta, version_checksum
from repro.delta.stream import apply_delta_stream
from repro.exceptions import DeltaRangeError, WriteBeforeReadError


class TestApplyDelta:
    def test_copy_and_add(self):
        ref = b"0123456789"
        script = DeltaScript(
            [CopyCommand(2, 0, 4), AddCommand(4, b"XY")], version_length=6
        )
        assert apply_delta(script, ref) == b"2345XY"

    def test_order_independent(self):
        ref = b"abcdef"
        cmds = [CopyCommand(0, 3, 3), AddCommand(0, b"zzz")]
        forward = apply_delta(DeltaScript(cmds, 6), ref)
        backward = apply_delta(DeltaScript(list(reversed(cmds)), 6), ref)
        assert forward == backward == b"zzzabc"

    def test_read_out_of_range(self):
        script = DeltaScript([CopyCommand(8, 0, 5)], version_length=5)
        with pytest.raises(DeltaRangeError):
            apply_delta(script, b"0123456789"[:10])

    def test_memoryview_reference(self):
        ref = memoryview(b"0123456789")
        script = DeltaScript([CopyCommand(0, 0, 10)], version_length=10)
        assert apply_delta(script, ref) == b"0123456789"

    def test_empty_script(self):
        assert apply_delta(DeltaScript([], 0), b"anything") == b""


class TestDirectionalCopy:
    def test_non_overlapping(self):
        buf = bytearray(b"abcdefgh")
        _directional_copy(buf, 0, 4, 4, chunk=2)
        assert buf == b"abcdabcd"

    def test_overlap_src_before_dst_right_to_left(self):
        # Shift right by 2: src=0, dst=2, overlapping; must copy backwards.
        buf = bytearray(b"abcdef__")
        _directional_copy(buf, 0, 2, 6, chunk=1)
        assert buf == b"ababcdef"

    def test_overlap_src_after_dst_left_to_right(self):
        # Shift left by 2: src=2, dst=0, overlapping; copies forwards.
        buf = bytearray(b"__abcdef")
        _directional_copy(buf, 2, 0, 6, chunk=1)
        assert buf == b"abcdefef"

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 4096])
    def test_overlap_matches_buffered_copy(self, chunk):
        base = bytes(range(64))
        for src, dst, length in [(0, 8, 40), (8, 0, 40), (10, 12, 30), (12, 10, 30)]:
            buf = bytearray(base)
            expected = bytearray(base)
            expected[dst:dst + length] = base[src:src + length]  # via temp copy
            _directional_copy(buf, src, dst, length, chunk)
            assert buf == expected, (src, dst, length, chunk)

    def test_same_position_noop(self):
        buf = bytearray(b"abcd")
        _directional_copy(buf, 1, 1, 3, chunk=2)
        assert buf == b"abcd"


class TestApplyInPlace:
    def test_simple(self):
        buf = bytearray(b"0123456789")
        script = DeltaScript(
            [CopyCommand(6, 0, 4), AddCommand(4, b"ABCDEF")], version_length=10
        )
        apply_in_place(script, buf)
        assert buf == b"6789ABCDEF"

    def test_growing_version(self):
        buf = bytearray(b"abc")
        script = DeltaScript(
            [CopyCommand(0, 0, 3), AddCommand(3, b"defgh")], version_length=8
        )
        apply_in_place(script, buf)
        assert buf == b"abcdefgh"

    def test_shrinking_version(self):
        buf = bytearray(b"abcdefgh")
        script = DeltaScript([CopyCommand(4, 0, 3)], version_length=3)
        apply_in_place(script, buf)
        assert buf == b"efg"

    def test_strict_detects_conflict(self):
        # Command 0 writes [0,3]; command 1 then reads [2,5]: WR conflict.
        script = DeltaScript(
            [CopyCommand(4, 0, 4), CopyCommand(2, 4, 4)], version_length=8
        )
        buf = bytearray(b"01234567")
        with pytest.raises(WriteBeforeReadError) as excinfo:
            apply_in_place(script, buf, strict=True)
        assert excinfo.value.reader_index == 1

    def test_unstrict_corrupts_silently(self):
        # The same conflicting script, non-strict: produces *wrong* output
        # (the failure mode the paper's converter prevents).
        ref = b"01234567"
        script = DeltaScript(
            [CopyCommand(4, 0, 4), CopyCommand(2, 4, 4)], version_length=8
        )
        expected = apply_delta(script, ref)
        buf = bytearray(ref)
        apply_in_place(script, buf, strict=False)
        assert bytes(buf) != expected

    def test_self_overlap_allowed_in_strict(self):
        # A single self-overlapping copy is not a WR conflict (section 4.1).
        buf = bytearray(b"abcdef")
        script = DeltaScript([CopyCommand(0, 2, 4)], version_length=6)
        apply_in_place(script, buf, strict=True)
        assert buf == b"ababcd"

    def test_read_beyond_original_reference(self):
        # The version grows, but copies may only read the original bytes.
        buf = bytearray(b"abc")
        script = DeltaScript(
            [AddCommand(0, b"xxx"), CopyCommand(4, 3, 2)], version_length=5
        )
        with pytest.raises(DeltaRangeError):
            apply_in_place(script, buf)

    def test_bad_chunk_size(self):
        with pytest.raises(ValueError):
            apply_in_place(DeltaScript([], 0), bytearray(), chunk_size=0)

    @pytest.mark.parametrize("chunk", [1, 3, 7, 4096])
    def test_chunk_size_never_changes_result(self, chunk):
        # In-place safe by construction; includes a left-to-right
        # (src >= dst) and a right-to-left (src < dst) overlapping copy.
        ref = bytes(range(50)) * 2
        script = DeltaScript(
            [CopyCommand(50, 0, 30),
             CopyCommand(32, 30, 40),   # overlaps own write, src >= dst
             CopyCommand(70, 72, 18),   # overlaps own write, src < dst
             AddCommand(70, b"YY"), AddCommand(90, b"Z" * 10)],
            version_length=100,
        )
        expected = apply_delta(script, ref)
        buf = bytearray(ref)
        apply_in_place(script, buf, strict=True, chunk_size=chunk)
        assert bytes(buf) == expected


class TestReconstruct:
    def test_two_space(self):
        ref = b"hello world"
        script = DeltaScript([CopyCommand(6, 0, 5)], version_length=5)
        assert reconstruct(script, ref) == b"world"

    def test_in_place(self):
        ref = b"hello world"
        script = DeltaScript([CopyCommand(6, 0, 5)], version_length=5)
        assert reconstruct(script, ref, in_place=True) == b"world"

    def test_in_place_is_strict(self):
        script = DeltaScript(
            [CopyCommand(4, 0, 4), CopyCommand(2, 4, 4)], version_length=8
        )
        with pytest.raises(WriteBeforeReadError):
            reconstruct(script, b"01234567", in_place=True)


class TestWriteBeyondVersion:
    """A command writing past ``version_length`` is refused by every
    applier: the two-space one used to grow its output, the in-place one
    to cut the write short, both without an error."""

    REFERENCE = bytes(range(40))

    def test_every_applier_refuses(self):
        # A 50-byte version whose last add writes [45, 55).
        script = DeltaScript([CopyCommand(0, 0, 40), AddCommand(40, b"a" * 5),
                              AddCommand(45, b"b" * 10)], version_length=50)
        intended = self.REFERENCE + b"a" * 5 + b"b" * 5
        payload = encode_delta(script, FORMAT_INPLACE,
                               version_crc32=version_checksum(intended),
                               reference=self.REFERENCE)
        assert repro.decode_delta(payload)[0] == script
        with pytest.raises(DeltaRangeError):
            repro.patch(self.REFERENCE, payload)
        with pytest.raises(DeltaRangeError):
            apply_delta(script, self.REFERENCE)
        with pytest.raises(DeltaRangeError):
            apply_in_place(script, bytearray(self.REFERENCE), strict=True)
        with pytest.raises(DeltaRangeError):
            repro.patch_in_place(bytearray(self.REFERENCE), payload)
        with pytest.raises(DeltaRangeError):
            apply_delta_stream(payload, bytearray(self.REFERENCE), strict=True)
