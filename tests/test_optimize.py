"""Tests for the size optimizer (repro.core.optimize)."""

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.apply import apply_delta, apply_in_place
from repro.core.commands import AddCommand, CopyCommand, DeltaScript
from repro.core.optimize import (
    add_codeword_size,
    copy_codeword_size,
    optimize_script,
)
from repro.core.verify import is_in_place_safe
from repro.delta import FORMAT_INPLACE, FORMAT_SEQUENTIAL, encoded_size


class TestCostModel:
    def test_copy_codeword_size(self):
        cmd = CopyCommand(0, 0, 1)
        assert copy_codeword_size(cmd) == 4  # op + 3 one-byte varints
        assert copy_codeword_size(cmd, with_offsets=False) == 3

    def test_add_codeword_size(self):
        assert add_codeword_size(1, 0) == 4  # op + dst varint + len byte + data
        assert add_codeword_size(1, 0, with_offsets=False) == 3
        assert add_codeword_size(300, 0) == (1 + 1 + 1 + 255) + (1 + 2 + 1 + 45)


class TestOptimize:
    def test_inlines_tiny_copies(self):
        ref = b"0123456789"
        script = DeltaScript(
            [CopyCommand(4, 0, 1), AddCommand(1, b"xy")], version_length=3
        )
        optimized, report = optimize_script(script, ref)
        assert report.inlined_copies == 1
        # The inlined byte fuses with the following add.
        assert optimized.commands == [AddCommand(0, b"4xy")]
        assert apply_delta(optimized, ref) == apply_delta(script, ref)

    def test_keeps_profitable_copies(self):
        ref = bytes(100)
        script = DeltaScript([CopyCommand(0, 0, 50)], version_length=50)
        optimized, report = optimize_script(script, ref)
        assert report.inlined_copies == 0
        assert optimized.commands == script.commands

    def test_coalesces_contiguous_copies(self):
        ref = bytes(range(100))
        script = DeltaScript(
            [CopyCommand(10, 0, 20), CopyCommand(30, 20, 20)], version_length=40
        )
        optimized, report = optimize_script(script, ref)
        assert report.coalesced == 1
        assert optimized.commands == [CopyCommand(10, 0, 40)]

    def test_merges_adds(self):
        script = DeltaScript(
            [AddCommand(0, b"ab"), AddCommand(2, b"cd")], version_length=4
        )
        optimized, report = optimize_script(script)
        assert report.merged_adds == 1
        assert optimized.commands == [AddCommand(0, b"abcd")]

    def test_without_reference_only_structure(self):
        script = DeltaScript(
            [CopyCommand(4, 0, 1), CopyCommand(5, 1, 1)], version_length=2
        )
        optimized, report = optimize_script(script)  # no reference
        assert report.inlined_copies == 0
        assert optimized.commands == [CopyCommand(4, 0, 2)]  # still coalesces

    def test_scratch_scripts_untouched(self):
        from repro.core.commands import FillCommand, SpillCommand

        script = DeltaScript(
            [SpillCommand(0, 0, 4), CopyCommand(4, 0, 4), FillCommand(0, 4, 4)],
            version_length=8,
        )
        optimized, report = optimize_script(script, bytes(8))
        assert optimized is script
        assert report.coalesced == report.inlined_copies == \
            report.merged_adds == 0

    def test_never_grows_encoding(self, sample_pair):
        ref, ver = sample_pair
        script = repro.diff(ref, ver)
        optimized, _report = optimize_script(script, ref,
                                             with_offsets=False)
        assert encoded_size(optimized, FORMAT_SEQUENTIAL) <= \
            encoded_size(script, FORMAT_SEQUENTIAL)
        assert apply_delta(optimized, ref) == ver

    def test_preserves_in_place_safety(self, sample_pair):
        ref, ver = sample_pair
        result = repro.diff_in_place(ref, ver)
        optimized, _report = optimize_script(result.script, ref)
        assert is_in_place_safe(optimized)
        buf = bytearray(ref)
        apply_in_place(optimized, buf, strict=True)
        assert bytes(buf) == ver

    def test_optimize_before_convert_shrinks_digraph(self, rng):
        from repro.core.crwi import build_crwi_digraph
        from repro.delta import tichy_delta

        ref = rng.randbytes(2_000)
        ver = rng.randbytes(300) + ref[100:1800]
        # tichy at min_match=1 floods the script with tiny copies.
        script = tichy_delta(ref, ver, min_match=1)
        optimized, report = optimize_script(script, ref)
        assert report.inlined_copies > 0
        before = build_crwi_digraph(script).vertex_count
        after = build_crwi_digraph(optimized).vertex_count
        assert after < before
        assert apply_delta(optimized, ref) == ver

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_property_equivalence(self, seed):
        import random

        from repro.workloads import mutate

        rng = random.Random(seed)
        ref = rng.randbytes(rng.randint(16, 1_200))
        ver = mutate(ref, rng)
        script = repro.diff(ref, ver)
        for with_offsets in (False, True):
            optimized, _ = optimize_script(script, ref, with_offsets=with_offsets)
            assert apply_delta(optimized, ref) == ver
            optimized.validate(reference_length=len(ref))
