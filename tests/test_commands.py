"""Unit tests for repro.core.commands."""

import pytest

from repro.core.commands import AddCommand, CopyCommand, DeltaScript
from repro.core.intervals import Interval
from repro.exceptions import (
    DeltaRangeError,
    IncompleteCoverError,
    OverlappingWriteError,
)


class TestCopyCommand:
    def test_intervals(self):
        cmd = CopyCommand(src=5, dst=20, length=10)
        assert cmd.read_interval == Interval(5, 14)
        assert cmd.write_interval == Interval(20, 29)

    def test_rejects_bad_fields(self):
        with pytest.raises(DeltaRangeError):
            CopyCommand(-1, 0, 5)
        with pytest.raises(DeltaRangeError):
            CopyCommand(0, -2, 5)
        with pytest.raises(DeltaRangeError):
            CopyCommand(0, 0, 0)

    def test_self_overlapping(self):
        assert CopyCommand(0, 5, 10).self_overlapping
        assert CopyCommand(5, 0, 10).self_overlapping
        assert not CopyCommand(0, 10, 10).self_overlapping

    def test_to_add(self):
        ref = bytes(range(100))
        cmd = CopyCommand(src=10, dst=50, length=4)
        add = cmd.to_add(ref)
        assert add.dst == 50
        assert add.data == bytes([10, 11, 12, 13])

    def test_to_add_out_of_range(self):
        with pytest.raises(DeltaRangeError):
            CopyCommand(src=98, dst=0, length=5).to_add(bytes(100))


class TestAddCommand:
    def test_basics(self):
        add = AddCommand(7, b"abc")
        assert add.length == 3
        assert add.write_interval == Interval(7, 9)

    def test_rejects_empty_data(self):
        with pytest.raises(DeltaRangeError):
            AddCommand(0, b"")

    def test_rejects_negative_offset(self):
        with pytest.raises(DeltaRangeError):
            AddCommand(-1, b"x")


class TestDeltaScript:
    def make(self):
        return DeltaScript(
            [CopyCommand(0, 0, 4), AddCommand(4, b"XY"), CopyCommand(10, 6, 4)],
            version_length=10,
        )

    def test_views(self):
        script = self.make()
        assert len(script) == 3
        assert len(script.copies()) == 2
        assert len(script.adds()) == 1
        assert script.copied_bytes == 8
        assert script.added_bytes == 2

    def test_stats(self):
        stats = self.make().stats()
        assert stats["commands"] == 3
        assert stats["copies"] == 2
        assert stats["adds"] == 1
        assert stats["version_length"] == 10

    def test_validate_ok(self):
        self.make().validate(reference_length=20)

    def test_validate_overlapping_writes(self):
        script = DeltaScript(
            [CopyCommand(0, 0, 5), CopyCommand(0, 4, 5)], version_length=9
        )
        with pytest.raises(OverlappingWriteError):
            script.validate(require_cover=False)

    def test_validate_write_out_of_version(self):
        script = DeltaScript([CopyCommand(0, 8, 5)], version_length=10)
        with pytest.raises(DeltaRangeError):
            script.validate(require_cover=False)

    def test_validate_read_out_of_reference(self):
        script = DeltaScript([CopyCommand(18, 0, 5)], version_length=5)
        with pytest.raises(DeltaRangeError):
            script.validate(reference_length=20)

    def test_validate_incomplete_cover(self):
        script = DeltaScript([CopyCommand(0, 0, 4)], version_length=10)
        with pytest.raises(IncompleteCoverError) as excinfo:
            script.validate()
        assert excinfo.value.gaps == [(4, 10)]

    def test_validate_cover_not_required(self):
        DeltaScript([CopyCommand(0, 0, 4)], version_length=10).validate(
            require_cover=False
        )

    def test_in_write_order(self):
        script = self.make()
        shuffled = DeltaScript(list(reversed(script.commands)), 10)
        ordered = shuffled.in_write_order()
        starts = [c.write_interval.start for c in ordered.commands]
        assert starts == sorted(starts)

    def test_coalesced_copies(self):
        script = DeltaScript(
            [CopyCommand(0, 0, 4), CopyCommand(4, 4, 6)], version_length=10
        )
        merged = script.coalesced()
        assert merged.commands == [CopyCommand(0, 0, 10)]

    def test_coalesced_adds(self):
        script = DeltaScript(
            [AddCommand(0, b"ab"), AddCommand(2, b"cd")], version_length=4
        )
        assert script.coalesced().commands == [AddCommand(0, b"abcd")]

    def test_coalesced_not_contiguous_sources(self):
        # Destinations adjacent but sources are not: must stay separate.
        script = DeltaScript(
            [CopyCommand(0, 0, 4), CopyCommand(50, 4, 6)], version_length=10
        )
        assert len(script.coalesced().commands) == 2

    def test_equality(self):
        assert self.make() == self.make()
        other = self.make()
        other.version_length = 11
        assert self.make() != other
