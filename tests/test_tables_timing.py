"""Unit tests for rendering and timing helpers (repro.analysis.tables/timing)."""

import pytest

from repro.analysis.tables import format_bytes, format_seconds, render_kv, render_table
from repro.analysis.timing import ratio_stats, weighted_time_ratio


class TestRenderTable:
    def test_alignment(self):
        out = render_table([["name", "value"], ["a", "1"], ["longer", "22"]])
        lines = out.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        # Value cells are right-aligned: all rows end at the same column.
        assert len(lines[0].rstrip()) == len(lines[2].rstrip()) == len(lines[3].rstrip())

    def test_empty(self):
        assert render_table([]) == ""

    def test_ragged_rows_padded(self):
        out = render_table([["a", "b", "c"], ["x"]])
        assert "x" in out

    def test_render_kv(self):
        out = render_kv("title", [("k", "v"), ("key2", "v2")])
        assert out.startswith("title")
        assert "k     v" in out


class TestFormatters:
    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.0 KiB"
        assert format_bytes(5 * 1024 * 1024) == "5.0 MiB"

    def test_format_seconds(self):
        assert "µs" in format_seconds(5e-5)
        assert "ms" in format_seconds(0.005)
        assert format_seconds(2.5) == "2.50 s"
        assert "min" in format_seconds(300)


class TestTiming:
    def test_ratio_stats(self):
        stats = ratio_stats([0.5, 0.6, 0.7, 1.5])
        assert stats.count == 4
        assert stats.maximum == 1.5
        assert stats.median == pytest.approx(0.65)
        assert stats.fraction_over_one == pytest.approx(0.25)

    def test_ratio_stats_odd_median(self):
        assert ratio_stats([3.0, 1.0, 2.0]).median == 2.0

    def test_ratio_stats_empty(self):
        with pytest.raises(ValueError):
            ratio_stats([])

    def test_weighted_ratio(self):
        assert weighted_time_ratio([1, 1], [2, 2]) == pytest.approx(0.5)

    def test_weighted_ratio_zero_denominator(self):
        with pytest.raises(ValueError):
            weighted_time_ratio([1], [0])
