"""Exact eviction pricing: reported cost must equal encoded-size growth.

The paper prices an eviction at ``l - |f|`` with ``|f|`` a fixed
codeword field width.  This library's default wire format uses varints,
so ``|f|`` depends on the offset value; ``offset_encoding_size`` now
accepts a per-value size function, and in that mode the converter
reports the EXACT number of bytes the encoded delta grows by — the
quantity the paper's cost model approximates.
"""

import pytest

from repro.core.commands import AddCommand, CopyCommand, DeltaScript
from repro.core.convert import make_in_place
from repro.core.crwi import build_crwi_digraph
from repro.core.policies import is_feedback_vertex_set
from repro.core.integrated import InPlaceDeltaBuilder, diff_in_place_integrated
from repro.delta import (
    ALGORITHMS,
    FORMAT_INPLACE,
    FORMAT_INPLACE_FIXED,
    encoded_size,
    varint_size,
)

from .test_roundtrip_fuzz import _scrambled_pair


def two_cycle(length=300):
    """Two copies that swap halves of the file: one forced eviction."""
    script = DeltaScript(
        [CopyCommand(length, 0, length), CopyCommand(0, length, length)],
        2 * length,
    )
    reference = bytes(i % 251 for i in range(2 * length))
    return script, reference


class TestExactGrowth:
    def test_varint_cost_equals_varint_growth(self):
        script, reference = two_cycle()
        result = make_in_place(script, reference,
                               offset_encoding_size=varint_size)
        assert result.report.evicted_count == 1
        growth = (encoded_size(result.script, FORMAT_INPLACE)
                  - encoded_size(script, FORMAT_INPLACE))
        assert result.report.eviction_cost == growth

    def test_fixed_callable_cost_equals_fixed_growth(self):
        script, reference = two_cycle()
        result = make_in_place(script, reference,
                               offset_encoding_size=lambda _value: 4)
        growth = (encoded_size(result.script, FORMAT_INPLACE_FIXED)
                  - encoded_size(script, FORMAT_INPLACE_FIXED))
        assert result.report.eviction_cost == growth

    def test_scratch_spill_cost_equals_growth(self):
        script, reference = two_cycle()
        result = make_in_place(script, reference, scratch_budget=512,
                               offset_encoding_size=varint_size)
        assert result.report.spilled_count == 1
        growth = (encoded_size(result.script, FORMAT_INPLACE)
                  - encoded_size(script, FORMAT_INPLACE))
        assert result.report.eviction_cost == growth

    def test_long_eviction_spans_add_chunks(self):
        # An evicted copy longer than one add codeword's 255-byte data
        # field must be priced across all its chunks.
        script, reference = two_cycle(1000)
        result = make_in_place(script, reference,
                               offset_encoding_size=varint_size)
        growth = (encoded_size(result.script, FORMAT_INPLACE)
                  - encoded_size(script, FORMAT_INPLACE))
        assert result.report.eviction_cost == growth

    @pytest.mark.parametrize("differ", ["greedy", "onepass", "correcting"])
    @pytest.mark.parametrize("scratch", [0, 4096])
    def test_random_scripts_varint_growth(self, differ, scratch):
        for seed, longer in ((21, False), (22, True)):
            reference, version = _scrambled_pair(seed, longer)
            script = ALGORITHMS[differ](reference, version)
            result = make_in_place(script, reference, scratch_budget=scratch,
                                   offset_encoding_size=varint_size)
            growth = (encoded_size(result.script, FORMAT_INPLACE)
                      - encoded_size(script, FORMAT_INPLACE))
            assert result.report.eviction_cost == growth

    def test_legacy_int_model_unchanged(self):
        # The paper's fixed-width cost model is the default and keeps its
        # historical arithmetic (max(1, l - size), spill 2 + 3*size).
        script, reference = two_cycle()
        result = make_in_place(script, reference)
        assert result.report.eviction_cost == 300 - 4


class TestPricingChangesDecisions:
    def make_asymmetric_cycle(self):
        """A 2-cycle whose cheapest victim differs by pricing model.

        Copy X (src=0, len=5): varint cost 5-1=4, fixed-4 cost max(1, 5-4)=1.
        Copy Y (src=200000, len=6): varint cost 6-3=3, fixed-4 cost 6-4=2.
        Local-min evicts Y under varint pricing but X under fixed pricing.
        """
        x = CopyCommand(0, 200001, 5)
        y = CopyCommand(200000, 0, 6)
        script = DeltaScript([y, x], 200006)
        reference = bytes(200006)
        return script, reference

    def test_varint_pricing_flips_victim(self):
        script, reference = self.make_asymmetric_cycle()
        graph = build_crwi_digraph(script)
        assert not is_feedback_vertex_set(graph, [])

        fixed = make_in_place(script, reference, policy="local-min")
        varint = make_in_place(script, reference, policy="local-min",
                               offset_encoding_size=varint_size)
        fixed_srcs = {c.src for c in fixed.script.commands
                      if isinstance(c, CopyCommand)}
        varint_srcs = {c.src for c in varint.script.commands
                       if isinstance(c, CopyCommand)}
        assert fixed_srcs == {200000}  # X evicted under fixed pricing
        assert varint_srcs == {0}      # Y evicted under varint pricing

    def test_crwi_cost_accepts_callable(self):
        script, _reference = self.make_asymmetric_cycle()
        graph = build_crwi_digraph(script)
        by_src = {graph.vertices[v].src: v for v in range(graph.vertex_count)}
        assert graph.cost(by_src[0], offset_encoding_size=varint_size) == 4
        assert graph.cost(by_src[200000], offset_encoding_size=varint_size) == 3
        assert graph.costs(varint_size) == [
            graph.cost(v, varint_size) for v in range(graph.vertex_count)
        ]


class TestOrderingValidation:
    def test_bad_ordering_rejected_even_without_cycles(self):
        # Validation must happen up front: an acyclic (even empty) script
        # used to slip past the check because no eviction stage ran.
        script = DeltaScript([AddCommand(0, b"xy")], 2)
        with pytest.raises(ValueError, match="ordering"):
            make_in_place(script, b"ab", ordering="sideways")

    def test_integrated_builder_threads_ordering(self, sample_pair):
        reference, version = sample_pair
        for ordering in ("dfs", "locality"):
            direct = diff_in_place_integrated(reference, version,
                                              ordering=ordering)
            via_convert = make_in_place(
                ALGORITHMS["correcting"](reference, version), reference,
                ordering=ordering,
            )
            assert direct.script.commands == via_convert.script.commands

    def test_integrated_builder_rejects_bad_ordering(self):
        builder = InPlaceDeltaBuilder()
        builder.add_literal(0, b"xy")
        with pytest.raises(ValueError, match="ordering"):
            builder.finish(b"ab", ordering="sideways")

    def test_integrated_builder_varint_pricing(self):
        script, reference = two_cycle()
        builder = InPlaceDeltaBuilder()
        for command in sorted(script.commands, key=lambda c: c.dst):
            builder.feed(command)
        direct = builder.finish(reference, offset_encoding_size=varint_size)
        converted = make_in_place(script, reference,
                                  offset_encoding_size=varint_size)
        assert direct.script.commands == converted.script.commands
        assert direct.report.eviction_cost == converted.report.eviction_cost
