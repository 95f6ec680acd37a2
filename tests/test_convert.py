"""Unit tests for the in-place conversion algorithm (repro.core.convert)."""

import random

import pytest

from repro.analysis.adversarial import figure2_case, figure3_case, rotation_script
from repro.core.apply import apply_delta, apply_in_place
from repro.core.commands import AddCommand, CopyCommand, DeltaScript
from repro.core.convert import make_in_place
from repro.core.verify import adds_are_last, is_in_place_safe
from repro.delta import correcting_delta, greedy_delta, onepass_delta
from repro.exceptions import ReproError
from repro.workloads import mutate

POLICIES = ("constant", "local-min", "max-out-degree", "greedy-global")


def swap_script() -> DeltaScript:
    """A block swap: the canonical unavoidable 2-cycle."""
    return DeltaScript(
        [CopyCommand(4, 0, 4), CopyCommand(0, 4, 4)], version_length=8
    )


class TestMakeInPlace:
    def test_already_safe_script_untouched_commands(self):
        script = DeltaScript(
            [CopyCommand(0, 2, 2), CopyCommand(4, 0, 2)], version_length=4
        )
        result = make_in_place(script)  # no reference needed: no evictions
        assert result.report.evicted_count == 0
        assert is_in_place_safe(result.script)
        assert sorted(result.script.commands, key=lambda c: c.dst) == \
            sorted(script.commands, key=lambda c: c.dst)

    def test_reorders_conflicting_copies(self):
        # Conflicting order in, safe order out, nothing evicted.
        script = DeltaScript(
            [CopyCommand(4, 0, 2), CopyCommand(0, 2, 2)], version_length=4
        )
        result = make_in_place(script)
        assert result.report.evicted_count == 0
        assert is_in_place_safe(result.script)

    def test_swap_needs_one_eviction(self):
        result = make_in_place(swap_script(), b"01234567")
        assert result.report.evicted_count == 1
        assert result.report.cycles_found == 1
        assert is_in_place_safe(result.script)

    def test_eviction_without_reference_raises(self):
        with pytest.raises(ReproError):
            make_in_place(swap_script())

    def test_adds_moved_to_end(self):
        script = DeltaScript(
            [AddCommand(0, b"ab"), CopyCommand(0, 2, 2), AddCommand(4, b"cd")],
            version_length=6,
        )
        result = make_in_place(script)
        assert adds_are_last(result.script)

    def test_output_equivalent_to_input(self):
        rng = random.Random(42)
        ref = rng.randbytes(3_000)
        ver = mutate(ref, rng)
        script = correcting_delta(ref, ver)
        expected = apply_delta(script, ref)
        assert expected == ver
        for policy in POLICIES:
            result = make_in_place(script, ref, policy=policy)
            buf = bytearray(ref)
            apply_in_place(result.script, buf, strict=True)
            assert bytes(buf) == ver, policy

    def test_report_accounting(self):
        result = make_in_place(swap_script(), b"01234567")
        report = result.report
        assert report.copies_in == 2
        assert report.copies_out == 1
        assert report.adds_in == 0
        assert report.adds_out == 1
        assert report.evicted_bytes == 4
        assert report.crwi_vertices == 2
        assert report.crwi_edges == 2
        assert report.seconds >= 0.0

    def test_size_growth_matches_eviction_cost(self):
        # Converted script's added bytes grow by exactly the evicted bytes.
        script = swap_script()
        result = make_in_place(script, b"01234567")
        assert result.script.added_bytes == script.added_bytes + result.report.evicted_bytes
        assert result.script.copied_bytes == script.copied_bytes - result.report.evicted_bytes

    def test_version_length_preserved(self):
        result = make_in_place(swap_script(), b"01234567")
        assert result.script.version_length == 8

    def test_custom_policy_instance(self):
        from repro.core.policies import LocallyMinimumPolicy

        result = make_in_place(swap_script(), b"01234567",
                               policy=LocallyMinimumPolicy())
        assert result.report.policy == "local-min"

    def test_offset_encoding_size_changes_cost(self):
        big = DeltaScript(
            [CopyCommand(100, 0, 100), CopyCommand(0, 100, 100)],
            version_length=200,
        )
        ref = bytes(200)
        small_f = make_in_place(big, ref, offset_encoding_size=2)
        large_f = make_in_place(big, ref, offset_encoding_size=50)
        assert small_f.report.eviction_cost > large_f.report.eviction_cost


class TestPolicyComparison:
    def test_local_min_beats_constant_on_figure2(self):
        # On the Figure 2 adversary both per-cycle policies evict all the
        # leaves, but on a simple asymmetric 2-cycle local-min must win.
        script = DeltaScript(
            [CopyCommand(100, 0, 100), CopyCommand(0, 100, 10)],
            version_length=200,
        )
        # vertex 0 writes [0,99], reads [100,199]; vertex 1 writes
        # [100,109], reads [0,9]: mutual conflict, costs 96 vs 6.
        ref = bytes(200)
        constant = make_in_place(script, ref, policy="constant")
        local = make_in_place(script, ref, policy="local-min")
        assert local.report.eviction_cost <= constant.report.eviction_cost
        assert local.report.eviction_cost == 6

    def test_optimal_policy_on_figure2(self):
        case = figure2_case(3)
        version = apply_delta(case.script, case.reference)
        result = make_in_place(case.script, case.reference, policy="optimal")
        assert result.report.evicted_count == 1
        buf = bytearray(case.reference)
        apply_in_place(result.script, buf, strict=True)
        assert bytes(buf) == version


class TestAdversarialEndToEnd:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_figure3(self, policy):
        case = figure3_case(10)
        version = apply_delta(case.script, case.reference)
        result = make_in_place(case.script, case.reference, policy=policy)
        buf = bytearray(case.reference)
        apply_in_place(result.script, buf, strict=True)
        assert bytes(buf) == version

    def test_rotation_single_eviction(self):
        case = rotation_script(32, 12)
        result = make_in_place(case.script, case.reference, policy="local-min")
        assert result.report.evicted_count == 1
        assert result.report.cycles_found == 1


class TestAllDifferencers:
    @pytest.mark.parametrize("differ", [greedy_delta, onepass_delta, correcting_delta])
    @pytest.mark.parametrize("policy", ["constant", "local-min"])
    def test_full_pipeline(self, differ, policy, sample_pair):
        ref, ver = sample_pair
        script = differ(ref, ver)
        result = make_in_place(script, ref, policy=policy)
        assert is_in_place_safe(result.script)
        assert adds_are_last(result.script)
        buf = bytearray(ref)
        apply_in_place(result.script, buf, strict=True)
        assert bytes(buf) == ver
