"""Tests for the statistical helpers (repro.analysis.stats)."""

import math
import random

import pytest

from repro.analysis.stats import ConfidenceInterval, bootstrap_ci, fit_power_law


class TestBootstrapCI:
    def test_point_estimate_is_ratio_of_totals(self):
        ci = bootstrap_ci([10, 20], [100, 100])
        assert ci.estimate == pytest.approx(0.15)

    def test_interval_brackets_estimate(self):
        rng = random.Random(1)
        nums = [rng.uniform(10, 20) for _ in range(50)]
        dens = [100.0] * 50
        ci = bootstrap_ci(nums, dens)
        assert ci.low <= ci.estimate <= ci.high
        assert ci.contains(ci.estimate)

    def test_tighter_with_more_data(self):
        rng = random.Random(2)
        small_n = [rng.uniform(10, 20) for _ in range(8)]
        large_n = [rng.uniform(10, 20) for _ in range(200)]
        small = bootstrap_ci(small_n, [100.0] * 8)
        large = bootstrap_ci(large_n, [100.0] * 200)
        assert (large.high - large.low) < (small.high - small.low)

    def test_deterministic(self):
        args = ([1, 2, 3, 4], [10, 10, 10, 10])
        assert bootstrap_ci(*args) == bootstrap_ci(*args)

    def test_degenerate_data_gives_point_interval(self):
        ci = bootstrap_ci([5, 5, 5], [50, 50, 50])
        assert ci.low == pytest.approx(0.1)
        assert ci.high == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([], [])
        with pytest.raises(ValueError):
            bootstrap_ci([1, 2], [1])
        with pytest.raises(ValueError):
            bootstrap_ci([1], [0])


class TestPowerLawFit:
    def test_recovers_exact_quadratic(self):
        x = [2, 4, 8, 16, 32]
        y = [xi ** 2 for xi in x]
        fit = fit_power_law(x, y)
        assert fit.exponent == pytest.approx(2.0)
        assert fit.scale == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_recovers_linear_with_scale(self):
        x = [1, 10, 100, 1000]
        y = [3 * xi for xi in x]
        fit = fit_power_law(x, y)
        assert fit.exponent == pytest.approx(1.0)
        assert fit.scale == pytest.approx(3.0)

    def test_noisy_fit_reports_r_squared(self):
        rng = random.Random(3)
        x = [float(v) for v in range(10, 200, 10)]
        y = [5 * xi ** 1.5 * rng.uniform(0.9, 1.1) for xi in x]
        fit = fit_power_law(x, y)
        assert fit.exponent == pytest.approx(1.5, abs=0.1)
        assert fit.r_squared > 0.95

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])
        with pytest.raises(ValueError):
            fit_power_law([0, 1], [1, 2])
        with pytest.raises(ValueError):
            fit_power_law([1, 2, 3], [5])
        with pytest.raises(ValueError):
            fit_power_law([3, 3, 3], [1, 2, 3])

    def test_constant_y_has_no_r_squared(self):
        fit = fit_power_law([1, 2, 4], [5, 5, 5])
        assert fit.exponent == 0.0
        assert fit.scale == pytest.approx(5.0)
        assert math.isnan(fit.r_squared)


class TestOnRealMeasurements:
    def test_figure3_scaling_fit(self):
        """The Figure 3 family's edges grow quadratically in |C| and
        linearly in L_V — confirmed by exponent fits on real digraphs."""
        from repro.analysis.adversarial import figure3_case
        from repro.core.crwi import build_crwi_digraph

        commands, lengths, edges = [], [], []
        for block in (4, 8, 16, 32, 64):
            case = figure3_case(block)
            graph = build_crwi_digraph(case.script)
            commands.append(len(case.script.commands))
            lengths.append(case.script.version_length)
            edges.append(graph.edge_count)
        vs_commands = fit_power_law(commands, edges)
        vs_length = fit_power_law(lengths, edges)
        assert vs_commands.exponent == pytest.approx(2.0, abs=0.1)
        assert vs_length.exponent == pytest.approx(1.0, abs=0.05)

    def test_policy_sign_test_on_corpus(self, tiny_corpus):
        """Local-min's per-file eviction cost never exceeds... rather,
        wins or ties against constant across the corpus."""
        import repro

        costs_local, costs_const = [], []
        for pair in tiny_corpus.pairs():
            script = repro.diff(pair.reference, pair.version)
            local = repro.make_in_place(script, pair.reference, policy="local-min")
            const = repro.make_in_place(script, pair.reference, policy="constant")
            costs_local.append(local.report.eviction_cost)
            costs_const.append(const.report.eviction_cost)
        wins = sum(1 for a, b in zip(costs_local, costs_const) if a < b)
        losses = sum(1 for a, b in zip(costs_local, costs_const) if a > b)
        # Local-min must never lose to constant by much more often than
        # it wins; on most corpora it simply never loses.
        assert losses <= wins + 1
