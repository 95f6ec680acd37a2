"""One-shot evaluation report: every headline experiment, no pytest needed.

``ipdelta report`` reruns the paper's headline measurements at a chosen
corpus scale and prints a single paper-vs-measured document.  The
pytest benchmarks remain the canonical, asserted versions; this
generator exists so a user can regenerate the whole story with one
command and tune the corpus size for their patience.  The Table 1
confidence interval needs numpy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Sequence

from ..core.convert import make_in_place
from ..core.crwi import build_crwi_digraph
from .adversarial import figure2_case, figure2_expected_costs, figure3_case
from .metrics import PairMeasurement, aggregate, compression_factor, measure_pair
from .stats import bootstrap_ci, fit_power_law
from .tables import render_table
from .timing import ratio_stats, weighted_time_ratio


@dataclass
class EvaluationReport:
    """All computed sections, renderable as one text document."""

    sections: List[str] = field(default_factory=list)
    seconds: float = 0.0

    def add(self, title: str, body: str) -> None:
        """Append one titled section."""
        rule = "=" * len(title)
        self.sections.append("%s\n%s\n%s" % (title, rule, body))

    def render(self) -> str:
        """The full document."""
        header = (
            "In-Place Reconstruction of Delta Compressed Files — evaluation\n"
            "(Burns & Long, PODC 1998; reproduced measurements)\n"
            "generated in %.1f s\n" % self.seconds
        )
        return header + "\n\n" + "\n\n".join(self.sections) + "\n"


def _section_table1(measurements: Sequence[PairMeasurement]) -> str:
    summary = aggregate(measurements)
    rows = [
        ["", "Δ no offsets", "Δ offsets", "in-place (constant)",
         "in-place (local-min)"],
        ["paper", "15.3%", "17.2%", "—", "—"],
        ["measured",
         "%.1f%%" % summary.compression_sequential,
         "%.1f%%" % summary.compression_offsets,
         "%.1f%%" % summary.compression_in_place["constant"],
         "%.1f%%" % summary.compression_in_place["local-min"]],
        ["loss from cycles (paper 4.0% / 0.5%)", "", "",
         "%.2f%%" % summary.cycle_loss["constant"],
         "%.2f%%" % summary.cycle_loss["local-min"]],
    ]
    sizes = [m.version_bytes for m in measurements]
    ci = bootstrap_ci([m.sequential_bytes for m in measurements], sizes)
    return (
        render_table(rows)
        + "\n  sequential compression 95%% CI: [%.1f%%, %.1f%%] over %d files"
        % (100 * ci.low, 100 * ci.high, len(measurements))
    )


def _section_runtime(measurements: Sequence[PairMeasurement]) -> str:
    diff_times = [m.diff_seconds for m in measurements if m.diff_seconds > 0]
    conv_times = [
        m.reports["local-min"].seconds
        for m in measurements
        if m.diff_seconds > 0
    ]
    total = weighted_time_ratio(conv_times, diff_times)
    stats = ratio_stats([c / d for c, d in zip(conv_times, diff_times)])
    return render_table([
        ["metric", "paper", "measured"],
        ["conversion/compression, total time", "0.56", "%.3f" % total],
        ["inputs where conversion was slower", "0.1%",
         "%.1f%%" % (100 * stats.fraction_over_one)],
        ["worst per-input ratio", "< 2.0", "%.2f" % stats.maximum],
    ])


def _section_factors(measurements: Sequence[PairMeasurement]) -> str:
    factors = sorted(compression_factor(m) for m in measurements)
    n = len(factors)
    in_band = sum(1 for f in factors if 4.0 <= f <= 10.0)
    return (
        "paper: software compresses by a factor of 4 to 10\n"
        "measured: median %.1fx (min %.1fx, max %.1fx); %d/%d files in [4x, 10x]"
        % (factors[n // 2], factors[0], factors[-1], in_band, n)
    )


def _section_figure2() -> str:
    rows = [["depth", "leaves", "local-min", "optimal", "ratio"]]
    for depth in (2, 3, 4, 5):
        case = figure2_case(depth)
        local = make_in_place(case.script, case.reference, policy="local-min")
        optimal = make_in_place(case.script, case.reference, policy="optimal")
        expected_local, expected_optimal = figure2_expected_costs(depth)
        assert local.report.eviction_cost == expected_local
        assert optimal.report.eviction_cost == expected_optimal
        rows.append([
            str(depth), str(2 ** depth),
            str(local.report.eviction_cost),
            str(optimal.report.eviction_cost),
            "%.1fx" % (local.report.eviction_cost
                       / optimal.report.eviction_cost),
        ])
    return (
        "local-min evicts every leaf; the exact solver evicts the root\n"
        + render_table(rows)
    )


def _section_figure3() -> str:
    commands, lengths, edges = [], [], []
    rows = [["block", "L_V", "|C|", "edges"]]
    for block in (8, 16, 32, 64):
        case = figure3_case(block)
        graph = build_crwi_digraph(case.script)
        assert graph.edge_count == case.script.version_length
        commands.append(len(case.script.commands))
        lengths.append(case.script.version_length)
        edges.append(graph.edge_count)
        rows.append([str(block), str(lengths[-1]), str(commands[-1]),
                     str(edges[-1])])
    fit_c = fit_power_law(commands, edges)
    fit_l = fit_power_law(lengths, edges)
    return (
        render_table(rows)
        + "\n  edges ~ |C|^%.2f, edges ~ L_V^%.2f — Lemma 1 met with equality"
        % (fit_c.exponent, fit_l.exponent)
    )


def generate_report(
    *,
    scale: float = 0.3,
    packages: int = 8,
    releases: int = 2,
    seed: int = 19980601,
    policies: Sequence[str] = ("constant", "local-min"),
) -> EvaluationReport:
    """Compute every section on a fresh corpus and return the report."""
    from ..workloads import Corpus

    started = time.perf_counter()
    corpus = Corpus(seed=seed, packages=packages, releases=releases, scale=scale)
    measurements = [
        measure_pair(p.name, p.reference, p.version, policies=list(policies))
        for p in corpus.pairs()
    ]
    report = EvaluationReport()
    report.add("Table 1 — compression and loss decomposition",
               _section_table1(measurements))
    report.add("Section 7 — conversion vs compression runtime",
               _section_runtime(measurements))
    report.add("Sections 2/7 — compression factors", _section_factors(measurements))
    report.add("Figure 2 — adversarial cycle breaking", _section_figure2())
    report.add("Figure 3 / Lemma 1 — digraph size bounds", _section_figure3())
    report.seconds = time.perf_counter() - started
    return report

