"""Metrics, adversarial constructions, tables, and timing for the experiments."""

from .adversarial import (
    AdversarialCase,
    figure2_case,
    figure2_expected_costs,
    figure3_case,
    figure3_expected_edges,
    rotation_medley,
    rotation_script,
)
from .report import EvaluationReport, generate_report
from .metrics import (
    PairMeasurement,
    Table1Summary,
    aggregate,
    compression_factor,
    measure_pair,
)
from .stats import ConfidenceInterval, PowerLawFit, bootstrap_ci, fit_power_law
from .tables import format_bytes, format_seconds, render_kv, render_table
from .timing import RatioStats, ratio_stats, weighted_time_ratio

__all__ = [
    "AdversarialCase",
    "EvaluationReport",
    "generate_report",
    "ConfidenceInterval",
    "PowerLawFit",
    "bootstrap_ci",
    "fit_power_law",
    "PairMeasurement",
    "RatioStats",
    "Table1Summary",
    "aggregate",
    "compression_factor",
    "figure2_case",
    "figure2_expected_costs",
    "figure3_case",
    "figure3_expected_edges",
    "format_bytes",
    "format_seconds",
    "measure_pair",
    "ratio_stats",
    "render_kv",
    "render_table",
    "rotation_medley",
    "rotation_script",
    "weighted_time_ratio",
]
