"""Timing summaries for the runtime experiments.

The section 7 runtime claims are *ratios* (conversion time over
compression time) and *distributions* (exceeded on 0.1% of inputs, never
more than twice).  These helpers compute the summary statistics the
report and the benches print from per-input timings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass
class RatioStats:
    """Distribution summary for a set of per-input timing ratios."""

    count: int
    mean: float
    median: float
    maximum: float
    #: Fraction of inputs whose ratio exceeded 1.0 (conversion slower
    #: than compression) — the paper reports 0.1%.
    fraction_over_one: float


def ratio_stats(ratios: Sequence[float]) -> RatioStats:
    """Summarize timing ratios the way section 7 reports them."""
    if not ratios:
        raise ValueError("no ratios to summarize")
    ordered = sorted(ratios)
    n = len(ordered)
    median = ordered[n // 2] if n % 2 else 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])
    return RatioStats(
        count=n,
        mean=sum(ordered) / n,
        median=median,
        maximum=ordered[-1],
        fraction_over_one=sum(1 for r in ordered if r > 1.0) / n,
    )


def weighted_time_ratio(numerators: Sequence[float], denominators: Sequence[float]) -> float:
    """Total-time ratio: sum of numerators over sum of denominators.

    The paper's headline "56% of the total time" is a ratio of totals,
    not a mean of per-input ratios; both are reported by the bench.
    """
    total_num = sum(numerators)
    total_den = sum(denominators)
    if total_den == 0:
        raise ValueError("denominator times sum to zero")
    return total_num / total_den
