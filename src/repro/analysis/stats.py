"""Statistical support for the experiments: intervals and fits.

The paper reports point estimates ("15.3%", "56%"); a reproduction on a
*synthetic* corpus owes its reader uncertainty estimates, since the
corpus seed is one draw from a distribution.  This module provides the
two tools the report and the benches use:

* :func:`bootstrap_ci` — percentile-bootstrap confidence intervals for
  ratio-of-totals statistics (the corpus compression percentages are
  ratios of sums, so per-file resampling is the right model);
* :func:`fit_power_law` — log-log least-squares exponent fits, used to
  confirm the Figure 3 construction's edge count grows quadratically in
  the command count while staying linear in the file length.

:func:`bootstrap_ci` needs numpy and imports it when called; the fit is
plain Python, so importing this module needs only the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class ConfidenceInterval:
    """A point estimate with a percentile-bootstrap interval."""

    estimate: float
    low: float
    high: float
    confidence: float

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return "%.2f [%.2f, %.2f] @%.0f%%" % (
            self.estimate, self.low, self.high, 100 * self.confidence,
        )

    def contains(self, value: float) -> bool:
        """True when ``value`` lies inside the interval."""
        return self.low <= value <= self.high


def bootstrap_ci(
    numerators: Sequence[float],
    denominators: Sequence[float],
    *,
    confidence: float = 0.95,
    resamples: int = 2_000,
    seed: int = 0,
) -> ConfidenceInterval:
    """Bootstrap CI for ``sum(numerators) / sum(denominators)``.

    Resamples (numerator, denominator) *pairs* with replacement, which
    models "had the corpus contained different files drawn from the same
    population".  Deterministic given ``seed``.
    """
    import numpy as np

    if len(numerators) != len(denominators) or not numerators:
        raise ValueError("need equal, non-empty numerator/denominator lists")
    num = np.asarray(numerators, dtype=float)
    den = np.asarray(denominators, dtype=float)
    if den.sum() == 0:
        raise ValueError("denominators sum to zero")
    estimate = float(num.sum() / den.sum())

    rng = np.random.default_rng(seed)
    n = len(num)
    indices = rng.integers(0, n, size=(resamples, n))
    resampled_num = num[indices].sum(axis=1)
    resampled_den = den[indices].sum(axis=1)
    valid = resampled_den > 0
    ratios = resampled_num[valid] / resampled_den[valid]
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(ratios, [alpha, 1.0 - alpha])
    return ConfidenceInterval(estimate, float(low), float(high), confidence)


@dataclass(frozen=True)
class PowerLawFit:
    """``y ≈ scale * x**exponent`` fitted in log-log space."""

    exponent: float
    scale: float
    r_squared: float


def fit_power_law(x: Sequence[float], y: Sequence[float]) -> PowerLawFit:
    """Least-squares exponent of ``y`` against ``x`` on log-log axes.

    Requires strictly positive data (edge counts, file lengths are).
    ``r_squared`` near 1 means the power law explains the scaling; it
    is nan when ``y`` is constant, and identical ``x`` values leave the
    slope undefined (``ValueError``).
    """
    if len(x) != len(y):
        raise ValueError("need as many y values as x values")
    if len(x) < 2:
        raise ValueError("need at least two points to fit")
    if min(x) <= 0 or min(y) <= 0:
        raise ValueError("power-law fits need strictly positive data")
    lx = [math.log(v) for v in x]
    ly = [math.log(v) for v in y]
    if max(lx) == min(lx):
        raise ValueError("cannot fit a slope: all x values are identical")
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    sxx = sum((a - mx) ** 2 for a in lx)
    syy = sum((b - my) ** 2 for b in ly)
    sxy = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    slope = sxy / sxx
    r_squared = math.nan if syy == 0.0 else min(1.0, sxy * sxy / (sxx * syy))
    return PowerLawFit(exponent=slope, scale=math.exp(my - slope * mx),
                       r_squared=r_squared)
