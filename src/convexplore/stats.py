"""Small Monte Carlo interval helpers used throughout the library.

Every randomized event probability in this package is reported together
with a Wilson score confidence interval.
"""
from __future__ import annotations

import math


def wilson_interval(successes: int, total: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Parameters
    ----------
    successes : int
        Number of positive outcomes, 0 <= successes <= total.
    total : int
        Number of Bernoulli trials, > 0.
    z : float
        Normal quantile, default 1.96 (95%).

    Returns
    -------
    (low, high) : tuple of float
        Interval clipped to [0, 1].
    """
    if total <= 0:
        raise ValueError("total must be positive")
    if not 0 <= successes <= total:
        raise ValueError("successes must lie in [0, total]")
    p = successes / total
    z2 = z * z
    denom = 1.0 + z2 / total
    center = (p + z2 / (2.0 * total)) / denom
    spread = z * math.sqrt(p * (1.0 - p) / total + z2 / (4.0 * total * total)) / denom
    return max(0.0, center - spread), min(1.0, center + spread)
