#!/usr/bin/env python3
"""Walk through the 1-D exploratory measure on a simple vee.

Builds the dyadic mixture around the minimiser, prints its components, and
verifies the exploration guarantee against an alternative that dips below
the objective: the measure must see the disagreement region with
probability above 1/(8 ln(1 + 1/eps)) at gap eps/8.
"""
import math

import numpy as np

from convexplore.convexfn import MaxAffineFunction
from convexplore.explore1d import (build_measure_1d, guarantee_threshold_1d,
                                   verify_exploration)
from convexplore.geometry import ConvexBody

def main() -> int:
    eps = 1.0 / 16.0
    domain = ConvexBody.interval(0.0, 1.0)
    f = MaxAffineFunction([0.24, -0.24], [[-0.8], [0.8]])   # vee at 0.3
    g = f.add_constant(-2.5 * eps)                           # dips below

    mu = build_measure_1d(domain, f, eps)
    print(f"objective: vee with minimum at 0.3, eps = {eps}")
    print(f"measure components ({len(mu.components)}):")
    for w, comp in zip(mu.weights, mu.components):
        print(f"  weight {w:.4f}  {comp}")

    threshold = guarantee_threshold_1d(eps)
    rep = verify_exploration(mu, f, g, eps, 1.0 / 8.0, threshold, 50000,
                             np.random.default_rng(0), gap_scaling="eps")
    print(f"\nevent mass p_hat = {rep.p_hat:.4f} (exact in 1-D)")
    print(f"threshold 1/(8 ln(1+1/eps)) = {threshold:.4f} "
          f"(ln form: 1/(8*{math.log(1 + 1 / eps):.3f}))")
    print("guarantee holds" if rep.passed else "guarantee FAILED")
    return 0 if rep.passed else 1

if __name__ == "__main__":
    raise SystemExit(main())
