#!/usr/bin/env python3
"""Power of the single-measurement hypothesis test as noise grows.

One sample from the exploratory measure plus one noisy function value is
enough to distinguish an objective from an alternative that dips below it,
as long as the noise does not drown the gap. Prints the 5%-level power for
increasing noise in n=1 and n=2.
"""
import numpy as np

from convexplore.bandit import hypothesis_test
from convexplore.explore1d import build_measure_1d
from convexplore.explore_nd import build_exploratory_measure
from convexplore.instances import (random_dip_pair_1d, random_dip_pair_2d,
                                   random_interval, random_polygon)

def main() -> int:
    eps, trials = 0.1, 4000
    rng = np.random.default_rng(5)
    dom = random_interval(rng)
    f1, g1, _ = random_dip_pair_1d(rng, dom, eps)
    mu1 = build_measure_1d(dom, f1, eps)

    body = random_polygon(rng)
    f2, g2, _ = random_dip_pair_2d(rng, body, eps)
    mu2, _ = build_exploratory_measure(body, f2, eps)

    print(f"eps = {eps}, {trials} trials, level 5%")
    print(f"{'sigma':>6} {'power n=1':>10} {'power n=2':>10}")
    for sigma in (0.0, 0.1, 0.25, 0.5, 1.0):
        r1 = hypothesis_test(f1, g1, eps, mu1, sigma, trials,
                             np.random.default_rng(500))
        r2 = hypothesis_test(f2, g2, eps, mu2, sigma, trials,
                             np.random.default_rng(501))
        print(f"{sigma:>6.2f} {r1['power']:>10.3f} {r2['power']:>10.3f}")
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
