#!/usr/bin/env python3
"""Play one scenario-bandit environment with all three policies.

Eight vees with minima clustered in a 1/sqrt(T)-wide window: playing inside
the cluster reveals nothing, so the two-point policy has to buy information
deliberately. Prints per-policy regret, the accumulated information, and
the budget ln(K)/2 it must respect.
"""
import math

import numpy as np

from convexplore.bandit import (LikelihoodModel, ScenarioSet, build_net,
                                run_game)
from convexplore.geometry import ConvexBody
from convexplore.instances import clustered_scenarios

def main() -> int:
    T = 256
    body = ConvexBody.interval(0.0, 1.0)
    fns = clustered_scenarios(np.random.default_rng(3), 8, T)
    net = build_net(body, T)
    ss = ScenarioSet(fns, np.full(8, 1.0 / 8), net, T, body)
    lik = LikelihoodModel("gaussian", sigma=0.25)

    print(f"K = 8 scenarios, T = {T}, net size {net.size}, "
          f"noise sigma = {lik.sigma}")
    print(f"information budget ln(K)/2 = {0.5 * math.log(8):.3f}\n")
    print(f"{'policy':>10} {'regret':>8} {'sum_v':>8} {'builds':>7} "
          f"{'fallbacks':>9}")
    for policy in ("two_point", "thompson", "uniform"):
        regrets, infos = [], []
        builds = fallbacks = 0
        for seed in range(5):
            _, summ = run_game(ss, policy=policy, seed=seed, likelihood=lik)
            regrets.append(summ["final_regret_net"])
            infos.append(summ["sum_v"])
            builds += summ["measure_builds"]
            fallbacks += summ["fallbacks"]
        print(f"{policy:>10} {np.mean(regrets):>8.2f} {np.mean(infos):>8.4f} "
              f"{builds:>7} {fallbacks:>9}")
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
