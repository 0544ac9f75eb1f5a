#!/usr/bin/env python3
"""Fit the n=2 quantitative-check constants and freeze them in the package.

Two phases, all seeds fixed so reruns reproduce the artifact byte for byte:

  calibrate   20 polygon instances with a planted dip pair at eps = 0.1.
              For each candidate gap multiplier, measure the event mass
              mu({|f - g| > c * max(eps, f)}) on every instance, then pick
              (c_gap, c_prob) via fit_constants.
  evaluate    50 fresh instances from the same family; run the actual
              verifier with the fitted constants and record the pass rate.

Writes src/convexplore/data/calibration_n2.json (run from the repo root).
"""
from __future__ import annotations

import pathlib
import sys
import time

import numpy as np

from convexplore import __version__
from convexplore.calibration import fit_constants, threshold_from
from convexplore.explore1d import verify_exploration
from convexplore.explore_nd import build_exploratory_measure, with_retries
from convexplore.fileio import canonical_dumps
from convexplore.instances import random_dip_pair_2d, random_polygon

N = 2
EPS = 0.1
GAP_GRID = [0.5, 0.25, 0.125, 0.0625]
MASS_SAMPLES = 20000
CALIBRATION_SEEDS = list(range(20))
FRESH_SEEDS = list(range(1000, 1050))
FRESH_BUILD_OFFSET = 5000  # fresh builds draw from rng(5000 + i)

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "convexplore" \
    / "data" / "calibration_n2.json"


def make_instance(seed: int, build_seed: int):
    """Draw an instance and build its measure: (measure, f, g, retries).

    The build retries from shifted seeds (``with_retries``); verification
    itself is never retried.
    """
    rng = np.random.default_rng(seed)
    body = random_polygon(rng)
    f, g, _ = random_dip_pair_2d(rng, body, EPS)
    (measure, _), retries = with_retries(
        lambda build_rng: build_exploratory_measure(body, f, EPS,
                                                    rng=build_rng),
        build_seed)
    return measure, f, g, retries


def main() -> int:
    t0 = time.time()
    retries = 0
    masses_by_gap: dict[float, list[float]] = {c: [] for c in GAP_GRID}
    for i, seed in enumerate(CALIBRATION_SEEDS):
        measure, f, g, retried = make_instance(seed, 2000 + i)
        retries += retried
        for c in GAP_GRID:
            # threshold 0: we only want the mass, via the verifier's own event
            rep = verify_exploration(measure, f, g, EPS, c, 0.0,
                                     MASS_SAMPLES, np.random.default_rng(3000 + i),
                                     gap_scaling="max")
            masses_by_gap[c].append(rep.p_hat)
        print(f"calibrate seed {seed}: " + "  ".join(
            f"c={c:g} mass={masses_by_gap[c][-1]:.4f}" for c in GAP_GRID))

    c_gap, c_prob = fit_constants(masses_by_gap, N, EPS)
    threshold = threshold_from(c_prob, N, EPS)
    print(f"\nfitted c_gap={c_gap:g}  c_prob={c_prob:.6f}  "
          f"threshold={threshold:.6f}")

    passes = []
    for i, seed in enumerate(FRESH_SEEDS):
        measure, f, g, retried = make_instance(seed, FRESH_BUILD_OFFSET + i)
        retries += retried
        rep = verify_exploration(measure, f, g, EPS, c_gap, threshold,
                                 MASS_SAMPLES,
                                 np.random.default_rng(6000 + i),
                                 gap_scaling="max")
        passes.append(bool(rep.passed))
        print(f"fresh seed {seed}: p_hat={rep.p_hat:.4f} "
              f"ci_low={rep.ci_low:.4f} {'pass' if rep.passed else 'FAIL'}")

    rate = sum(passes) / len(passes)
    print(f"\nfresh pass rate: {sum(passes)}/{len(passes)} = {rate:.3f}  "
          f"build retries: {retries}  ({time.time() - t0:.0f}s)")

    artifact = {
        "n": N,
        "eps": EPS,
        "c_gap": c_gap,
        "c_prob": c_prob,
        "threshold": threshold,
        "gap_grid": GAP_GRID,
        "mass_samples": MASS_SAMPLES,
        "calibration_seeds": CALIBRATION_SEEDS,
        "calibration_masses": {str(c): masses_by_gap[c] for c in GAP_GRID},
        "fresh_seeds": FRESH_SEEDS,
        "fresh_build_offset": FRESH_BUILD_OFFSET,
        "fresh_pass_rate": rate,
        "build_retries": retries,
        "tool_version": __version__,
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(canonical_dumps(artifact) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
