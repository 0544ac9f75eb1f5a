#!/usr/bin/env python3
"""Build the multi-scale measure on a random polygon and print its trace.

Each stage whitens the remaining body, collects stable-gradient patches into
a direction cover, reduces the cover to at most n+1 directions, and keeps
only the slab around the thinnest direction. The printed trace shows the
volume halving and the shrink of the slab width; the final measure mixes
the per-stage ball measures with a fiber lift over the last slab.
"""
import numpy as np

from convexplore.explore_nd import build_exploratory_measure
from convexplore.instances import random_cone_2d, random_polygon

def main() -> int:
    rng = np.random.default_rng(7)
    body = random_polygon(rng)
    f = random_cone_2d(rng, body)
    eps = 0.05

    measure, report = build_exploratory_measure(
        body, f, eps, rng=np.random.default_rng(70))
    print(f"body: 7-gon, eps = {eps}, profile = {report.profile}")
    print(f"minimiser (translated to origin): {report.base_point.round(4)}")
    print(f"\n{'stage':>5} {'width':>9} {'vol ratio':>9} {'patches':>7} "
          f"{'hull norm':>9} {'sep':>4}")
    for st in report.stages:
        print(f"{st.index:>5} {st.width_before:>9.4f} {st.volume:>9.3f} "
              f"{len(st.patches):>7} {st.hull_norm:>9.4f} "
              f"{st.separator_count:>4}")
    print(f"\nfinal slab halfwidth: {report.slab_halfwidth:.5f} "
          f"(direction {report.direction.round(3)})")
    print(f"child dimension: "
          f"{report.child.dimension if report.child else 'none'}")

    pts = measure.sample(500, np.random.default_rng(71))
    inside = sum(body.contains(x, tol=1e-8) for x in pts)
    print(f"sampled 500 points, {inside} inside the body")
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
