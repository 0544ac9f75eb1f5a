"""Reproducible random problem instances for experiments and calibration.

Generators take an explicit ``numpy.random.Generator`` so repeated runs with
the same seed rebuild identical instances.
"""
from __future__ import annotations

import numpy as np

from .convexfn import MaxAffineFunction, argmin, sum_functions
from .geometry import ConvexBody


def random_interval(rng: np.random.Generator) -> ConvexBody:
    length = rng.uniform(0.5, 2.0)
    lo = rng.uniform(-1.0, 0.5)
    return ConvexBody.interval(lo, lo + length)


def random_vee_1d(rng: np.random.Generator,
                  domain: ConvexBody) -> MaxAffineFunction:
    """Convex piecewise-linear function with minimum value 0 inside the domain."""
    lo, hi = domain.interval_bounds()
    x0 = rng.uniform(lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo))
    s_left = -rng.uniform(0.2, 1.0)
    s_right = rng.uniform(0.2, 1.0)
    offsets = [-s_left * x0, -s_right * x0]
    slopes = [[s_left], [s_right]]
    for _ in range(2):
        s = rng.uniform(-1.0, 1.0)
        drop = rng.uniform(0.0, 0.3)      # keeps the piece <= 0 at x0
        offsets.append(-s * x0 - drop)
        slopes.append([s])
    return MaxAffineFunction(offsets, slopes)


def random_dip_pair_1d(rng: np.random.Generator, domain: ConvexBody,
                       eps: float):
    """(f, g, witness): convex g dipping at least eps below f's minimum at
    the witness, f's minimiser.

    Half the instances shift f down outright; the rest re-ascend away from
    the witness with a random slope, so the disagreement region can be
    narrow.
    """
    f = random_vee_1d(rng, domain)
    lo, hi = domain.interval_bounds()
    witness = float(argmin(f, domain)[0])
    depth = eps * rng.uniform(1.5, 3.0)
    g = f.add_constant(-depth)
    if rng.uniform() < 0.5:
        slope = rng.uniform(0.5, 2.0) * depth / max(hi - lo, 1e-9)
        rise = MaxAffineFunction([0.0, -slope * witness, slope * witness],
                                 [[0.0], [slope], [-slope]])
        g = sum_functions(g, rise)
    return f, g, np.array([witness])


def random_polygon(rng: np.random.Generator) -> ConvexBody:
    """Random heptagon containing the origin, diameter order one."""
    sides = 7
    ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, sides))
    spread = np.diff(np.concatenate([ang, [ang[0] + 2.0 * np.pi]]))
    if spread.max() > 2.5:  # resample badly clustered normals
        ang = np.linspace(0.0, 2.0 * np.pi, sides, endpoint=False)
        ang = ang + rng.uniform(0.0, 2.0 * np.pi / sides, sides)
    normals = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    offsets = rng.uniform(0.45, 1.2, sides)
    return ConvexBody(2, normals, offsets)


def random_cone_2d(rng: np.random.Generator,
                   body: ConvexBody) -> MaxAffineFunction:
    """Six-piece convex cone with minimum value 0 inside the body."""
    pieces = 6
    center, radius = body.largest_inscribed_ball()
    x0 = center + rng.uniform(-0.3, 0.3, 2) * radius
    ang = np.linspace(0.0, 2.0 * np.pi, pieces, endpoint=False)
    ang = ang + rng.uniform(0.0, 2.0 * np.pi / pieces, pieces)
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    mags = rng.uniform(0.3, 1.0, pieces)
    slopes = dirs * mags[:, None]
    offsets = -slopes @ x0
    return MaxAffineFunction(offsets, slopes)


def random_dip_pair_2d(rng: np.random.Generator, body: ConvexBody,
                       eps: float):
    """2-D analogue of random_dip_pair_1d; witness at f's minimum."""
    f = random_cone_2d(rng, body)
    _, radius = body.largest_inscribed_ball()
    witness = argmin(f, body)
    depth = eps * rng.uniform(1.5, 3.0)
    g = f.add_constant(-depth)
    if rng.uniform() < 0.5:
        scale = rng.uniform(0.5, 2.0) * depth / max(2.0 * radius, 1e-9)
        ang = np.linspace(0.0, 2.0 * np.pi, 4, endpoint=False) + rng.uniform(0, 1)
        dirs = scale * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        rise = MaxAffineFunction(np.concatenate([[0.0], -dirs @ witness]),
                                 np.vstack([np.zeros(2), dirs]))
        g = sum_functions(g, rise)
    return f, g, witness


def anchored_scenarios(rng: np.random.Generator, count: int, horizon: int):
    """Loss functions on [0, 1] whose optima differ by O(1/sqrt(T)) gaps.

    Every scenario is a vee with values in [0, 1] and slope below 1; one
    random scenario is the best, the others trail it by gaps of order
    2/sqrt(T), which keeps the identification problem alive at the
    horizon's natural resolution.
    """
    base = rng.uniform(0.05, 0.15)
    best = int(rng.integers(count))
    fns = []
    for j in range(count):
        m = rng.uniform(0.1, 0.9)
        gap = 0.0 if j == best else rng.uniform(0.2, 1.0) * 2.0 / np.sqrt(horizon)
        level = min(base + gap, 0.45)
        slope = rng.uniform(0.3, 0.8) * (1.0 - level)
        fns.append(MaxAffineFunction(
            [level + slope * m, level - slope * m],
            [[-slope], [slope]]))
    return fns


def clustered_scenarios(rng: np.random.Generator, count: int, horizon: int):
    """Equal-level slope-1/2 vees with minima within 4/sqrt(T) of a centre.

    Playing between the minima reveals nothing (the vees agree there up to
    the location offsets), so per-round regret stays at the 1/sqrt(T) scale
    until deliberate exploration separates the scenarios; total regret then
    grows like sqrt(T).
    """
    base = rng.uniform(0.1, 0.2)
    m0 = rng.uniform(0.2, 0.8)
    w = 4.0 / np.sqrt(horizon)
    slope = 0.5
    fns = []
    for _ in range(count):
        m = float(np.clip(m0 + rng.uniform(-w, w), 0.02, 0.98))
        fns.append(MaxAffineFunction([base + slope * m, base - slope * m],
                                     [[-slope], [slope]]))
    return fns
