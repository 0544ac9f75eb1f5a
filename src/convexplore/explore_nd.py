"""Exploration measures in dimension two and above.

The construction runs in three layers:

* a single scale: whiten the body, cover the sphere of directions with
  stable-gradient patches (plus separating directions where the body is
  thin), reduce the cover to at most n+1 patches through a minimum-norm
  point, and cut the body along the thinnest direction of the resulting
  polytope;
* the multi-scale loop: repeat single scales, tracking frames, until the
  remaining body fits inside a slab of the stop width;
* dimension induction: mix the multi-scale measure with a lift of a
  recursively built (n-1)-dimensional measure living on the projection of
  the final slab.

All randomness flows through an explicit generator; constants come from a
named profile so conservative and measurable regimes share one code path.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np
from scipy.spatial import ConvexHull

from . import _highs
from .convexfn import MaxAffineFunction, argmin
from .errors import (CONSTRUCTION_ERRORS, ConfigError, CoverError,
                     DimensionMismatchError, PatchNotFoundError)
from .explore1d import (ExplorationMeasure, FiberLift, Pushforward,
                        UniformBall, build_measure_1d)
from .geometry import (AffineMap, ConvexBody, affine_image, ball_points,
                       row_norms, slab, thinnest_slab, volume_ratio,
                       whitening_map)
from .minnorm import caratheodory_prune, min_norm_point
from .profiles import CALIBRATED, ConstantProfile
from .stats import wilson_half_width


# Sampling budgets and structural limits of the construction.
PHI_COUNT = 48          # directions probed per unit sphere (2-D)
PATCH_ATTEMPTS = 24     # candidate centres tried per placement ball
GRAD_SAMPLES = 160      # draws per smoothed gradient
PATCH_SAMPLES = 768     # draws per patch verification
PATCH_CHUNK = 4         # placement balls whose first attempts share a table
XI_RELAX_ROUNDS = 1     # doublings of xi allowed when patches fail
BUILD_ATTEMPTS = 3      # tries of a seeded build (see with_retries)
RETRY_SEED_SHIFT = 100000  # seed shift per retry


@dataclass(frozen=True)
class StableGradientPatch:
    """Ball on which subgradients concentrate around a common direction.

    ``fraction`` of ``sample_count`` subgradients sampled on B(center, radius)
    landed within ``xi * scale`` of ``scale * direction``; acceptance demands
    fraction >= 1/2 + 3 Wilson half-widths.
    """

    center: np.ndarray
    direction: np.ndarray
    scale: float
    radius: float
    fraction: float
    sample_count: int
    xi: float
    relaxed: bool = False


@dataclass(frozen=True)
class GammaCover:
    """Accepted patches plus separating directions, before reduction."""

    dimension: int
    gamma: float
    patches: tuple
    separators: tuple
    failures: int


@dataclass
class StageRecord:
    index: int
    whiten: np.ndarray          # work frame -> whitened frame
    function: MaxAffineFunction  # objective in the whitened frame
    width_before: float
    patches: tuple              # reduced patches, whitened frame
    separator_count: int
    raw_patch_count: int
    failures: int
    hull_norm: float
    inscribed_radius: float
    slab_direction: np.ndarray  # whitened frame
    slab_halfwidth: float
    volume: float               # exact volume ratio of the kept slab


@dataclass
class BuildReport:
    """One build level: the final slab {|<direction, x - base_point>| <=
    slab_halfwidth} in the level's working frame (a build's whitened frame),
    its stages, and the (n-1)-dimensional level built on the slab's shadow."""

    dimension: int
    profile: str
    direction: np.ndarray | None = None
    base_point: np.ndarray | None = None   # minimiser
    slab_halfwidth: float = 0.0
    stages: list = field(default_factory=list)
    capped: bool = False
    child: "BuildReport | None" = None


def _unit_net(n: int, count: int) -> np.ndarray:
    """Deterministic, roughly uniform direction net on the unit sphere."""
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if n == 3:
        m = 2 * count
        k = np.arange(m) + 0.5
        phi = np.arccos(1.0 - 2.0 * k / m)
        theta = np.pi * (1.0 + math.sqrt(5.0)) * k
        return np.stack([np.sin(phi) * np.cos(theta),
                         np.sin(phi) * np.sin(theta),
                         np.cos(phi)], axis=1)
    raise DimensionMismatchError("direction nets implemented for n <= 3")


def _project_onto_body(body: ConvexBody, p: np.ndarray) -> np.ndarray:
    """Euclidean projection of p onto a polytope whose ball is redundant:
    the QP min |z|^2 - 2 p.z over its halfspaces."""
    status, z = _highs.solve(-2.0 * p, body.normals, body.offsets,
                             hessian=2.0 * np.eye(body.dimension))
    if status != _highs.OPTIMAL:
        raise CoverError(f"projection onto body {status}")
    return z


def _first_attempts(f: MaxAffineFunction, centers: np.ndarray,
                    placement_radius: float, delta: float, xi: float,
                    rng: np.random.Generator) -> tuple[list, float | None]:
    """One patch attempt in each placement ball, in row order.

    Each ball draws what a lone attempt draws (a centre z, GRAD_SAMPLES
    points of B(z, delta) to smooth the gradient g, PATCH_SAMPLES points to
    test it), and all points share one subgradient table. Returns the
    patches of the balls before the first failed attempt and its fraction
    (None if none failed), with the generator where that attempt's own
    draws end: it draws no test points when |g| < 1e-13.
    """
    k, n = centers.shape
    zs, us, rs, states = [], [], [], []
    for _ in range(k):
        zs.append((rng.standard_normal((1, n)), rng.uniform(0.0, 1.0, 1)))
        for count in (GRAD_SAMPLES, PATCH_SAMPLES):
            us.append(rng.standard_normal((count, n)))
            rs.append(rng.uniform(0.0, 1.0, count))
            states.append(rng.bit_generator.state)
    z = ball_points(centers, placement_radius, *map(np.concatenate, zip(*zs)))
    # One table of GRAD_SAMPLES + PATCH_SAMPLES rows per ball, in draw order.
    m = GRAD_SAMPLES + PATCH_SAMPLES
    sub = f.subgradients(ball_points(np.repeat(z, m, axis=0), delta,
                                     np.concatenate(us), np.concatenate(rs))
                         ).reshape(k, m, n)
    g = sub[:, :GRAD_SAMPLES].mean(axis=1)
    t = np.sqrt(np.vecdot(g, g))  # the bits of np.linalg.norm(g[i])
    theta = g / np.maximum(t, 1e-13)[:, None]  # |g| < 1e-13 fails below
    dev = row_norms(sub[:, GRAD_SAMPLES:] - (t[:, None] * theta)[:, None, :])
    hits = (dev <= xi * t[:, None]).sum(axis=1)
    patches = []
    for i in range(k):
        h = int(hits[i])
        fraction = h / PATCH_SAMPLES
        if t[i] < 1e-13:
            rng.bit_generator.state = states[2 * i]
            return patches, 0.0
        if fraction < 0.5 + 3.0 * wilson_half_width(h, PATCH_SAMPLES):
            rng.bit_generator.state = states[2 * i + 1]
            return patches, fraction
        patches.append(StableGradientPatch(z[i], theta[i], float(t[i]), delta,
                                           fraction, PATCH_SAMPLES, xi))
    return patches, None


def find_stable_gradient_patch(f: MaxAffineFunction, placement_center,
                               placement_radius: float, delta: float,
                               xi: float, rng: np.random.Generator
                               ) -> StableGradientPatch:
    """Search a placement ball for a centre whose subgradients concentrate.

    Each of ``PATCH_ATTEMPTS`` attempts smooths the gradient over B(z,
    delta) and accepts when the fraction of subgradients within ``xi * |g|``
    of the smoothed gradient clears 1/2 by three Wilson half-widths. Raises
    ``PatchNotFoundError`` carrying the best fraction seen.
    """
    center = np.atleast_2d(np.asarray(placement_center, dtype=float))
    best = 0.0
    for _ in range(PATCH_ATTEMPTS):
        found, fraction = _first_attempts(f, center, placement_radius, delta,
                                          xi, rng)
        if found:
            return found[0]
        best = max(best, fraction)
    raise PatchNotFoundError(
        f"no stable-gradient patch found (best fraction {best:.3f})", best)


def build_gamma_cover(f: MaxAffineFunction, body: ConvexBody,
                      profile: ConstantProfile, rng: np.random.Generator,
                      eta: float) -> GammaCover:
    """Cover the sphere of directions with patches and separators.

    For each probe direction phi: when phi/8 lies in the body, a patch is
    hunted inside a ball placed on the segment from phi/32 toward the
    Chebyshev ball; otherwise phi/8 is separated from the body and the
    separating direction s (with support value at most 1/8) joins the cover.
    First attempts share a table ``PATCH_CHUNK`` balls at a time, and draw
    as a search ball by ball would.
    The body must be a polytope whose ball is redundant, and must contain
    the origin, where f attains its minimum.
    """
    n = body.dimension
    if f.dimension != n:
        raise DimensionMismatchError("function/body dimension mismatch")
    if not body.contains(np.zeros(n), tol=1e-7):
        raise CoverError("cover construction expects the origin inside the body")
    gamma = profile.gamma(n)
    cheb_center, cheb_radius = body.largest_inscribed_ball()
    if cheb_radius <= 1e-12:
        raise CoverError("body is flat: no room to place patch balls")
    r_target = profile.patch_ball_radius(n)
    radius_bound = float(np.linalg.norm(body.ball_center) + body.ball_radius)
    lipschitz = f.lipschitz_bound(radius_bound)
    xi_base = profile.xi(n)
    net = _unit_net(n, PHI_COUNT)
    inside = body.contains(net / 8.0)
    separators = []
    for phi in net[~inside]:
        probe = phi / 8.0
        gapv = probe - _project_onto_body(body, probe)
        norm = float(np.linalg.norm(gapv))
        if norm < 1e-12:
            continue  # boundary grazing: treat as inside
        s = gapv / norm
        if body.support_function(s) > 0.125 + 1e-6:
            raise CoverError(
                "separating direction fails its support certificate",
                worst_direction=s,
                worst_value=float(body.support_function(s)))
        separators.append(s)
    lam = min(1.0, r_target / cheb_radius)
    centers = (1.0 - lam) * (net[inside] / 32.0) + lam * cheb_center
    ball_radius = lam * cheb_radius
    delta = min(profile.patch_delta(n, ball_radius, lipschitz, eta),
                ball_radius)
    patches, failures, i = [], 0, 0
    while i < len(centers):
        accepted, failed = _first_attempts(f, centers[i:i + PATCH_CHUNK],
                                           ball_radius, delta, xi_base, rng)
        patches += accepted
        i += len(accepted)
        if failed is None:
            continue
        # The failed ball goes on as a lone search would: its remaining
        # attempts, then PATCH_ATTEMPTS more for each doubling of xi.
        for a in range(1, (XI_RELAX_ROUNDS + 1) * PATCH_ATTEMPTS):
            xi = xi_base * 2.0 ** (a // PATCH_ATTEMPTS)
            if a % PATCH_ATTEMPTS == 0:
                warnings.warn("stable-gradient patch not found; relaxing the "
                              f"concentration radius to xi={xi:.4g}")
            found, _ = _first_attempts(f, centers[i:i + 1], ball_radius, delta,
                                       xi, rng)
            if found:
                patches.append(replace(found[0], relaxed=a >= PATCH_ATTEMPTS))
                break
        else:
            failures += 1
        i += 1
    return GammaCover(n, gamma, tuple(patches), tuple(separators), failures)


def caratheodory_reduce(cover: GammaCover) -> tuple[tuple, float]:
    """Reduce a cover to at most n+1 patches plus the separators.

    The minimum-norm point of the direction hull must have norm at most
    gamma. Its support is pruned to n+1 members, and the pruned weights'
    combination y of the kept patches and all separators must meet the same
    bound: every unit theta then has a kept direction with <theta, d> >=
    -|y| >= -gamma, so the reduced set is a gamma-cover. Returns
    ``(kept_patches, hull_norm)``; raises ``CoverError`` when either norm
    exceeds the bound.
    """
    if not cover.patches:
        raise CoverError("cover holds no stable-gradient patches")
    dirs = np.vstack([p.direction for p in cover.patches]
                     + [s for s in cover.separators])
    y, w = min_norm_point(dirs)
    hull_norm = float(np.linalg.norm(y))
    bound = cover.gamma * (1.0 + 1e-6)
    if hull_norm > bound:
        raise CoverError(
            f"direction hull misses the gamma ball ({hull_norm:.4g} > "
            f"{cover.gamma:.4g})",
            worst_value=hull_norm)
    w = caratheodory_prune(dirs, w, cover.dimension + 1)
    m = len(cover.patches)
    w[:m] = np.where(w[:m] > 1e-12, w[:m], 0.0)
    kept = [p for p, wi in zip(cover.patches, w) if wi > 0.0]
    if not kept:
        raise CoverError("reduction kept no patches, only separators")
    reduced_norm = float(np.linalg.norm(w @ dirs / w.sum()))
    if reduced_norm > bound:
        raise CoverError(
            f"reduced cover misses the gamma ball ({reduced_norm:.4g} > "
            f"{cover.gamma:.4g})",
            worst_value=reduced_norm)
    return tuple(kept), hull_norm


def single_scale_measure(f: MaxAffineFunction, body: ConvexBody,
                         profile: ConstantProfile, rng: np.random.Generator,
                         eta: float):
    """One whitened stage: cover, reduce, cut; returns its measure and record.

    The body is assumed whitened (covariance near identity) with the
    objective minimised at the origin. Returns ``(measure, fields)``, where
    ``fields`` holds the stage's ``StageRecord`` fields; the slab
    {|<slab_direction, x>| <= slab_halfwidth} contains the polytope left
    after cutting along the reduced cover.
    """
    n = body.dimension
    cover = build_gamma_cover(f, body, profile, rng, eta)
    patches, hull_norm = caratheodory_reduce(cover)
    gamma = cover.gamma
    mgamma = profile.slab_multiplier(n) * gamma  # = 1/8
    cut_normals = np.vstack([body.normals]
                            + [p.direction[None, :] for p in patches])
    cut_offsets = np.concatenate([body.offsets, np.full(len(patches), mgamma)])
    polytope = ConvexBody(n, cut_normals, cut_offsets,
                          body.ball_center, body.ball_radius)
    _, inscribed = polytope.largest_inscribed_ball()
    # Inscribed balls of the cut polytope stay below gamma*(M + diameter):
    # the cover pins one direction against each candidate centre.
    bound = gamma * (profile.slab_multiplier(n) + 2.0 * (n + 1))
    if inscribed > bound * (1.0 + 1e-9):
        raise CoverError(
            f"cut polytope keeps an inscribed ball of radius {inscribed:.4g} "
            f"(bound {bound:.4g}); the cover is unsound",
            worst_value=inscribed)
    direction, halfwidth = thinnest_slab(polytope)
    measure = ExplorationMeasure.equal_mixture(
        [UniformBall(p.center, p.radius) for p in patches])
    return measure, dict(
        patches=patches, separator_count=len(cover.separators),
        raw_patch_count=len(cover.patches), failures=cover.failures,
        hull_norm=hull_norm, inscribed_radius=float(inscribed),
        slab_direction=direction, slab_halfwidth=float(halfwidth))


def _as_polytope(body: ConvexBody) -> ConvexBody:
    """The polytope a build works on: the body itself when its ball is
    redundant, else (2-D only) the body with its ball replaced by an
    inscribed 64-gon.

    Raises ``ConfigError`` for any other body: builds support dimensions
    2 and 3, and an active ball only in 2-D.
    """
    n = body.dimension
    if n > 3:
        raise ConfigError(f"dimension {n} above the cap of 3 for builds")
    if body.has_halfspaces and body.ball_is_redundant():
        return body
    if n != 2:
        raise ConfigError(
            "a body whose bounding ball is active is supported only in 2-D")
    gon = ConvexBody.regular_polygon(64, body.ball_radius, body.ball_center)
    normals = np.vstack([body.normals, gon.normals])
    offsets = np.concatenate([body.offsets, gon.offsets])
    return ConvexBody(2, normals, offsets, body.ball_center,
                      body.ball_radius * (1.0 + 1e-9))


def multi_scale_measure(f: MaxAffineFunction, body: ConvexBody,
                        eps: float,
                        profile: ConstantProfile = CALIBRATED,
                        rng: np.random.Generator | None = None
                        ) -> tuple[ExplorationMeasure, BuildReport]:
    """Stack single scales until the remaining body fits in a thin slab.

    Each stage whitens the current body with a matrix-only map (keeping the
    minimiser at the origin), builds a stage measure from its reduced cover,
    and keeps only the slab around the thinnest direction of the cut
    polytope. Stage measures are pulled back to the input frame and mixed
    equally. The returned report's slab, in the input frame, contains
    everything never cut away; it has no child.
    """
    rng = rng if rng is not None else np.random.default_rng()
    n = body.dimension
    if n < 2:
        raise DimensionMismatchError("multi_scale_measure needs dimension >= 2")
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    body = _as_polytope(body)
    x0 = argmin(f, body)
    eta = profile.eta(n, eps)
    # Pin the minimum to zero at the origin and add strong convexity once.
    f0 = f.translate(x0).add_constant(-float(f.value(x0)))
    f0 = MaxAffineFunction(f0.offsets, f0.slopes, f0.eta + eta, f0.quad)
    work = affine_image(body, AffineMap(np.eye(n), -x0))
    stop = profile.stop_width(n, eps)
    cap = profile.stage_cap(n, eps)
    stages: list[StageRecord] = []
    components = []
    capped = True
    direction = None
    halfwidth = math.inf
    for index in range(cap):
        direction, halfwidth = thinnest_slab(work)
        if halfwidth <= stop:
            capped = False
            break
        moments = work.estimate_moments()
        q = whitening_map(moments).matrix  # matrix-only: origin stays fixed
        q_inv = np.linalg.inv(q)
        whitened = affine_image(work, AffineMap(q, np.zeros(n)))
        f_stage = f0.compose_affine(AffineMap(q_inv, np.zeros(n)))
        mu_stage, fields = single_scale_measure(
            f_stage, whitened, profile, rng, eta)
        kept = slab(whitened, fields["slab_direction"],
                    fields["slab_halfwidth"] * (1.0 + 1e-9))
        stages.append(StageRecord(
            index=index, whiten=q, function=f_stage,
            width_before=float(halfwidth),
            volume=volume_ratio(kept, whitened), **fields))
        work = affine_image(kept, AffineMap(q_inv, np.zeros(n)))
        components.append(Pushforward(AffineMap(q_inv, x0), mu_stage))
        if index + 1 == cap:
            direction, halfwidth = thinnest_slab(work)
    if not components:
        raise CoverError(
            "body is already thinner than the stop width; no stages produced")
    if capped:
        warnings.warn("stage cap reached before the stop width")
    return ExplorationMeasure.equal_mixture(components), BuildReport(
        n, profile.name, direction, x0, float(halfwidth), stages, capped)


def _complement_frame(theta: np.ndarray) -> np.ndarray:
    """Orthonormal (n, n-1) basis of the hyperplane orthogonal to theta."""
    n = theta.size
    u, _, _ = np.linalg.svd(theta.reshape(n, 1), full_matrices=True)
    frame = u[:, 1:]
    # svd may flip the first column's sign relative to theta; the complement
    # columns are orthonormal to theta either way.
    return frame


def _projected_body(host: ConvexBody, anchor: np.ndarray,
                    frame: np.ndarray) -> ConvexBody:
    """Projection of the host onto anchor + range(frame), in frame coordinates.

    Exact: the range (k = 1) or the hull (k >= 2) of the host's projected
    vertices.
    """
    k = frame.shape[1]
    image = (host.vertices() - anchor) @ frame
    if k == 1:
        lo, hi = float(image.min()), float(image.max())
        if hi - lo <= 1e-12:
            mid = 0.5 * (lo + hi)
            lo, hi = mid - 1e-9, mid + 1e-9
        return ConvexBody.interval(lo, hi)
    equations = ConvexHull(image).equations
    return ConvexBody(k, equations[:, :-1], -equations[:, -1])


def _fiber_envelope(f: MaxAffineFunction, anchor: np.ndarray,
                    frame: np.ndarray, theta: np.ndarray,
                    delta: float) -> MaxAffineFunction:
    """u -> max over |w| <= delta of f(anchor + frame u + w theta), exactly.

    For fixed u the fiber is convex in w, so its max over the window sits
    at w = -delta or w = delta. The two end restrictions share one
    quadratic form, so their affine pieces union into a single function.
    """
    parts = [f.compose_affine(AffineMap(frame, anchor + w * theta))
             for w in (-delta, delta)]
    return MaxAffineFunction(np.concatenate([p.offsets for p in parts]),
                             np.vstack([p.slopes for p in parts]),
                             parts[0].eta, parts[0].quad)


def build_exploratory_measure(body: ConvexBody, f: MaxAffineFunction,
                              eps: float,
                              profile: ConstantProfile = CALIBRATED,
                              rng: np.random.Generator | None = None
                              ) -> tuple[ExplorationMeasure, BuildReport]:
    """Full construction with dimension induction.

    After whitening, the multi-scale measure handles everything outside the
    final slab; a recursively built measure on the slab's projection is
    lifted along fibers to handle the rest. The mixture gives the
    multi-scale part weight 1/n and the lift (n-1)/n.
    """
    rng = rng if rng is not None else np.random.default_rng()
    n = body.dimension
    if f.dimension != n:
        raise DimensionMismatchError("function/body dimension mismatch")
    if n == 1:
        measure = build_measure_1d(body, f, eps)
        return measure, BuildReport(1, profile.name)
    body = _as_polytope(body)
    moments = body.estimate_moments()
    w_map = whitening_map(moments)
    whitened = affine_image(body, w_map)
    f_w = f.compose_affine(w_map.inverse())
    multi, report = multi_scale_measure(f_w, whitened, eps, profile, rng)
    theta = report.direction / np.linalg.norm(report.direction)
    anchor = report.base_point
    delta = max(report.slab_halfwidth,
                profile.stop_width(n, eps)) * (1.0 + 1e-9)
    report.direction, report.slab_halfwidth = theta, delta
    slab_body = slab(whitened, theta, delta, center=anchor)
    frame = _complement_frame(theta)
    shadow = _projected_body(slab_body, anchor, frame)
    child, report.child = build_exploratory_measure(
        shadow, _fiber_envelope(f_w, anchor, frame, theta, delta), eps,
        profile, rng)
    lift = FiberLift(child, anchor, frame, theta, whitened)
    weights = [Fraction(1, n) * w for w in multi.weights]
    weights.append(Fraction(n - 1, n))
    inner = ExplorationMeasure(weights, list(multi.components) + [lift])
    measure = ExplorationMeasure([Fraction(1)],
                                 [Pushforward(w_map.inverse(), inner)])
    return measure, report


def with_retries(build, seed: int):
    """``(build(rng), retries)``, where attempt k draws from
    ``default_rng(seed + RETRY_SEED_SHIFT * k)``: the patch search can fail
    on an unlucky draw. Only ``CONSTRUCTION_ERRORS`` are retried; the last
    one propagates after ``BUILD_ATTEMPTS`` attempts."""
    for attempt in range(BUILD_ATTEMPTS):
        try:
            return build(np.random.default_rng(
                seed + RETRY_SEED_SHIFT * attempt)), attempt
        except CONSTRUCTION_ERRORS:
            if attempt + 1 == BUILD_ATTEMPTS:
                raise
