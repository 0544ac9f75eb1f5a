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

A build draws nothing: patches are certified from the piece table at fixed
candidate centres, so a build is a function of its inputs. Constants come
from a named profile so conservative and measurable regimes share one code
path.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _highs
from .convexfn import MaxAffineFunction, argmin, top_pieces
from .errors import ConfigError, CoverError, DimensionMismatchError
from .explore1d import (ExplorationMeasure, FiberLift, Pushforward,
                        UniformBall, build_measure_1d)
from .geometry import (AffineMap, ConvexBody, affine_image, ball_points,
                       hull_equations, row_dots, row_norms, slab,
                       thinnest_slab, volume_ratio, whitening_map)
from .minnorm import caratheodory_prune, min_norm_point
from .profiles import CALIBRATED, ConstantProfile


# Structural limits of the construction.
PHI_COUNT = 48          # directions probed per unit sphere (2-D)
PATCH_CANDIDATES = 256  # candidate centres per placement ball
BALL_BLOCK = 8          # placement balls whose candidates share a piece table


@dataclass(frozen=True)
class StableGradientPatch:
    """Ball on which subgradients concentrate around a common direction.

    Every subgradient on B(center, radius) lies within ``xi * scale`` of
    ``scale * direction``, as certified from the piece table at the centre
    (``find_stable_gradient_patch``). The certificate covers the whole ball,
    so ``fraction`` is 1.0 and ``sample_count`` 0: no subgradient was
    sampled.
    """

    center: np.ndarray
    direction: np.ndarray
    scale: float
    radius: float
    fraction: float
    sample_count: int
    xi: float


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
    raise DimensionMismatchError("direction nets implemented for n = 2, 3")


def _project_onto_body(body: ConvexBody, p: np.ndarray) -> np.ndarray:
    """Euclidean projection of p onto a polytope whose ball is redundant:
    the QP min |z|^2 - 2 p.z over its halfspaces."""
    status, z = _highs.solve(-2.0 * p, body.normals, body.offsets,
                             hessian=2.0 * np.eye(body.dimension))
    if status != _highs.OPTIMAL:
        raise CoverError(f"projection onto body {status}")
    return z


@functools.cache
def _candidate_rows(n: int) -> np.ndarray:
    """Offsets of a placement ball's candidate centres, in units of its
    radius: the origin (the ball's centre), then PATCH_CANDIDATES - 1 fixed
    points of the unit n-ball, drawn once per n from ``default_rng(12345)``."""
    rng = np.random.default_rng(12345)
    u = rng.standard_normal((PATCH_CANDIDATES - 1, n))
    rows = np.vstack([np.zeros((1, n)), ball_points(
        np.zeros(n), 1.0, u, rng.random(PATCH_CANDIDATES - 1))])
    rows.flags.writeable = False
    return rows


def _certify_block(f: MaxAffineFunction, centers: np.ndarray, radius: float,
                   xi: float, need, gaps, floor, tol):
    """The certificate at every candidate of a block of placement balls.

    Returns the candidates z, ball-major, with a mask of the certified ones,
    the piece k on top at each (the lowest, on a tie) and ĝ = b_k + 2Hz with
    its norm. Every sum runs in a fixed column order (``row_dots``), so a
    candidate's bits do not depend on the block it shares.
    """
    z = (centers[:, None, :] + radius * _candidate_rows(f.dimension)
         ).reshape(-1, f.dimension)
    lin = row_dots(f.slopes[:, None, :], z[None])  # (pieces, candidates)
    lin += f.offsets[:, None]
    best, top = top_pieces(lin)
    # need and gaps are symmetric, so column q of each take is row top[q]
    within = np.subtract(best, lin, out=lin) <= need.take(top, axis=1)
    np.take(gaps, top, axis=1, out=lin)
    lin *= within
    spread = np.maximum.reduce(lin, axis=0)
    g_hat = f.slopes.take(top, axis=0)
    if f.form is not None:
        for i, row in enumerate(f.form):
            g_hat[:, i] += 2.0 * row_dots(z, row)
    t = row_norms(g_hat)
    return z, (spread + floor <= xi * (t - tol)) & (t >= 1e-13), top, g_hat, t


def find_stable_gradient_patch(f: MaxAffineFunction,
                               placement_centers: np.ndarray,
                               placement_radius: float, delta: float,
                               xi: float) -> tuple[list, int]:
    """Certified stable-gradient patches in each placement ball, in row order.

    A ball's candidate centres are its centre, then PATCH_CANDIDATES - 1
    fixed points of the ball. Let k be the piece on top at a candidate z.
    Piece j may top somewhere on B(z, delta) only if lin_k(z) - lin_j(z) <=
    delta|b_k - b_j| + tol, so every subgradient there lies within S +
    2|H|delta of ĝ = b_k + 2Hz, S the largest |b_j - b_k| over those j. The
    candidate is certified when S + 2|H|delta + tol <= xi(|ĝ| - tol) and
    |ĝ| >= 1e-13. Each ball keeps the first certified candidate of each
    distinct top piece, ordered by piece. Balls are evaluated BALL_BLOCK at
    a time, and nothing is drawn. Returns ``(patches, failures)``, where
    ``failures`` counts the balls without a certified candidate.
    """
    # The certificate's bounds, with a 1e-12 relative margin for rounding.
    r = row_norms(placement_centers).max(initial=0) + placement_radius + delta
    tol = 1e-12 * (abs(f.offsets).max() + (1 + r) * f.lipschitz_bound(1 + r))
    gaps = row_norms(f.slopes[:, None] - f.slopes[None])
    need = np.where(gaps > 0, delta * gaps + tol, -np.inf)
    floor = 2 * f.form_norm * delta + tol
    patches, failures = [], 0
    for start in range(0, len(placement_centers), BALL_BLOCK):
        block = placement_centers[start:start + BALL_BLOCK]
        z, ok, top, g_hat, t = _certify_block(f, block, placement_radius, xi,
                                              need, gaps, floor, tol)
        q = np.flatnonzero(ok)
        ball = q // PATCH_CANDIDATES
        _, first = np.unique(ball * f.piece_count + top[q], return_index=True)
        failures += len(block) - len(np.unique(ball[first]))
        for k in q[first]:  # copies: a patch must not keep the table alive
            patches.append(StableGradientPatch(z[k].copy(), g_hat[k] / t[k],
                                               float(t[k]), delta, 1.0, 0, xi))
    return patches, failures


def build_gamma_cover(f: MaxAffineFunction, body: ConvexBody,
                      profile: ConstantProfile, eta: float) -> GammaCover:
    """Cover the sphere of directions with patches and separators.

    For each probe direction phi: when phi/8 lies in the body,
    ``find_stable_gradient_patch`` certifies patches inside a ball placed on the
    segment from phi/32 toward the Chebyshev ball; otherwise phi/8 is
    separated from the body and the separating direction s (with support
    value at most 1/8) joins the cover.
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
    patches, failures = find_stable_gradient_patch(f, centers, ball_radius,
                                                   delta, profile.xi(n))
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
                         profile: ConstantProfile, eta: float):
    """One whitened stage: cover, reduce, cut; returns its measure and record.

    The body is assumed whitened (covariance near identity) with the
    objective minimised at the origin. Returns ``(measure, fields)``, where
    ``fields`` holds the stage's ``StageRecord`` fields; the slab
    {|<slab_direction, x>| <= slab_halfwidth} contains the polytope left
    after cutting along the reduced cover.
    """
    n = body.dimension
    cover = build_gamma_cover(f, body, profile, eta)
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
                        profile: ConstantProfile = CALIBRATED
                        ) -> tuple[ExplorationMeasure, BuildReport]:
    """Stack single scales until the remaining body fits in a thin slab.

    Each stage whitens the current body with a matrix-only map (keeping the
    minimiser at the origin), builds a stage measure from its reduced cover,
    and keeps only the slab around the thinnest direction of the cut
    polytope. Stage measures are pulled back to the input frame and mixed
    equally. The returned report's slab, in the input frame, contains
    everything never cut away; it has no child.
    """
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
    f0 = MaxAffineFunction(f0.offsets, f0.slopes, eta, f0.form)
    work = affine_image(body, AffineMap(np.eye(n), -x0))
    stop = profile.stop_width(n, eps)
    cap = profile.stage_cap(n, eps)
    stages: list[StageRecord] = []
    components = []
    for index in range(cap + 1):
        direction, halfwidth = thinnest_slab(work)
        if halfwidth <= stop or index == cap:
            break
        moments = work.estimate_moments()
        q = whitening_map(moments).matrix  # matrix-only: origin stays fixed
        q_inv = np.linalg.inv(q)
        whitened = affine_image(work, AffineMap(q, np.zeros(n)))
        f_stage = f0.compose_affine(AffineMap(q_inv, np.zeros(n)))
        mu_stage, fields = single_scale_measure(
            f_stage, whitened, profile, eta)
        kept = slab(whitened, fields["slab_direction"],
                    fields["slab_halfwidth"] * (1.0 + 1e-9))
        stages.append(StageRecord(
            index=index, whiten=q, function=f_stage,
            width_before=float(halfwidth),
            volume=volume_ratio(kept, whitened), **fields))
        work = affine_image(kept, AffineMap(q_inv, np.zeros(n)))
        components.append(Pushforward(AffineMap(q_inv, x0), mu_stage))
    capped = index == cap
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
    equations = hull_equations(image)
    return ConvexBody(k, equations[:, :-1], -equations[:, -1])


def _fiber_envelope(f: MaxAffineFunction, anchor: np.ndarray,
                    frame: np.ndarray, theta: np.ndarray,
                    delta: float) -> MaxAffineFunction:
    """u -> max over |w| <= delta of f(anchor + frame u + w theta), exactly.

    For fixed u the fiber is convex in w, so its max over the window sits
    at w = -delta or w = delta. The two end restrictions share one
    ``form``, so their affine pieces union into a single function.
    """
    parts = [f.compose_affine(AffineMap(frame, anchor + w * theta))
             for w in (-delta, delta)]
    return MaxAffineFunction(np.concatenate([p.offsets for p in parts]),
                             np.vstack([p.slopes for p in parts]),
                             quad=parts[0].form)


def build_exploratory_measure(body: ConvexBody, f: MaxAffineFunction,
                              eps: float,
                              profile: ConstantProfile = CALIBRATED,
                              rng: np.random.Generator | None = None
                              ) -> tuple[ExplorationMeasure, BuildReport]:
    """Full construction with dimension induction.

    After whitening, the multi-scale measure handles everything outside the
    final slab; a recursively built measure on the slab's projection is
    lifted along fibers to handle the rest. The mixture gives the
    multi-scale part weight 1/n and the lift (n-1)/n. The build draws
    nothing: ``rng`` is accepted, and unused, for callers that still pass a
    generator (the benchmark's build loop does).
    """
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
    multi, report = multi_scale_measure(f_w, whitened, eps, profile)
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
        profile)
    lift = FiberLift(child, anchor, frame, theta, whitened)
    inner = ExplorationMeasure([w / n for w in multi.weights] + [(n - 1) / n],
                               list(multi.components) + [lift])
    measure = ExplorationMeasure([1.0], [Pushforward(w_map.inverse(), inner)])
    return measure, report

