"""Exploration measures and their one-dimensional construction.

A measure is a finite mixture with float weights summing to 1. Components
are point masses, uniform segments, uniform balls, affine pushforwards, and
fiber lifts of a lower-dimensional measure. Event probabilities count atoms
exactly and sample the rest for n >= 2, while a 1-D separation event is
integrated exactly between its breakpoints.

The 1-D builder places dyadic windows around the minimizer: with domain
diameter d and scale count N = ceil(log2(1/eps)) + 4 it mixes the uniform
measures on [x0 - d 2^-k, x0 + d 2^-k] (clipped to the domain, k = 0..N) and a
point mass at x0, all with weight 1/(N+2). The guarantee verified downstream:
any convex g dipping below -eps somewhere gets caught by a relative gap event
with probability at least 1/(8 ln(1 + 1/eps)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convexfn import MaxAffineFunction, argmin
from .errors import DimensionMismatchError, InfeasibleBodyError
from .geometry import AffineMap, ConvexBody, sample_ball
from .stats import wilson_interval

WEIGHT_TOL = 1e-12   # allowed distance of a measure's weight sum from 1


@dataclass(frozen=True)
class PointMass:
    point: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", np.atleast_1d(np.asarray(self.point, dtype=float)))

    @property
    def dimension(self) -> int:
        return self.point.size


@dataclass(frozen=True)
class UniformSegment:
    """Uniform measure on the 1-D interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError("segment needs lo <= hi")

    @property
    def dimension(self) -> int:
        return 1

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class UniformBall:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.atleast_1d(np.asarray(self.center, dtype=float)))
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    @property
    def dimension(self) -> int:
        return self.center.size


@dataclass(frozen=True)
class Pushforward:
    """Image of an inner measure under an affine map."""

    map: AffineMap
    inner: "ExplorationMeasure"

    @property
    def dimension(self) -> int:
        return self.map.dim_out


@dataclass(frozen=True)
class FiberLift:
    """Lift of a base measure on R^(n-1) along a direction through a host body.

    A base draw u maps to the chord {anchor + frame @ u + w * direction : w
    real} of the host, and the lift samples uniformly on it. A chord of
    length <= 1e-12 gives its one point if it touches the host (u at an end
    of the host's shadow) and raises ``InfeasibleBodyError`` if it misses.
    """

    base: "ExplorationMeasure"
    anchor: np.ndarray
    frame: np.ndarray        # (n, n-1), orthonormal columns spanning direction^perp
    direction: np.ndarray    # unit vector
    host: ConvexBody

    def __post_init__(self):
        object.__setattr__(self, "anchor", np.atleast_1d(np.asarray(self.anchor, dtype=float)))
        object.__setattr__(self, "frame", np.atleast_2d(np.asarray(self.frame, dtype=float)))
        d = np.atleast_1d(np.asarray(self.direction, dtype=float))
        object.__setattr__(self, "direction", d / np.linalg.norm(d))

    @property
    def dimension(self) -> int:
        return self.host.dimension

    def chord_anchors(self, u: np.ndarray) -> np.ndarray:
        """anchor + frame @ u for each row u of an (m, n - 1) batch of base
        draws, as a C-ordered (m, n) array.

        A 1-D base is mapped column by column. Each entry of ``u @
        frame.T`` is then one product added to +0.0, so with the +0.0 moved
        onto the anchor the columns have the matmul's bits.
        """
        if u.shape[1] > 1:
            return self.anchor + u @ self.frame.T
        out = np.empty((u.shape[0], self.dimension))
        for j, (a, b) in enumerate(zip(self.anchor + 0.0, self.frame[:, 0])):
            np.multiply(u[:, 0], b, out=out[:, j])
            out[:, j] += a
        return out


class ExplorationMeasure:
    """Finite mixture of components with float weights.

    Weights are nonnegative (NaN is rejected), and their ``math.fsum`` lies
    within ``WEIGHT_TOL`` of 1.
    """

    def __init__(self, weights, components):
        ws = tuple(float(w) for w in weights)
        if len(ws) != len(components) or not components:
            raise ValueError("weights/components mismatch or empty measure")
        if not (all(w >= 0 for w in ws) and abs(math.fsum(ws) - 1) <= WEIGHT_TOL):
            raise ValueError("weights must be nonnegative and sum to 1 within "
                             f"{WEIGHT_TOL:g}")
        dims = {c.dimension for c in components}
        if len(dims) != 1:
            raise DimensionMismatchError("components live in different dimensions")
        self.weights = ws
        self.components = tuple(components)
        self.dimension = dims.pop()
        self._leaves = self._probs = None

    @staticmethod
    def equal_mixture(components) -> "ExplorationMeasure":
        k = len(components)
        return ExplorationMeasure([1.0 / k] * k, components)

    # -- structure ---------------------------------------------------------

    def flatten(self):
        """``(weight, component, map_or_None)`` leaves: every component but
        a pushforward, with the product of the weights on its path (top
        down) and the composition of the maps above it. Zero-weight
        components are dropped. A measure never changes, so its leaves are
        found once and kept."""
        if self._leaves is None:
            out = []
            self._flatten_into(out, 1.0, None)
            probs = np.array([w for w, _, _ in out])
            self._leaves, self._probs = tuple(out), probs / probs.sum()
        return self._leaves

    def _flatten_into(self, out, scale, outer_map):
        for w, comp in zip(self.weights, self.components):
            if w == 0:
                continue
            if isinstance(comp, Pushforward):
                amap = comp.map if outer_map is None else outer_map.compose(comp.map)
                comp.inner._flatten_into(out, scale * w, amap)
            else:
                out.append((scale * w, comp, outer_map))

    # -- sampling ------------------------------------------------------------

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """m independent draws, shape (m, dimension), grouped by leaf in
        ``flatten()`` order: i.i.d. as a multiset, not in exchangeable
        order. A caller that needs a random order permutes the rows."""
        if m <= 0:
            raise ValueError("m must be positive")
        leaves = self.flatten()
        counts = rng.multinomial(m, self._probs)
        pts, ends = np.empty((m, self.dimension)), np.cumsum(counts)
        for (_, comp, amap), k, end in zip(leaves, counts, ends):
            if k:
                pts[end - k:end] = _sample_leaf(comp, amap, k, rng)
        return pts

    # -- integration -----------------------------------------------------------

    def event_probability(self, predicate, m: int,
                          rng: np.random.Generator) -> tuple[float, float, float]:
        """P(event) with atoms exact and a Wilson interval on the sampled part.

        ``predicate`` maps an (m, n) batch to a boolean vector. The verifier
        uses it for n >= 2; a 1-D separation event is integrated exactly.
        """
        atom_true, sampled = 0.0, []
        for w, comp, amap in self.flatten():
            if isinstance(comp, PointMass):
                if bool(predicate(_sample_leaf(comp, amap, 1, rng))[0]):
                    atom_true += w
            else:
                sampled.append((w, comp, amap))
        cont_weight = sum(w for w, _, _ in sampled)
        if cont_weight < 1e-15:
            return atom_true, atom_true, atom_true
        probs = np.array([w for w, _, _ in sampled]) / cont_weight
        counts = rng.multinomial(m, probs)
        hits = sum(int(predicate(_sample_leaf(comp, amap, k, rng)).sum())
                   for (_, comp, amap), k in zip(sampled, counts) if k)
        low, high = wilson_interval(hits, m)
        return (atom_true + cont_weight * hits / m,
                atom_true + cont_weight * low,
                atom_true + cont_weight * high)


def _sample_leaf(comp, amap, m: int, rng: np.random.Generator) -> np.ndarray:
    """m draws from a leaf of ``flatten()``, pushed through its map; an atom
    is tiled and draws nothing from ``rng``."""
    if isinstance(comp, PointMass):
        pts = np.tile(comp.point, (m, 1))
    elif isinstance(comp, UniformSegment):
        pts = (comp.lo + (comp.hi - comp.lo) * rng.random(m))[:, None]
    elif isinstance(comp, UniformBall):
        pts = sample_ball(comp.center, comp.radius, m, rng)
    elif isinstance(comp, FiberLift):
        pts = _sample_fiber_lift(comp, m, rng)
    else:
        raise TypeError(f"unknown component {type(comp).__name__}")
    return pts if amap is None else amap(pts)


def _sample_fiber_lift(lift: FiberLift, m: int, rng: np.random.Generator) -> np.ndarray:
    """anchor + frame @ u + w * direction for base draws u and w uniform on
    each chord; w * direction is added column by column, with the bits of
    the row broadcast."""
    anchors = lift.chord_anchors(lift.base.sample(m, rng))
    t_lo, t_hi = lift.host.chord_bounds(anchors, lift.direction)
    short = (t_hi - t_lo) <= 1e-12
    if short.any():         # seldom: only base draws at the shadow's ends
        off = ~lift.host.contains(anchors[short]
                                  + t_lo[short, None] * lift.direction)
        if off.any():
            raise InfeasibleBodyError(f"zero-length fiber off the host for "
                                      f"{int(off.sum())} of {m} base draws")
    w = t_lo + (t_hi - t_lo) * rng.random(m)
    for j, d in enumerate(lift.direction):
        anchors[:, j] += w * d
    return anchors


@dataclass(frozen=True)
class VerificationReport:
    """Event-mass report against a threshold; ``passed`` is ci_low > threshold.

    A 1-D mass is exact: ``ci_low == ci_high == p_hat`` and ``samples == 0``.
    For n >= 2 it is a Monte Carlo estimate from ``samples`` draws, with a
    Wilson interval on its sampled part.
    """

    p_hat: float
    ci_low: float
    ci_high: float
    threshold: float
    samples: int
    passed: bool


def dyadic_measure_1d(domain: ConvexBody, x0: float,
                      eps: float) -> ExplorationMeasure:
    """Dyadic segments shrinking toward x0, plus an atom at x0.

    The core of the 1-D construction; x0 is the minimizer of whichever
    function the measure is meant to explore.
    """
    if domain.dimension != 1:
        raise DimensionMismatchError("dyadic_measure_1d needs a 1-D domain")
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    lo, hi = domain.interval_bounds()
    d = hi - lo
    if d <= 0:
        raise InfeasibleBodyError("domain has no length")
    if not lo - 1e-9 <= x0 <= hi + 1e-9:
        raise ValueError("x0 lies outside the domain")
    x0 = min(max(x0, lo), hi)
    halves = [d * 2.0 ** (-k) for k in range(math.ceil(math.log2(1.0 / eps)) + 5)]
    return ExplorationMeasure.equal_mixture(
        [UniformSegment(max(lo, x0 - h), min(hi, x0 + h)) for h in halves]
        + [PointMass([x0])])


def build_measure_1d(domain: ConvexBody, f: MaxAffineFunction,
                     eps: float) -> ExplorationMeasure:
    """Dyadic exploration measure on a 1-D domain for the function f."""
    if domain.dimension != 1 or f.dimension != 1:
        raise DimensionMismatchError("build_measure_1d needs a 1-D domain and function")
    x0 = float(argmin(f, domain)[0])
    return dyadic_measure_1d(domain, x0, eps)


def guarantee_threshold_1d(eps: float) -> float:
    """Mass guaranteed on the dyadic measure's separation event.

    Any convex g that stays eps-far below some admissible f somewhere forces
    mu(|f - g| > eps/8) >= 1 / (8 ln(1 + 1/eps)).
    """
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    return 1.0 / (8.0 * math.log(1.0 + 1.0 / eps))


def verify_exploration(mu: ExplorationMeasure, f: MaxAffineFunction,
                       g: MaxAffineFunction, eps: float, gap_constant: float,
                       prob_threshold: float, m: int, rng: np.random.Generator,
                       gap_scaling: str = "max",
                       witness=None) -> VerificationReport:
    """The mass of {|f - g| > gap}, compared to a threshold.

    The gap is ``gap_constant * max(eps, f(x))`` by default, or the absolute
    ``gap_constant * eps`` with ``gap_scaling="eps"`` (the sharper form used by
    the 1-D guarantee). ``witness`` optionally asserts g(witness) < -eps.

    A 1-D mass is exact, integrated between the event's breakpoints; ``m``
    and ``rng`` are then unused and the report has ``samples == 0``. For
    n >= 2, and for a 1-D measure that pushes a higher-dimensional one onto
    the line, ``m`` draws from ``rng`` estimate it.
    """
    if gap_scaling not in ("max", "eps"):
        raise ValueError("gap_scaling must be 'max' or 'eps'")
    if witness is not None:
        w = np.atleast_1d(np.asarray(witness, dtype=float))
        if f.value(w) < -1e-9:
            raise ValueError("witness check failed: f must be nonnegative")
        if not g.value(w) < -eps:
            raise ValueError(f"witness check failed: g({w}) = {g.value(w):.6g} >= -eps")

    def event(pts):
        fv = np.atleast_1d(f.value(pts))
        gv = np.atleast_1d(g.value(pts))
        scale = np.maximum(eps, fv) if gap_scaling == "max" else eps
        return np.abs(fv - gv) > gap_constant * scale

    if mu.dimension == 1:
        p = _interval_event_mass(mu, event, _event_breakpoints_1d(
            f, g, eps, gap_constant, gap_scaling))
        if p is not None:
            return VerificationReport(p, p, p, prob_threshold, 0,
                                      passed=p > prob_threshold)
    p, low, high = mu.event_probability(event, m, rng)
    return VerificationReport(p, low, high, prob_threshold, m,
                              passed=low > prob_threshold)


def _quadratic_rows(f: MaxAffineFunction) -> np.ndarray:
    """(p, 3) coefficients (x^2, x, 1) of a 1-D f's pieces, each carrying
    f's quadratic term form[0, 0]."""
    q = 0.0 if f.form is None else f.form[0, 0]
    return np.column_stack([np.full(f.piece_count, q), f.slopes[:, 0], f.offsets])


def _real_roots(rows: np.ndarray) -> np.ndarray:
    """Real roots of every a x^2 + b x + c in ``rows``, a = 0 included.

    With q = -(b + sign(b) sqrt(b^2 - 4ac)) / 2 the roots are q/a and c/q,
    the second also for a = 0; a row without real roots, or a constant one,
    gives none.
    """
    a, b, c = rows.T
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
        roots = np.concatenate([q / a, c / q])
    return roots[np.isfinite(roots)]


def _event_breakpoints_1d(f: MaxAffineFunction, g: MaxAffineFunction,
                          eps: float, gap_constant: float,
                          gap_scaling: str) -> np.ndarray:
    """Every point where the 1-D event {|f - g| > gap} can start or stop.

    phi = |f - g| - gap is continuous, so the event is constant between
    consecutive zeros of phi. At a zero the active pieces f_i, g_j satisfy
    f_i - g_j = ±c eps or, under ``"max"`` scaling where f >= eps,
    (1 ∓ c) f_i = g_j: the points are the roots of these quadratics over
    every piece pair. Extra points do no harm.
    """
    F, G = _quadratic_rows(f), _quadratic_rows(g)

    def cross(s):
        return (s * F[:, None] - G[None]).reshape(-1, 3)

    shift = np.array([0.0, 0.0, gap_constant * eps])
    rows = [cross(1.0) - shift, cross(1.0) + shift]
    if gap_scaling == "max":
        rows += [cross(1.0 - gap_constant), cross(1.0 + gap_constant)]
    return _real_roots(np.vstack(rows))


def _interval_event_mass(mu: ExplorationMeasure, predicate,
                         breakpoints: np.ndarray) -> float | None:
    """Exact mass of a 1-D event that is constant between ``breakpoints``.

    Leaves must be atoms or uniform intervals (segments and 1-D balls,
    through at most a 1-D affine map), or the answer is None. The interval
    ends and the breakpoints inside them cut the line into cells; the
    predicate is evaluated once, at every atom and cell midpoint, and an
    interval's event share is read from cumulative sums of the event and
    non-event cells' lengths.
    """
    weights, ends = [], []
    for w, comp, amap in mu.flatten():
        if isinstance(comp, PointMass):
            lo = hi = float(_sample_leaf(comp, amap, 1, None)[0, 0])
        else:
            if isinstance(comp, UniformSegment):
                lo, hi = comp.lo, comp.hi
            elif isinstance(comp, UniformBall) and comp.dimension == 1:
                lo, hi = comp.center[0] - comp.radius, comp.center[0] + comp.radius
            else:
                return None
            if amap is not None:
                if amap.dim_in != 1:
                    return None
                lo, hi = sorted(amap(np.array([[lo], [hi]]))[:, 0])
        weights.append(w)
        ends.append((lo, hi))
    lo, hi = np.array(ends).T
    atom = lo == hi                 # a zero-length interval is an atom too
    xs = np.unique(np.concatenate([lo[~atom], hi[~atom]]))
    if xs.size:
        xs = np.unique(np.concatenate(
            [xs, breakpoints[(breakpoints > xs[0]) & (breakpoints < xs[-1])]]))
    k = int(atom.sum())
    hit = predicate(np.concatenate([lo[atom], 0.5 * (xs[:-1] + xs[1:])])[:, None])
    cells = np.diff(xs)
    on = np.concatenate([[0.0], np.cumsum(np.where(hit[k:], cells, 0.0))])
    off = np.concatenate([[0.0], np.cumsum(np.where(hit[k:], 0.0, cells))])
    a, b = np.searchsorted(xs, lo[~atom]), np.searchsorted(xs, hi[~atom])
    share = np.empty(lo.size)
    share[atom] = hit[:k]
    share[~atom] = (on[b] - on[a]) / (on[b] - on[a] + off[b] - off[a])
    if (share == 1.0).all():
        return 1.0      # a certain event, whatever the weights' round-off
    return math.fsum(w * s for w, s in zip(weights, share.tolist()))


def segment_gap_check(f: MaxAffineFunction, g: MaxAffineFunction, x0: float,
                      alpha: float, mu: ExplorationMeasure, beta: float,
                      eps: float, m: int,
                      rng: np.random.Generator) -> VerificationReport:
    """Check the half-mass gap event for a density-bounded measure on [x0, alpha].

    Preconditions enforced, the pointwise ones on 2048 grid points: 0 <
    alpha - x0 <= 1, beta >= 1, segments inside [x0, alpha] with density
    <= beta, f >= 0 and nondecreasing right of x0, and g(alpha) < -eps. Then
    it is ``verify_exploration`` at gap constant 1/(4 beta), threshold 1/2:
    the mass is exact, and ``m`` and ``rng`` are unused.
    """
    if beta < 1.0:
        raise ValueError("beta must be >= 1")
    gap_len = alpha - x0
    if not 0 < gap_len <= 1 + 1e-12:
        raise ValueError("need 0 < alpha - x0 <= 1")
    if not g.value(np.array([alpha])) < -eps:
        raise ValueError("need g(alpha) < -eps")
    xs = np.linspace(x0, alpha, 2048)[:, None]
    fv = f.value(xs)
    if fv.min() < -1e-9:
        raise ValueError("f must be nonnegative on [x0, alpha]")
    if f.subgradients(xs).min() < -1e-9:
        raise ValueError("f must be nondecreasing right of x0")
    dens = np.zeros(len(xs))
    for w, comp, amap in mu.flatten():
        if isinstance(comp, PointMass):
            raise ValueError("atoms have unbounded density; segment mixture required")
        if not isinstance(comp, UniformSegment) or amap is not None:
            raise ValueError("segment_gap_check requires a plain segment mixture")
        if comp.lo < x0 - 1e-9 or comp.hi > alpha + 1e-9:
            raise ValueError("measure support leaves [x0, alpha]")
        if comp.length <= 0:
            raise ValueError("zero-length segment has unbounded density")
        inside = (xs[:, 0] >= comp.lo - 1e-12) & (xs[:, 0] <= comp.hi + 1e-12)
        dens[inside] += w / comp.length
    if dens.max() > beta * (1 + 1e-6):
        raise ValueError(f"density {dens.max():.4g} exceeds beta = {beta:.4g}")
    return verify_exploration(mu, f, g, eps, 0.25 / beta, 0.5, m, rng)
