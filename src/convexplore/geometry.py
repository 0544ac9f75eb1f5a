"""Convex bodies: membership, sampling, moments, whitening, certificates.

A body is an intersection of halfspaces plus a bounding ball; the ball is part
of the membership test, so a ball with no halfspaces is a valid body (a disk).
All randomized estimates take an explicit ``numpy.random.Generator``.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog, minimize
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from .errors import DimensionMismatchError, FlatBodyError, InfeasibleBodyError
from .stats import wilson_interval

_EIG_FLOOR = 1e-9


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix @ x + offset, applied row-wise to batches."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.atleast_2d(np.asarray(self.matrix, dtype=float)))
        object.__setattr__(self, "offset", np.atleast_1d(np.asarray(self.offset, dtype=float)))
        if self.matrix.shape[0] != self.offset.shape[0]:
            raise DimensionMismatchError("matrix rows must match offset length")

    @property
    def dim_in(self) -> int:
        return self.matrix.shape[1]

    @property
    def dim_out(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self.matrix @ x + self.offset
        return x @ self.matrix.T + self.offset

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """Map equal to self(inner(x))."""
        if inner.dim_out != self.dim_in:
            raise DimensionMismatchError("incompatible composition")
        return AffineMap(self.matrix @ inner.matrix, self.matrix @ inner.offset + self.offset)

    def inverse(self) -> "AffineMap":
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise DimensionMismatchError("only square maps invert")
        inv = np.linalg.inv(self.matrix)
        return AffineMap(inv, -inv @ self.offset)

    @staticmethod
    def identity(n: int) -> "AffineMap":
        return AffineMap(np.eye(n), np.zeros(n))

    @staticmethod
    def translation(offset: np.ndarray) -> "AffineMap":
        offset = np.atleast_1d(np.asarray(offset, dtype=float))
        return AffineMap(np.eye(offset.size), offset)


def sample_ball(center, radius: float, m: int, rng: np.random.Generator) -> np.ndarray:
    """m uniform points of the ball B(center, radius), shape (m, n)."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    n = center.size
    u = rng.standard_normal((m, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return center + u * (radius * rng.uniform(0.0, 1.0, m) ** (1.0 / n))[:, None]


@dataclass(frozen=True)
class MomentEstimate:
    """Mean and centered covariance with sampling-error scales.

    Exact moments have ``stderr_scale`` 0.
    """

    mean: np.ndarray
    covariance: np.ndarray
    stderr_scale: float  # 1/sqrt(sample count), or 0 when exact


class ConvexBody:
    """Halfspace intersection clipped to a bounding ball.

    Polytope queries (bounds, support, ball redundancy, thinnest slab) read
    one vertex list, computed once per body by qhull from the Chebyshev
    centre of the halfspaces. Volumes, moments and uniform draws of a
    polytope whose ball is redundant read one simplex decomposition of that
    list, also computed once.
    """

    def __init__(self, dimension, normals=None, offsets=None, ball_center=None, ball_radius=None):
        self.dimension = int(dimension)
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if normals is None or len(normals) == 0:
            self.normals = np.zeros((0, self.dimension))
            self.offsets = np.zeros(0)
        else:
            normals = np.atleast_2d(np.asarray(normals, dtype=float))
            offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
            if normals.shape[1] != self.dimension:
                raise DimensionMismatchError("halfspace normals have wrong dimension")
            if normals.shape[0] != offsets.shape[0]:
                raise DimensionMismatchError("normals/offsets length mismatch")
            norms = np.linalg.norm(normals, axis=1)
            if np.any(norms < 1e-14):
                raise ValueError("zero halfspace normal")
            # Rows already unit to a few ulp stay as given, so a body rebuilt
            # from its own halfspaces (a JSON round trip) keeps every bit.
            norms[np.abs(norms - 1.0) <= 4 * np.finfo(float).eps] = 1.0
            self.normals = normals / norms[:, None]
            self.offsets = offsets / norms
        self._chebyshev = None
        self._vertices = None
        self._simplices = None
        self._simplex_volumes = None
        if ball_center is None:
            if self.normals.shape[0] == 0:
                raise ValueError("a body needs halfspaces or a ball")
            verts = self.vertices()
            lows, highs = verts.min(axis=0), verts.max(axis=0)
            self.ball_center = 0.5 * (lows + highs)
            self.ball_radius = 0.5 * float(np.linalg.norm(highs - lows)) * (1 + 1e-9) + 1e-15
        else:
            self.ball_center = np.atleast_1d(np.asarray(ball_center, dtype=float))
            if self.ball_center.shape[0] != self.dimension:
                raise DimensionMismatchError("ball center has wrong dimension")
            self.ball_radius = float(ball_radius)
            if self.ball_radius <= 0:
                raise ValueError("ball radius must be positive")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def box(lows, highs) -> "ConvexBody":
        lows = np.atleast_1d(np.asarray(lows, dtype=float))
        highs = np.atleast_1d(np.asarray(highs, dtype=float))
        if lows.shape != highs.shape or np.any(highs <= lows):
            raise ValueError("box needs lows < highs")
        n = lows.size
        eye = np.eye(n)
        normals = np.vstack([eye, -eye])
        offsets = np.concatenate([highs, -lows])
        center = 0.5 * (lows + highs)
        radius = 0.5 * float(np.linalg.norm(highs - lows)) * (1 + 1e-12) + 1e-15
        return ConvexBody(n, normals, offsets, center, radius)

    @staticmethod
    def interval(lo: float, hi: float) -> "ConvexBody":
        return ConvexBody.box([lo], [hi])

    @staticmethod
    def ball(center, radius: float) -> "ConvexBody":
        center = np.atleast_1d(np.asarray(center, dtype=float))
        return ConvexBody(center.size, None, None, center, float(radius))

    @staticmethod
    def regular_polygon(sides: int, radius: float = 1.0, center=(0.0, 0.0)) -> "ConvexBody":
        """2-D regular polygon given by its supporting halfspaces."""
        center = np.asarray(center, dtype=float)
        angles = 2 * np.pi * np.arange(sides) / sides
        normals = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        apothem = radius * math.cos(math.pi / sides)
        offsets = apothem + normals @ center
        return ConvexBody(2, normals, offsets, center, radius * (1 + 1e-12))

    # -- basic predicates ----------------------------------------------------

    def contains(self, points, tol: float = 1e-9):
        """Membership test; accepts a single point or a batch of rows."""
        points = np.asarray(points, dtype=float)
        single = points.ndim == 1
        pts = np.atleast_2d(points)
        if pts.shape[1] != self.dimension:
            raise DimensionMismatchError("point dimension mismatch")
        ok = np.ones(pts.shape[0], dtype=bool)
        if self.normals.shape[0]:
            ok &= np.all(pts @ self.normals.T <= self.offsets + tol, axis=1)
        ok &= np.linalg.norm(pts - self.ball_center, axis=1) <= self.ball_radius + tol
        return bool(ok[0]) if single else ok

    @property
    def has_halfspaces(self) -> bool:
        return self.normals.shape[0] > 0

    def _chebyshev_lp(self, center_bounds):
        """Largest ball inside the halfspaces with its centre in ``center_bounds``.

        Returns (centre, radius), or None when the radius is unbounded; raises
        ``InfeasibleBodyError`` when the halfspaces are empty.
        """
        n = self.dimension
        # maximize r subject to a_i . c + r <= b_i (normals are unit rows).
        c_obj = np.zeros(n + 1)
        c_obj[-1] = -1.0
        A = np.hstack([self.normals, np.ones((self.normals.shape[0], 1))])
        res = linprog(c_obj, A_ub=A, b_ub=self.offsets,
                      bounds=list(center_bounds) + [(0, None)], method="highs")
        if res.status == 3:
            return None
        if not res.success:
            raise InfeasibleBodyError("halfspace polytope is empty")
        return res.x[:n], float(res.x[n])

    def _chebyshev_ball(self):
        """Chebyshev ball of the halfspaces alone (one LP, cached), or None
        when they leave it unbounded."""
        if self._chebyshev is None:
            self._chebyshev = self._chebyshev_lp([(None, None)] * self.dimension)
        return self._chebyshev

    def vertices(self) -> np.ndarray:
        """Vertices of the halfspace polytope, computed once; shape (k, n).

        They are the body's vertices when ``ball_is_redundant()``. Raises
        ``InfeasibleBodyError`` when the polytope is empty, unbounded or flat.
        """
        if not self.has_halfspaces:
            raise ValueError("a pure ball has no vertices")
        if self._vertices is not None:
            return self._vertices
        if self.dimension == 1:  # the tightest upper and lower offsets
            ends = self.offsets / self.normals[:, 0]
            upper, lower = ends[self.normals[:, 0] > 0], ends[self.normals[:, 0] < 0]
            if upper.size == 0 or lower.size == 0:
                raise InfeasibleBodyError("halfspace polytope is unbounded")
            if lower.max() > upper.min():
                raise InfeasibleBodyError("halfspace polytope is empty")
            self._vertices = np.array([[lower.max()], [upper.min()]])
            return self._vertices
        ball = self._chebyshev_ball()
        if ball is None:
            raise InfeasibleBodyError("halfspace polytope is unbounded")
        halfspaces = np.hstack([self.normals, -self.offsets[:, None]])
        try:
            with np.errstate(divide="ignore", invalid="ignore"):
                verts = HalfspaceIntersection(halfspaces, ball[0]).intersections
        except QhullError as exc:  # too few halfspaces, or a flat polytope
            raise InfeasibleBodyError(
                f"qhull found no vertices: {str(exc).splitlines()[0]}") from exc
        if not np.all(np.isfinite(verts)):
            raise InfeasibleBodyError("halfspace polytope is unbounded")
        self._vertices = verts
        return verts

    def ball_is_redundant(self) -> bool:
        """True when the halfspaces alone already define the body."""
        if not self.has_halfspaces:
            return False
        try:
            verts = self.vertices()
        except InfeasibleBodyError:
            return False
        return bool(np.linalg.norm(verts - self.ball_center, axis=1).max()
                    <= self.ball_radius + 1e-6)

    def bounding_box(self):
        """Axis-aligned bounds (lows, highs): the ball's box clipped to the vertices'."""
        lows = self.ball_center - self.ball_radius
        highs = self.ball_center + self.ball_radius
        if self.has_halfspaces:
            try:
                verts = self.vertices()
            except InfeasibleBodyError:  # unbounded halfspaces: the ball bounds the body
                return lows, highs
            lows = np.maximum(lows, verts.min(axis=0))
            highs = np.minimum(highs, verts.max(axis=0))
        return lows, highs

    def interval_bounds(self) -> tuple[float, float]:
        if self.dimension != 1:
            raise DimensionMismatchError("interval_bounds needs dimension 1")
        lo, hi = self.bounding_box()
        return float(lo[0]), float(hi[0])

    # -- inscribed ball ------------------------------------------------------

    def largest_inscribed_ball(self) -> tuple[np.ndarray, float]:
        """Center and radius of a largest inscribed ball (Chebyshev center).

        Exact LP for polytopes; for bodies with an active ball constraint the
        ball is handled by a convex refinement step. When the halfspaces alone
        are unbounded, the LP confines the centre to the ball's bounding box.
        """
        n = self.dimension
        if not self.has_halfspaces:
            return self.ball_center.copy(), self.ball_radius
        ball = self._chebyshev_ball()
        if ball is None:
            ball = self._chebyshev_lp(zip(self.ball_center - self.ball_radius,
                                          self.ball_center + self.ball_radius))
        center, radius = ball
        center = center.copy()
        # Shrink against the bounding ball when it actually cuts the polytope.
        if np.linalg.norm(center - self.ball_center) + radius <= self.ball_radius + 1e-9:
            return center, radius

        def neg_r(z):
            return -z[n]

        cons = [{"type": "ineq",
                 "fun": lambda z, a=self.normals[i], b=self.offsets[i]: b - a @ z[:n] - z[n]}
                for i in range(self.normals.shape[0])]
        cons.append({"type": "ineq",
                     "fun": lambda z: (self.ball_radius - z[n])
                     - np.linalg.norm(z[:n] - self.ball_center)})
        start = np.concatenate([np.clip(center, self.ball_center - 0.5 * self.ball_radius,
                                        self.ball_center + 0.5 * self.ball_radius), [0.0]])
        sol = minimize(neg_r, start, method="SLSQP", constraints=cons,
                       options={"maxiter": 200, "ftol": 1e-12})
        if not sol.success or sol.x[n] <= 0:
            raise InfeasibleBodyError("no inscribed ball found inside ball constraint")
        return sol.x[:n], float(sol.x[n])

    # -- support function ----------------------------------------------------

    def support_point(self, direction) -> tuple[float, np.ndarray]:
        """sup over the body of <direction, x> together with a maximizer."""
        d = np.atleast_1d(np.asarray(direction, dtype=float))
        if d.shape[0] != self.dimension:
            raise DimensionMismatchError("direction dimension mismatch")
        nd = np.linalg.norm(d)
        if nd < 1e-14:
            raise ValueError("zero direction")
        if not self.has_halfspaces:
            point = self.ball_center + self.ball_radius * d / nd
            return float(d @ point), point
        if self.ball_is_redundant():
            verts = self.vertices()
            values = verts @ d
            k = int(np.argmax(values))
            return float(values[k]), verts[k].copy()
        lo = self.ball_center - self.ball_radius
        hi = self.ball_center + self.ball_radius
        res = linprog(-d, A_ub=self.normals, b_ub=self.offsets,
                      bounds=list(zip(lo, hi)), method="highs")
        if not res.success:
            raise InfeasibleBodyError("support LP infeasible")
        x = res.x
        if np.linalg.norm(x - self.ball_center) <= self.ball_radius + 1e-9:
            return float(d @ x), x
        # The bounding ball is active: polish inside the true feasible set.
        cons = [{"type": "ineq",
                 "fun": lambda z, a=self.normals[i], b=self.offsets[i]: b - a @ z}
                for i in range(self.normals.shape[0])]
        cons.append({"type": "ineq",
                     "fun": lambda z: self.ball_radius ** 2
                     - float((z - self.ball_center) @ (z - self.ball_center))})
        start = self.ball_center + (x - self.ball_center) * (
            self.ball_radius / max(np.linalg.norm(x - self.ball_center), 1e-12)) * (1 - 1e-9)
        if not self.contains(start, tol=1e-7):
            start, _ = self.largest_inscribed_ball()
        sol = minimize(lambda z: -float(d @ z), start, method="SLSQP",
                       constraints=cons, options={"maxiter": 200, "ftol": 1e-12})
        x = sol.x if sol.success else start
        return float(d @ x), x

    def support_function(self, direction) -> float:
        return self.support_point(direction)[0]

    def _is_box(self):
        """Per-axis (lows, highs) when every normal is +-e_i, else None."""
        if not self.has_halfspaces:
            return None
        n = self.dimension
        lows = np.full(n, -np.inf)
        highs = np.full(n, np.inf)
        for a, b in zip(self.normals, self.offsets):
            axis = np.argmax(np.abs(a))
            rest = np.abs(a).sum() - abs(a[axis])
            if rest > 1e-12 or abs(abs(a[axis]) - 1.0) > 1e-12:
                return None
            if a[axis] > 0:
                highs[axis] = min(highs[axis], b)
            else:
                lows[axis] = max(lows[axis], -b)
        if np.any(~np.isfinite(lows)) or np.any(~np.isfinite(highs)):
            return None
        if np.any(highs <= lows):
            return None
        return lows, highs

    # -- chords and sampling ----------------------------------------------------

    def chord_bounds(self, points: np.ndarray, directions: np.ndarray):
        """Parameter range [t_lo, t_hi] with points + t*direction inside the body.

        ``points`` is (m, n); ``directions`` is a shared unit vector (n,) or
        per-row unit vectors (m, n). Infeasible points yield empty (clipped to
        zero-length) ranges at t = 0.
        """
        X = np.atleast_2d(np.asarray(points, dtype=float))
        D = np.asarray(directions, dtype=float)
        if D.ndim == 1:
            D = np.broadcast_to(D, X.shape)
        m = X.shape[0]
        t_lo = np.full(m, -np.inf)
        t_hi = np.full(m, np.inf)
        if self.has_halfspaces:
            ad = D @ self.normals.T
            slack = self.offsets[None, :] - X @ self.normals.T
            pos = ad > 1e-14
            neg = ad < -1e-14
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = slack / ad
            t_hi = np.minimum(t_hi, np.where(pos, ratios, np.inf).min(axis=1))
            t_lo = np.maximum(t_lo, np.where(neg, ratios, -np.inf).max(axis=1))
        diff = X - self.ball_center
        mid = np.einsum("ij,ij->i", D, diff)
        disc = np.clip(mid ** 2 - (np.einsum("ij,ij->i", diff, diff)
                                   - self.ball_radius ** 2), 0.0, None)
        root = np.sqrt(disc)
        t_lo = np.maximum(t_lo, -mid - root)
        t_hi = np.minimum(t_hi, -mid + root)
        return np.minimum(t_lo, t_hi), t_hi

    def sample_uniform(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """m (approximately) uniform points, shape (m, n).

        Boxes, balls and polytopes whose ball is redundant are sampled
        exactly: a polytope picks a simplex of its decomposition in proportion
        to volume, then Dirichlet(1) barycentric weights. Bodies whose ball is
        active use multi-chain hit-and-run with burn-in 50n and thinning n.
        """
        if m <= 0:
            raise ValueError("m must be positive")
        n = self.dimension
        box = self._is_box()
        if box is not None and self.ball_is_redundant():
            lows, highs = box
            return rng.uniform(lows, highs, size=(m, n))
        if not self.has_halfspaces:
            return sample_ball(self.ball_center, self.ball_radius, m, rng)
        if self.ball_is_redundant():
            simplices, volumes = self._decomposition()
            picks = rng.choice(len(volumes), size=m, p=volumes / volumes.sum())
            weights = rng.dirichlet(np.ones(n + 1), size=m)
            return np.einsum("mv,mvi->mi", weights, simplices[picks])
        return self._hit_and_run(m, rng)

    def _hit_and_run(self, m, rng):
        n = self.dimension
        burn_in, thinning = 50 * n, n
        start, radius = self.largest_inscribed_ball()
        if radius < 1e-12:
            warnings.warn("body has empty interior; sampling along its flat subspace")
        if not self.contains(start, tol=1e-7):
            raise InfeasibleBodyError("no feasible starting point for hit-and-run")
        chains = min(m, 64)
        X = np.tile(start, (chains, 1))
        per_chain = math.ceil(m / chains)
        out = np.empty((chains * per_chain, n))
        filled = 0
        total_steps = burn_in + per_chain * thinning
        for step in range(total_steps):
            D = rng.standard_normal((chains, n))
            D /= np.linalg.norm(D, axis=1, keepdims=True)
            t_lo, t_hi = self.chord_bounds(X, D)
            t_lo = np.minimum(t_lo, 0.0)
            t_hi = np.maximum(t_hi, 0.0)
            X = X + (t_lo + (t_hi - t_lo) * rng.uniform(size=chains))[:, None] * D
            if step >= burn_in and (step - burn_in) % thinning == thinning - 1:
                out[filled:filled + chains] = X
                filled += chains
        return out[rng.permutation(filled)[:m]]

    # -- volumes, moments and whitening ------------------------------------------

    def _decomposition(self):
        """Simplices (k, n+1, n) that cone the polytope from its vertex mean,
        and their volumes (k,); computed once.

        They tile the body when ``ball_is_redundant()``. In 1-D the one
        simplex is the interval itself. Raises ``FlatBodyError`` when qhull
        finds the vertices flat.
        """
        if self._simplices is None:
            verts = self.vertices()
            n = self.dimension
            if n == 1:
                simplices = verts[None]
            else:
                try:
                    facets = verts[ConvexHull(verts).simplices]
                except QhullError as exc:
                    raise FlatBodyError(
                        f"polytope is flat: {str(exc).splitlines()[0]}") from exc
                apex = np.broadcast_to(verts.mean(axis=0), (len(facets), 1, n))
                simplices = np.concatenate([apex, facets], axis=1)
            edges = simplices[:, 1:] - simplices[:, :1]
            self._simplex_volumes = np.abs(np.linalg.det(edges)) / math.factorial(n)
            self._simplices = simplices
        return self._simplices, self._simplex_volumes

    def volume(self) -> float:
        """Exact volume of a polytope whose ball is redundant."""
        if not self.ball_is_redundant():
            raise ValueError("volume needs a polytope with a redundant bounding ball")
        return float(self._decomposition()[1].sum())

    def estimate_moments(self, m: int | None = None,
                         rng: np.random.Generator | None = None) -> MomentEstimate:
        """Mean and centered covariance.

        Exact for polytopes whose ball is redundant, summed over the simplex
        decomposition (``m`` and ``rng`` are not used). Other bodies draw
        m >= 100 n^2 uniform points from ``rng``. Raises ``FlatBodyError``
        when the covariance is nearly singular.
        """
        n = self.dimension
        if self.ball_is_redundant():
            simplices, volumes = self._decomposition()
            # Moments about a point of the body: raw second moments of a body
            # far from the origin would cancel in the covariance.
            origin = simplices[0, 0]
            rel = simplices - origin
            w = volumes / volumes.sum()
            sums = rel.sum(axis=1)
            mean = w @ sums / (n + 1)
            # Per simplex E[x x^T] = (sum_i v_i v_i^T + s s^T) / ((n+1)(n+2)),
            # s = sum_i v_i; weighting by sqrt(w) keeps the sums symmetric.
            root = np.sqrt(w)
            points = (rel * root[:, None, None]).reshape(-1, n)
            sums = sums * root[:, None]
            second = (points.T @ points + sums.T @ sums) / ((n + 1) * (n + 2))
            cov = second - np.outer(mean, mean)
            mean = origin + mean
            stderr_scale = 0.0
        else:
            if m is None or rng is None:
                raise ValueError("sampled moments need a sample count and a generator")
            if m < 100 * n * n:
                raise ValueError(f"need at least {100 * n * n} samples for dimension {n}")
            samples = self.sample_uniform(m, rng)
            mean = samples.mean(axis=0)
            cov = np.cov(samples, rowvar=False, ddof=1).reshape(n, n)
            stderr_scale = 1.0 / math.sqrt(m)
        eigs = np.linalg.eigvalsh(cov)
        if eigs[0] < _EIG_FLOOR * max(eigs[-1], _EIG_FLOOR):
            raise FlatBodyError(
                f"covariance nearly singular (eigenvalues {eigs.min():.3e}..{eigs.max():.3e})")
        return MomentEstimate(mean, cov, stderr_scale)


def whitening_map(moments: MomentEstimate) -> AffineMap:
    """Symmetric inverse square root of the covariance, centering the image.

    Eigenvalues are floored at 1e-9 (with a warning) so the map stays finite
    on nearly flat bodies.
    """
    lam, vec = np.linalg.eigh(moments.covariance)
    if np.any(lam < _EIG_FLOOR):
        warnings.warn("covariance eigenvalue floored at 1e-9 in whitening_map")
    lam = np.clip(lam, _EIG_FLOOR, None)
    q = (vec * (1.0 / np.sqrt(lam))) @ vec.T
    return AffineMap(q, -q @ moments.mean)


def slab(body: ConvexBody, theta, half_width: float = 0.25, center=None) -> ConvexBody:
    """body intersected with {x : |<theta, x - center>| <= half_width}."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    nt = np.linalg.norm(theta)
    if nt < 1e-14:
        raise ValueError("zero slab direction")
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    theta = theta / nt
    shift = 0.0 if center is None else float(theta @ np.asarray(center, dtype=float))
    normals = np.vstack([body.normals, theta, -theta])
    offsets = np.concatenate([body.offsets, [half_width + shift, half_width - shift]])
    return ConvexBody(body.dimension, normals, offsets, body.ball_center, body.ball_radius)


def affine_image(body: ConvexBody, amap: AffineMap) -> ConvexBody:
    """Image of a polytope under an invertible affine map.

    Requires the bounding ball to be redundant: the transformed ball is only a
    certificate, so an active ball would change the body. The image inherits
    the mapped vertex list instead of recomputing it.
    """
    if amap.dim_in != body.dimension or amap.dim_out != body.dimension:
        raise DimensionMismatchError("affine_image needs a square map of matching dimension")
    if not body.has_halfspaces or not body.ball_is_redundant():
        raise ValueError("affine_image requires halfspaces with a redundant bounding ball")
    minv = np.linalg.inv(amap.matrix)
    normals = body.normals @ minv
    offsets = body.offsets + normals @ amap.offset
    center = amap(body.ball_center)
    radius = body.ball_radius * float(np.linalg.norm(amap.matrix, 2)) * (1 + 1e-12)
    image = ConvexBody(body.dimension, normals, offsets, center, radius)
    image._vertices = amap(body.vertices())
    return image


def volume_ratio(inner: ConvexBody, outer: ConvexBody, m: int | None = None,
                 rng: np.random.Generator | None = None) -> tuple[float, float, float]:
    """Vol(inner)/Vol(outer) for inner contained in outer, with a Wilson CI.

    Exact, as (r, r, r), when both are polytopes whose balls are redundant:
    containment is checked on every vertex of ``inner`` (``m`` and ``rng``
    are not used). Otherwise ``m`` draws of ``outer`` are counted and
    containment is spot-checked on draws of ``inner``.
    """
    if inner.dimension != outer.dimension:
        raise DimensionMismatchError("bodies live in different dimensions")
    if inner.ball_is_redundant() and outer.ball_is_redundant():
        if not np.all(outer.contains(inner.vertices(), tol=1e-7)):
            raise ValueError("inner body is not contained in outer body")
        ratio = inner.volume() / outer.volume()
        return ratio, ratio, ratio
    if m is None or rng is None:
        raise ValueError("a sampled volume ratio needs a sample count and a generator")
    if m <= 0:
        raise ValueError("m must be positive")
    check = inner.sample_uniform(min(m, 256), rng)
    if not np.all(outer.contains(check, tol=1e-7)):
        raise ValueError("inner body is not contained in outer body")
    samples = outer.sample_uniform(m, rng)
    hits = int(inner.contains(samples).sum())
    low, high = wilson_interval(hits, m)
    return hits / m, low, high


def thinnest_slab(body: ConvexBody) -> tuple[np.ndarray, float]:
    """Unit direction minimizing max |<u, x>| over the body, with that half-width.

    The slab is centered at the origin, which must belong to the body for the
    result to certify a two-sided width. Exact for polytopes: the half-width
    is the in-radius of the symmetric hull conv(V, -V) of the vertices, and
    the direction is the normal of its nearest facet.
    """
    if body.dimension == 1:
        lo, hi = body.interval_bounds()
        return np.array([1.0]), max(abs(lo), abs(hi))
    if not body.ball_is_redundant():
        raise ValueError("thinnest_slab needs a polytope with a redundant bounding ball")
    verts = body.vertices()
    equations = ConvexHull(np.vstack([verts, -verts])).equations
    k = int(np.argmax(equations[:, -1]))  # offsets are minus the facet distances
    return equations[k, :-1].copy(), float(-equations[k, -1])
