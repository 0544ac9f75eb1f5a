"""Convex bodies: membership, sampling, moments, whitening, certificates.

A body is an intersection of halfspaces plus a bounding ball; the ball is part
of the membership test, so a ball with no halfspaces is a valid body (a disk).
Uniform draws take an explicit ``numpy.random.Generator``.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _highs
from .errors import DimensionMismatchError, FlatBodyError, InfeasibleBodyError

_EIG_FLOOR = 1e-9
_MAX_PROPOSALS_PER_POINT = 1000
# Adding a length-n row to an (m, n) batch runs m inner loops of length n;
# from about this many rows, n column adds (same bits) are faster.
_COLUMNWISE_ROWS = 256


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
        out = x @ self.matrix.T
        if out.shape[0] < _COLUMNWISE_ROWS:
            out += self.offset
        else:
            for j, o in enumerate(self.offset):
                out[:, j] += o
        return out

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


def sample_ball(center, radius: float, m: int, rng: np.random.Generator) -> np.ndarray:
    """m uniform points of the ball B(center, radius), shape (m, n)."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    return ball_points(center, radius, rng.standard_normal((m, center.size)),
                       rng.random(m))


def ball_points(center, radius: float, u: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Points of B(center, radius) from normal rows u and uniforms r: each
    row's direction u/|u| scaled by radius·r^(1/n). ``center`` may hold one
    centre per row."""
    x = u / row_norms(u)[:, None]
    x *= (radius * r ** (1.0 / u.shape[1]))[:, None]
    x += center
    return x


def row_norms(u: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(u, axis=-1)`` bit for bit, summing the squares
    column by column in its order instead of reducing each row."""
    return np.sqrt(row_dots(u, u))


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of ``a`` with ``b`` (one vector, or one per
    row), the products summed column by column in index order: a row's bits
    depend on its own entries only, never on how many rows share its batch."""
    out = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        out += a[..., j] * b[..., j]
    return out


@dataclass(frozen=True)
class MomentEstimate:
    """Exact mean and centered covariance of a body's uniform measure."""

    mean: np.ndarray
    covariance: np.ndarray


class ConvexBody:
    """Halfspace intersection clipped to a bounding ball.

    Polytope queries (bounds, support, ball redundancy, thinnest slab) read
    one vertex list, computed once per body by qhull from a point known to
    be inside (``slab``'s ``inside``) or the halfspaces' Chebyshev centre.
    Volumes, moments and uniform draws of a polytope whose ball is redundant
    read one simplex decomposition of that list, also computed once. An
    ``affine_image`` inherits both.
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
        self._inside = None     # a point inside the halfspaces, seeds qhull
        self._vertices = None
        self._redundant = None
        self._simplices = None
        self._simplex_volumes = None
        if ball_center is None:
            if self.normals.shape[0] == 0:
                raise ValueError("a body needs halfspaces or a ball")
            ball_center, ball_radius = _bounding_ball(self.vertices())
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
    def hull(points) -> "ConvexBody":
        """conv(points), in dimension 2 or more, from one qhull hull: its
        facets are the halfspaces and its vertices the vertex list, so no LP
        or halfspace intersection runs. Raises ``FlatBodyError`` when qhull
        finds the points flat."""
        qhull = _qhull()
        try:
            hull = qhull.ConvexHull(points)
        except qhull.QhullError as exc:
            raise FlatBodyError(
                f"hull is flat: {str(exc).splitlines()[0]}") from exc
        verts = hull.points[hull.vertices]
        body = ConvexBody(verts.shape[1], hull.equations[:, :-1],
                          -hull.equations[:, -1], *_bounding_ball(verts))
        body._vertices = verts
        return body

    @staticmethod
    def interval(lo: float, hi: float) -> "ConvexBody":
        return ConvexBody.box([lo], [hi])

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

    def _chebyshev_ball(self):
        """Chebyshev ball (centre, radius) of the halfspaces alone, or None
        when they leave it unbounded; one LP, cached with its outcome.

        Raises ``InfeasibleBodyError`` when the halfspaces are empty.
        """
        if self._chebyshev is None:
            n = self.dimension
            # maximize r subject to a_i . c + r <= b_i (normals are unit rows).
            c_obj = np.zeros(n + 1)
            c_obj[-1] = -1.0
            A = np.hstack([self.normals, np.ones((self.normals.shape[0], 1))])
            status, x = _highs.solve(c_obj, A, self.offsets,
                                     np.append(np.full(n, -np.inf), 0.0))
            if status == _highs.UNBOUNDED:
                self._chebyshev = _highs.UNBOUNDED
            elif status != _highs.OPTIMAL:
                raise InfeasibleBodyError("halfspace polytope is empty")
            else:
                self._chebyshev = x[:n], float(x[n])
        return None if self._chebyshev is _highs.UNBOUNDED else self._chebyshev

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
        ball = self._chebyshev_ball() if self._inside is None else (self._inside, 0.0)
        if ball is None:
            raise InfeasibleBodyError("halfspace polytope is unbounded")
        halfspaces = np.hstack([self.normals, -self.offsets[:, None]])
        qhull = _qhull()
        try:
            with np.errstate(divide="ignore", invalid="ignore"):
                verts = qhull.HalfspaceIntersection(halfspaces, ball[0]).intersections
        except qhull.QhullError as exc:  # too few halfspaces, or a flat polytope
            raise InfeasibleBodyError(
                f"qhull found no vertices: {str(exc).splitlines()[0]}") from exc
        if not np.all(np.isfinite(verts)):
            raise InfeasibleBodyError("halfspace polytope is unbounded")
        self._vertices = verts
        return verts

    def ball_is_redundant(self) -> bool:
        """True when the halfspaces alone already define the body; computed
        once, like the vertex list it reads."""
        if self._redundant is None:
            self._redundant = False
            if self.has_halfspaces:
                try:
                    verts = self.vertices()
                except InfeasibleBodyError:
                    return False
                self._redundant = bool(
                    np.linalg.norm(verts - self.ball_center, axis=1).max()
                    <= self.ball_radius + 1e-6)
        return self._redundant

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
        """Exact ends of a 1-D body: the ball's interval clipped by every
        one-sided halfspace bound. Raises ``InfeasibleBodyError`` when empty."""
        if self.dimension != 1:
            raise DimensionMismatchError("interval_bounds needs dimension 1")
        ends = self.offsets / self.normals[:, 0]
        upper = self.normals[:, 0] > 0
        lo = np.max(ends[~upper], initial=self.ball_center[0] - self.ball_radius)
        hi = np.min(ends[upper], initial=self.ball_center[0] + self.ball_radius)
        if lo > hi:
            raise InfeasibleBodyError("interval is empty")
        return float(lo), float(hi)

    # -- inscribed ball ------------------------------------------------------

    def largest_inscribed_ball(self) -> tuple[np.ndarray, float]:
        """Center and radius of a largest inscribed ball (Chebyshev center).

        Defined for a pure ball and for a polytope whose Chebyshev ball fits
        inside the bounding ball (one cached LP); raises ``ValueError`` for
        any other body.
        """
        if not self.has_halfspaces:
            return self.ball_center.copy(), self.ball_radius
        ball = self._chebyshev_ball()
        if ball is not None:
            center, radius = ball
            if np.linalg.norm(center - self.ball_center) + radius <= self.ball_radius + 1e-9:
                return center.copy(), radius
        raise ValueError("inscribed ball needs a ball, or halfspaces whose "
                         "Chebyshev ball the bounding ball does not cut")

    # -- support function ----------------------------------------------------

    def support_point(self, direction) -> tuple[float, np.ndarray]:
        """sup over the body of <direction, x> together with a maximizer.

        Closed form for a pure ball; otherwise the best vertex of the
        polytope, which must lie in the bounding ball, or ``ValueError``.
        """
        d = np.atleast_1d(np.asarray(direction, dtype=float))
        if d.shape[0] != self.dimension:
            raise DimensionMismatchError("direction dimension mismatch")
        nd = np.linalg.norm(d)
        if nd < 1e-14:
            raise ValueError("zero direction")
        if not self.has_halfspaces:
            point = self.ball_center + self.ball_radius * d / nd
            return float(d @ point), point
        try:
            verts = self.vertices()
        except InfeasibleBodyError as exc:
            raise ValueError(f"support point needs a bounded polytope: {exc}") from exc
        values = verts @ d
        k = int(np.argmax(values))
        if np.linalg.norm(verts[k] - self.ball_center) > self.ball_radius + 1e-6:
            raise ValueError("the bounding ball cuts off the best vertex")
        return float(values[k]), verts[k].copy()

    def support_function(self, direction) -> float:
        return self.support_point(direction)[0]

    # -- chords and sampling ----------------------------------------------------

    def chord_bounds(self, points: np.ndarray, direction: np.ndarray):
        """Parameter range [t_lo, t_hi] with points + t*direction inside the body.

        ``points`` is (m, n) and ``direction`` one unit vector (n,) shared
        by every row. A line that misses the body yields the zero-length
        range (t_hi, t_hi), as does a line that touches it at one point;
        only membership of points + t_hi * direction tells them apart.
        Every dot product is a ``row_dots`` sum: a row's bits are its own.
        """
        X = np.atleast_2d(np.asarray(points, dtype=float))
        d = np.asarray(direction, dtype=float)
        if d.shape != (X.shape[1],):
            raise DimensionMismatchError("need one direction of the points' dimension")
        m = X.shape[0]
        t_lo = np.full(m, -np.inf)
        t_hi = np.full(m, np.inf)
        if self.has_halfspaces:
            miss = np.zeros(m, dtype=bool)
            for b, a, rate in zip(self.offsets, self.normals, row_dots(self.normals, d)):
                slack = row_dots(X, a)
                np.subtract(b, slack, out=slack)
                if rate > 1e-14:
                    np.minimum(t_hi, np.divide(slack, rate, out=slack), out=t_hi)
                elif rate < -1e-14:
                    np.maximum(t_lo, np.divide(slack, rate, out=slack), out=t_lo)
                else:   # parallel to the facet and outside it (past contains' tol)
                    miss |= slack < -1e-9
            t_lo[miss] = np.inf
        diff = np.empty_like(X)                 # X - ball_center
        for j, c in enumerate(self.ball_center):
            np.subtract(X[:, j], c, out=diff[:, j])
        mid = row_dots(diff, d)
        # disc = max(mid² - (|diff|² - r²), 0) and its root, in one array
        root = row_dots(diff, diff)
        root -= self.ball_radius ** 2
        np.subtract(mid * mid, root, out=root)
        np.sqrt(np.maximum(root, 0.0, out=root), out=root)
        np.negative(mid, out=mid)
        np.maximum(t_lo, mid - root, out=t_lo)
        np.minimum(t_hi, np.add(mid, root, out=root), out=t_hi)
        return np.minimum(t_lo, t_hi, out=t_lo), t_hi

    def sample_uniform(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """m independent uniform points, shape (m, n).

        Balls and polytopes whose ball is redundant are sampled directly, a
        polytope through its simplex decomposition; bodies whose ball is
        active are rejection-sampled.
        """
        if m <= 0:
            raise ValueError("m must be positive")
        if not self.has_halfspaces:
            return sample_ball(self.ball_center, self.ball_radius, m, rng)
        if self.ball_is_redundant():
            return self._sample_simplices(m, rng)
        return self._sample_rejection(m, rng)

    def _sample_rejection(self, m, rng):
        """Keeps the proposals inside the body, drawn from the smaller of the
        halfspace polytope and the ball; raises ``InfeasibleBodyError`` once
        proposals exceed 1000 m."""
        n = self.dimension
        ball_volume = math.pi ** (n / 2) / math.gamma(n / 2 + 1) * self.ball_radius ** n
        try:
            from_polytope = self._decomposition()[1].sum() < ball_volume
        except (InfeasibleBodyError, FlatBodyError):  # no bounded, solid polytope
            from_polytope = False
        kept, proposed = np.empty((0, n)), 0
        while len(kept) < m:
            if proposed >= _MAX_PROPOSALS_PER_POINT * m:
                raise InfeasibleBodyError(f"fewer than {m} of {proposed} proposals "
                                          "were inside: the body is flat or empty")
            batch = max(2 * (m - len(kept)), 1024)
            pts = (self._sample_simplices(batch, rng) if from_polytope
                   else sample_ball(self.ball_center, self.ball_radius, batch, rng))
            kept = np.vstack([kept, pts[self.contains(pts, tol=0.0)]])
            proposed += batch
        return kept[:m]

    def _sample_simplices(self, m, rng):
        """m uniform points of the halfspace polytope: a simplex of its
        decomposition picked by volume, then Dirichlet(1) weights; in 1-D,
        a + (b - a)·U on the one simplex [a, b], with no pick."""
        simplices, volumes = self._decomposition()
        if self.dimension == 1:
            a, b = simplices[0, :, 0]
            return (a + (b - a) * rng.random(m))[:, None]
        picks = rng.choice(len(volumes), size=m, p=volumes / volumes.sum())
        weights = rng.dirichlet(np.ones(self.dimension + 1), size=m)
        return np.einsum("mv,mvi->mi", weights, simplices[picks])

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
                qhull = _qhull()
                try:
                    facets = verts[qhull.ConvexHull(verts).simplices]
                except qhull.QhullError as exc:
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

    def estimate_moments(self) -> MomentEstimate:
        """Exact mean and centered covariance of a polytope whose ball is
        redundant, summed over the simplex decomposition.

        Raises ``ValueError`` for any other body, and ``FlatBodyError`` when
        the covariance is nearly singular.
        """
        if not self.ball_is_redundant():
            raise ValueError("moments need a polytope with a redundant bounding ball")
        n = self.dimension
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
        eigs = np.linalg.eigvalsh(cov)
        if eigs[0] < _EIG_FLOOR * max(eigs[-1], _EIG_FLOOR):
            raise FlatBodyError(
                f"covariance nearly singular (eigenvalues {eigs.min():.3e}..{eigs.max():.3e})")
        return MomentEstimate(mean, cov)


def _bounding_ball(verts: np.ndarray) -> tuple[np.ndarray, float]:
    """A ball about the vertices' bounding box, just wider than its corners."""
    lows, highs = verts.min(axis=0), verts.max(axis=0)
    return 0.5 * (lows + highs), 0.5 * float(np.linalg.norm(highs - lows)) * (1 + 1e-9) + 1e-15


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


def slab(body: ConvexBody, theta, half_width: float = 0.25, center=None,
         inside=None) -> ConvexBody:
    """body intersected with {x : |<theta, x - center>| <= half_width}; a point
    ``inside`` it, clear of every halfspace, seeds its vertex list (no LP)."""
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
    result = ConvexBody(body.dimension, normals, offsets, body.ball_center, body.ball_radius)
    result._inside = inside
    return result


def affine_image(body: ConvexBody, amap: AffineMap) -> ConvexBody:
    """Image of a polytope under an invertible affine map.

    Requires the bounding ball to be redundant: the transformed ball is only a
    certificate, so an active ball would change the body. The image inherits
    the mapped vertex list instead of recomputing it, and the mapped simplex
    decomposition, volumes scaled by |det A|, once the body has one.
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
    if body._simplices is not None:
        simplices = body._simplices
        image._simplices = amap(simplices.reshape(-1, body.dimension)).reshape(simplices.shape)
        image._simplex_volumes = body._simplex_volumes * abs(np.linalg.det(amap.matrix))
    return image


def volume_ratio(inner: ConvexBody, outer: ConvexBody) -> float:
    """Exact Vol(inner)/Vol(outer), for polytopes whose balls
    are redundant and with inner contained in outer.

    Containment is checked on every vertex of ``inner``. Raises
    ``ValueError`` for any other pair of bodies.
    """
    if inner.dimension != outer.dimension:
        raise DimensionMismatchError("bodies live in different dimensions")
    if not (inner.ball_is_redundant() and outer.ball_is_redundant()):
        raise ValueError("volume ratios need polytopes with redundant bounding balls")
    if not np.all(outer.contains(inner.vertices(), tol=1e-7)):
        raise ValueError("inner body is not contained in outer body")
    return inner.volume() / outer.volume()


def _qhull():
    import scipy.spatial  # at the first qhull call: 1-D work never makes one
    return scipy.spatial


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
    # qhull's facet rows [normal, offset], offset minus the facet's distance
    equations = _qhull().ConvexHull(np.vstack([verts, -verts])).equations
    k = int(np.argmax(equations[:, -1]))
    return equations[k, :-1].copy(), float(-equations[k, -1])
