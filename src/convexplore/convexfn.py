"""Max-affine convex functions with an optional quadratic term.

The representation is ``f(x) = max_j (a_j + <y_j, x>) + xᵀHx``, the PSD
form H stored once as ``form`` (``None`` for a piecewise-linear f), so
affine composition and sums stay exact. Values and subgradients are exact;
the subgradient tie rule is "lowest piece index". Minimisers over a polytope
are exact too: ``argmin`` solves one epigraph LP or convex QP through
``_highs``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _highs
from .errors import ConfigError, DimensionMismatchError, InfeasibleBodyError
from .geometry import AffineMap, ConvexBody, sample_ball


@dataclass(frozen=True)
class GradientEstimate:
    """Monte Carlo average of subgradients over a ball."""

    vector: np.ndarray
    radius: float
    count: int


class MaxAffineFunction:
    """max of affine pieces plus the quadratic form xᵀ·form·x.

    ``eta`` and ``quad`` only build the form, H = eta·I + sym(quad); it is
    read-only, or ``None`` when both are absent.
    """

    def __init__(self, offsets, slopes, eta: float = 0.0, quad=None):
        offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
        slopes = np.atleast_2d(np.asarray(slopes, dtype=float))
        if slopes.shape[0] != offsets.shape[0]:
            raise DimensionMismatchError("offsets/slopes length mismatch")
        if offsets.shape[0] == 0:
            raise ValueError("need at least one affine piece")
        if not all(np.isfinite(v).all() for v in (offsets, slopes, float(eta),
                                                  0.0 if quad is None else quad)):
            raise ValueError("offsets, slopes, eta and quad must be finite")
        if eta < 0:
            raise ValueError("eta must be >= 0")
        self.offsets = offsets
        self.slopes = slopes
        self.dimension = n = slopes.shape[1]
        h = np.zeros((n, n)) if eta or quad is not None else None
        if eta:
            h += float(eta) * np.eye(n)
        if quad is not None:
            quad = np.asarray(quad, dtype=float)
            if quad.shape != (n, n):
                raise DimensionMismatchError("quad matrix has wrong shape")
            quad = 0.5 * (quad + quad.T)
            if np.linalg.eigvalsh(quad)[0] < -1e-10:
                raise ValueError("quad matrix must be PSD")
            h += quad
        if h is not None:
            h.flags.writeable = False
        self.form = h

    @property
    def piece_count(self) -> int:
        return self.offsets.shape[0]

    def _piece_table(self, pts: np.ndarray) -> np.ndarray:
        """p × m table of every affine piece at every row of ``pts``.

        Piece-major, so reducing over pieces runs p passes over contiguous
        rows of length m instead of m short reductions. In 1-D each entry
        of the matmul is one product, added to +0.0: the outer product has
        its bits once the +0.0 moves onto the offset (a -0.0 product plus
        a -0.0 offset must read +0.0), at a fraction of the BLAS call's cost.
        """
        if self.dimension == 1:
            lin = self.slopes * pts.T
            lin += (self.offsets + 0.0)[:, None]
            return lin
        lin = self.slopes @ pts.T
        lin += self.offsets[:, None]
        return lin

    # -- evaluation ------------------------------------------------------------

    def value(self, x) -> float | np.ndarray:
        """f(x); accepts a point or a batch of rows."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        if pts.shape[1] != self.dimension:
            raise DimensionMismatchError("point dimension mismatch")
        vals = np.maximum.reduce(self._piece_table(pts), axis=0)
        h = self.form
        if h is not None:
            vals = vals + np.einsum("ij,jk,ik->i", pts, h, pts)
        return float(vals[0]) if single else vals

    def __call__(self, x):
        return self.value(x)

    def subgradients(self, pts: np.ndarray) -> np.ndarray:
        """Batch subgradients, one row per input row."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[1] != self.dimension:
            raise DimensionMismatchError("point dimension mismatch")
        _, active = top_pieces(self._piece_table(pts))
        g = self.slopes.take(active, axis=0)
        h = self.form
        if h is not None:
            g = g + 2.0 * pts @ h
        return g

    @functools.cached_property
    def form_norm(self) -> float:
        """|form|₂ (an SVD, computed at first use), 0.0 without a form."""
        return 0.0 if self.form is None else float(np.linalg.norm(self.form, 2))

    @functools.cached_property
    def _slope_norm(self) -> float:
        return float(np.linalg.norm(self.slopes, axis=1).max())

    def lipschitz_bound(self, radius: float) -> float:
        """Upper bound on |subgradient| over the ball of the given radius.

        The slope and form norms it reads are computed at the first call
        and kept, so the pieces must not change after it.
        """
        bound = self._slope_norm
        if self.form is not None:
            bound += 2.0 * self.form_norm * radius
        return bound

    # -- calculus ---------------------------------------------------------------

    def compose_affine(self, amap: AffineMap) -> "MaxAffineFunction":
        """Exact representation of x -> f(M x + o)."""
        if amap.dim_out != self.dimension:
            raise DimensionMismatchError("map output dimension mismatch")
        m, o = amap.matrix, amap.offset
        offsets = self.offsets + self.slopes @ o
        slopes = self.slopes @ m
        h = self.form
        if h is None:
            return MaxAffineFunction(offsets, slopes)
        offsets = offsets + float(o @ h @ o)
        slopes = slopes + 2.0 * (o @ h @ m)[None, :]
        return MaxAffineFunction(offsets, slopes, quad=m.T @ h @ m)

    def translate(self, shift) -> "MaxAffineFunction":
        """x -> f(x + shift)."""
        shift = np.atleast_1d(np.asarray(shift, dtype=float))
        return self.compose_affine(AffineMap(np.eye(shift.size), shift))

    def add_constant(self, c: float) -> "MaxAffineFunction":
        return MaxAffineFunction(self.offsets + c, self.slopes, quad=self.form)


def top_pieces(lin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's maximum over a (pieces, points) table, and the lowest
    piece attaining it (argmax's tie rule), marked from the last piece down
    in passes over contiguous rows."""
    best = np.maximum.reduce(lin, axis=0)
    top = np.zeros(lin.shape[1], dtype=np.intp)
    for j in range(lin.shape[0] - 1, -1, -1):
        np.putmask(top, lin[j] == best, j)
    return best, top


def sum_functions(f: MaxAffineFunction, g: MaxAffineFunction) -> MaxAffineFunction:
    """Exact f + g; affine pieces cross-sum, so piece counts multiply."""
    if f.dimension != g.dimension:
        raise DimensionMismatchError("summands live in different dimensions")
    offsets = (f.offsets[:, None] + g.offsets[None, :]).ravel()
    slopes = (f.slopes[:, None, :] + g.slopes[None, :, :]).reshape(-1, f.dimension)
    forms = [h for h in (f.form, g.form) if h is not None]
    return MaxAffineFunction(offsets, slopes, quad=sum(forms) if forms else None)


def smoothed_gradient(f: MaxAffineFunction, x, delta: float, m: int,
                      rng: np.random.Generator) -> GradientEstimate:
    """Average subgradient over the uniform ball B(x, delta)."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if m < 2:
        raise ValueError("need at least 2 samples")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    pts = sample_ball(x, delta, m, rng)
    return GradientEstimate(f.subgradients(pts).mean(axis=0), delta, m)


def argmin(f: MaxAffineFunction, body: ConvexBody) -> np.ndarray:
    """Exact minimiser of f over a polytope, from one epigraph model over
    (x, t): minimise t + xᵀHx subject to a_j + y_j·x <= t for every piece
    and the body's halfspaces, H being f's quadratic form.

    With a quadratic term it is a convex QP. A piecewise-linear f makes it
    an LP whose optimal face can be an edge or facet; a sweep then takes
    the face's lexicographically smallest point, one axis at a time. A 1-D
    body is read as its exact interval; an n >= 2 body must be a polytope
    whose ball is redundant, or ``ConfigError`` is raised. A failed solve
    raises ``InfeasibleBodyError``.
    """
    if f.dimension != body.dimension:
        raise DimensionMismatchError("function/body dimension mismatch")
    n = f.dimension
    if n == 1:
        lo, hi = body.interval_bounds()
        normals, offsets = np.array([[1.0], [-1.0]]), np.array([hi, -lo])
    elif body.has_halfspaces and body.ball_is_redundant():
        normals, offsets = body.normals, body.offsets
    else:
        raise ConfigError("argmin needs a polytope whose bounding ball is redundant")
    a_ub = np.vstack([np.hstack([f.slopes, -np.ones((f.piece_count, 1))]),
                      np.hstack([normals, np.zeros((normals.shape[0], 1))])])
    b_ub = np.concatenate([-f.offsets, offsets])
    c = np.zeros(n + 1)
    c[-1] = 1.0
    h = f.form
    if h is not None:
        q = np.zeros((n + 1, n + 1))
        q[:n, :n] = 2.0 * h
        status, z = _highs.solve(c, a_ub, b_ub, hessian=q)
        if status != _highs.OPTIMAL:
            raise InfeasibleBodyError(f"argmin QP {status}")
        return z[:n]
    status, z = _highs.solve(c, a_ub, b_ub)
    if status != _highs.OPTIMAL:
        raise InfeasibleBodyError(f"argmin LP {status}")
    t_star = z[-1]
    face_slack = 1e-9 * max(1.0, abs(t_star))
    # Lexicographic sweep over the optimal face {f <= t*}, one axis at a time.
    x = z[:n]
    upper = np.full(n + 1, np.inf)
    upper[-1] = t_star + face_slack
    for axis in range(n):
        c_axis = np.zeros(n + 1)
        c_axis[axis] = 1.0
        status, z = _highs.solve(c_axis, a_ub, b_ub, upper=upper)
        if status != _highs.OPTIMAL:
            break
        x = z[:n]
        row = np.zeros(n + 1)
        row[axis] = 1.0
        a_ub = np.vstack([a_ub, row])
        b_ub = np.append(b_ub, z[axis] + 1e-10)
    return x
