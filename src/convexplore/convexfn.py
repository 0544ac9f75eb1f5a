"""Max-affine convex functions with an optional quadratic term.

The representation is ``f(x) = max_j (a_j + <y_j, x>) + eta |x|^2`` with an
internal generalization to a full PSD quadratic form so that affine
composition stays exact. Values and subgradients are exact; the subgradient
tie rule is "lowest piece index".
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, minimize

from .errors import DimensionMismatchError, InfeasibleBodyError
from .geometry import AffineMap, ConvexBody, sample_ball


@dataclass(frozen=True)
class GradientEstimate:
    """Monte Carlo average of subgradients over a ball."""

    vector: np.ndarray
    radius: float
    count: int

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))


class MaxAffineFunction:
    """max of affine pieces plus eta·|x|^2 (optionally a full PSD form)."""

    def __init__(self, offsets, slopes, eta: float = 0.0, quad=None):
        offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
        slopes = np.atleast_2d(np.asarray(slopes, dtype=float))
        if slopes.shape[0] != offsets.shape[0]:
            raise DimensionMismatchError("offsets/slopes length mismatch")
        if offsets.shape[0] == 0:
            raise ValueError("need at least one affine piece")
        if eta < 0:
            raise ValueError("eta must be >= 0")
        self.offsets = offsets
        self.slopes = slopes
        self.eta = float(eta)
        self.dimension = slopes.shape[1]
        if quad is not None:
            quad = np.asarray(quad, dtype=float)
            if quad.shape != (self.dimension, self.dimension):
                raise DimensionMismatchError("quad matrix has wrong shape")
            quad = 0.5 * (quad + quad.T)
            if np.linalg.eigvalsh(quad)[0] < -1e-10:
                raise ValueError("quad matrix must be PSD")
        self.quad = quad

    @property
    def piece_count(self) -> int:
        return self.offsets.shape[0]

    def _quad_matrix(self) -> np.ndarray | None:
        if self.eta == 0.0 and self.quad is None:
            return None
        h = np.zeros((self.dimension, self.dimension))
        if self.eta:
            h += self.eta * np.eye(self.dimension)
        if self.quad is not None:
            h += self.quad
        return h

    # -- evaluation ------------------------------------------------------------

    def value(self, x) -> float | np.ndarray:
        """f(x); accepts a point or a batch of rows."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        if pts.shape[1] != self.dimension:
            raise DimensionMismatchError("point dimension mismatch")
        vals = (self.offsets[None, :] + pts @ self.slopes.T).max(axis=1)
        h = self._quad_matrix()
        if h is not None:
            vals = vals + np.einsum("ij,jk,ik->i", pts, h, pts)
        return float(vals[0]) if single else vals

    def __call__(self, x):
        return self.value(x)

    def active_piece(self, x) -> int:
        x = np.asarray(x, dtype=float)
        return int(np.argmax(self.offsets + self.slopes @ x))

    def subgradient(self, x) -> np.ndarray:
        """Slope of the lowest-index active piece plus the quadratic gradient."""
        x = np.asarray(x, dtype=float)
        g = self.slopes[self.active_piece(x)].copy()
        h = self._quad_matrix()
        if h is not None:
            g += 2.0 * h @ x
        return g

    def subgradients(self, pts: np.ndarray) -> np.ndarray:
        """Batch subgradients, one row per input row."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        active = np.argmax(self.offsets[None, :] + pts @ self.slopes.T, axis=1)
        g = self.slopes[active]
        h = self._quad_matrix()
        if h is not None:
            g = g + 2.0 * pts @ h
        return g

    def lipschitz_bound(self, radius: float) -> float:
        """Upper bound on |subgradient| over the ball of the given radius."""
        bound = float(np.linalg.norm(self.slopes, axis=1).max())
        h = self._quad_matrix()
        if h is not None:
            bound += 2.0 * float(np.linalg.norm(h, 2)) * radius
        return bound

    # -- calculus ---------------------------------------------------------------

    def compose_affine(self, amap: AffineMap) -> "MaxAffineFunction":
        """Exact representation of x -> f(M x + o)."""
        if amap.dim_out != self.dimension:
            raise DimensionMismatchError("map output dimension mismatch")
        m, o = amap.matrix, amap.offset
        offsets = self.offsets + self.slopes @ o
        slopes = self.slopes @ m
        h = self._quad_matrix()
        if h is None:
            return MaxAffineFunction(offsets, slopes)
        offsets = offsets + float(o @ h @ o)
        slopes = slopes + 2.0 * (o @ h @ m)[None, :]
        hq = m.T @ h @ m
        hq = 0.5 * (hq + hq.T)
        diag = np.diag(hq)
        iso = float(diag.mean())
        if (np.abs(hq - iso * np.eye(hq.shape[0])).max() <= 1e-13 * max(1.0, abs(iso))
                and iso >= 0):
            return MaxAffineFunction(offsets, slopes, eta=iso)
        return MaxAffineFunction(offsets, slopes, quad=hq)

    def translate(self, shift) -> "MaxAffineFunction":
        """x -> f(x + shift)."""
        return self.compose_affine(AffineMap.translation(shift))

    def add_constant(self, c: float) -> "MaxAffineFunction":
        return MaxAffineFunction(self.offsets + c, self.slopes, self.eta, self.quad)

    def regularize(self, eta_new: float) -> "MaxAffineFunction":
        """Same pieces with the isotropic coefficient replaced by eta_new."""
        if eta_new < 0:
            raise ValueError("eta must be >= 0")
        return MaxAffineFunction(self.offsets, self.slopes, eta_new, self.quad)


def sum_functions(f: MaxAffineFunction, g: MaxAffineFunction) -> MaxAffineFunction:
    """Exact f + g; affine pieces cross-sum, so piece counts multiply."""
    if f.dimension != g.dimension:
        raise DimensionMismatchError("summands live in different dimensions")
    offsets = (f.offsets[:, None] + g.offsets[None, :]).ravel()
    slopes = (f.slopes[:, None, :] + g.slopes[None, :, :]).reshape(-1, f.dimension)
    hf, hg = f._quad_matrix(), g._quad_matrix()
    if hf is None and hg is None:
        return MaxAffineFunction(offsets, slopes)
    h = (hf if hf is not None else 0.0) + (hg if hg is not None else 0.0)
    diag = np.diag(h)
    iso = float(diag.mean())
    if (np.abs(h - iso * np.eye(h.shape[0])).max() <= 1e-13 * max(1.0, abs(iso))
            and iso >= 0):
        return MaxAffineFunction(offsets, slopes, eta=iso)
    return MaxAffineFunction(offsets, slopes, quad=h)


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


def argmin(f: MaxAffineFunction, body: ConvexBody, tol: float = 1e-9) -> np.ndarray:
    """Minimizer of f over the body.

    Piecewise-linear functions over polytopes solve exactly as an epigraph LP
    with lexicographic tie-breaking over the optimal face; otherwise a coarse
    membership-filtered grid is polished by an epigraph SLSQP step and a local
    grid, ties again resolved lexicographically.
    """
    if f.dimension != body.dimension:
        raise DimensionMismatchError("function/body dimension mismatch")
    pwl = f._quad_matrix() is None
    pure_polytope = body.has_halfspaces and body.ball_is_redundant()
    if pwl and pure_polytope:
        return _argmin_lp(f, body, tol)
    return _argmin_grid(f, body, tol)


def _argmin_lp(f: MaxAffineFunction, body: ConvexBody, tol: float) -> np.ndarray:
    n = f.dimension
    j = f.piece_count
    # Variables (x, t): minimize t with a_j + y_j.x <= t and x in the polytope.
    a_pieces = np.hstack([f.slopes, -np.ones((j, 1))])
    a_body = np.hstack([body.normals, np.zeros((body.normals.shape[0], 1))])
    a_ub = np.vstack([a_pieces, a_body])
    b_ub = np.concatenate([-f.offsets, body.offsets])
    c = np.zeros(n + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * (n + 1), method="highs")
    if not res.success:
        raise InfeasibleBodyError("argmin LP failed: " + res.message)
    t_star = res.x[-1]
    scale = max(1.0, abs(t_star))
    face_slack = 1e-9 * scale
    # Lexicographic sweep over the optimal face {f <= t*}, one axis at a time.
    x = res.x[:n]
    extra_n, extra_b = [], []
    for axis in range(n):
        c_axis = np.zeros(n + 1)
        c_axis[axis] = 1.0
        a_all = a_ub
        b_all = b_ub
        if extra_n:
            a_all = np.vstack([a_ub, np.hstack([np.array(extra_n),
                                                np.zeros((len(extra_n), 1))])])
            b_all = np.concatenate([b_ub, np.array(extra_b)])
        res_axis = linprog(c_axis, A_ub=a_all, b_ub=b_all,
                           bounds=[(None, None)] * n + [(None, t_star + face_slack)],
                           method="highs")
        if not res_axis.success:
            break
        x = res_axis.x[:n]
        row = np.zeros(n)
        row[axis] = 1.0
        extra_n.append(row)
        extra_b.append(res_axis.x[axis] + 1e-10)
    return x


def _argmin_grid(f: MaxAffineFunction, body: ConvexBody, tol: float) -> np.ndarray:
    n = body.dimension
    lows, highs = body.bounding_box()
    per_axis = {1: 8193, 2: 182, 3: 34}.get(n, 12)
    axes = [np.linspace(lows[i], highs[i], per_axis) for i in range(n)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    inside = body.contains(grid)
    if not inside.any():
        center, _ = body.largest_inscribed_ball()
        grid = np.vstack([grid, center])
        inside = np.append(inside, True)
    pts = grid[inside]
    vals = f.value(pts)
    best = _lexico_best(pts, vals, max(tol, 1e-12))
    # Epigraph polish: min t + quad(x) subject to pieces and body constraints.
    h = f._quad_matrix()
    h = np.zeros((n, n)) if h is None else h

    def objective(z):
        return z[n] + float(z[:n] @ h @ z[:n])

    cons = [{"type": "ineq",
             "fun": lambda z, a=f.slopes[k], b=f.offsets[k]: z[n] - b - a @ z[:n]}
            for k in range(f.piece_count)]
    for i in range(body.normals.shape[0]):
        cons.append({"type": "ineq",
                     "fun": lambda z, a=body.normals[i], b=body.offsets[i]: b - a @ z[:n]})
    cons.append({"type": "ineq",
                 "fun": lambda z: body.ball_radius ** 2
                 - float((z[:n] - body.ball_center) @ (z[:n] - body.ball_center))})
    z0 = np.concatenate([best, [float((f.offsets + f.slopes @ best).max())]])
    sol = minimize(objective, z0, method="SLSQP", constraints=cons,
                   options={"maxiter": 300, "ftol": 1e-14})
    cand = [best]
    if sol.success and body.contains(sol.x[:n], tol=1e-7):
        cand.append(sol.x[:n])
    # Local refinement grid around the best candidate found so far.
    center = min(cand, key=lambda p: f.value(p))
    span = (highs - lows) / (per_axis - 1)
    local_axes = [np.linspace(center[i] - span[i], center[i] + span[i], 17) for i in range(n)]
    local = np.stack(np.meshgrid(*local_axes, indexing="ij"), axis=-1).reshape(-1, n)
    local = local[body.contains(local)]
    pool = np.vstack([pts, local, np.atleast_2d(center)])
    return _lexico_best(pool, f.value(pool), max(tol, 1e-12))


def _lexico_best(pts: np.ndarray, vals: np.ndarray, tie_tol: float) -> np.ndarray:
    vmin = vals.min()
    ties = pts[vals <= vmin + tie_tol]
    order = np.lexsort(ties.T[::-1])
    return ties[order[0]].copy()
