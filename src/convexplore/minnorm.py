"""Minimum-norm point in a convex hull (Wolfe's algorithm).

Used to certify that a finite direction set covers the sphere: the hull of a
gamma-cover contains a point of norm at most gamma, and the supporting corral
gives a reduced cover of at most n+1 members (Caratheodory).
"""
from __future__ import annotations

import numpy as np

from .errors import CoverError


_TOL = 1e-12        # relative optimality gap that ends the major cycle
_MAX_ITER = 1000    # cap on major cycles, and on minor cycles per major


def min_norm_point(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm point of conv(points) with its convex weights.

    Wolfe's major/minor cycle method. ``points`` is (J, n); returns
    (y, weights) with y = weights @ points, weights >= 0 summing to 1, and the
    support approximately affinely independent (at most n+1 members up to
    degeneracy).
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    j0 = int(np.argmin(np.einsum("ij,ij->i", P, P)))
    support = [j0]
    w = np.array([1.0])
    scale = max(1.0, float(np.einsum("ij,ij->i", P, P).max()))
    for _ in range(_MAX_ITER):
        y = w @ P[support]
        dots = P @ y
        j_new = int(np.argmin(dots))
        if y @ y <= dots[j_new] + _TOL * scale:
            break
        if j_new in support:
            break
        support.append(j_new)
        w = np.append(w, 0.0)
        # Minor cycle: move to the affine minimizer, dropping negative weights.
        for _ in range(_MAX_ITER):
            S = P[support]
            k = len(support)
            gram = S @ S.T
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = gram
            kkt[:k, k] = 1.0
            kkt[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            v = sol[:k]
            if np.all(v > 1e-12):
                w = v
                break
            shrink = v <= 1e-12
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.where(w - v > 1e-15, w / (w - v), np.inf)
            theta = min(1.0, float(steps[shrink].min()))
            w = (1 - theta) * w + theta * v
            w[w < 1e-12] = 0.0
            keep = w > 0.0
            if keep.all():
                w = np.maximum(v, 0.0)
                w /= w.sum()
                break
            support = [s for s, kf in zip(support, keep) if kf]
            w = w[keep]
            w /= w.sum()
    weights = np.zeros(P.shape[0])
    weights[support] = w
    return weights @ P, weights


def caratheodory_prune(points: np.ndarray, weights: np.ndarray,
                       max_support: int) -> np.ndarray:
    """Thin a convex combination to at most ``max_support`` members.

    Repeatedly removes one support point along an affine dependence, keeping
    the combination's value fixed. Returns new weights over all points.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    w = np.asarray(weights, dtype=float).copy()
    while int((w > 1e-12).sum()) > max_support:
        idx = np.flatnonzero(w > 1e-12)
        Q = np.hstack([P[idx], np.ones((idx.size, 1))])  # rows q_i = (p_i, 1)
        _, s, vt = np.linalg.svd(Q.T, full_matrices=True)
        null_dim = Q.shape[0] - np.count_nonzero(s > 1e-11 * max(s[0], 1e-30))
        if null_dim <= 0:
            break  # affinely independent: cannot reduce further
        c = vt[-1]
        if not np.any(c > 1e-14):
            c = -c
        steps = w[idx][c > 1e-14] / c[c > 1e-14]
        theta = float(steps.min())
        w[idx] = w[idx] - theta * c
        w[w < 1e-12] = 0.0
        total = w.sum()
        if total <= 0:
            raise CoverError("caratheodory pruning emptied the combination")
        w /= total
    return w
