"""The one solver call of the package: a small dense LP or convex QP.

LPs go to HiGHS through scipy's private bindings (``scipy.optimize._highspy``)
with the options ``linprog(method="highs")`` passes: the same bits as
``linprog``, without its input checks and result wrapping. This module alone
imports ``scipy.optimize``, at the first LP. A QP starts from a strictly
feasible point found by one such LP and ends with a primal active-set method,
whose steps solve the equality-constrained QP of the working set exactly.
(HiGHS's own QP solver stops with a solve error or a false "unbounded" on
about one in a hundred random epigraph models in four variables.)

Each thread keeps one HiGHS solver, made at its first LP: building and
destroying one per solve cost more than a small LP's simplex run. Its
solver state is cleared before each model, so no solve warm-starts from
the last basis and every solve gives a fresh solver's bits; a solver that
reports an error, on the model or on its run, is dropped.
"""
from __future__ import annotations

import threading

import numpy as np

OPTIMAL, UNBOUNDED, FAILED = "optimal", "unbounded", "failed"

_OPTIONS = {"presolve": "on", "output_flag": False, "log_to_console": False,
            "simplex_strategy": 1}  # 1: dual simplex, as linprog asks
_TOL = 1e-12
_LOCAL = threading.local()  # .highs: this thread's solver, once it has one


def solve(c, a_ub, b_ub, lower=None, upper=None, hessian=None):
    """min c·x + ½ xᵀ Q x subject to a_ub x <= b_ub and lower <= x <= upper.

    ``lower``/``upper`` default to free columns; ``hessian`` is the dense
    symmetric PSD matrix Q, or None for an LP. Returns ``(status, x)`` with
    status ``OPTIMAL`` (x the minimiser), ``UNBOUNDED`` or ``FAILED`` (x is
    None); each caller turns a non-optimal status into its own error.
    """
    c = np.asarray(c, dtype=float)
    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, c.size)
    b_ub = np.asarray(b_ub, dtype=float)
    lower = np.full(c.size, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(c.size, np.inf) if upper is None else np.asarray(upper, dtype=float)
    if hessian is None:
        return _lp(c, a_ub, b_ub, lower, upper)
    eye, low, up = np.eye(c.size), np.isfinite(lower), np.isfinite(upper)
    a_ub = np.vstack([a_ub, eye[up], -eye[low]])  # column bounds as rows
    b_ub = np.concatenate([b_ub, upper[up], -lower[low]])
    # Start at the centre of a largest ball in the rows, radius capped at 1.
    free = np.full(c.size, np.inf)
    status, z = _lp(np.append(np.zeros(c.size), -1.0),
                    np.hstack([a_ub, np.linalg.norm(a_ub, axis=1)[:, None]]), b_ub,
                    np.append(-free, 0.0), np.append(free, 1.0))
    if status != OPTIMAL:
        return FAILED, None
    return _active_set(np.asarray(hessian, dtype=float), c, a_ub, b_ub, z[:-1])


def row_duals():
    """Row duals of this thread's last optimal LP, in HiGHS's signs (<= 0 on
    a binding row), or None when HiGHS marks them invalid."""
    solution = _LOCAL.highs.getSolution()
    return np.array(solution.row_dual) if solution.dual_valid else None


def _lp(c, a_ub, b_ub, lower, upper):
    from scipy.optimize._highspy import _core
    n, m = c.size, a_ub.shape[0]
    cols, rows = np.nonzero(a_ub.T)  # column-wise nonzeros, rows sorted
    lp = _core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = m
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = c, lower, upper
    lp.row_lower_, lp.row_upper_ = np.full(m, -np.inf), b_ub
    lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])
    lp.a_matrix_.index_ = rows
    lp.a_matrix_.value_ = a_ub[rows, cols]
    highs = getattr(_LOCAL, "highs", None)
    if highs is None:
        highs = _LOCAL.highs = _core._Highs()
        for key, value in _OPTIONS.items():
            highs.setOptionValue(key, value)
    highs.clearSolver()
    error = _core.HighsStatus.kError
    if highs.passModel(lp) == error or highs.run() == error:
        _LOCAL.highs = None
        return FAILED, None
    status = highs.getModelStatus()
    if status == _core.HighsModelStatus.kOptimal:
        return OPTIMAL, np.array(highs.getSolution().col_value)
    if status == _core.HighsModelStatus.kUnbounded:
        return UNBOUNDED, None
    return FAILED, None


def _active_set(q, c, a, b, x):
    """Primal active-set method for min ½ xᵀqx + c·x, a x <= b, from a
    feasible x. The working set holds linearly independent active rows."""
    work = []
    scale = 1.0 + np.abs(q).max() + np.abs(c).max()
    row_norms = np.linalg.norm(a, axis=1)
    for _ in range(20 * (a.shape[0] + x.size)):
        g = q @ x + c
        # Step in the null space of the working rows: down a direction of
        # zero curvature when g has a part there, else to the EQP minimiser.
        basis = np.linalg.svd(a[work])[2][len(work):].T if work else np.eye(x.size)
        curv, vec = np.linalg.eigh(basis.T @ q @ basis)
        flat = curv <= _TOL * scale
        coords = vec.T @ (basis.T @ g)
        if np.abs(coords[flat]).max(initial=0.0) > _TOL * scale:
            step, cap = -basis @ (vec[:, flat] @ coords[flat]), np.inf
        else:
            inverse = np.divide(1.0, curv, out=np.zeros_like(curv), where=~flat)
            step, cap = -basis @ (vec @ (inverse * coords)), 1.0
        size = np.linalg.norm(step)
        if size <= _TOL * (1.0 + np.linalg.norm(x)):
            if not work:
                return OPTIMAL, x
            multipliers = np.linalg.lstsq(a[work].T, -g, rcond=None)[0]
            k = int(np.argmin(multipliers))
            if multipliers[k] >= -_TOL * scale:
                return OPTIMAL, x
            work.pop(k)
            continue
        rate = a @ step
        rate[work] = 0.0
        blocking = rate > _TOL * size * row_norms
        ratios = np.full(a.shape[0], np.inf)
        ratios[blocking] = np.maximum(b - a @ x, 0.0)[blocking] / rate[blocking]
        length = ratios.min(initial=cap)  # no blocking row: the cap decides
        if length == np.inf:
            return UNBOUNDED, None
        x = x + length * step
        if length < cap:
            work.append(int(np.argmin(ratios)))
    return FAILED, None
