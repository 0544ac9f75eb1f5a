"""The one LP/QP entry point: linprog's bits for LPs, exact QP minimisers."""
import sys
import threading

import numpy as np
import pytest
from scipy.optimize import linprog

from convexplore import _highs
from convexplore.convexfn import MaxAffineFunction
from convexplore.geometry import ConvexBody
from convexplore.instances import random_polygon
from oracles import highs_lp_fresh


def test_lp_gives_linprog_bits_on_chebyshev_lps():
    rng = np.random.default_rng(11)
    for _ in range(40):
        body = random_polygon(rng)
        a = np.hstack([body.normals, np.ones((len(body.offsets), 1))])
        c = np.array([0.0, 0.0, -1.0])
        ref = linprog(c, A_ub=a, b_ub=body.offsets,
                      bounds=[(None, None)] * 2 + [(0, None)], method="highs")
        status, x = _highs.solve(c, a, body.offsets, lower=[-np.inf, -np.inf, 0.0])
        assert status == _highs.OPTIMAL
        assert np.array_equal(x, ref.x)


def test_lp_statuses():
    free = _highs.solve([0.0, -1.0], [[1.0, 0.0]], [1.0])
    assert free == (_highs.UNBOUNDED, None)
    empty = _highs.solve([1.0], [[1.0], [-1.0]], [0.0, -1.0])  # x <= 0 and x >= 1
    assert empty == (_highs.FAILED, None)


def test_qp_projections_onto_a_box():
    a = np.vstack([np.eye(2), -np.eye(2)])
    for p, expected in [([2.0, 0.3], [1.0, 0.3]), ([-3.0, -4.0], [-1.0, -1.0]),
                        ([0.2, -0.1], [0.2, -0.1])]:
        status, x = _highs.solve(-2.0 * np.array(p), a, np.ones(4), hessian=2.0 * np.eye(2))
        assert status == _highs.OPTIMAL
        assert x == pytest.approx(expected, abs=1e-14)


def test_qp_with_zero_curvature_and_column_bounds():
    # min t + x^2 with t >= 1 - x and t >= x - 1 (t = |x - 1|), x in [-2, 0.5]
    # and t <= 5: the minimiser is x = 0.5, where the slope of |x - 1| is -1.
    a = np.array([[-1.0, -1.0], [1.0, -1.0]])
    b = np.array([-1.0, 1.0])
    q = np.diag([2.0, 0.0])
    status, x = _highs.solve([0.0, 1.0], a, b, lower=[-2.0, -np.inf],
                             upper=[0.5, 5.0], hessian=q)
    assert status == _highs.OPTIMAL
    assert x == pytest.approx([0.5, 0.5], abs=1e-14)


def test_qp_statuses():
    # min -t with only t >= 0: unbounded along a direction of zero curvature
    status, _ = _highs.solve([0.0, -1.0], np.zeros((0, 2)), [], lower=[-1.0, 0.0],
                             upper=[1.0, np.inf], hessian=np.diag([1.0, 0.0]))
    assert status == _highs.UNBOUNDED
    status, _ = _highs.solve([0.0], [[1.0], [-1.0]], [0.0, -1.0], hessian=[[1.0]])
    assert status == _highs.FAILED


def test_qp_without_rows():
    # With no rows and free columns no row blocks a step, so its cap
    # decides: a PD form gives -Q⁻¹c, and diag(1, 0) is unbounded when c
    # has a part along e2 and optimal, with Qx + c = 0, when it has none.
    none = np.zeros((0, 2)), np.zeros(0)
    q = np.array([[2.0, 1.0], [1.0, 3.0]])
    status, x = _highs.solve([1.0, -2.0], *none, hessian=q)
    assert status == _highs.OPTIMAL
    assert x == pytest.approx(-np.linalg.solve(q, [1.0, -2.0]), abs=1e-14)
    flat = np.diag([1.0, 0.0])
    assert _highs.solve([1.0, 1.0], *none, hessian=flat) == (_highs.UNBOUNDED, None)
    status, x = _highs.solve([1.0, 0.0], *none, hessian=flat)
    assert status == _highs.OPTIMAL
    assert flat @ x + [1.0, 0.0] == pytest.approx([0.0, 0.0], abs=1e-14)


def test_qp_solves_random_3d_epigraph_models():
    # The models argmin builds in 3-D; HiGHS's own QP solver (passHessian)
    # fails on 9 of these 300. Every solve must be optimal, feasible and no
    # worse than 400 uniform points of the polytope.
    rng = np.random.default_rng(12)
    eye = np.eye(3)
    for _ in range(300):
        normals = rng.standard_normal((8, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        body = ConvexBody(3, np.vstack([normals, eye, -eye]),
                          np.concatenate([rng.uniform(0.4, 1.5, 8), np.full(6, 2.0)]))
        pieces = int(rng.integers(1, 9))
        root = rng.standard_normal((3, 3))
        f = MaxAffineFunction(rng.standard_normal(pieces), rng.standard_normal((pieces, 3)),
                              quad=root @ root.T)
        a = np.vstack([np.hstack([f.slopes, -np.ones((pieces, 1))]),
                       np.hstack([body.normals, np.zeros((len(body.offsets), 1))])])
        q = np.zeros((4, 4))
        q[:3, :3] = 2.0 * f.form
        status, z = _highs.solve([0.0, 0.0, 0.0, 1.0], a, np.concatenate([-f.offsets, body.offsets]),
                                 hessian=q)
        assert status == _highs.OPTIMAL
        assert body.contains(z[:3], tol=1e-9)
        assert f.value(z[:3]) <= f.value(body.sample_uniform(400, rng)).min() + 1e-12


def random_models(seed, count):
    """Seeded LPs and QPs in 1-4 variables, interleaved: sparse Gaussian
    rows, right-hand sides of either sign and a random mix of free and
    bounded columns, so infeasible, unbounded and optimal models all occur.
    A QP has a PSD Hessian of random rank and may have no rows at all."""
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(count):
        n, qp = int(rng.integers(1, 5)), rng.random() < 0.4
        a = rng.standard_normal((int(rng.integers(0, 7)), n))
        a[rng.random(a.shape) < 0.2] = 0.0
        lower = np.where(rng.random(n) < 0.5, -np.inf, -rng.uniform(0, 2, n))
        upper = np.where(rng.random(n) < 0.5, np.inf, rng.uniform(0, 2, n))
        root = rng.standard_normal((n, int(rng.integers(0, n + 1))))
        models.append((rng.standard_normal(n), a, rng.standard_normal(len(a)),
                       lower, upper, root @ root.T if qp else None))
    return models


def solve_all(models):
    return [(status, None if x is None else x.tobytes())
            for status, x in (_highs.solve(*m[:5], hessian=m[5]) for m in models)]


def test_shared_solver_gives_a_fresh_solvers_bits(monkeypatch):
    # One solver per thread, cleared before each model, must return the
    # status and solution bits of a solver built for that model alone, in
    # any order of LPs, QPs and their outcomes. An infinite matrix entry
    # makes HiGHS report an error, which drops the solver.
    models = random_models(21, 2400)
    for i in range(0, len(models), 300):
        c, a, b, lower, upper, _ = models[i]
        if a.size:
            a = a.copy()
            a.flat[0] = np.inf
            models[i] = (c, a, b, lower, upper, None)
    shared = solve_all(models)
    monkeypatch.setattr(_highs, "_lp", highs_lp_fresh)
    assert shared == solve_all(models)
    counts = {s: sum(r[0] == s for r in shared) for s in
              (_highs.OPTIMAL, _highs.UNBOUNDED, _highs.FAILED)}
    assert min(counts.values()) > 300


def test_error_drops_the_threads_solver():
    _highs.solve([1.0], [[1.0]], [1.0], lower=[0.0])
    assert _highs._LOCAL.highs is not None
    assert _highs.solve([1.0, 1.0], [[np.inf, 1.0]], [1.0]) == (_highs.FAILED, None)
    assert _highs._LOCAL.highs is None
    status, x = _highs.solve([1.0], [[1.0]], [1.0], lower=[0.0])
    assert status == _highs.OPTIMAL and x.tobytes() == np.zeros(1).tobytes()
    assert _highs._LOCAL.highs is not None


def test_threads_solving_at_once_get_a_fresh_solvers_bits(monkeypatch):
    # Each thread builds its own solver; four threads, switching often, must
    # each get what fresh solvers give.
    work = [random_models(seed, 300) for seed in range(22, 26)]
    results, solvers = [None] * len(work), [None] * len(work)
    start = threading.Barrier(len(work))

    def run(i):
        start.wait()
        results[i] = solve_all(work[i])
        solvers[i] = _highs._LOCAL.highs

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(work))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len({id(solver) for solver in solvers}) == len(work)
    monkeypatch.setattr(_highs, "_lp", highs_lp_fresh)
    assert results == [solve_all(w) for w in work]
