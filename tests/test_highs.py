"""The one LP/QP entry point: linprog's bits for LPs, exact QP minimisers."""
import numpy as np
import pytest
from scipy.optimize import linprog

from convexplore import _highs
from convexplore.convexfn import MaxAffineFunction
from convexplore.geometry import ConvexBody
from convexplore.instances import random_polygon


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
