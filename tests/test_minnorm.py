import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexplore.minnorm import caratheodory_prune, min_norm_point

from oracles import min_norm_qp_oracle


def test_two_point_segment():
    pts = np.array([[1.0, 0.0], [0.0, 1.0]])
    y, w = min_norm_point(pts)
    assert np.allclose(y, [0.5, 0.5], atol=1e-10)
    assert np.allclose(w, [0.5, 0.5], atol=1e-10)


def test_hull_containing_origin():
    pts = np.array([[1.0, 0.0], [-1.0, 0.5], [-1.0, -0.5], [0.3, 0.9]])
    y, w = min_norm_point(pts)
    assert np.linalg.norm(y) < 1e-8
    assert abs(w.sum() - 1) < 1e-12 and (w >= -1e-12).all()


def test_matches_qp_oracle_on_random_hulls():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = int(rng.integers(2, 8))
        n = int(rng.integers(2, 4))
        pts = rng.standard_normal((k, n)) + rng.standard_normal(n) * 0.5
        y, w = min_norm_point(pts)
        y_ref, _ = min_norm_qp_oracle(pts)  # generic SLSQP solve as oracle
        assert np.linalg.norm(y) <= np.linalg.norm(y_ref) + 1e-6
        assert np.allclose(pts.T @ w, y, atol=1e-8)


def test_single_point():
    pts = np.array([[0.3, -0.7]])
    y, w = min_norm_point(pts)
    assert np.allclose(y, pts[0])
    assert w[0] == 1.0


def test_caratheodory_prune_preserves_point():
    rng = np.random.default_rng(1)
    for _ in range(15):
        k = int(rng.integers(5, 10))
        pts = rng.standard_normal((k, 2))
        w = rng.dirichlet(np.ones(k))
        y = pts.T @ w
        w2 = caratheodory_prune(pts, w, 3)
        assert (w2 > 1e-12).sum() <= 3
        assert abs(w2.sum() - 1) < 1e-9
        assert np.allclose(pts.T @ w2, y, atol=1e-7)


def test_caratheodory_prune_noop_when_small():
    pts = np.array([[1.0, 0.0], [0.0, 1.0]])
    w = np.array([0.4, 0.6])
    w2 = caratheodory_prune(pts, w, 3)
    assert np.allclose(w2, w)


def test_caratheodory_prune_weights_stay_simplex():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((9, 3))
    w = rng.dirichlet(np.ones(9))
    w2 = caratheodory_prune(pts, w, 4)
    assert (w2 >= -1e-12).all()
    assert (w2 > 1e-12).sum() <= 4


@st.composite
def point_sets(draw):
    """1 to 8 points in 2 or 3 dimensions on a 0.1 grid, repeats allowed."""
    n = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(1, 8))
    coords = st.lists(st.integers(-20, 20), min_size=n * k, max_size=n * k)
    return np.array(draw(coords), dtype=float).reshape(k, n) / 10


@settings(derandomize=True, max_examples=100, deadline=None)
@given(point_sets())
def test_min_norm_point_meets_kkt_conditions(pts):
    y, w = min_norm_point(pts)
    assert np.all(w >= 0) and abs(w.sum() - 1) <= 1e-12
    assert np.allclose(w @ pts, y, rtol=0, atol=1e-12)
    # Optimality over the hull: no point lies strictly below the level of y.
    assert (pts @ y).min() >= y @ y - 1e-9
    y_ref, _ = min_norm_qp_oracle(pts)
    assert abs(np.linalg.norm(y) - np.linalg.norm(y_ref)) <= 1e-6
