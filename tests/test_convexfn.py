import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult

from convexplore import convexfn
from convexplore.convexfn import (MaxAffineFunction, argmin,
                                  smoothed_gradient, sum_functions)
from convexplore.errors import InfeasibleBodyError
from convexplore.geometry import AffineMap, ConvexBody

from oracles import (abs_convolution_gradient, max_affine_reference,
                     max_affine_rowwise)


def absval():
    return MaxAffineFunction([0.0, 0.0], [[1.0], [-1.0]])  # |x|, +1 piece first


def interval01():
    return ConvexBody(1, [[1.0], [-1.0]], [1.0, 0.0], [0.5], 0.6)


def box01():
    return ConvexBody(2, [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0],
                      [0.5, 0.5], 0.8)


def test_eval_basic():
    f = absval()
    assert abs(f.value(np.array([0.3])) - 0.3) < 1e-15
    const = MaxAffineFunction([0.5], [[0.0]])
    assert const.value(np.array([123.0])) == 0.5
    fq = MaxAffineFunction([0.0, 0.0], [[1.0], [-1.0]], eta=1.0)
    assert abs(fq.value(np.array([2.0])) - 6.0) < 1e-15  # 2 + 4


def test_subgradient_tie_lowest_index():
    f = absval()
    assert f.subgradient(np.array([0.3]))[0] == 1.0
    # tie at 0: lowest-index piece (+1) wins
    assert f.subgradient(np.array([0.0]))[0] == 1.0
    q = MaxAffineFunction([0.0], [[0.0, 0.0]], eta=1.0)
    assert np.allclose(q.subgradient(np.array([1.0, 0.0])), [2.0, 0.0])


@st.composite
def max_affine_cases(draw):
    """A function with eta or a full quad form, and m points to evaluate.

    Grid cases take coefficients in multiples of 1/4 and points in multiples
    of 1/8, so every product and sum is exact, and copy pieces onto later
    indices, so pieces tie exactly. The other cases are standard normal.
    """
    n = draw(st.sampled_from([1, 2, 3]))
    p = draw(st.integers(1, 30))
    m = draw(st.sampled_from([1, 2, 500]))
    full_quad = draw(st.booleans())
    grid = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if grid:
        offsets = rng.integers(-8, 9, p) / 4.0
        slopes = rng.integers(-8, 9, (p, n)) / 4.0
        pts = rng.integers(-16, 17, (m, n)) / 8.0
        root = rng.integers(-4, 5, (n, n)) / 4.0
        eta = int(rng.integers(0, 5)) / 4.0
        source = np.minimum(rng.integers(0, p, p), np.arange(p))
        offsets, slopes = offsets[source], slopes[source]
    else:
        offsets = rng.standard_normal(p)
        slopes = rng.standard_normal((p, n))
        pts = rng.standard_normal((m, n))
        root = rng.standard_normal((n, n))
        eta = float(rng.uniform(0.0, 1.0))
    if full_quad:
        return MaxAffineFunction(offsets, slopes, quad=root @ root.T), pts
    return MaxAffineFunction(offsets, slopes, eta=eta), pts


@settings(derandomize=True, max_examples=80, deadline=None)
@given(max_affine_cases())
def test_batch_evaluation_matches_pointwise_oracle(case):
    f, pts = case
    h = f.eta * np.eye(f.dimension) + (0.0 if f.quad is None else f.quad)
    radius = np.abs(pts).max()
    scale = (np.abs(f.offsets).max() + np.abs(f.slopes).sum(axis=1).max() * radius
             + np.abs(h).sum() * radius ** 2)
    values, active = max_affine_reference(f, pts)
    got = f.value(pts)
    assert np.all(np.abs(got - values) <= 1e-13 * scale)
    # Lowest-index tie rule: the slope of the oracle's first maximizer.
    assert np.array_equal(f.subgradients(pts), f.slopes[active] + 2.0 * pts @ h)
    # In 1-D each piece is one product, so the former point-major expression
    # gives the same bits. In 2-D and 3-D OpenBLAS may round the last rows of
    # a batch without FMA in one layout and with it in the other.
    former = max_affine_rowwise(f, pts)
    if f.dimension == 1:
        assert np.array_equal(got, former)
    else:
        assert np.all(np.abs(got - former) <= 2.0 * np.spacing(scale))
    single = f.value(pts[0])
    assert type(single) is float and single == f.value(pts[:1])[0]


def test_convexity_property():
    rng = np.random.default_rng(0)
    for _ in range(30):
        k = rng.integers(1, 6)
        f = MaxAffineFunction(rng.standard_normal(k),
                              rng.standard_normal((k, 2)),
                              eta=float(rng.uniform(0, 0.5)))
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        lam = float(rng.uniform())
        mid = lam * x + (1 - lam) * y
        assert (f.value(mid)
                <= lam * f.value(x) + (1 - lam) * f.value(y) + 1e-12)


def test_subgradient_inequality_property():
    rng = np.random.default_rng(1)
    for _ in range(30):
        k = rng.integers(1, 6)
        f = MaxAffineFunction(rng.standard_normal(k),
                              rng.standard_normal((k, 3)),
                              eta=float(rng.uniform(0, 0.5)))
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        g = f.subgradient(x)
        assert f.value(y) >= f.value(x) + g @ (y - x) - 1e-12


def test_lipschitz_bound_property():
    rng = np.random.default_rng(2)
    body = box01()
    for _ in range(20):
        k = rng.integers(1, 5)
        f = MaxAffineFunction(rng.standard_normal(k),
                              rng.standard_normal((k, 2)),
                              eta=float(rng.uniform(0, 0.3)))
        # ball of this radius about the origin contains the body
        L = f.lipschitz_bound(float(np.linalg.norm(body.ball_center))
                              + body.ball_radius)
        x, y = body.sample_uniform(2, rng)
        assert abs(f.value(x) - f.value(y)) <= L * np.linalg.norm(x - y) + 1e-9


def test_smoothed_gradient_affine_exact():
    f = MaxAffineFunction([0.3], [[0.7, -0.2]])
    rng = np.random.default_rng(3)
    g = smoothed_gradient(f, np.array([0.0, 0.0]), 0.1, 200, rng)
    assert np.allclose(g.vector, [0.7, -0.2])


def test_smoothed_gradient_quadratic():
    eta = 0.8
    f = MaxAffineFunction([0.0], [[0.0, 0.0]], eta=eta)
    rng = np.random.default_rng(4)
    x = np.array([0.5, -0.25])
    m = 4000
    g = smoothed_gradient(f, x, 0.05, m, rng)
    assert np.linalg.norm(g.vector - 2 * eta * x) <= 2 * eta * 0.05 * 3 / math.sqrt(m) + 1e-3


def test_smoothed_gradient_abs_at_zero_matches_convolution_oracle():
    rng = np.random.default_rng(5)
    m = 5000
    g = smoothed_gradient(absval(), np.array([0.0]), 0.1, m, rng)
    # closed-form convolution gradient oracle: slope x/delta inside the ball
    assert abs_convolution_gradient(0.0, 0.1) == 0.0
    assert abs(g.vector[0]) <= 3 / math.sqrt(m)
    g2 = smoothed_gradient(absval(), np.array([0.05]), 0.1, m, rng)
    assert abs(g2.vector[0] - abs_convolution_gradient(0.05, 0.1)) < 0.05


def test_smoothed_gradient_monotone():
    rng = np.random.default_rng(6)
    f = MaxAffineFunction([0.0, -0.2], [[1.0, 0.2], [-0.5, 0.1]], eta=0.3)
    x1, x2 = np.array([0.4, 0.1]), np.array([-0.3, 0.5])
    g1 = smoothed_gradient(f, x1, 0.05, 3000, rng)
    g2 = smoothed_gradient(f, x2, 0.05, 3000, rng)
    assert (g1.vector - g2.vector) @ (x1 - x2) >= -3 * 2 / math.sqrt(3000)


def test_smoothed_gradient_rejects_tiny_sample():
    with pytest.raises(ValueError):
        smoothed_gradient(absval(), np.array([0.0]), 0.1, 1,
                          np.random.default_rng(0))


def test_regularize():
    f = absval()
    same = f.regularize(0.0)
    assert same.eta == 0.0 and np.allclose(same.slopes, f.slopes)
    with pytest.raises(ValueError):
        f.regularize(-1e-3)
    bumped = f.regularize(1e-6)
    assert bumped.eta == 1e-6


def test_argmin_vee_and_vertex_and_ties():
    f = MaxAffineFunction([-0.5, 0.5], [[1.0], [-1.0]])  # |x - 0.5|
    x = argmin(f, interval01())
    assert abs(x[0] - 0.5) < 1e-7
    aff = MaxAffineFunction([0.0], [[1.0, 1.0]])
    x2 = argmin(aff, box01())
    assert np.allclose(x2, [0.0, 0.0], atol=1e-7)
    const = MaxAffineFunction([0.7], [[0.0]])
    x3 = argmin(const, interval01())
    assert abs(x3[0] - 0.0) < 1e-7  # lexicographic tie rule


def test_argmin_lp_failure_is_a_body_error(monkeypatch):
    monkeypatch.setattr(convexfn, "linprog", lambda *args, **kwargs: OptimizeResult(
        success=False, message="forced failure"))
    with pytest.raises(InfeasibleBodyError, match="argmin LP failed"):
        argmin(absval(), interval01())


def test_compose_affine_exact():
    f = MaxAffineFunction([0.1, -0.2], [[1.0, 0.0], [0.3, -0.5]], eta=0.4)
    amap = AffineMap([[2.0, 0.5], [0.0, 1.0]], [0.3, -0.1])
    fc = f.compose_affine(amap)
    rng = np.random.default_rng(7)
    xs = rng.standard_normal((50, 2))
    assert np.allclose(fc.value(xs), f.value(amap(xs)), atol=1e-12)


def test_translate_and_add_constant():
    f = absval()
    g = f.translate(np.array([0.25])).add_constant(-1.0)  # |x + 1/4| - 1
    assert abs(g.value(np.array([-0.25])) - (-1.0)) < 1e-15
    assert abs(g.value(np.array([0.75])) - 0.0) < 1e-15


def test_sum_functions_cross_sum():
    rng = np.random.default_rng(8)
    f = MaxAffineFunction(rng.standard_normal(3), rng.standard_normal((3, 2)),
                          eta=0.2)
    g = MaxAffineFunction(rng.standard_normal(2), rng.standard_normal((2, 2)),
                          eta=0.1)
    h = sum_functions(f, g)
    xs = rng.standard_normal((40, 2))
    assert np.allclose(h.value(xs), f.value(xs) + g.value(xs), atol=1e-12)
    assert len(h.offsets) == 6
