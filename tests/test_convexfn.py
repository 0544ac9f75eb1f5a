import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexplore import _highs
from convexplore.convexfn import (MaxAffineFunction, argmin,
                                  smoothed_gradient, sum_functions)
from convexplore.errors import ConfigError, InfeasibleBodyError
from convexplore.geometry import AffineMap, ConvexBody
from convexplore.instances import (random_dip_pair_1d, random_dip_pair_2d,
                                   random_interval, random_polygon)

from oracles import (abs_convolution_gradient, grid_argmin, max_affine_reference,
                     max_affine_rowwise)
from test_acceptance import _random_quadratic_2d


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
    assert f.subgradients(np.array([[0.3]]))[0, 0] == 1.0
    # tie at 0: lowest-index piece (+1) wins
    assert f.subgradients(np.array([[0.0]]))[0, 0] == 1.0
    q = MaxAffineFunction([0.0], [[0.0, 0.0]], eta=1.0)
    assert np.allclose(q.subgradients(np.array([[1.0, 0.0]]))[0], [2.0, 0.0])


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


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.integers(1, 16),
       st.sampled_from([1, 160, 928]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_subgradients_match_argmax_over_the_table(n, p, m, full_quad, seed):
    # Dyadic coefficients and points make every table entry exact, and
    # copied pieces tie exactly: the lowest index must win, as under argmax.
    rng = np.random.default_rng(seed)
    source = np.minimum(rng.integers(0, p, p), np.arange(p))
    offsets = (rng.integers(-8, 9, p) / 4.0)[source]
    slopes = (rng.integers(-8, 9, (p, n)) / 4.0)[source]
    pts = rng.integers(-16, 17, (m, n)) / 8.0
    root = rng.integers(-4, 5, (n, n)) / 4.0
    if full_quad:
        f = MaxAffineFunction(offsets, slopes, quad=root @ root.T)
    else:
        f = MaxAffineFunction(offsets, slopes, eta=int(rng.integers(0, 5)) / 4.0)
    h = f.eta * np.eye(n) + (0.0 if f.quad is None else f.quad)
    table = f.slopes @ pts.T + f.offsets[:, None]
    expected = f.slopes[np.argmax(table, axis=0)] + 2.0 * pts @ h
    assert np.array_equal(f.subgradients(pts), expected)


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
        g = f.subgradients(x[None, :])[0]
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
    same = MaxAffineFunction(f.offsets, f.slopes, eta=0.0)
    assert same.eta == 0.0 and np.allclose(same.slopes, f.slopes)
    with pytest.raises(ValueError):
        MaxAffineFunction(f.offsets, f.slopes, eta=-1e-3)
    bumped = MaxAffineFunction(f.offsets, f.slopes, eta=1e-6)
    assert bumped.eta == 1e-6
    assert bumped.value(np.array([0.5])) == pytest.approx(0.5 + 0.25e-6)


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
    monkeypatch.setattr(_highs, "solve", lambda *args, **kwargs: (_highs.FAILED, None))
    with pytest.raises(InfeasibleBodyError, match="argmin LP failed"):
        argmin(absval(), interval01())


def test_argmin_reads_a_one_dimensional_body_as_its_interval():
    far = MaxAffineFunction([-2.0, 2.0], [[1.0], [-1.0]], eta=0.5)  # pulled to x = 2
    for body in (ConvexBody(1, ball_center=[0.0], ball_radius=1.0),
                 ConvexBody(1, [[1.0]], [1.0], [0.0], 3.0)):  # x <= 1 inside B(0, 3)
        assert argmin(far, body)[0] == pytest.approx(1.0, abs=1e-9)


def test_argmin_refuses_an_active_ball_in_two_dimensions():
    disk = ConvexBody(2, ball_center=[0.0, 0.0], ball_radius=1.0)
    with pytest.raises(ConfigError, match="redundant"):
        argmin(MaxAffineFunction([0.0], [[1.0, 0.0]], eta=1.0), disk)


def _random_polytope(rng, n, facets):
    """Random halfspaces around the origin, cut to the box [-2, 2]^n."""
    normals = rng.standard_normal((facets, n))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    eye = np.eye(n)
    return ConvexBody(n, np.vstack([normals, eye, -eye]),
                      np.concatenate([rng.uniform(0.4, 1.5, facets), np.full(2 * n, 2.0)]))


def _assert_matches_grid_oracle(f, body, per_axis):
    x = argmin(f, body)
    _, best = grid_argmin(f, body.normals, body.offsets, per_axis)
    assert body.contains(x, tol=1e-9)
    assert f.value(x) <= best + 1e-9


def test_argmin_matches_grid_oracle_on_c3_quadratics():
    for i in range(10, 20):  # the quadratic entries of the c3 corpus
        rng = np.random.default_rng(90000 + i)
        body = random_polygon(rng)
        _assert_matches_grid_oracle(_random_quadratic_2d(rng, body), body, 201)


def test_argmin_matches_grid_oracle_in_three_dimensions():
    rng = np.random.default_rng(31)
    body = _random_polytope(rng, 3, 12)
    f = MaxAffineFunction(rng.standard_normal(4), rng.standard_normal((4, 3)), eta=0.3)
    _assert_matches_grid_oracle(f, body, 41)


def test_dip_pair_witnesses_are_minimisers():
    # f's minimum value is 0 by construction, so the witness is exact when
    # f(witness) is 0 up to the solver's tolerance.
    for seed in range(50):
        rng = np.random.default_rng(seed)
        f1, g1, w1 = random_dip_pair_1d(rng, random_interval(rng), 0.1)
        body = random_polygon(rng)
        f2, g2, w2 = random_dip_pair_2d(rng, body, 0.1)
        for f, g, w in ((f1, g1, w1), (f2, g2, w2)):
            assert -1e-9 <= f.value(w) <= 1e-7, (seed, f.value(w))
            assert g.value(w) < -0.1
        assert body.contains(w2)


@pytest.mark.parametrize("seed", range(8))
def test_argmin_matches_grid_oracle_on_psd_quads(seed):
    rng = np.random.default_rng(500 + seed)
    n = 2 + seed % 2
    body = _random_polytope(rng, n, 8)
    root = rng.standard_normal((n, n - seed % 3 // 2))  # rank n - 1 for some seeds
    pieces = int(rng.integers(1, 6))
    f = MaxAffineFunction(rng.standard_normal(pieces), rng.standard_normal((pieces, n)),
                          quad=root @ root.T)
    _assert_matches_grid_oracle(f, body, 201 if n == 2 else 41)


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
