import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull
from scipy.spatial.transform import Rotation

import scipy.optimize

from convexplore import _highs, geometry
from convexplore.calibration import load_calibration
from convexplore.convexfn import MaxAffineFunction
from convexplore.errors import (DimensionMismatchError, FlatBodyError,
                                InfeasibleBodyError)
from convexplore.explore_nd import build_exploratory_measure
from convexplore.geometry import (AffineMap, ConvexBody, affine_image, slab,
                                  thinnest_slab, volume_ratio, whitening_map)
from convexplore.instances import random_dip_pair_2d, random_polygon
from convexplore.stats import wilson_interval

from oracles import (ball_coordinate_second_moment, disk_cut_by_chord,
                     disk_slab_area_ratio, polygon_moments, polytope_support_lp,
                     polytope_vertices_bruteforce, square_in_disk_moments)
from test_acceptance import _random_quadratic_2d


def box2():
    return ConvexBody(2, [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1],
                      [0, 0], 1.5)


def unit_disk():
    return ConvexBody(2, ball_center=[0.0, 0.0], ball_radius=1.0)


def interval(lo=0.0, hi=1.0):
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    return ConvexBody(1, [[1.0], [-1.0]], [hi, -lo], [mid], half * 1.2)


def test_contains_basic():
    b = box2()
    assert b.contains(np.array([0.0, 0.0]))
    assert not b.contains(np.array([2.0, 0.0]))
    with pytest.raises(DimensionMismatchError):
        b.contains(np.array([0.0, 0.0, 0.0]))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.sampled_from([1, 160, 768]),
       st.integers(0, 2 ** 32 - 1), st.floats(1e-4, 10.0))
def test_sample_ball_keeps_the_normalised_formula(n, m, seed, radius):
    # The point transform shared with the patch search keeps the bits of
    # the former in-place ``u /= norm(u, axis=1)`` sampler.
    center = np.random.default_rng(seed + 1).standard_normal(n)
    ref = np.random.default_rng(seed)
    u = ref.standard_normal((m, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    expected = center + u * (radius * ref.uniform(0.0, 1.0, m) ** (1.0 / n))[:, None]
    got = geometry.sample_ball(center, radius, m, np.random.default_rng(seed))
    assert got.tobytes() == expected.tobytes()


def test_random_draws_the_bits_of_uniform():
    # rng.random(m) is the samplers' rng.uniform(0.0, 1.0, m) and
    # rng.uniform(size=m): 0 + 1·u from one 64-bit draw per value.
    a, b, c = (np.random.default_rng(29) for _ in range(3))
    for m in range(1, 2001):
        want = a.random(m).tobytes()
        assert b.uniform(0.0, 1.0, m).tobytes() == want
        assert c.uniform(size=m).tobytes() == want
        assert a.bit_generator.state == b.bit_generator.state == c.bit_generator.state
    assert a.random() == b.uniform() == c.uniform(0.0, 1.0)
    assert a.bit_generator.state == b.bit_generator.state == c.bit_generator.state


def test_sample_uniform_always_inside():
    rng = np.random.default_rng(0)
    for body in (interval(), box2(), unit_disk(),
                 ConvexBody(2, [[1, 1], [-1, 0], [0, -1]], [1, 0, 0],
                            [0.3, 0.3], 1.0),
                 ConvexBody.box([-1.0, 0.0, 2.0], [0.0, 0.5, 5.0])):
        pts = body.sample_uniform(500, rng)
        assert body.contains(pts, tol=0.0).all()


def test_interval_sampler_exact_bounds():
    # The 1-D decomposition's one simplex is the interval, drawn without a
    # simplex pick, bit for bit as lo + (hi - lo) * U. The bandit CLI's
    # default body, [0, 1] in B(0.5, 0.6), has the lower end -0.0.
    cli_body = ConvexBody(1, [[1.0], [-1.0]], [1.0, 0.0], [0.5], 0.6)
    for body, lo, hi in [(interval(), 0.0, 1.0),
                         (ConvexBody.interval(0.1, 0.7), 0.1, 0.7),
                         (interval(-2.5, 3.75), -2.5, 3.75),
                         (cli_body, -0.0, 1.0)]:
        assert body.ball_is_redundant()
        for seed, m in itertools.product((0, 1, 1101, 8102), (1, 7, 1024)):
            expected = lo + (hi - lo) * np.random.default_rng(seed).random(m)
            got = body.sample_uniform(m, np.random.default_rng(seed))
            assert got.tobytes() == expected[:, None].tobytes()
        pts = body.sample_uniform(5000, np.random.default_rng(1))
        assert pts.shape == (5000, 1)
        assert pts.min() >= lo and pts.max() <= hi
        assert abs(pts.mean() - (lo + hi) / 2) < 0.02 * (hi - lo)


def test_disk_sample_mean_near_origin():
    rng = np.random.default_rng(2)
    pts = unit_disk().sample_uniform(20000, rng)
    # CLT bound 3 sigma with per-coordinate variance 1/4
    assert np.all(np.abs(pts.mean(axis=0)) < 3 * 0.5 / math.sqrt(20000) + 0.01)


def test_disk_second_moment_matches_quadrature_oracle():
    rng = np.random.default_rng(3)
    cov = np.cov(unit_disk().sample_uniform(40000, rng), rowvar=False)
    # radial-quadrature oracle: E x_i^2 = r^2/(n+2) = 0.25 for the unit disk
    expected = ball_coordinate_second_moment(2, 1.0)
    assert abs(expected - 0.25) < 1e-12
    assert np.allclose(np.diag(cov), expected, atol=0.01)
    assert abs(cov[0, 1]) < 0.01


def test_interval_variance():
    mom = interval().estimate_moments()
    assert abs(mom.covariance[0, 0] - 1 / 12) < 0.001


def test_flat_body_rejected():
    flat = ConvexBody(2, [[1, 0], [-1, 0], [0, 1], [0, -1]],
                      [1, 1, 1e-12, 1e-12], [0, 0], 1.5)
    with pytest.raises(FlatBodyError):
        flat.estimate_moments()


def test_whitening_map_diagonal():
    from convexplore.geometry import MomentEstimate
    mom = MomentEstimate(np.zeros(2), np.diag([4.0, 1.0]))
    W = whitening_map(mom)
    assert np.allclose(W.matrix, np.diag([0.5, 1.0]))
    assert np.allclose(W.offset, 0)


def test_whitening_floor_warns():
    from convexplore.geometry import MomentEstimate
    mom = MomentEstimate(np.zeros(2), np.diag([1.0, 1e-12]))
    with pytest.warns(UserWarning):
        W = whitening_map(mom)
    assert np.isfinite(W.matrix).all()


def test_whitened_body_isotropic():
    body = ConvexBody(2, [[1, 0], [-1, 0], [0, 1], [0, -1]],
                      [4, 4, 0.5, 0.5], [0, 0], 4.2)
    white = affine_image(body, whitening_map(body.estimate_moments()))
    eig = np.linalg.eigvalsh(white.estimate_moments().covariance)
    assert np.allclose(eig, 1.0, rtol=0, atol=1e-9)


def test_slab_and_volume_ratio_lens():
    rng = np.random.default_rng(8)
    disk = unit_disk()
    lens = slab(disk, np.array([1.0, 0.0]), 0.25)
    assert lens.contains(np.array([0.2, 0.5]))
    assert not lens.contains(np.array([0.3, 0.0]))
    m = 40000
    lo, hi = wilson_interval(int(lens.contains(disk.sample_uniform(m, rng)).sum()), m)
    exact = disk_slab_area_ratio(0.25)  # 2-D quadrature oracle
    assert lo < exact < hi
    assert hi < 0.5  # strict halving for the 1/4-slab of the disk
    assert lens.contains(lens.sample_uniform(256, rng), tol=0.0).all()


def test_volume_ratio_self_is_one():
    b = box2()
    assert volume_ratio(b, b) == 1.0


def test_volume_ratio_containment_error():
    shifted = ConvexBody(2, [[1, 0], [-1, 0], [0, 1], [0, -1]],
                         [5, -3, 1, 1], [4, 0], 2.0)
    with pytest.raises(ValueError):
        volume_ratio(shifted, box2())


def test_support_function_box_and_disk():
    b = box2()
    assert abs(b.support_function(np.array([1.0, 0.0])) - 1) < 1e-9
    d = np.array([1.0, 1.0]) / math.sqrt(2)
    assert abs(b.support_function(d) - math.sqrt(2)) < 1e-9
    disk = unit_disk()
    assert abs(disk.support_function(np.array([0.6, 0.8])) - 1) < 1e-6


def test_support_function_sublinear():
    rng = np.random.default_rng(11)
    b = ConvexBody(2, [[1, 1], [-1, 0.5], [0, -1]], [1.0, 0.8, 0.6],
                   [0.1, 0.0], 2.0)
    for _ in range(25):
        u, v = rng.standard_normal(2), rng.standard_normal(2)
        assert (b.support_function(u + v)
                <= b.support_function(u) + b.support_function(v) + 1e-7)


def test_slab_contained_in_body():
    rng = np.random.default_rng(12)
    b = box2()
    s = slab(b, np.array([0.6, 0.8]), 0.3)
    pts = s.sample_uniform(300, rng)
    assert b.contains(pts).all()


def test_slab_wide_is_whole_body():
    b = unit_disk()
    s = slab(b, np.array([1.0, 0.0]), 2.0)
    rng = np.random.default_rng(13)
    pts = b.sample_uniform(500, rng)
    assert s.contains(pts).all()


def test_thinnest_slab_of_flat_box():
    b = ConvexBody(2, [[1, 0], [-1, 0], [0, 1], [0, -1]],
                   [1, 1, 0.2, 0.2], [0, 0], 1.2)
    v, hw = thinnest_slab(b)
    assert abs(hw - 0.2) < 1e-6
    assert abs(abs(v[1]) - 1) < 1e-6


def test_affine_image_of_square():
    b = box2()
    img = affine_image(b, AffineMap([[2, 0], [0, 1]], [1, 0]))
    assert img.contains(np.array([2.9, 0.5]))
    assert not img.contains(np.array([3.1, 0.0]))
    assert not img.contains(np.array([-1.1, 0.0]))


def test_largest_inscribed_ball_triangle():
    # right triangle with legs 3 and 4: inradius = (3+4-5)/2 = 1
    tri = ConvexBody(2, [[-1, 0], [0, -1], [4 / 5, 3 / 5]], [0, 0, 12 / 5],
                     [1.0, 1.0], 3.0)
    c, r = tri.largest_inscribed_ball()
    assert abs(r - 1.0) < 1e-6
    assert np.allclose(c, [1.0, 1.0], atol=1e-5)


def test_infeasible_body():
    with pytest.raises(InfeasibleBodyError):
        ConvexBody(1, [[1.0], [-1.0]], [0.0, -1.0], [0.5],
                   1.0).largest_inscribed_ball()


def test_disk_cut_by_one_half_plane_refuses_an_inscribed_ball():
    # The half-plane x <= 0.5 alone leaves the Chebyshev radius unbounded, so
    # the ball is active: the body samples, but has no inscribed ball or
    # vertex list.
    body = ConvexBody(2, [[1, 0]], [0.5], [0, 0], 1.0)
    with pytest.raises(ValueError, match="inscribed ball"):
        body.largest_inscribed_ball()
    with pytest.raises(ValueError, match="bounded polytope"):
        body.support_point([1.0, 0.0])
    assert body.contains(body.sample_uniform(10, np.random.default_rng(14))).all()
    with pytest.raises(InfeasibleBodyError):
        body.vertices()


def test_support_point_of_a_polytope_cut_by_its_ball():
    # [-1, 1]^2 in the unit ball about (0.5, 0.5): only the vertex (1, 1)
    # lies inside the ball.
    body = ConvexBody(2, [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1],
                      [0.5, 0.5], 1.0)
    value, point = body.support_point([1.0, 1.0])
    assert value == 2.0
    assert np.array_equal(point, [1.0, 1.0])
    for d in ([-1.0, -1.0], [1.0, -1.0]):
        with pytest.raises(ValueError, match="best vertex"):
            body.support_point(d)


def within_se(samples, expected, k=5.0):
    """The sample mean lies within k standard errors of ``expected``."""
    se = samples.std(axis=0) / math.sqrt(len(samples))
    return bool(np.all(np.abs(samples.mean(axis=0) - expected) <= k * se))


def test_ball_proposals_match_circular_segment_oracle():
    # The half-plane alone is unbounded, so proposals come from the ball.
    body = ConvexBody(2, [[1, 0]], [0.5], [0, 0], 1.0)
    pts = body.sample_uniform(200_000, np.random.default_rng(16))
    assert body.contains(pts, tol=0.0).all()
    area, centroid_x = disk_cut_by_chord(0.5)
    assert within_se(pts, [centroid_x, 0.0])
    # The left half-disk, of area pi/2, lies inside the body.
    assert within_se((pts[:, 0] <= 0).astype(float), math.pi / 2 / area)


def test_polytope_proposals_match_quadrature_oracle(monkeypatch):
    # The square (area 4) is smaller than the ball (area 1.44 pi), so
    # proposals come from the square: the ball sampler must not run.
    def refuse(*args, **kwargs):
        raise AssertionError("ball proposals used for a square clipped by a ball")

    monkeypatch.setattr(geometry, "sample_ball", refuse)
    body = ConvexBody(2, [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1], [0, 0], 1.2)
    pts = body.sample_uniform(200_000, np.random.default_rng(17))
    assert body.contains(pts, tol=0.0).all()
    area, second = square_in_disk_moments(1.0, 1.2)
    assert within_se(pts ** 2, [second, second])
    # The square [-0.8, 0.8]^2 lies inside the ball, so inside the body.
    inner = np.all(np.abs(pts) <= 0.8, axis=1).astype(float)
    assert within_se(inner, 1.6 ** 2 / area)


def test_flat_body_with_active_ball_raises():
    strip = ConvexBody(2, [[0, 1], [0, -1]], [1e-13, 1e-13], [0, 0], 1.0)
    with pytest.raises(InfeasibleBodyError):
        strip.sample_uniform(10, np.random.default_rng(18))


def test_one_point_interval_samples_its_point():
    # the interval draw takes [0.5, 0.5]: its ball is redundant
    point = ConvexBody(1, [[1.0], [-1.0]], [0.5, -0.5], [0.5], 2.0)
    assert point.sample_uniform(3, np.random.default_rng(19)).tolist() == \
        [[0.5]] * 3


def test_one_point_interval_outside_its_ball_raises():
    # [0.5, 0.5] misses B(0, 0.4): the polytope proposals (volume 0) are
    # all rejected, and the sampler raises its typed error
    point = ConvexBody(1, [[1.0], [-1.0]], [0.5, -0.5], [0.0], 0.4)
    with pytest.raises(InfeasibleBodyError):
        point.sample_uniform(10, np.random.default_rng(20))


def test_interval_bounds_are_the_offsets():
    assert ConvexBody.interval(0.1, 0.7).interval_bounds() == (0.1, 0.7)
    assert interval(0.1, 0.7).vertices().tolist() == [[0.1], [0.7]]


# -- chords ---------------------------------------------------------------------

def test_chord_bounds_of_interior_chords():
    # along x from (0.5, 0) and from the centre
    t_lo, t_hi = box2().chord_bounds(np.array([[0.5, 0.0], [0.0, 0.0]]),
                                     np.array([1.0, 0.0]))
    assert t_lo.tolist() == [-1.5, -1.0]
    assert t_hi.tolist() == [0.5, 1.0]
    # one direction serves every row; per-row directions are refused
    with pytest.raises(DimensionMismatchError):
        box2().chord_bounds(np.zeros((2, 2)), np.eye(2))


def test_chord_bounds_of_a_line_through_a_vertex():
    # x + y = 2 touches the square only at its vertex (1, 1)
    d = np.array([1.0, -1.0]) / math.sqrt(2.0)
    t_lo, t_hi = box2().chord_bounds(np.array([[0.0, 2.0]]), d)
    assert t_lo[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert t_hi[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert t_hi[0] - t_lo[0] <= 1e-12
    touch = np.array([0.0, 2.0]) + t_hi[0] * d
    assert touch == pytest.approx([1.0, 1.0], abs=1e-12)
    assert box2().contains(touch)


def test_chord_bounds_of_a_line_that_misses_the_square():
    # y = x + 3 passes above the corner (-1, 1): the range is (t_hi, t_hi)
    d = np.array([1.0, 1.0]) / math.sqrt(2.0)
    t_lo, t_hi = box2().chord_bounds(np.array([[0.0, 3.0]]), d)
    assert t_lo[0] == t_hi[0] == pytest.approx(-2.0 * math.sqrt(2.0))
    assert not box2().contains(np.array([0.0, 3.0]) + t_hi[0] * d)


def test_chord_bounds_of_lines_parallel_to_a_facet():
    # y = 1.2 crosses the ball of radius 1.5 on |x| <= 0.9 but lies above
    # the facet y <= 1: zero length at t_hi, off the body. y = 1 runs along
    # that facet (slack 0) and keeps its chord.
    t_lo, t_hi = box2().chord_bounds(np.array([[0.0, 1.2], [0.0, 1.0]]),
                                     np.array([1.0, 0.0]))
    assert t_lo[0] == t_hi[0] == pytest.approx(0.9)
    assert not box2().contains(np.array([t_hi[0], 1.2]))
    assert t_lo[1] == -1.0 and t_hi[1] == 1.0


def test_chord_bounds_of_a_line_that_misses_a_disk():
    # y = 2 misses the unit disk; both ends sit at its closest point (0, 2)
    t_lo, t_hi = unit_disk().chord_bounds(np.array([[3.0, 2.0]]),
                                          np.array([1.0, 0.0]))
    assert t_lo.tolist() == t_hi.tolist() == [-3.0]
    assert not unit_disk().contains(np.array([0.0, 2.0]))


# -- vertex list and exact slab -------------------------------------------------

def same_points(a, b, tol=1e-9):
    """Equal point sets, row order aside."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    dist = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return (a.shape == b.shape and bool(dist.min(axis=1).max() <= tol)
            and bool(dist.min(axis=0).max() <= tol))


def octahedron(ball_radius=None):
    normals = np.array(list(itertools.product([-1.0, 1.0], repeat=3)))
    center = None if ball_radius is None else np.zeros(3)
    return ConvexBody(3, normals, np.ones(8), center, ball_radius)


def test_vertices_match_closed_forms():
    signs2 = np.array(list(itertools.product([-1.0, 1.0], repeat=2)))
    signs3 = np.array(list(itertools.product([-1.0, 1.0], repeat=3)))
    assert same_points(box2().vertices(), signs2)
    assert same_points(ConvexBody.box(-np.ones(3), np.ones(3)).vertices(), signs3)
    assert same_points(octahedron().vertices(), np.vstack([np.eye(3), -np.eye(3)]))
    assert same_points(interval(0.1, 0.7).vertices(), [[0.1], [0.7]], tol=1e-15)


def test_octahedron_ball_is_redundant():
    # The farthest vertex is at distance 1; the corners of the octahedron's
    # bounding box are at sqrt(3), outside the ball.
    body = octahedron(ball_radius=1.01)
    assert body.ball_is_redundant()
    assert not octahedron(ball_radius=0.99).ball_is_redundant()


def test_rotated_flat_box_slab_is_exact():
    rot = Rotation.from_euler("xyz", [0.3, 0.5, 0.7]).as_matrix()
    half = np.array([1.0, 1.0, 0.3])
    normals = np.vstack([rot.T, -rot.T])  # rows are +-R e_i
    body = ConvexBody(3, normals, np.concatenate([half, half]))
    v, hw = thinnest_slab(body)
    assert abs(hw - 0.3) < 1e-9
    assert abs(abs(v @ rot[:, 2]) - 1.0) < 1e-9


def test_regular_polygon_slabs_are_exact():
    # Turned off the axes so that no facet normal lies on a round angle.
    c, s = math.cos(0.1234), math.sin(0.1234)
    turn = AffineMap([[c, -s], [s, c]], [0.0, 0.0])
    _, hw = thinnest_slab(affine_image(ConvexBody.regular_polygon(6, 1.0), turn))
    assert abs(hw - math.cos(math.pi / 6)) < 1e-9
    # conv(P, -P) of a regular pentagon is a regular decagon.
    _, hw = thinnest_slab(affine_image(ConvexBody.regular_polygon(5, 1.3), turn))
    assert abs(hw - 1.3 * math.cos(math.pi / 10)) < 1e-9


@pytest.mark.parametrize("normals, offsets", [
    ([[1, 0], [-1, 0]], [1, 1]),                      # strip
    ([[1, 0], [-1, 0], [0, 1]], [1, 1, 1]),           # half-strip
    ([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, -2, 1, 1]),  # empty
])
def test_unbounded_or_empty_polytope_is_infeasible(normals, offsets):
    with pytest.raises(InfeasibleBodyError):
        ConvexBody(2, normals, offsets)
    clipped = ConvexBody(2, normals, offsets, [0.0, 0.0], 3.0)
    with pytest.raises(InfeasibleBodyError):
        clipped.vertices()
    assert not clipped.ball_is_redundant()


@st.composite
def bounded_polytopes(draw):
    """A box of half-width 2 cut by random halfspaces that keep the origin.

    Coordinates are drawn on a 0.01 grid: HiGHS, which the oracle calls,
    drops matrix entries below 1e-9.
    """
    n = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(1, 10))
    coords = st.lists(st.integers(-100, 100), min_size=n, max_size=n)
    normals = np.array(draw(st.lists(coords, min_size=m, max_size=m))) / 100.0
    normals = normals[np.linalg.norm(normals, axis=1) > 0.1]
    distances = np.array(draw(st.lists(st.integers(20, 150), min_size=len(normals),
                                       max_size=len(normals)))) / 100.0
    eye = np.eye(n)
    offsets = np.concatenate([distances * np.linalg.norm(normals, axis=1),
                              np.full(2 * n, 2.0)])
    normals = np.vstack([normals, eye, -eye])
    direction = np.array(draw(coords.filter(any))) / 100.0
    return normals, offsets, direction


@settings(derandomize=True, max_examples=60, deadline=None)
@given(bounded_polytopes())
def test_support_and_slab_agree_with_linprog(case):
    normals, offsets, direction = case
    body = ConvexBody(normals.shape[1], normals, offsets)
    for d in (direction, -direction):
        assert abs(body.support_function(d)
                   - polytope_support_lp(normals, offsets, d)) <= 1e-9
    v, hw = thinnest_slab(body)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    two_sided = max(polytope_support_lp(normals, offsets, v),
                    polytope_support_lp(normals, offsets, -v))
    assert abs(two_sided - hw) <= 1e-9
    dirs = np.random.default_rng(0).standard_normal((16, normals.shape[1]))
    for u in np.vstack([direction, dirs]):
        u = u / np.linalg.norm(u)
        assert max(polytope_support_lp(normals, offsets, u),
                   polytope_support_lp(normals, offsets, -u)) >= hw - 1e-9


@settings(derandomize=True, max_examples=60, deadline=None)
@given(bounded_polytopes(), st.integers(50, 350))
def test_support_point_with_an_active_ball(case, radius):
    # The polytope in the ball of the drawn radius about the origin: the
    # best vertex is the answer when it lies in the ball; otherwise the
    # support point is refused. Ties straddling the sphere are skipped.
    normals, offsets, direction = case
    radius = radius / 100.0
    body = ConvexBody(normals.shape[1], normals, offsets,
                      np.zeros(normals.shape[1]), radius)
    verts = polytope_vertices_bruteforce(normals, offsets)
    for d in (direction, -direction):
        best = polytope_support_lp(normals, offsets, d)
        norms = np.linalg.norm(verts[verts @ d >= best - 1e-9], axis=1)
        if norms.max() <= radius:
            value, point = body.support_point(d)
            assert abs(value - best) <= 1e-9
            assert value == pytest.approx(float(d @ point), rel=0, abs=1e-12)
            assert body.contains(point)
        elif norms.min() > radius + 1e-4:
            with pytest.raises(ValueError, match="best vertex"):
                body.support_point(d)


# -- exact volumes, moments and draws --------------------------------------------

def turned(body, angle=0.1234):
    c, s = math.cos(angle), math.sin(angle)
    return affine_image(body, AffineMap([[c, -s], [s, c]], [0.0, 0.0]))


def simplex_moments(n):
    """Volume, mean and covariance of the standard n-simplex {x >= 0, sum x <= 1}."""
    var = 2 / ((n + 1) * (n + 2)) - 1 / (n + 1) ** 2
    cov = 1 / ((n + 1) * (n + 2)) - 1 / (n + 1) ** 2
    return (1 / math.factorial(n), np.full(n, 1 / (n + 1)),
            np.full((n, n), cov) + (var - cov) * np.eye(n))


def standard_simplex(n):
    return ConvexBody(n, np.vstack([-np.eye(n), np.ones(n)]),
                      np.concatenate([np.zeros(n), [1.0]]))


def closed_form_cases():
    R = 1.7
    hexagon_center = np.array([0.3, -0.2])
    c, s = math.cos(0.1234), math.sin(0.1234)
    yield ConvexBody.box([0, 0], [1, 1]), 1.0, np.full(2, 0.5), np.eye(2) / 12
    yield (ConvexBody.box([0, 0, 0], [1, 2, 3]), 6.0, np.array([0.5, 1.0, 1.5]),
           np.diag([1.0, 4.0, 9.0]) / 12)
    for n in (2, 3):
        yield (standard_simplex(n), *simplex_moments(n))
    yield (turned(ConvexBody.regular_polygon(6, R, hexagon_center)),
           1.5 * math.sqrt(3) * R ** 2, np.array([[c, -s], [s, c]]) @ hexagon_center,
           5 / 24 * R ** 2 * np.eye(2))


@pytest.mark.parametrize("body, volume, mean, covariance", list(closed_form_cases()))
def test_exact_volume_and_moments_match_closed_forms(body, volume, mean, covariance):
    assert abs(body.volume() - volume) <= 1e-12 * volume
    mom = body.estimate_moments()
    assert np.allclose(mom.mean, mean, rtol=0, atol=1e-12)
    assert np.allclose(mom.covariance, covariance, rtol=0, atol=1e-12)


def test_exact_volume_ratio_checks_every_vertex():
    square = ConvexBody.box([0, 0], [1, 1])
    triangle = ConvexBody(2, [[-1, 0], [0, -1], [1, 1]], [0, 0, 1])
    assert volume_ratio(triangle, square) == pytest.approx(0.5, abs=1e-12)
    # A corner 1e-6 outside the square, too small for sampled spot checks.
    poking = ConvexBody(2, [[-1, 0], [0, -1], [1, 1]], [0, 0, 1 + 1e-6])
    with pytest.raises(ValueError):
        volume_ratio(poking, square)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(bounded_polytopes())
def test_exact_moments_agree_with_independent_sums(case):
    normals, offsets, _ = case
    body = ConvexBody(normals.shape[1], normals, offsets)
    verts = body.vertices()
    if body.dimension == 2:
        area, centroid, covariance = polygon_moments(verts)
        mom = body.estimate_moments()
        assert abs(body.volume() - area) <= 1e-12 * area
        assert np.allclose(mom.mean, centroid, rtol=0, atol=1e-12)
        assert np.allclose(mom.covariance, covariance, rtol=0, atol=1e-12)
    else:
        volume = ConvexHull(verts).volume
        assert abs(body.volume() - volume) <= 1e-12 * volume


@pytest.mark.parametrize("body", [
    turned(ConvexBody.regular_polygon(5, 1.3, (0.2, 0.1))),
    ConvexBody(3, np.vstack([np.array(list(itertools.product([-1.0, 1.0], repeat=3))),
                             [[0.3, 0.2, 1.0]]]), np.concatenate([np.ones(8), [0.4]])),
    box2(),   # boxes draw through their simplices too
    ConvexBody.box([-1.0, 0.0, 2.0], [0.0, 0.5, 5.0]),
])
def test_exact_sampler_matches_exact_moments(body):
    m = 200_000
    pts = body.sample_uniform(m, np.random.default_rng(15))
    assert body.contains(pts).all()
    mom = body.estimate_moments()
    centred = pts - mom.mean
    mean_se = np.sqrt(np.diag(mom.covariance) / m)
    assert np.all(np.abs(centred.mean(axis=0)) <= 5 * mean_se)
    products = centred[:, :, None] * centred[:, None, :]
    cov_se = products.std(axis=0) / math.sqrt(m)
    assert np.all(np.abs(products.mean(axis=0) - mom.covariance) <= 5 * cov_se)


def test_builds_never_reach_hit_and_run(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("rejection sampling reached from a polytope build")

    monkeypatch.setattr(ConvexBody, "_sample_rejection", refuse)
    cal = load_calibration(2)
    rng = np.random.default_rng(cal["fresh_seeds"][0])
    body = random_polygon(rng)
    f, _, _ = random_dip_pair_2d(rng, body, cal["eps"])
    build_exploratory_measure(body, f, cal["eps"])
    cube = ConvexBody.box(-np.ones(3), np.ones(3))
    build_exploratory_measure(cube, MaxAffineFunction([0.0], [np.zeros(3)], eta=1.0),
                              0.25)


def test_builds_never_call_slsqp(monkeypatch):
    # Builds solve every argmin, projection and LP through _highs, the one
    # module that imports scipy.optimize.
    for path in Path(geometry.__file__).parent.glob("*.py"):
        if path.name == "_highs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}"
                                         for alias in node.names]
            else:
                continue
            assert not any(name.startswith("scipy.optimize") for name in names), \
                f"{path.name} imports scipy.optimize"

    def refuse(*args, **kwargs):
        raise AssertionError("SLSQP reached from a build")

    monkeypatch.setattr(scipy.optimize, "minimize", refuse)
    rng = np.random.default_rng(90010)  # the first quadratic entry of c3
    body = random_polygon(rng)
    build_exploratory_measure(body, _random_quadratic_2d(rng, body), 0.1)
    cal = load_calibration(2)
    rng = np.random.default_rng(cal["fresh_seeds"][0])
    body = random_polygon(rng)
    f, _, _ = random_dip_pair_2d(rng, body, cal["eps"])
    build_exploratory_measure(body, f, cal["eps"])
    cube = ConvexBody.box(-np.ones(3), np.ones(3))
    build_exploratory_measure(cube, MaxAffineFunction([0.0], [np.zeros(3)], eta=1.0),
                              0.25)


def test_unbounded_chebyshev_outcome_is_solved_once(monkeypatch):
    calls = []
    solve = _highs.solve
    monkeypatch.setattr(_highs, "solve",
                        lambda *args, **kwargs: calls.append(1) or solve(*args, **kwargs))
    cut = ConvexBody(2, [[1.0, 0.0]], [0.5], [0.0, 0.0], 1.0)  # {x <= 0.5} in the unit disk
    rng = np.random.default_rng(3)
    for _ in range(3):
        assert np.all(cut.contains(cut.sample_uniform(64, rng), tol=0.0))
    assert len(calls) == 1


def test_interval_bounds_clip_the_ball_by_one_sided_halfspaces():
    assert ConvexBody(1, [[1.0]], [0.3], [0.0], 1.0).interval_bounds() == (-1.0, 0.3)
    assert ConvexBody(1, [[-2.0]], [0.4], [0.0], 1.0).interval_bounds() == (-0.2, 1.0)
    assert ConvexBody(1, [[1.0], [-1.0]], [0.5, 0.25], [0.0], 1.0).interval_bounds() \
        == (-0.25, 0.5)
    assert ConvexBody(1, ball_center=[0.5], ball_radius=0.25).interval_bounds() == (0.25, 0.75)
    with pytest.raises(InfeasibleBodyError):
        ConvexBody(1, [[1.0]], [-2.0], [0.0], 1.0).interval_bounds()


# -- affine maps -----------------------------------------------------------------

@st.composite
def affine_maps(draw, n):
    """An invertible map with entries on a 0.1 grid and |det| >= 0.2."""
    entries = st.integers(-20, 20)
    matrix = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)),
                      dtype=float).reshape(n, n) / 10
    matrix += draw(st.sampled_from([-1.0, 1.0])) * np.eye(n)
    offset = np.array(draw(st.lists(entries, min_size=n, max_size=n)), dtype=float) / 10
    assume(abs(np.linalg.det(matrix)) >= 0.2)
    return AffineMap(matrix, offset)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3]).flatmap(
    lambda n: st.tuples(affine_maps(n), affine_maps(n))))
def test_affine_map_compose_and_inverse(maps):
    a, b = maps
    x = np.random.default_rng(0).standard_normal((20, a.dim_in))
    assert np.allclose(a.compose(b)(x), a(b(x)), rtol=0, atol=1e-12)
    assert np.allclose(a.inverse()(a(x)), x, rtol=0, atol=1e-9)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(bounded_polytopes().flatmap(
    lambda case: st.tuples(st.just(case), affine_maps(case[0].shape[1]))))
def test_affine_image_maps_membership_vertices_and_volume(case_and_map):
    (normals, offsets, _), amap = case_and_map
    body = ConvexBody(normals.shape[1], normals, offsets)
    image = affine_image(body, amap)
    x = np.random.default_rng(0).uniform(-2.5, 2.5, (200, body.dimension))
    margin = np.abs(x @ body.normals.T - body.offsets).min(axis=1)
    x = x[margin > 1e-3]  # away from every facet's hyperplane
    assert np.array_equal(image.contains(amap(x)), body.contains(x))
    # Vertices recomputed from the image's halfspaces, not inherited.
    fresh = ConvexBody(body.dimension, image.normals, image.offsets)
    assert same_points(fresh.vertices(), amap(body.vertices()), tol=1e-9)
    det = abs(np.linalg.det(amap.matrix))
    assert image.volume() == pytest.approx(det * body.volume(), rel=1e-9)
