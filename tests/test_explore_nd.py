"""Multi-scale construction: patches, covers, reduction, stage pipeline."""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexplore import explore_nd
from convexplore.convexfn import MaxAffineFunction
from convexplore.errors import (ConfigError, CoverError,
                                DimensionMismatchError, PatchNotFoundError)
from convexplore.explore1d import FiberLift, Pushforward, UniformBall
from convexplore.explore_nd import (GammaCover, StableGradientPatch,
                                    _complement_frame, _fiber_envelope,
                                    _projected_body,
                                    build_exploratory_measure,
                                    build_gamma_cover, caratheodory_reduce,
                                    find_stable_gradient_patch,
                                    multi_scale_measure, single_scale_measure)
from convexplore.geometry import ConvexBody, slab
from convexplore.instances import random_cone_2d, random_polygon
from convexplore.minnorm import min_norm_point
from convexplore.profiles import CALIBRATED, PAPER, get_profile
from convexplore.stats import wilson_half_width
from oracles import polytope_support_lp, sequential_gamma_cover

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def pure_quadratic(n: int) -> MaxAffineFunction:
    return MaxAffineFunction([0.0], [np.zeros(n)], eta=1.0)


def hull_norm_of(directions) -> float:
    """Distance from the origin to the hull of the directions."""
    return float(np.linalg.norm(min_norm_point(np.asarray(directions))[0]))


def reverify_patch(f, patch, rng, m=768) -> tuple[float, float]:
    """Fresh concentration fraction and its Wilson half-width."""
    u = rng.standard_normal((m, f.dimension))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = patch.radius * rng.uniform(0.0, 1.0, m) ** (1.0 / f.dimension)
    pts = patch.center + u * r[:, None]
    dev = np.linalg.norm(f.subgradients(pts) - patch.scale * patch.direction,
                         axis=1)
    hits = int((dev <= patch.xi * patch.scale).sum())
    return hits / m, wilson_half_width(hits, m)


# -- constant profiles ---------------------------------------------------------

def test_profile_shared_scalings():
    for prof in (PAPER, CALIBRATED):
        assert prof.gamma(2) == 1.0 / 32.0
        assert prof.slab_multiplier(2) == 4.0
        # cut offset M*gamma stays at the separation bound 1/8
        assert prof.slab_multiplier(3) * prof.gamma(3) == pytest.approx(0.125)
        assert prof.stage_cap(2, 0.05) == math.ceil(16.0 * (1.0 + math.log(41.0)))


def test_profile_specific_constants():
    assert PAPER.xi(2) == 1.0 / 64.0
    assert CALIBRATED.xi(2) == 0.25
    assert PAPER.patch_ball_radius(2) == 2.0 ** -13 / 4.0
    assert CALIBRATED.patch_ball_radius(2) == 1.0 / 32.0
    assert CALIBRATED.stop_width(2, 0.4) == pytest.approx(0.05)
    assert CALIBRATED.eta(2, 0.1) == 1e-6
    assert PAPER.stop_width(2, 0.4) == pytest.approx(0.4 / (16.0 * 2 ** 10))


def test_get_profile():
    assert get_profile("paper") is PAPER
    assert get_profile("calibrated") is CALIBRATED
    with pytest.raises(ConfigError):
        get_profile("heroic")


# -- stable-gradient patches ---------------------------------------------------

def test_patch_on_quadratic_is_exact():
    # gradient field 2x is linear: over B(z, delta) it moves by at most
    # 2*delta = 0.01 < xi*t ~ 0.031, so every sample concentrates
    f = pure_quadratic(2)
    patch = find_stable_gradient_patch(f, (1.0, 0.0), 0.01, 0.005, 1.0 / 64,
                                       np.random.default_rng(5))
    assert patch.fraction == 1.0
    assert not patch.relaxed
    assert patch.xi == 1.0 / 64
    assert patch.scale == pytest.approx(2.0, abs=0.05)
    assert float(patch.direction @ E1) > 0.999
    assert np.linalg.norm(patch.direction) == pytest.approx(1.0)


def test_patch_on_regularized_affine():
    # affine slope (1.2, 1.6): after adding a tiny quadratic term the
    # smoothed gradient still points along (0.6, 0.8) with norm ~2
    f = MaxAffineFunction([0.0], [[1.2, 1.6]], eta=1e-6)
    patch = find_stable_gradient_patch(f, (0.2, -0.1), 0.05, 0.01, 0.25,
                                       np.random.default_rng(11))
    assert patch.fraction == 1.0
    assert float(patch.direction @ np.array([0.6, 0.8])) > 0.9999
    assert patch.scale == pytest.approx(2.0, abs=0.01)


def test_patch_exhaustion_reports_best_fraction(monkeypatch):
    # placement ball hugs the kink of |x1|, so every candidate ball straddles
    # it and subgradients split between +e1 and -e1
    monkeypatch.setattr(explore_nd, "PATCH_ATTEMPTS", 6)
    f = MaxAffineFunction([0.0, 0.0], [[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(PatchNotFoundError) as err:
        find_stable_gradient_patch(f, (0.0, 0.0), 1e-4, 0.005, 0.25,
                                   np.random.default_rng(2))
    assert "best fraction" in str(err.value)
    assert 0.0 <= err.value.best_fraction < 0.55


# -- Caratheodory reduction ------------------------------------------------------

def synthetic_cover(directions, gamma=1.0 / 32) -> GammaCover:
    patches = tuple(
        StableGradientPatch(center=0.05 * d, direction=np.asarray(d, float),
                            scale=1.0, radius=0.01, fraction=1.0,
                            sample_count=768, xi=0.25)
        for d in directions)
    return GammaCover(2, gamma, patches, (), 0)


def test_reduce_axes_to_simplex_support():
    patches, hull_norm = caratheodory_reduce(
        synthetic_cover([E1, -E1, E2, -E2]))
    assert len(patches) <= 3
    assert hull_norm <= (1.0 / 32) * (1.0 + 1e-6)
    assert hull_norm_of([p.direction for p in patches]) <= 1.0 / 32


def test_reduce_keeps_minimal_cover():
    patches, hull_norm = caratheodory_reduce(synthetic_cover([E1, -E1]))
    kept = {tuple(p.direction) for p in patches}
    assert kept == {(1.0, 0.0), (-1.0, 0.0)}
    assert hull_norm <= 1e-9


def test_reduce_rejects_off_center_hull():
    with pytest.raises(CoverError) as err:
        caratheodory_reduce(synthetic_cover([E1]))
    assert "gamma ball" in str(err.value)
    assert err.value.worst_value == pytest.approx(1.0)


def test_reduce_certifies_the_pruned_combination(monkeypatch):
    # A pruning that keeps E1 and -E1 but with weights 0.9 and 0.1 moves the
    # combination to 0.8 E1, outside the gamma ball.
    monkeypatch.setattr(explore_nd, "caratheodory_prune",
                        lambda dirs, w, k: np.array([0.9, 0.1, 0.0, 0.0]))
    with pytest.raises(CoverError, match="reduced cover misses") as err:
        caratheodory_reduce(synthetic_cover([E1, -E1, E2, -E2]))
    assert err.value.worst_value == pytest.approx(0.8)


# -- cover construction ----------------------------------------------------------

def test_cover_interior_body_uses_patches_only():
    body = ConvexBody.box([-1.0, -1.0], [1.0, 1.0])
    cover = build_gamma_cover(pure_quadratic(2), body, CALIBRATED,
                              np.random.default_rng(7), 1e-6)
    assert cover.separators == ()
    assert cover.failures == 0
    assert len(cover.patches) == explore_nd.PHI_COUNT
    assert all(p.fraction >= 0.5 for p in cover.patches)
    patches, _ = caratheodory_reduce(cover)
    assert len(patches) <= 3
    assert hull_norm_of([p.direction for p in patches]) <= cover.gamma


def test_cover_tiny_body_separates_every_probe():
    body = ConvexBody.box([-0.05, -0.05], [0.05, 0.05])
    cover = build_gamma_cover(pure_quadratic(2), body, CALIBRATED,
                              np.random.default_rng(3), 1e-6)
    assert cover.patches == ()
    assert len(cover.separators) == explore_nd.PHI_COUNT
    for s in cover.separators:
        assert np.linalg.norm(s) == pytest.approx(1.0)
        assert body.support_function(s) <= 0.125 + 1e-6
    with pytest.raises(CoverError, match="no stable-gradient patches"):
        caratheodory_reduce(cover)


def test_cover_requires_origin_inside():
    body = ConvexBody.box([1.0, 1.0], [2.0, 2.0])
    with pytest.raises(CoverError, match="origin"):
        build_gamma_cover(pure_quadratic(2), body, CALIBRATED,
                          np.random.default_rng(0), 1e-6)


class _StageZero(Exception):
    """Stops a build at its first single scale, carrying that stage's inputs."""


def c3_stage_zero(i, monkeypatch):
    """The whitened body and objective that c3 cone i's first stage covers."""
    rng = np.random.default_rng(90000 + i)
    body = random_polygon(rng)
    f = random_cone_2d(rng, body)

    def stop(f_stage, whitened, profile, rng, eta):
        raise _StageZero(f_stage, whitened, eta)

    monkeypatch.setattr(explore_nd, "single_scale_measure", stop)
    with pytest.raises(_StageZero) as caught:
        multi_scale_measure(f, body, 0.1, rng=np.random.default_rng(91000 + i))
    return caught.value.args


KINK = MaxAffineFunction([0.0, 0.0], [[1.0, 0.0], [-1.0, 0.0]])
BOX = ConvexBody.box([-1.0, -1.0], [1.0, 1.0])
# (objective and body, PATCH_ATTEMPTS, seed). Every first attempt passes on
# the nearly affine objective, and all but two on the quadratic. On the |x1|
# kink some fail: with 24 attempts the search resumes after the failed
# draws, with 2 or 1 it relaxes xi and with 1 a probe fails outright. The
# constant has |g| = 0, so no attempt draws its test points.
SEQUENTIAL_CASES = {
    "affine": (lambda mp: (MaxAffineFunction([0.0], [[1.2, 1.6]], eta=1e-6),
                           BOX, 1e-6), 24, 0),
    "quadratic": (lambda mp: (pure_quadratic(2), BOX, 1e-6), 24, 7),
    "quadratic-3d": (lambda mp: (pure_quadratic(3), ConvexBody.box(
        [-1.0] * 3, [1.0] * 3), 1e-6), 24, 8),
    "kink-24": (lambda mp: (KINK, BOX, 1e-6), 24, 0),
    "kink-2": (lambda mp: (KINK, BOX, 1e-6), 2, 0),
    "kink-1": (lambda mp: (KINK, ConvexBody.box([-0.2, -1.0], [0.2, 1.0]),
                           1e-6), 1, 0),
    "constant": (lambda mp: (MaxAffineFunction([0.5], [[0.0, 0.0]]), BOX,
                             1e-6), 24, 1),
    **{f"c3-cone-{i}": (lambda mp, i=i: c3_stage_zero(i, mp), 24, 92000 + i)
       for i in range(3)},
}


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("case", sorted(SEQUENTIAL_CASES))
def test_cover_matches_sequential_search(case, monkeypatch):
    # Batched first attempts must reproduce the per-probe search bit for
    # bit, generator state included.
    make, attempts, seed = SEQUENTIAL_CASES[case]
    f, body, eta = make(monkeypatch)
    monkeypatch.setattr(explore_nd, "PATCH_ATTEMPTS", attempts)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cover = build_gamma_cover(f, body, CALIBRATED, rng, eta)
    patches, separators, failures = sequential_gamma_cover(
        f, body, CALIBRATED, ref_rng, eta)
    assert [tuple(_bits(v) for v in p) for p in patches] == [
        tuple(_bits(v) for v in (p.center, p.direction, p.scale, p.radius,
                                 p.fraction, p.xi, p.relaxed))
        for p in cover.patches]
    assert [_bits(s) for s in separators] == [_bits(s) for s in cover.separators]
    assert cover.failures == failures
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if case == "kink-1":
        assert failures > 0 and any(p[-1] for p in patches)
    if case == "constant":
        assert cover.patches == () and failures == explore_nd.PHI_COUNT


# -- single scale ------------------------------------------------------------------

def test_single_scale_structure():
    body = ConvexBody.box([-1.0, -1.0], [1.0, 1.0])
    measure, fields = single_scale_measure(
        pure_quadratic(2), body, CALIBRATED, np.random.default_rng(13), 1e-6)
    k = len(measure.components)
    assert k <= 3
    assert all(isinstance(c, UniformBall) for c in measure.components)
    assert set(measure.weights) == {Fraction(1, k)}
    for ball, patch in zip(measure.components, fields["patches"], strict=True):
        assert np.array_equal(ball.center, patch.center)
        assert ball.radius == patch.radius
    assert np.linalg.norm(fields["slab_direction"]) == pytest.approx(1.0)
    assert fields["slab_halfwidth"] > 0.0
    assert fields["raw_patch_count"] == explore_nd.PHI_COUNT
    assert fields["separator_count"] == fields["failures"] == 0
    # no-good-direction polytope admits no ball beyond 2*M*gamma (= 1/4)
    assert fields["inscribed_radius"] <= 0.25 * 1.05
    pts = measure.sample(200, np.random.default_rng(2))
    assert all(body.contains(x, tol=1e-9) for x in pts)


# -- multi-scale pipeline -------------------------------------------------------

def test_multi_scale_dimension_gate():
    with pytest.raises(DimensionMismatchError):
        multi_scale_measure(MaxAffineFunction([0.0], [[0.0]], eta=1.0),
                            ConvexBody.interval(0.0, 1.0), 0.1)


def test_multi_scale_rejects_bad_eps():
    body = ConvexBody.box([-1.0, -1.0], [1.0, 1.0])
    f = pure_quadratic(2)
    for eps in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            multi_scale_measure(f, body, eps)


def test_multi_scale_dimension_cap():
    body = ConvexBody.box([-1.0] * 4, [1.0] * 4)
    with pytest.raises(ValueError, match="cap"):
        multi_scale_measure(pure_quadratic(4), body, 0.1)


def test_multi_scale_thin_body_raises():
    body = ConvexBody.box([-1.0, -1e-4], [1.0, 1e-4])
    with pytest.raises(CoverError, match="thinner than the stop width"):
        multi_scale_measure(pure_quadratic(2), body, 0.5,
                            rng=np.random.default_rng(0))


def test_multi_scale_stage_invariants():
    # Volume halving, hull norm, patch budget, inscribed-ball bound, nesting,
    # fresh re-verification, and direction consistency across seeded instances.
    gamma = CALIBRATED.gamma(2)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        body = random_polygon(rng)
        f = random_cone_2d(rng, body)
        _, res = multi_scale_measure(f, body, 0.05,
                                     rng=np.random.default_rng(100 + seed))
        assert not res.capped
        assert res.child is None
        assert 1 <= len(res.stages) <= CALIBRATED.stage_cap(2, 0.05)
        assert res.slab_halfwidth <= CALIBRATED.stop_width(2, 0.05)
        widths = [s.width_before for s in res.stages]
        assert all(a >= b - 1e-9 for a, b in zip(widths, widths[1:]))
        fresh = np.random.default_rng(1000 + seed)
        for stage in res.stages:
            assert stage.volume <= 0.55
            assert len(stage.patches) <= 3
            assert stage.hull_norm <= gamma * (1.0 + 1e-6)
            assert stage.inscribed_radius <= 0.25 * 1.05
            for patch in stage.patches:
                frac, half = reverify_patch(stage.function, patch, fresh)
                assert frac >= 0.5 - 3.0 * half
                align = float(patch.direction @ patch.center)
                assert align >= -(patch.xi + patch.radius)


def test_multi_scale_measure_supported_inside_body():
    rng = np.random.default_rng(4)
    body = random_polygon(rng)
    f = random_cone_2d(rng, body)
    measure, _ = multi_scale_measure(f, body, 0.05,
                                     rng=np.random.default_rng(44))
    assert sum(measure.weights) == 1
    assert all(isinstance(c, Pushforward) for c in measure.components)
    pts = measure.sample(400, np.random.default_rng(5))
    assert all(body.contains(x, tol=1e-8) for x in pts)


def test_multi_scale_records_minimiser():
    body = ConvexBody.box([-1.0, -1.0], [1.0, 1.0])
    f = pure_quadratic(2).translate([0.3, -0.2])  # minimum at (-0.3, 0.2)
    _, report = multi_scale_measure(f, body, 0.1, rng=np.random.default_rng(8))
    assert report.base_point == pytest.approx([-0.3, 0.2], abs=1e-6)
    assert report.profile == "calibrated"
    assert report.dimension == 2


# -- full construction ------------------------------------------------------------

def test_build_delegates_in_one_dimension():
    body = ConvexBody.interval(0.0, 1.0)
    f = MaxAffineFunction([0.24, -0.24], [[-0.8], [0.8]])  # vee at 0.3
    measure, report = build_exploratory_measure(body, f, 1.0 / 16)
    assert report.dimension == 1
    assert report.child is None
    assert report.stages == []
    # dyadic 1-D layout: N + 2 components with N = ceil(log2(1/eps)) + 4
    assert len(measure.components) == 10
    assert sum(measure.weights) == 1


def test_build_two_dimensional_structure():
    rng = np.random.default_rng(3)
    body = random_polygon(rng)
    f = random_cone_2d(rng, body)
    measure, report = build_exploratory_measure(
        body, f, 0.05, rng=np.random.default_rng(42))
    # one whitening pushforward wraps the stage/lift mixture
    assert len(measure.components) == 1
    assert isinstance(measure.components[0], Pushforward)
    assert list(measure.weights) == [Fraction(1)]
    inner = measure.components[0].inner
    assert isinstance(inner.components[-1], FiberLift)
    assert inner.weights[-1] == Fraction(1, 2)
    n_stages = len(report.stages)
    assert list(inner.weights[:-1]) == [Fraction(1, 2 * n_stages)] * n_stages
    assert report.dimension == 2
    assert report.child.dimension == 1
    assert np.linalg.norm(report.direction) == pytest.approx(1.0)
    pts = measure.sample(400, np.random.default_rng(9))
    assert all(body.contains(x, tol=1e-8) for x in pts)


def test_build_three_dimensional_smoke():
    body = ConvexBody.box([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
    measure, report = build_exploratory_measure(
        body, pure_quadratic(3), 0.25, rng=np.random.default_rng(0))
    dims = []
    node = report
    while node is not None:
        dims.append(node.dimension)
        node = node.child
    assert dims == [3, 2, 1]
    pts = measure.sample(300, np.random.default_rng(1))
    assert all(body.contains(x, tol=1e-8) for x in pts)


@pytest.mark.parametrize("n", [2, 3])
def test_fiber_envelope_two_ends_match_33_slices(n):
    # f is convex along every fiber, so the two window ends carry its max.
    rng = np.random.default_rng(70 + n)
    for trial in range(60):
        pieces = int(rng.integers(1, 12))
        offsets, slopes = rng.standard_normal(pieces), rng.standard_normal((pieces, n))
        if trial % 2:
            root = rng.standard_normal((n, n))
            f = MaxAffineFunction(offsets, slopes, quad=root @ root.T)
        else:
            f = MaxAffineFunction(offsets, slopes, eta=rng.uniform(0.0, 2.0))
        theta = rng.standard_normal(n)
        theta /= np.linalg.norm(theta)
        frame = _complement_frame(theta)
        anchor = rng.uniform(-0.5, 0.5, n)
        delta = rng.uniform(0.01, 0.5)
        envelope = _fiber_envelope(f, anchor, frame, theta, delta)
        assert envelope.piece_count == 2 * pieces
        u = rng.uniform(-1.0, 1.0, (64, n - 1))
        slices = np.max([f.value(anchor + u @ frame.T + w * theta)
                         for w in np.linspace(-delta, delta, 33)], axis=0)
        assert envelope.value(u) == pytest.approx(slices, rel=1e-12, abs=0.0)


def _random_polytope_3d(rng):
    """Random halfspaces at distance 0.45-1.2 from the origin, boxed by
    |x_i| <= 2."""
    normals = rng.standard_normal((int(rng.integers(4, 12)), 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = np.concatenate([rng.uniform(0.45, 1.2, len(normals)),
                              np.full(6, 2.0)])
    return ConvexBody(3, np.vstack([normals, np.eye(3), -np.eye(3)]), offsets)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 2 ** 32 - 1))
def test_projected_body_matches_support_lp(n, seed):
    # The induction's host: a random polygon or 3-D polytope slabbed around
    # an anchor between a vertex and the vertex mean, so the anchor is off
    # the shadow's centre. The shadow (an interval for n = 2, a polygon for
    # n = 3) must have the host's support values, read by an LP that never
    # sees the vertex list.
    rng = np.random.default_rng(seed)
    body = random_polygon(rng) if n == 2 else _random_polytope_3d(rng)
    verts = body.vertices()
    corner = verts[rng.integers(len(verts))]
    anchor = corner + rng.uniform(0.05, 0.5) * (verts.mean(axis=0) - corner)
    theta = rng.standard_normal(n)
    theta /= np.linalg.norm(theta)
    host = slab(body, theta, rng.uniform(0.01, 0.3), center=anchor)
    frame = _complement_frame(theta)
    shadow = _projected_body(host, anchor, frame)
    assert shadow.dimension == n - 1
    dirs = rng.standard_normal((8, n - 1))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for u in np.vstack([dirs, -dirs]):
        d = frame @ u
        expected = polytope_support_lp(host.normals, host.offsets, d) - d @ anchor
        assert abs(shadow.support_function(u) - expected) <= 1e-9, (u, expected)


def test_build_function_body_mismatch():
    body = ConvexBody.box([-1.0, -1.0], [1.0, 1.0])
    with pytest.raises(DimensionMismatchError):
        build_exploratory_measure(body, pure_quadratic(3), 0.1)


@pytest.fixture(autouse=True)
def _silence_relaxation_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        yield


def test_with_retries_shifts_the_seed_and_retries_only_construction_errors():
    states = []

    def unlucky_twice(rng):
        states.append(rng.bit_generator.state)
        if len(states) < explore_nd.BUILD_ATTEMPTS:
            raise PatchNotFoundError("unlucky draw")
        return "measure"
    assert explore_nd.with_retries(unlucky_twice, 5) == ("measure", 2)
    assert states == [
        np.random.default_rng(5 + explore_nd.RETRY_SEED_SHIFT * k).bit_generator.state
        for k in range(explore_nd.BUILD_ATTEMPTS)]

    calls = []

    def broken(rng):
        calls.append(rng)
        raise ValueError("not a construction failure")
    with pytest.raises(ValueError):
        explore_nd.with_retries(broken, 0)
    assert len(calls) == 1
