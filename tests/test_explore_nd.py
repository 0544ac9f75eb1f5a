"""Multi-scale construction: patches, covers, reduction, stage pipeline."""
import collections
import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.spatial
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from convexplore import _highs, explore_nd
from convexplore.calibration import load_calibration
from convexplore.convexfn import MaxAffineFunction, argmin
from convexplore.errors import (CONSTRUCTION_ERRORS, ConfigError, CoverError,
                                DimensionMismatchError)
from convexplore.explore1d import (WEIGHT_TOL, FiberLift, Pushforward,
                                   UniformBall)
from convexplore.explore_nd import (GammaCover, _complement_frame,
                                    _fiber_envelope, _projected_body,
                                    build_exploratory_measure,
                                    build_gamma_cover, caratheodory_reduce,
                                    find_stable_gradient_patch,
                                    multi_scale_measure, single_scale_measure)
from convexplore.geometry import (ConvexBody, affine_image, slab,
                                  whitening_map)
from convexplore.instances import (random_cone_2d, random_dip_pair_2d,
                                   random_polygon)
from convexplore.minnorm import min_norm_point
from convexplore.profiles import (CALIBRATED, PAPER, ConstantProfile,
                                 get_profile)
from convexplore.stats import wilson_interval
from oracles import (certified_patches_reference, polytope_support_lp,
                     sequential_gamma_cover)
from test_acceptance import _random_quadratic_2d

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def pure_quadratic(n: int) -> MaxAffineFunction:
    return MaxAffineFunction([0.0], [np.zeros(n)], eta=1.0)


def centroid(body: ConvexBody) -> np.ndarray:
    return body.estimate_moments().mean


def hull_norm_of(directions) -> float:
    """Distance from the origin to the hull of the directions."""
    return float(np.linalg.norm(min_norm_point(np.asarray(directions))[0]))


def patch_deviations(stage, rng, m=768):
    """For each kept patch of a stage: its ball, direction and scale, and
    |g - scale·direction| / (xi·scale) at m fresh uniform points of its ball,
    g their subgradients. The certificate holds where every ratio is <= 1."""
    f = stage.function
    for ball, direction, scale in zip(stage.patches, stage.directions,
                                      stage.scales, strict=True):
        u = rng.standard_normal((m, f.dimension))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = ball.radius * rng.uniform(0.0, 1.0, m) ** (1.0 / f.dimension)
        pts = ball.center + u * r[:, None]
        dev = np.linalg.norm(f.subgradients(pts) - scale * direction, axis=1)
        yield ball, direction, dev / (stage.xi * scale)


def reverify_stage(stage, rng):
    """Each kept patch's fresh concentration fraction with its Wilson
    half-width, and its ball and direction."""
    for ball, direction, ratio in patch_deviations(stage, rng):
        hits = int((ratio <= 1.0).sum())
        low, high = wilson_interval(hits, len(ratio))
        yield ball, direction, hits / len(ratio), 0.5 * (high - low)


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
    # 2*delta = 0.01 < xi*|g| ~ 0.031, so the ball's centre is certified;
    # one piece gives one patch
    f = pure_quadratic(2)
    centers, directions, scales, failures = find_stable_gradient_patch(
        f, np.array([[1.0, 0.0]]), 0.01, 0.005, 1.0 / 64)
    assert failures == 0
    assert centers.tolist() == [[1.0, 0.0]]
    assert scales.tolist() == [2.0]
    assert directions.tolist() == [[1.0, 0.0]]


def test_patch_on_regularized_affine():
    # affine slope (1.2, 1.6): after adding a tiny quadratic term the
    # gradient still points along (0.6, 0.8) with norm ~2
    f = MaxAffineFunction([0.0], [[1.2, 1.6]], eta=1e-6)
    _, (direction,), (scale,), failures = find_stable_gradient_patch(
        f, np.array([[0.2, -0.1]]), 0.05, 0.01, 0.25)
    assert failures == 0
    assert float(direction @ np.array([0.6, 0.8])) > 0.9999
    assert scale == pytest.approx(2.0, abs=0.01)


def test_patch_exhaustion_reports_best_fraction():
    # the placement ball hugs the kink of |x1|, so at every candidate the
    # other piece may top within delta, and their slopes differ by 2 > xi:
    # the ball counts as one failure, without a warning or a relaxed xi
    f = MaxAffineFunction([0.0, 0.0], [[1.0, 0.0], [-1.0, 0.0]])
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        *found, failures = find_stable_gradient_patch(f, np.zeros((1, 2)),
                                                      1e-4, 0.005, 0.25)
    assert [a.shape for a in found] == [(0, 2), (0, 2), (0,)]
    assert failures == 1
    assert record == []


# -- Caratheodory reduction ------------------------------------------------------

GAMMA = 1.0 / 32


def synthetic_cover(directions) -> GammaCover:
    directions = np.array(directions, dtype=float)
    return GammaCover(0.05 * directions, directions, np.ones(len(directions)),
                      np.empty((0, 2)), 0.01, 0)


def test_reduce_axes_to_simplex_support():
    cover = synthetic_cover([E1, -E1, E2, -E2])
    kept, hull_norm = caratheodory_reduce(cover, GAMMA)
    assert kept.dtype.kind == "i" and 1 <= len(kept) <= 3
    assert np.all(np.diff(kept) > 0) and 0 <= kept[0] and kept[-1] < 4
    assert hull_norm <= GAMMA * (1.0 + 1e-6)
    assert hull_norm_of(cover.directions[kept]) <= GAMMA


def test_reduce_keeps_minimal_cover():
    kept, hull_norm = caratheodory_reduce(synthetic_cover([E1, -E1]), GAMMA)
    assert kept.tolist() == [0, 1]
    assert hull_norm <= 1e-9


def test_reduce_rejects_off_center_hull():
    with pytest.raises(CoverError) as err:
        caratheodory_reduce(synthetic_cover([E1]), GAMMA)
    assert "gamma ball" in str(err.value)
    assert err.value.worst_value == pytest.approx(1.0)


def test_reduce_certifies_the_pruned_combination(monkeypatch):
    # A pruning that keeps E1 and -E1 but with weights 0.9 and 0.1 moves the
    # combination to 0.8 E1, outside the gamma ball.
    monkeypatch.setattr(explore_nd, "caratheodory_prune",
                        lambda dirs, w, k: np.array([0.9, 0.1, 0.0, 0.0]))
    with pytest.raises(CoverError, match="reduced cover misses") as err:
        caratheodory_reduce(synthetic_cover([E1, -E1, E2, -E2]), GAMMA)
    assert err.value.worst_value == pytest.approx(0.8)


# -- cover construction ----------------------------------------------------------

def test_cover_interior_body_uses_patches_only():
    body = ConvexBody.box([-1.0, -1.0], [1.0, 1.0])
    cover = build_gamma_cover(pure_quadratic(2), body, CALIBRATED, 1e-6,
                              centroid(body))
    assert cover.separators.shape == (0, 2)
    assert cover.failures == 0
    assert len(cover.scales) == explore_nd.PHI_COUNT
    kept, _ = caratheodory_reduce(cover, GAMMA)
    assert len(kept) <= 3
    assert hull_norm_of(cover.directions[kept]) <= GAMMA


def test_cover_tiny_body_separates_every_probe():
    body = ConvexBody.box([-0.05, -0.05], [0.05, 0.05])
    cover = build_gamma_cover(pure_quadratic(2), body, CALIBRATED, 1e-6,
                              centroid(body))
    assert cover.centers.shape == cover.directions.shape == (0, 2)
    assert cover.separators.shape == (explore_nd.PHI_COUNT, 2)
    for s in cover.separators:
        assert np.linalg.norm(s) == pytest.approx(1.0)
        assert body.support_function(s) <= 0.125 + 1e-6
    with pytest.raises(CoverError, match="no stable-gradient patches"):
        caratheodory_reduce(cover, GAMMA)


def test_cover_requires_origin_inside():
    body = ConvexBody.box([1.0, 1.0], [2.0, 2.0])
    with pytest.raises(CoverError, match="origin"):
        build_gamma_cover(pure_quadratic(2), body, CALIBRATED, 1e-6,
                          centroid(body))


class _StageZero(Exception):
    """Stops a build at its first single scale, carrying that stage's inputs."""


def c3_stage_zero(i, monkeypatch):
    """The whitened body and objective that c3 cone i's first stage covers."""
    rng = np.random.default_rng(90000 + i)
    body = random_polygon(rng)
    f = random_cone_2d(rng, body)

    def stop(f_stage, whitened, profile, eta, mean):
        raise _StageZero(f_stage, whitened, eta, mean)

    monkeypatch.setattr(explore_nd, "single_scale_measure", stop)
    with pytest.raises(_StageZero) as caught:
        multi_scale_measure(f, body, 0.1)
    return caught.value.args


KINK = MaxAffineFunction([0.0, 0.0], [[1.0, 0.0], [-1.0, 0.0]])
BOX = ConvexBody.box([-1.0, -1.0], [1.0, 1.0])
# (objective and body, balls per block). The |x1| kink is searched in
# blocks of 24, 2 and 1 balls (its ids name the block), the rest in the
# default blocks. The constant has |g| = 0, so every ball fails. The c3
# cones also carry their stage's centroid (q·mean); the other cases use
# their body's.
SEQUENTIAL_CASES = {
    "affine": (lambda mp: (MaxAffineFunction([0.0], [[1.2, 1.6]], eta=1e-6),
                           BOX, 1e-6), explore_nd.BALL_BLOCK),
    "quadratic": (lambda mp: (pure_quadratic(2), BOX, 1e-6),
                  explore_nd.BALL_BLOCK),
    "quadratic-3d": (lambda mp: (pure_quadratic(3), ConvexBody.box(
        [-1.0] * 3, [1.0] * 3), 1e-6), explore_nd.BALL_BLOCK),
    "kink-24": (lambda mp: (KINK, BOX, 1e-6), 24),
    "kink-2": (lambda mp: (KINK, BOX, 1e-6), 2),
    "kink-1": (lambda mp: (KINK, ConvexBody.box([-0.2, -1.0], [0.2, 1.0]),
                           1e-6), 1),
    "constant": (lambda mp: (MaxAffineFunction([0.5], [[0.0, 0.0]]), BOX,
                             1e-6), explore_nd.BALL_BLOCK),
    **{f"c3-cone-{i}": (lambda mp, i=i: c3_stage_zero(i, mp),
                        explore_nd.BALL_BLOCK) for i in range(3)},
}


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def row_bits(centers, directions, scales):
    """The bits of each patch row: (center, direction, scale)."""
    return [tuple(_bits(v) for v in row)
            for row in zip(centers, directions, scales)]


def cover_against_oracle(f, body, eta, mean=None):
    """``build_gamma_cover`` asserted equal, bit for bit, to the per-ball
    loops of ``sequential_gamma_cover``; returns the cover. ``mean`` is the
    body's centroid unless given."""
    mean = centroid(body) if mean is None else mean
    cover = build_gamma_cover(f, body, CALIBRATED, eta, mean)
    patches, separators, failures = sequential_gamma_cover(
        f, body, CALIBRATED, eta, mean)
    assert [tuple(_bits(v) for v in p) for p in patches] == row_bits(
        cover.centers, cover.directions, cover.scales)
    assert [_bits(s) for s in separators] == [_bits(s) for s in cover.separators]
    assert cover.failures == failures
    return cover


@pytest.mark.parametrize("case", sorted(SEQUENTIAL_CASES))
def test_cover_matches_sequential_search(case, monkeypatch):
    # The blocked search must reproduce the per-ball loops bit for bit.
    make, block = SEQUENTIAL_CASES[case]
    f, body, eta, *mean = make(monkeypatch)
    monkeypatch.setattr(explore_nd, "BALL_BLOCK", block)
    cover = cover_against_oracle(f, body, eta, *mean)
    if case.startswith("kink"):  # balls across the kink keep both pieces
        assert {tuple(d) for d in cover.directions} == {(1.0, 0.0),
                                                        (-1.0, 0.0)}
        assert len(cover.scales) + len(cover.separators) > explore_nd.PHI_COUNT
    if case == "constant":
        assert len(cover.scales) == 0 and cover.failures == explore_nd.PHI_COUNT


# -- the patch certificate ----------------------------------------------------------

CUBE = {n: ConvexBody.box([-1.0] * n, [1.0] * n) for n in (2, 3)}


def random_max_affine(n, seed, form):
    """2-6 pieces whose boundaries pass near the origin, where the placement
    balls lie; a form puts 2|H|delta from well below xi|g| to above it."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 7))
    slopes, offsets = rng.standard_normal((p, n)), 0.02 * rng.standard_normal(p)
    if not form:
        return MaxAffineFunction(offsets, slopes)
    a = rng.standard_normal((n, n))
    return MaxAffineFunction(offsets, slopes, quad=rng.uniform(1.0, 12.0) * a @ a.T)


@pytest.mark.parametrize("form", [False, True], ids=["linear", "form"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_certified_cover_matches_sequential_search(n, form, seed):
    # The pieces' boundaries cross the placement balls, so some balls keep
    # one patch per top piece, each at its own candidate centre.
    f = random_max_affine(n, 600 + 10 * n + seed, form)
    cover = cover_against_oracle(f, CUBE[n], 1e-6)
    balls = len(explore_nd._unit_net(n, explore_nd.PHI_COUNT)) - len(
        cover.separators)
    assert len(cover.scales) > balls
    centers = {c.tobytes() for c in cover.centers}
    assert len(centers) == len(cover.scales)


@pytest.mark.parametrize("n", [2, 3])
def test_one_table_tests_the_reference_blocks(n, monkeypatch):
    # A block of 1-4 balls near the pieces' boundaries is decided from one
    # piece table, and gives the patches and failures of the reference's
    # loops over balls, candidates and pieces. At delta 0.02 some balls keep
    # more than one patch, and some none.
    tables, evaluate = [], explore_nd._certify_block

    def count(f, centers, *args):
        tables.append(len(centers))
        return evaluate(f, centers, *args)

    monkeypatch.setattr(explore_nd, "_certify_block", count)
    several = failed = 0
    for seed in range(24):
        f = random_max_affine(n, 800 + seed, form=True)
        rng = np.random.default_rng(seed)
        xi = CALIBRATED.xi(n)
        for k in range(1, 5):
            rows = rng.uniform(-0.3, 0.3, (k, n))
            monkeypatch.setattr(explore_nd, "BALL_BLOCK", k)
            tables.clear()
            *found, failures = find_stable_gradient_patch(f, rows, 0.005,
                                                          0.02, xi)
            assert tables == [k]
            ref, ref_failures = certified_patches_reference(f, rows, 0.005,
                                                            0.02, xi)
            assert row_bits(*found) == [tuple(_bits(v) for v in p)
                                        for p in ref]
            assert failures == ref_failures
            several += len(found[2]) > k - failures
            failed += failures > 0
    assert several > 0 and failed > 0


def soundness_violations(f, cover, xi, rng, m=10_000):
    """Fresh points of each patch ball of the cover whose subgradient lies
    farther than xi|ĝ| from ĝ = scale·direction; the ball's boundary sphere
    included."""
    bad = 0
    for center, direction, scale in zip(cover.centers, cover.directions,
                                        cover.scales):
        u = rng.standard_normal((m, f.dimension))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = cover.radius * rng.uniform(0.0, 1.0, m) ** (1.0 / f.dimension)
        r[: m // 10] = cover.radius
        pts = center + u * r[:, None]
        dev = np.linalg.norm(f.subgradients(pts) - scale * direction, axis=1)
        bad += int(np.count_nonzero(dev > xi * scale))
    return bad


@pytest.mark.parametrize("form", [False, True], ids=["linear", "form"])
@pytest.mark.parametrize("n", [2, 3])
def test_certified_patches_hold_on_fresh_points(n, form):
    # Brute force: on 10^4 fresh points of each certified ball (a tenth of
    # them on its boundary sphere), every subgradient lies within xi|ĝ| of ĝ.
    rng = np.random.default_rng(40 + n)
    count = 0
    for seed in range(4):
        f = random_max_affine(n, 900 + 10 * n + seed, form)
        cover = build_gamma_cover(f, CUBE[n], CALIBRATED, 1e-6,
                                  centroid(CUBE[n]))
        assert soundness_violations(f, cover, CALIBRATED.xi(n), rng) == 0
        count += len(cover.scales)
    assert count > 0


def _one_ball(f, delta, xi, n):
    """The search on one ball of radius 0 at the origin: its one candidate
    is the ball's centre."""
    return find_stable_gradient_patch(f, np.zeros((1, n)), 0.0, delta, xi)


@pytest.mark.parametrize("n", [2, 3])
def test_certificate_edge_of_a_runner_up_piece(n):
    # Piece 1 trails piece 0 at the centre by s·delta|b_0 - b_1|. Above
    # s = 1 it cannot top on the ball, and the centre is certified whatever
    # the spread |b_1 - b_0|. Below s = 1 it can, and the centre is
    # certified only while the spread stays below xi|b_0|: the ball's point
    # that piece 1 tops has a subgradient |b_1 - b_0| away from ĝ = b_0.
    delta, xi = 0.01, CALIBRATED.xi(n)
    b0, e = np.random.default_rng(n).standard_normal((2, n))
    e /= np.linalg.norm(e)
    for spread in (1 - 1e-6, 1 + 1e-6, 3.0):
        b1 = b0 + spread * xi * np.linalg.norm(b0) * e
        gap = np.linalg.norm(b1 - b0)
        for s in (1 + 1e-6, 1 - 1e-6, 0.5):
            f = MaxAffineFunction([0.0, -s * delta * gap], [b0, b1])
            _, directions, scales, failures = _one_ball(f, delta, xi, n)
            certified = s > 1 or spread < 1
            assert (len(scales), failures) == ((1, 0) if certified else (0, 1))
            if certified:
                assert scales[0] * directions[0] == pytest.approx(b0, rel=1e-15)
            else:  # the bound is sharp: this point breaks the patch
                x = delta * (b1 - b0) / gap
                assert f.subgradients(x[None])[0].tolist() == b1.tolist()
                assert np.linalg.norm(b1 - b0) > xi * np.linalg.norm(b0)


@pytest.mark.parametrize("n", [2, 3])
def test_certificate_edge_of_the_form_bound(n):
    # f = b·x + c|x|², so at the centre ĝ = b and on the ball the
    # subgradient moves by up to 2c·delta. With c set so that 2c·delta =
    # s·xi|b|, the centre is certified just below s = 1 and not just above,
    # where the ball's point delta·b/|b| breaks the patch.
    delta, xi = 0.01, CALIBRATED.xi(n)
    b = np.random.default_rng(10 + n).standard_normal(n)
    for s in (1 - 1e-6, 1 + 1e-6):
        c = s * xi * np.linalg.norm(b) / (2.0 * delta)
        f = MaxAffineFunction([0.0], [b], eta=c)
        _, directions, scales, failures = _one_ball(f, delta, xi, n)
        if s < 1:
            assert (len(scales), failures) == (1, 0)
            assert scales[0] * directions[0] == pytest.approx(b, rel=1e-15)
        else:
            assert (len(scales), failures) == (0, 1)
            x = delta * b / np.linalg.norm(b)
            dev = np.linalg.norm(f.subgradients(x[None])[0] - b)
            assert dev > xi * np.linalg.norm(b)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.booleans(), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 60))
def test_patches_keep_their_bits_under_any_block_size(n, form, seed, block):
    # Every sum of the certificate runs in a fixed column order, so a
    # ball's patches do not depend on how many balls share its table.
    f = random_max_affine(n, seed, form)
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-0.3, 0.3, (int(rng.integers(1, 50)), n))
    delta = float(rng.uniform(0.002, 0.05))
    runs = []
    for size in (explore_nd.BALL_BLOCK, block):
        with mock.patch.object(explore_nd, "BALL_BLOCK", size):
            *found, failures = find_stable_gradient_patch(
                f, centers, 0.01, delta, CALIBRATED.xi(n))
        runs.append((row_bits(*found), failures))
    assert runs[0] == runs[1]


def test_patches_hold_copies_of_their_centres(monkeypatch):
    # A stage keeps only its own rows: a view would keep the cover's arrays,
    # or a block's candidate table, alive for as long as the build's report.
    covers, build = [], explore_nd.build_gamma_cover

    def kept_cover(*args):
        covers.append(build(*args))
        return covers[-1]

    monkeypatch.setattr(explore_nd, "build_gamma_cover", kept_cover)
    _, fields, _ = single_scale_measure(pure_quadratic(2), BOX, CALIBRATED,
                                        1e-6, centroid(BOX))
    (cover,) = covers
    assert cover.centers.base is None and cover.directions.base is None
    assert fields["patches"]
    rows = [b.center for b in fields["patches"]]
    rows += [fields["directions"], fields["scales"]]
    assert not any(np.shares_memory(r, a) for r in rows
                   for a in (cover.centers, cover.directions, cover.scales))


class _NoDraws:
    """A generator stand-in that fails on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"the build used its generator ({name})")


@pytest.mark.parametrize("n", [2, 3])
def test_build_draws_nothing_from_its_generator(n):
    # n >= 2 builds are functions of their input: a generator that raises on
    # use is never touched, and the measure is the one built without it.
    rng = np.random.default_rng(3)
    if n == 2:
        body = random_polygon(rng)
        f = random_cone_2d(rng, body)
    else:
        body, f = CUBE[3], pure_quadratic(3)
    measure, report = build_exploratory_measure(body, f, 0.25, rng=_NoDraws())
    again, _ = build_exploratory_measure(body, f, 0.25)
    assert np.array_equal(measure.sample(200, np.random.default_rng(4)),
                          again.sample(200, np.random.default_rng(4)))
    assert report.child.dimension == n - 1


# -- single scale ------------------------------------------------------------------

def test_single_scale_structure():
    body = ConvexBody.box([-1.0, -1.0], [1.0, 1.0])
    measure, fields, inside = single_scale_measure(pure_quadratic(2), body,
                                                   CALIBRATED, 1e-6,
                                                   centroid(body))
    k = len(measure.components)
    assert k <= 3
    assert all(isinstance(c, UniformBall) for c in measure.components)
    assert measure.weights == (1.0 / k,) * k
    # the record's patches are the measure's balls, not copies of them
    assert len(fields["patches"]) == k
    assert all(a is b for a, b in zip(measure.components, fields["patches"]))
    assert fields["directions"].shape == (k, 2)
    assert fields["scales"].shape == (k,)
    assert fields["xi"] == CALIBRATED.xi(2)
    assert hull_norm_of(fields["directions"]) <= GAMMA
    assert np.linalg.norm(fields["slab_direction"]) == pytest.approx(1.0)
    assert fields["slab_halfwidth"] > 0.0
    assert fields["raw_patch_count"] == explore_nd.PHI_COUNT
    assert fields["separator_count"] == fields["failures"] == 0
    # no-good-direction polytope admits no ball beyond 2*M*gamma (= 1/4)
    assert fields["inscribed_radius"] <= 0.25 * 1.05
    # the cut polytope's Chebyshev centre clears the body and the slab
    clear = fields["inscribed_radius"] * (1 - 1e-9)
    assert np.all(body.normals @ inside <= body.offsets - clear)
    assert abs(fields["slab_direction"] @ inside) <= \
        fields["slab_halfwidth"] - clear
    pts = measure.sample(200, np.random.default_rng(2))
    assert all(body.contains(x, tol=1e-9) for x in pts)


def c3_build(i):
    """c3's build i (seed 90000 + i): a cone for i < 10, else a quadratic."""
    rng = np.random.default_rng(90000 + i)
    body = random_polygon(rng)
    eps = 0.05 if i % 2 else 0.1
    f = (random_cone_2d(rng, body) if i < 10
         else _random_quadratic_2d(rng, body))
    return multi_scale_measure(f, body, eps)[1]


def test_certificate_holds_on_fresh_draws():
    # Every kept patch of c3's 20 builds and of each level of the 3-D cube
    # build: at each of 768 fresh uniform points of its ball, the subgradient
    # lies within xi·scale of scale·direction. c3 itself asks only for half
    # of them, less three Wilson half-widths.
    _, cube = build_exploratory_measure(CUBE[3], pure_quadratic(3), 0.25)
    levels = [c3_build(i) for i in range(20)] + [cube, cube.child]
    rng = np.random.default_rng(34)
    patches = worst = 0
    for level in levels:
        for stage in level.stages:
            for _, _, ratio in patch_deviations(stage, rng):
                patches += 1
                worst = max(worst, float(ratio.max()))
    assert patches > 0 and 0.0 < worst <= 1.0


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
        multi_scale_measure(pure_quadratic(2), body, 0.5)


def test_multi_scale_stage_invariants():
    # Volume halving, hull norm, patch budget, inscribed-ball bound, nesting,
    # fresh re-verification, and direction consistency across seeded instances.
    gamma = CALIBRATED.gamma(2)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        body = random_polygon(rng)
        f = random_cone_2d(rng, body)
        _, res = multi_scale_measure(f, body, 0.05)
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
            for ball, direction, frac, half in reverify_stage(stage, fresh):
                assert frac >= 0.5 - 3.0 * half
                align = float(direction @ ball.center)
                assert align >= -(stage.xi + ball.radius)


def test_multi_scale_measure_supported_inside_body():
    rng = np.random.default_rng(4)
    body = random_polygon(rng)
    f = random_cone_2d(rng, body)
    measure, _ = multi_scale_measure(f, body, 0.05)
    assert abs(math.fsum(measure.weights) - 1.0) <= WEIGHT_TOL
    assert all(isinstance(c, Pushforward) for c in measure.components)
    pts = measure.sample(400, np.random.default_rng(5))
    assert all(body.contains(x, tol=1e-8) for x in pts)


def test_multi_scale_records_minimiser():
    body = ConvexBody.box([-1.0, -1.0], [1.0, 1.0])
    f = pure_quadratic(2).translate([0.3, -0.2])  # minimum at (-0.3, 0.2)
    _, report = multi_scale_measure(f, body, 0.1)
    assert report.base_point == pytest.approx([-0.3, 0.2], abs=1e-6)
    assert report.profile == "calibrated"
    assert report.dimension == 2


class OneStageProfile(ConstantProfile):
    """The calibrated constants with the stage loop capped at one stage."""

    def stage_cap(self, n: int, eps: float) -> int:
        return 1


def test_multi_scale_capped_build():
    # one stage leaves a slab wider than the stop width: the loop stops at
    # the cap, warns once and reports the slab of the body it left
    body = ConvexBody.box([-1.0, -1.0], [1.0, 1.0])
    profile = OneStageProfile("calibrated")
    with pytest.warns(UserWarning) as record:
        _, report = multi_scale_measure(pure_quadratic(2), body, 0.1, profile)
    assert len(report.stages) == 1
    assert report.capped
    assert [str(w.message) for w in record] == [
        "stage cap reached before the stop width"]
    assert report.slab_halfwidth == pytest.approx(0.0722, abs=1e-4)
    assert report.slab_halfwidth > profile.stop_width(2, 0.1) == 0.0125
    with pytest.warns(UserWarning, match="stage cap reached"):
        measure, report = build_exploratory_measure(body, pure_quadratic(2),
                                                    0.1, profile)
    assert report.capped
    assert body.contains(measure.sample(400, np.random.default_rng(1)),
                         tol=1e-8).all()


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), eps=st.sampled_from([0.05, 0.1, 0.25]),
       at_vertex=st.booleans())
def test_carried_point_clears_the_final_slab(seed, eps, at_vertex):
    # The last cut polytope's Chebyshev centre, carried out of the stage
    # loop, lies strictly inside the level's final slab, as the build forms
    # it, so it can seed that slab's vertex list in place of an LP. The
    # minimiser, on the slab's mid-line, need not: it can be a vertex.
    rng = np.random.default_rng(seed)
    body = random_polygon(rng)
    f = random_cone_2d(rng, body)
    if at_vertex:  # move the cone's apex onto a vertex of the polygon
        f = f.translate(argmin(f, body) - body.vertices()[0])
    w_map = whitening_map(body.estimate_moments())
    whitened = affine_image(body, w_map)
    try:
        _, report = multi_scale_measure(f.compose_affine(w_map.inverse()),
                                        whitened, eps)
    except CONSTRUCTION_ERRORS:  # a minimiser on the boundary can fail the cover
        reject()
    theta = report.direction / np.linalg.norm(report.direction)
    delta = max(report.slab_halfwidth,
                CALIBRATED.stop_width(2, eps)) * (1.0 + 1e-9)
    final = slab(whitened, theta, delta, center=report.base_point)
    assert np.min(final.offsets - final.normals @ report.inside) > 0.0


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
    assert abs(math.fsum(measure.weights) - 1.0) <= 1e-12


def test_build_two_dimensional_structure():
    rng = np.random.default_rng(3)
    body = random_polygon(rng)
    f = random_cone_2d(rng, body)
    measure, report = build_exploratory_measure(body, f, 0.05)
    # one whitening pushforward wraps the stage/lift mixture
    assert len(measure.components) == 1
    assert isinstance(measure.components[0], Pushforward)
    assert measure.weights == (1.0,)
    inner = measure.components[0].inner
    assert isinstance(inner.components[-1], FiberLift)
    assert inner.weights[-1] == 0.5
    n_stages = len(report.stages)
    assert inner.weights[:-1] == (1.0 / n_stages / 2,) * n_stages
    assert report.dimension == 2
    assert report.child.dimension == 1
    assert np.linalg.norm(report.direction) == pytest.approx(1.0)
    pts = measure.sample(400, np.random.default_rng(9))
    assert all(body.contains(x, tol=1e-8) for x in pts)


@pytest.mark.parametrize("body", [
    ConvexBody(2, [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1], [0, 0], 1.2),
    ConvexBody(2, ball_center=[0.0, 0.0], ball_radius=1.0)],
    ids=["square_in_ball", "disk"])
def test_build_with_an_active_ball(body):
    # the ball cuts the body, so the build works on its 64-gon
    f = MaxAffineFunction([0.1, 0.1, 0.1],
                          [[0.5, 0.0], [-0.3, 0.4], [-0.3, -0.4]])
    assert not body.ball_is_redundant()
    measure, report = build_exploratory_measure(body, f, 0.25)
    assert report.child.dimension == 1
    pts = measure.sample(1200, np.random.default_rng(10))
    assert body.contains(pts, tol=1e-8).all()


def test_build_three_dimensional_smoke():
    body = ConvexBody.box([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
    measure, report = build_exploratory_measure(body, pure_quadratic(3), 0.25)
    dims = []
    node = report
    while node is not None:
        dims.append(node.dimension)
        node = node.child
    assert dims == [3, 2, 1]
    pts = measure.sample(300, np.random.default_rng(1))
    assert all(body.contains(x, tol=1e-8) for x in pts)


def c4_build():
    cal = load_calibration(2)
    rng = np.random.default_rng(cal["fresh_seeds"][1])
    body = random_polygon(rng)
    f, _, _ = random_dip_pair_2d(rng, body, cal["eps"])
    return body, f, cal["eps"]


# (inputs, stages per level, Chebyshev LPs besides the stages', ConvexHull
# calls) of two builds. The cube solves an LP at its first vertex list; its
# 2-D shadow takes its vertex list from its hull, with no LP, and c4's
# polygon solved its LP when it was made.
SOLVE_COUNTS = {
    "c4": (c4_build, [3, 0], 0, 11),
    "cube": (lambda: (ConvexBody.box([-1.0] * 3, [1.0] * 3),
                      pure_quadratic(3), 0.25), [4, 3, 0], 1, 26),
}


@pytest.mark.parametrize("case", sorted(SOLVE_COUNTS))
def test_stages_solve_one_lp_each_and_decompose_once(case, monkeypatch):
    # A stage solves one LP, the cut polytope's Chebyshev ball: the whitened
    # body places its patch balls toward its centroid ball, and the kept
    # slab and each level's final slab seed their vertex lists with a point
    # inside. A level's argmin is one solve: c4's piecewise-linear LPs are
    # certified unique vertices, so no sweep runs, and the cube's are QPs.
    # work and whitened inherit the kept slab's decomposition through
    # affine_image, so only the kept slab's volume and each level's input
    # body's moments run a ConvexHull.
    make, stages, extra, hulls = SOLVE_COUNTS[case]
    inputs = make()
    solves, calls = collections.Counter(), collections.Counter()
    decomposed = collections.Counter()
    solve, hull = _highs.solve, scipy.spatial.ConvexHull

    def by_caller(*args, **kwargs):
        solves[sys._getframe(1).f_code.co_name] += 1
        return solve(*args, **kwargs)

    def counted_hull(*args, **kwargs):
        calls["hull"] += 1
        return hull(*args, **kwargs)

    def watched(name, method):
        def wrapped(self):
            before = calls["hull"]
            out = method(self)
            calls[name] += 1
            decomposed[name] += calls["hull"] - before
            return out
        return wrapped

    monkeypatch.setattr(_highs, "solve", by_caller)
    monkeypatch.setattr(scipy.spatial, "ConvexHull", counted_hull)
    for name in ("estimate_moments", "volume"):
        monkeypatch.setattr(ConvexBody, name,
                            watched(name, getattr(ConvexBody, name)))
    _, report = build_exploratory_measure(*inputs)
    levels = []
    while report is not None:
        levels.append(len(report.stages))
        report = report.child
    assert levels == stages
    total, solids = sum(levels), len(levels) - 1  # the last level is 1-D
    assert solves == {"_chebyshev_ball": total + extra, "argmin": len(levels)}
    assert calls["hull"] == hulls
    assert (calls["estimate_moments"], decomposed["estimate_moments"]) == (
        solids + total, solids)
    assert (calls["volume"], decomposed["volume"]) == (2 * total, total)


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
