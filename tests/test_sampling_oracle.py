"""Measure sampling holds every draw to the bits of the reference copies in
``oracles``: the same leaves, the same per-leaf predicate batches, the same
chords (signed zeros included) and the same generator state afterwards."""
import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexplore import bandit
from convexplore.bandit import (LikelihoodModel, ScenarioSet, _higher_index,
                                _sorted_quantiles, build_net, hypothesis_test,
                                run_game)
from convexplore.calibration import load_calibration
from convexplore.convexfn import MaxAffineFunction
from convexplore.explore1d import (ExplorationMeasure, FiberLift, PointMass,
                                   build_measure_1d, dyadic_measure_1d)
from convexplore.explore_nd import build_exploratory_measure, with_retries
from convexplore.fileio import function_from_dict
from convexplore.geometry import AffineMap, ConvexBody
from convexplore.instances import (random_dip_pair_1d, random_dip_pair_2d,
                                   random_interval, random_polygon)
from oracles import (chord_bounds_reference, chord_bounds_rowwise,
                     event_probability_reference, flatten_reference,
                     hypothesis_test_reference, sample_permuted_reference,
                     sample_reference)

SIZES = (1, 2, 7, 4096, 10001)


def _c4_measures(count=3):
    cal = load_calibration(2)
    out = []
    for i in range(count):
        rng = np.random.default_rng(cal["fresh_seeds"][i])
        body = random_polygon(rng)
        f, g, _ = random_dip_pair_2d(rng, body, cal["eps"])
        (mu, _), _ = with_retries(
            lambda r: build_exploratory_measure(body, f, cal["eps"], rng=r),
            cal["fresh_build_offset"] + i)
        out.append((mu, f, g, cal["eps"]))
    return out


def _cube_measure():
    # the console-script smoke build: |x|^2 on the cube, eps 0.25, seed 0;
    # its fiber lifts nest 3 -> 2 -> 1
    body = ConvexBody.box([-1.0] * 3, [1.0] * 3)
    f = function_from_dict({"dimension": 3, "eta": 1.0,
                            "pieces": [{"a": 0.0, "y": [0.0, 0.0, 0.0]}]})
    g = function_from_dict({"dimension": 3, "eta": 1.0,
                            "pieces": [{"a": -0.3, "y": [0.2, 0.0, 0.0]}]})
    mu, _ = build_exploratory_measure(body, f, 0.25, rng=np.random.default_rng(0))
    return mu, f, g, 0.25


@pytest.fixture(scope="module")
def measures():
    unit = ConvexBody.interval(0.0, 1.0)
    one_d = [(dyadic_measure_1d(ConvexBody.interval(lo, hi), x0, eps), None,
              None, eps)
             for lo, hi, x0, eps in [(0.0, 1.0, 0.5, 0.125), (-2.0, 3.0, -2.0, 0.3),
                                     (0.25, 0.5, 0.5, 1.0)]]
    one_d.append((dyadic_measure_1d(unit, 0.7, 0.01), None, None, 0.01))
    return one_d + _c4_measures() + [_cube_measure()]


def test_cube_measure_nests_fiber_lifts(measures):
    mu = measures[-1][0]
    dims = []
    while mu is not None:
        dims.append(mu.dimension)
        lifts = [c for _, c, _ in mu.flatten() if isinstance(c, FiberLift)]
        mu = lifts[0].base if lifts else None
    assert dims == [3, 2, 1]


def test_flatten_is_cached_with_the_same_leaves(measures):
    for mu, *_ in measures:
        leaves = mu.flatten()
        assert mu.flatten() is leaves
        ref = flatten_reference(mu)
        assert len(leaves) == len(ref)
        for (w, comp, amap), (w_ref, comp_ref, amap_ref) in zip(leaves, ref):
            assert w == w_ref and comp is comp_ref
            assert (amap is None) == (amap_ref is None)
            if amap is not None:
                assert amap.matrix.tobytes() == amap_ref.matrix.tobytes()
                assert amap.offset.tobytes() == amap_ref.offset.tobytes()


@pytest.mark.parametrize("m", SIZES)
def test_sample_matches_reference_bits(measures, m):
    for k, (mu, *_) in enumerate(measures):
        for seed in (k, 100 + k):
            rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(2):      # the second call reads the cached leaves
                pts = mu.sample(m, rng)
                ref = sample_reference(mu, m, rng_ref)
                assert pts.shape == ref.shape == (m, mu.dimension)
                assert pts.tobytes() == ref.tobytes(), (k, seed, m)
            assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("m", SIZES)
def test_one_d_rows_are_the_permuted_draws_before_their_permutation(measures, m):
    # the permutation drawn next puts the rows in the order the sampler
    # used to return them, and leaves the generator where it left it
    for k, (mu, *_) in enumerate(measures):
        if mu.dimension != 1:
            continue
        for seed in (k, 100 + k):
            rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            pts = mu.sample(m, rng)
            old = sample_permuted_reference(mu, m, rng_ref)
            assert np.take(pts, rng.permutation(m), axis=0).tobytes() == old.tobytes()
            assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_step2_draws_are_the_permuted_draws(monkeypatch):
    """Every step-2 draw of a 1-D game equals the permuted sampler's draws
    from the same generator state, and leaves the generator where it did."""
    horizon = 64
    unit = ConvexBody.interval(0.0, 1.0)
    net = build_net(unit, horizon)
    vees = [MaxAffineFunction([0.1 + 0.7 * c, 0.1 - 0.7 * c], [[-0.7], [0.7]])
            for c in (np.arange(8) + 0.5) / 8]
    sset = ScenarioSet(vees, [0.125] * 8, net, horizon, body=unit)
    sample, loss_values = ExplorationMeasure.sample, bandit.loss_values
    pending, steps = [], []

    def spy_sample(mu, m, rng):
        pending.append((mu, m, copy.deepcopy(rng.bit_generator.state), rng))
        return sample(mu, m, rng)

    def spy_loss_values(sset, t, pts):
        if pending:     # the draws of the sample just taken, and the state
            mu, m, state, rng = pending.pop()
            steps.append((mu, m, state, pts.copy(), rng.bit_generator.state))
        return loss_values(sset, t, pts)

    monkeypatch.setattr(ExplorationMeasure, "sample", spy_sample)
    monkeypatch.setattr(bandit, "loss_values", spy_loss_values)
    for seed in range(3):
        run_game(sset, seed=seed,
                 likelihood=LikelihoodModel("gaussian", sigma=0.25))
    assert len(steps) >= 3 and not pending
    for mu, m, state, draws, after in steps:
        assert m == bandit.EXPLORE_SAMPLES == draws.shape[0]
        rng_ref = np.random.default_rng()
        rng_ref.bit_generator.state = state
        assert draws.tobytes() == sample_permuted_reference(mu, m, rng_ref).tobytes()
        assert rng_ref.bit_generator.state == after


@pytest.mark.parametrize("m", SIZES)
def test_event_probability_matches_reference(measures, m):
    for k, (mu, f, g, eps) in enumerate(measures):
        if f is None:           # a 1-D measure: a band around its midpoint
            segment = mu.flatten()[0][1]
            lo, hi = segment.lo, segment.hi

            def event(pts, batches):
                batches.append(pts.tobytes())
                return np.abs(pts[:, 0] - 0.5 * (lo + hi)) < 0.1 * (hi - lo)
        else:
            def event(pts, batches):
                batches.append(pts.tobytes())
                fv, gv = f.value(pts), g.value(pts)
                return np.abs(fv - gv) > 0.5 * np.maximum(eps, fv)
        got, ref = [], []
        rng, rng_ref = np.random.default_rng(k), np.random.default_rng(k)
        p = mu.event_probability(lambda x: event(x, got), m, rng)
        p_ref = event_probability_reference(mu, lambda x: event(x, ref), m,
                                            rng_ref)
        assert p == p_ref
        assert got == ref       # the same batch per leaf, in the same order
        assert rng.bit_generator.state == rng_ref.bit_generator.state


def _random_body(rng, n):
    facets = int(rng.integers(12, 40))
    normals = rng.standard_normal((facets, n))
    return ConvexBody(n, normals, rng.uniform(0.6, 1.2, facets),
                      np.zeros(n), 2.0)


def _unit_rows(rng, m, n):
    d = rng.standard_normal((m, n))
    return d / np.linalg.norm(d, axis=1)[:, None]


def _chord_scale(body, X, d, t_lo, t_hi):
    """The size of the terms a row's chord ends are computed from: the ends
    themselves, |x - c| + r for the ball, and each facet not parallel to d's
    (|b| + sum |x_i n_i|) / |rate|."""
    scale = np.maximum(np.abs(t_lo), np.abs(t_hi))
    scale = np.maximum(scale, np.linalg.norm(X - body.ball_center, axis=1)
                       + body.ball_radius)
    if body.has_halfspaces:
        rate = np.abs(body.normals @ d)
        keep = rate > 1e-14
        terms = ((np.abs(body.offsets[keep]) + np.abs(X) @ np.abs(body.normals[keep]).T)
                 / rate[keep])
        scale = np.maximum(scale, terms.max(axis=1, initial=0.0))
    return scale


def _same_chords(body, points, direction):
    """The chords have the per-row reference's bits, and lie within 4 ulps of
    their scale of the matmul-form chords, with the same rows of zero length
    and the same of those touching the body."""
    X = np.atleast_2d(points)
    got = body.chord_bounds(X, direction)
    ref = chord_bounds_rowwise(body, X, direction)
    if not all(a.tobytes() == b.tobytes() for a, b in zip(got, ref)):
        return False
    old = chord_bounds_reference(body, X, direction)
    short, short_old = ((hi - lo) <= 1e-12 for lo, hi in (got, old))
    touch, touch_old = (body.contains(X[short] + hi[short, None] * direction)
                        for _, hi in (got, old))
    if not ((short == short_old).all() and (touch == touch_old).all()):
        return False
    ulp = np.spacing(_chord_scale(body, X, direction, *old)[~short])
    return all((np.abs(a[~short] - b[~short]) <= 4 * ulp).all()
               for a, b in zip(got, old))


def test_chord_bounds_match_reference_on_random_bodies():
    rng = np.random.default_rng(2015)
    for case in range(200):
        n = 2 + case % 2
        body = _random_body(rng, n)
        m = int(rng.choice([1, 2, 7, 40, 513]))
        # interior points, and far ones whose lines may miss the body
        pts = rng.standard_normal((m, n)) * rng.choice([0.2, 1.5, 4.0])
        shared = _unit_rows(rng, 1, n)[0]
        assert _same_chords(body, pts, shared), case
        assert _same_chords(body, pts, -shared), case


def test_chord_bounds_match_reference_on_edge_lines():
    box = ConvexBody.box([-1.0, -1.0], [1.0, 1.0])
    e1, diag = np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2.0)
    # parallel to the facets y = ±1: inside, on them, just past contains'
    # tol, and far outside (a miss)
    ys = [0.0, 0.5, 1.0, -1.0, 1.0 + 5e-10, 1.0 + 2e-9, -3.0, 3.0]
    pts = np.array([[0.3, y] for y in ys])
    assert _same_chords(box, pts, e1)
    assert _same_chords(box, pts, -e1)
    t_lo, t_hi = box.chord_bounds(pts, e1)
    assert np.isfinite(t_hi).all() and (t_lo[-3:] == t_hi[-3:]).all()
    # lines through a vertex, and lines that only touch a corner
    corners = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
    for d in (e1, -e1, diag, -diag, np.array([1.0, -1.0]) / np.sqrt(2.0)):
        assert _same_chords(box, corners, d)
    assert _same_chords(box, np.array([[2.0, 0.0], [0.0, 2.0]]), diag)


def test_chord_bounds_keep_the_sign_of_a_zero_slack():
    # facets through the origin with offsets +0.0 and -0.0: the origin's
    # slacks are signed zeros, and so are its ratios on either side
    normals = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0],
               [1.0, 1.0]]
    for offsets in ([-0.0, 0.0, 1.0, 1.0, 0.0], [0.0, -0.0, 1.0, 1.0, -0.0],
                    [-0.0, -0.0, 1.0, 1.0, 0.0]):
        for order in ([0, 1, 2, 3, 4], [4, 1, 0, 3, 2], [2, 4, 3, 0, 1]):
            body = ConvexBody(2, np.array(normals)[order],
                              np.array(offsets)[order], [0.0, 0.0], 3.0)
            origin = np.zeros((3, 2))
            for d in ([1.0, 1.0], [-1.0, -1.0], [1.0, 0.0], [0.0, -1.0]):
                d = np.array(d) / np.linalg.norm(d)
                assert _same_chords(body, origin, d), (offsets, order, d)
            got = body.chord_bounds(origin, np.array([1.0, 1.0]) / np.sqrt(2.0))
            assert (got[1] == 0.0).all()


def _split_case(kind, n, seed, m):
    """A body, m points and a unit direction: a random body, the box with
    points on and beside its facets and corners, or a body with signed-zero
    offsets through the origin (2-D) and points at the origin."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        body = _random_body(rng, n)
        pts = rng.standard_normal((m, n)) * rng.choice([0.2, 1.5, 4.0])
        return body, pts, _unit_rows(rng, 1, n)[0]
    if kind == "box":
        body = ConvexBody.box([-1.0] * n, [1.0] * n)
        levels = np.array([0.0, 0.5, 1.0, -1.0, 1.0 + 5e-10, 1.0 + 2e-9, -3.0, 3.0])
        pts = rng.choice(levels, (m, n))
        axes = np.vstack([np.eye(n), -np.eye(n), np.ones((1, n)), _unit_rows(rng, 1, n)])
        d = axes[rng.integers(len(axes))]
        return body, pts, d / np.linalg.norm(d)
    normals = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    offsets = rng.choice([0.0, -0.0], 5)
    offsets[[2, 3]] = 1.0
    order = rng.permutation(5)
    body = ConvexBody(2, normals[order], offsets[order], [0.0, 0.0], 3.0)
    pts = np.where(rng.random((m, 2)) < 0.5, rng.choice([0.0, -0.0], (m, 2)),
                   rng.standard_normal((m, 2)))
    d = rng.choice([-1.0, 0.0, 1.0], 2)
    d = d if d.any() else np.array([1.0, 1.0])
    return body, pts, d / np.linalg.norm(d)


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["random", "box", "signed_zero"]), n=st.sampled_from([2, 3]),
       seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 300),
       cuts=st.lists(st.integers(0, 300), max_size=6))
def test_chord_bounds_rows_keep_their_bits_under_any_split(kind, n, seed, m, cuts):
    body, pts, d = _split_case(kind, n if kind != "signed_zero" else 2, seed, m)
    whole = body.chord_bounds(pts, d)
    ends = sorted({0, m, *(c % (m + 1) for c in cuts)})
    parts = [body.chord_bounds(pts[a:b], d) for a, b in zip(ends, ends[1:])]
    for k in (0, 1):
        assert whole[k].tobytes() == np.concatenate([p[k] for p in parts]).tobytes()
    assert _same_chords(body, pts, d)


@pytest.mark.parametrize("size", [1, 2, 33])
def test_sorted_quantiles_match_numpy_small(size):
    rng = np.random.default_rng(size)
    q = np.linspace(0.0, 1.0, 33)
    for _ in range(200):
        pool = np.sort(rng.integers(0, 3, size) * rng.exponential())
        assert _sorted_quantiles(pool, q).tobytes() == np.quantile(pool, q).tobytes()
        pool = np.sort(rng.exponential(size=size))
        assert _sorted_quantiles(pool, q).tobytes() == np.quantile(pool, q).tobytes()


def test_sorted_quantiles_match_numpy_random_sizes():
    rng = np.random.default_rng(30000)
    q = np.linspace(0.0, 1.0, 33)
    for k in range(120):
        size = int(rng.integers(1, 30001))
        if k % 3 == 0:      # heavy ties
            pool = rng.integers(0, 5, size) * rng.random()
        elif k % 3 == 1:
            pool = rng.exponential(size=size)
        else:               # statistics of the form |y - f| / max(eps, f)
            pool = np.abs(np.round(rng.normal(size=size), 2)) / 0.125
        pool = np.sort(pool)
        assert _sorted_quantiles(pool, q).tobytes() == np.quantile(pool, q).tobytes()


# -- products in outer or per-column form ------------------------------------

def _signed_values(rng, shape, zeros):
    """Normal values, about a share ``zeros`` of them +0.0 or -0.0."""
    x = rng.standard_normal(shape)
    pick = rng.random(shape)
    x[pick < zeros] = 0.0
    x[pick < zeros / 2] = -0.0
    return x


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([1, 2, 7, 196, 203, 1041, 10001]),
       p=st.integers(1, 30), n=st.integers(1, 3),
       zeros=st.sampled_from([0.0, 0.2, 0.9]), seed=st.integers(0, 2 ** 32 - 1))
def test_outer_and_column_forms_keep_the_matmul_bits(m, p, n, zeros, seed):
    rng = np.random.default_rng(seed)
    # the 1-D piece table: slopes @ pts.T, then the offsets
    f = MaxAffineFunction(_signed_values(rng, p, zeros),
                          _signed_values(rng, (p, 1), zeros))
    pts = _signed_values(rng, (m, 1), zeros)
    old = f.slopes @ pts.T
    old += f.offsets[:, None]
    assert f._piece_table(pts).tobytes() == old.tobytes()
    # a fiber lift's anchors from a 1-D base
    lift = FiberLift(ExplorationMeasure([1.0], [PointMass([0.0])]),
                     _signed_values(rng, 2, zeros),
                     _signed_values(rng, (2, 1), zeros), [1.0, 0.0],
                     ConvexBody.box([-1.0, -1.0], [1.0, 1.0]))
    anchors = lift.chord_anchors(pts)
    assert anchors.flags.c_contiguous
    assert anchors.tobytes() == (lift.anchor + pts @ lift.frame.T).tobytes()
    # an affine map's offset on a batch, row broadcast or column by column
    amap = AffineMap(_signed_values(rng, (n, n), zeros),
                     _signed_values(rng, n, zeros))
    x = _signed_values(rng, (m, n), zeros)
    assert amap(x).tobytes() == (x @ amap.matrix.T + amap.offset).tobytes()


# -- the hypothesis test -----------------------------------------------------

def test_higher_index_matches_numpy_quantile():
    rng = np.random.default_rng(95)
    sizes = list(range(1, 40)) + [100, 101, 2000, 10000, 10001]
    for n in sizes + rng.integers(2, 30001, 40).tolist():
        ranks = np.arange(n, dtype=float)
        qs = [0.0, 0.5, 1.0] + [1.0 - level for level in (0.01, 0.05, 0.5)]
        qs += rng.random(8).tolist()
        if n > 1:       # q at which (n - 1)·q is a whole number
            qs += [k / (n - 1) for k in rng.integers(0, n, 8).tolist()]
            qs += [k / 100 for k in range(101) if (n - 1) * k % 100 == 0]
        for q in qs:
            assert _higher_index(n, q) == np.quantile(ranks, q, method="higher"), \
                (n, q)


def _one_d_pair(mu):
    """A vee at the measure's first segment's midpoint, with a flat piece
    of offset -0.0, and a copy of it 0.05 lower."""
    segment = mu.flatten()[0][1]
    c = 0.5 * (segment.lo + segment.hi)
    f = MaxAffineFunction([0.1 - 0.6 * c, 0.1 + 0.6 * c, -0.0],
                          [[0.6], [-0.6], [0.0]])
    return f, MaxAffineFunction(f.offsets - 0.05, f.slopes)


@pytest.mark.parametrize("trials", [100, 2000, 10000])
def test_hypothesis_test_matches_reference(measures, trials):
    for k, (mu, f, g, eps) in enumerate(measures):
        if f is None:
            f, g = _one_d_pair(mu)
        for level in (0.01, 0.05, 0.5):
            for sigma in (0.0, 0.25):
                seed = 1000 * k + trials + int(100 * level) + int(4 * sigma)
                rng, rng_ref = (np.random.default_rng(seed),
                                np.random.default_rng(seed))
                got = hypothesis_test(f, g, eps, mu, sigma, trials, rng, level)
                ref = hypothesis_test_reference(f, g, eps, mu, sigma, trials,
                                                rng_ref, level)
                assert repr(got) == repr(ref), (k, level, sigma)
                assert rng.bit_generator.state == rng_ref.bit_generator.state


def _verify_one_d_measures(seed=501, count=10):
    """The 1-D measures of the benchmark's ``verify`` workload at one seed:
    random intervals and dip pairs, eps 2^-(2 + i % 5)."""
    out = []
    for i in range(count):
        eps = 2.0 ** -(2 + i % 5)
        rng = np.random.default_rng([seed, 7, i])
        dom = random_interval(rng)
        f, _, _ = random_dip_pair_1d(rng, dom, eps)
        out.append((build_measure_1d(dom, f, eps), f, eps))
    return out


def test_null_hypothesis_test_keeps_its_size(measures):
    # g = f: the rows come grouped by leaf, and the realised size (and the
    # power, which is a second size) stays within six standard errors of
    # the level
    trials, level = 10_000, 0.05
    bar = level + 6 * math.sqrt(2 * level * (1 - level) / trials)
    cases = _verify_one_d_measures() + [(mu, f, eps) for mu, f, _, eps in measures
                                         if mu.dimension == 2]
    for k, (mu, f, eps) in enumerate(cases):
        for seed in range(20):
            got = hypothesis_test(f, f, eps, mu, 0.25, trials,
                                  np.random.default_rng([k, seed]), level)
            assert got["size"] <= bar and got["power"] <= bar, (k, seed, got)
