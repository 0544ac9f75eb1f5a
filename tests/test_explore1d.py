import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexplore.convexfn import MaxAffineFunction, sum_functions
from convexplore.errors import DimensionMismatchError
from convexplore.errors import InfeasibleBodyError
from convexplore.explore1d import (ExplorationMeasure, FiberLift, PointMass,
                                   Pushforward, UniformBall, UniformSegment,
                                   _event_breakpoints_1d, build_measure_1d,
                                   dyadic_measure_1d, guarantee_threshold_1d,
                                   segment_gap_check, verify_exploration)
from convexplore.geometry import AffineMap, ConvexBody
from convexplore.instances import random_dip_pair_1d, random_interval

from oracles import (grid_event_mass_1d, rational_interval_mass,
                     segment_event_mass)


def interval(lo=0.0, hi=1.0):
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    return ConvexBody(1, [[1.0], [-1.0]], [hi, -lo], [mid], half * 1.2)


def vee(center, level=0.0, slope=1.0):
    return MaxAffineFunction([level - slope * center, level + slope * center],
                             [[slope], [-slope]])


def test_dyadic_structure_at_eps_one_sixteenth():
    # N = ceil(log2 16) + 4 = 8: segments k=0..8 plus the atom, weight 1/10
    mu = build_measure_1d(interval(), vee(0.5), 1 / 16)
    assert len(mu.components) == 10
    assert mu.weights == (1.0 / 10,) * 10
    seg3 = mu.components[3]
    assert isinstance(seg3, UniformSegment)
    # x0 is argmin's certified LP vertex, 0.5 exactly
    assert (seg3.lo, seg3.hi) == (0.375, 0.625)
    assert isinstance(mu.components[-1], PointMass)


def test_dyadic_structure_at_eps_one():
    mu = build_measure_1d(interval(), vee(0.5), 1.0)
    assert len(mu.components) == 6  # N = 4
    assert mu.weights == (1.0 / 6,) * 6


def test_dyadic_clipping_at_boundary():
    mu = build_measure_1d(interval(), vee(0.0), 0.25)
    for comp in mu.components[:-1]:
        assert comp.lo >= -1e-12
        assert comp.hi <= 1 + 1e-12
        assert comp.lo <= 1e-12  # x0 = 0 end stays pinned


def test_dyadic_nesting():
    mu = dyadic_measure_1d(interval(), 0.3, 0.1)
    segs = [c for c in mu.components if isinstance(c, UniformSegment)]
    for a, b in zip(segs, segs[1:]):
        assert a.lo <= b.lo + 1e-12 and b.hi <= a.hi + 1e-12
        assert a.lo <= 0.3 <= a.hi


def test_dyadic_rejects_bad_eps():
    with pytest.raises(ValueError):
        dyadic_measure_1d(interval(), 0.5, 0.0)
    with pytest.raises(ValueError):
        dyadic_measure_1d(interval(), 0.5, 1.5)


def test_build_measure_dimension_gate():
    sq = ConvexBody(2, [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0],
                    [0.5, 0.5], 0.8)
    with pytest.raises(DimensionMismatchError):
        build_measure_1d(sq, MaxAffineFunction([0.0], [[1.0, 0.0]]), 0.1)


def test_sample_component_frequencies():
    mu = build_measure_1d(interval(), vee(0.5), 1 / 16)
    rng = np.random.default_rng(0)
    pts = mu.sample(100000, rng)
    # mass of the window [0.5 - 2^-8, 0.5 + 2^-8]: segment k overlaps with
    # fraction 2^(k-8), so p = (1/10)(sum_k 2^(k-8)) + 1/10 = 511/2560 + 0.1
    p = 511 / 2560 + 0.1
    inner = np.abs(pts.ravel() - 0.5) <= 2 ** -8 + 1e-12
    se = math.sqrt(p * (1 - p) / 100000)
    assert abs(inner.mean() - p) < 3 * se + 1e-3


def test_point_mass_only_measure():
    mu = ExplorationMeasure([Fraction(1)], [PointMass(np.array([0.3]))])
    pts = mu.sample(50, np.random.default_rng(1))
    assert np.allclose(pts, 0.3)


def test_zero_weight_component_never_sampled():
    mu = ExplorationMeasure([Fraction(1), Fraction(0)],
                            [UniformSegment(0.0, 0.5), UniformSegment(0.9, 1.0)])
    pts = mu.sample(2000, np.random.default_rng(2))
    assert pts.max() <= 0.5 + 1e-12


def test_event_probability_exact_atom():
    mu = ExplorationMeasure(
        [Fraction(9, 10), Fraction(1, 10)],
        [UniformSegment(0.0, 1.0), PointMass(np.array([2.0]))])
    p, lo, hi = mu.event_probability(
        lambda x: np.asarray(x).ravel() >= 2.0, 5000, np.random.default_rng(3))
    # the atom contributes exactly 0.1 with zero variance
    assert abs(p - 0.1) < 1e-12


def test_event_probability_uniform_quarter():
    mu = ExplorationMeasure([Fraction(1)], [UniformSegment(0.0, 1.0)])
    p, lo, hi = mu.event_probability(
        lambda x: np.asarray(x).ravel() < 0.25, 20000, np.random.default_rng(4))
    assert lo < 0.25 < hi


def test_guarantee_threshold_formula():
    assert abs(guarantee_threshold_1d(1 / 16)
               - 1 / (8 * math.log(17))) < 1e-15


def test_verify_exploration_constant_dip():
    # f = |x - 1/2|, g = -2eps constant; event mass from the dense-grid oracle
    eps = 1 / 16
    f = vee(0.5)
    g = MaxAffineFunction([-2 * eps], [[0.0]])
    mu = build_measure_1d(interval(), f, eps)
    rng = np.random.default_rng(5)
    rep = verify_exploration(mu, f, g, eps, 1 / 8,
                             guarantee_threshold_1d(eps), 50000, rng,
                             gap_scaling="eps")
    comps = [("atom", float(c.point[0])) if isinstance(c, PointMass)
             else ("segment", c.lo, c.hi) for c in mu.components]
    oracle = grid_event_mass_1d(
        mu.weights, comps,
        lambda x: np.abs(f.value(x) - g.value(x)) > eps / 8)
    assert abs(rep.p_hat - oracle) < 0.02
    assert rep.passed and rep.ci_low > rep.threshold


def test_verify_exploration_gap_zero_sees_everything():
    f = vee(0.5)
    g = vee(0.5, level=-0.1)
    mu = build_measure_1d(interval(), f, 0.25)
    rep = verify_exploration(mu, f, g, 0.25, 0.0, 0.5, 5000,
                             np.random.default_rng(6), gap_scaling="eps")
    assert rep.p_hat == 1.0


def test_verify_exploration_witness_check():
    f = vee(0.5)
    mu = build_measure_1d(interval(), f, 0.25)
    with pytest.raises(ValueError):
        verify_exploration(mu, f, f, 0.25, 1 / 8, 0.1, 2000,
                           np.random.default_rng(7), witness=np.array([1.0]))


def test_segment_gap_check_affine_crossing():
    # f == 0 on [0,1], g = x - 1 - 2eps; mass checked against the grid oracle
    eps = 0.1
    f = MaxAffineFunction([0.0], [[0.0]])
    g = MaxAffineFunction([-1.0 - 2 * eps], [[1.0]])
    mu = ExplorationMeasure([Fraction(1)], [UniformSegment(0.0, 1.0)])
    rep = segment_gap_check(f, g, 0.0, 1.0, mu, 1.0, eps, 20000,
                            np.random.default_rng(8))
    oracle = segment_event_mass(
        f, g, 0.0, 1.0,
        lambda x, fv: 0.25 * np.maximum(eps, fv))  # beta = 1
    assert rep.passed
    assert abs(rep.p_hat - oracle) < 0.02


def test_segment_gap_check_g_below_f_everywhere():
    # paper-style branch where g never crosses f: still at least half mass
    eps = 0.1
    f = MaxAffineFunction([0.1], [[0.0]])
    g = MaxAffineFunction([-0.15], [[-0.05]])  # stays below f, g(1) = -0.2
    mu = ExplorationMeasure([Fraction(1)], [UniformSegment(0.0, 1.0)])
    rep = segment_gap_check(f, g, 0.0, 1.0, mu, 1.0, eps, 20000,
                            np.random.default_rng(9))
    assert rep.passed


def test_segment_gap_check_rejects_small_beta():
    f = MaxAffineFunction([0.0], [[0.0]])
    g = MaxAffineFunction([-1.5], [[1.0]])
    mu = ExplorationMeasure([Fraction(1)], [UniformSegment(0.0, 1.0)])
    with pytest.raises(ValueError):
        segment_gap_check(f, g, 0.0, 1.0, mu, 0.5, 0.1, 2000,
                          np.random.default_rng(10))


def test_weights_sum_exactly_one():
    for eps in (1.0, 0.5, 0.25, 0.125, 1 / 64):
        mu = build_measure_1d(interval(), vee(0.4), eps)
        assert abs(math.fsum(mu.weights) - 1.0) <= 1e-12


def test_theorem_guarantee_seeded_sweep():
    # randomized mini-sweep of the 1-D guarantee at paper constants
    rng = np.random.default_rng(11)
    for trial in range(15):
        eps = float(rng.choice([0.25, 0.125, 0.0625]))
        f = vee(float(rng.uniform(0.2, 0.8)),
                level=float(rng.uniform(0, 0.2)),
                slope=float(rng.uniform(0.3, 1.0)))
        # pull f down so its minimum is 0 (guarantee normalizes f >= 0)
        f = f.add_constant(-float(f.value(np.array([rng.uniform(0, 1)]))))
        fmin = min(float(f.value(np.array([x]))) for x in np.linspace(0, 1, 2001))
        f = f.add_constant(-fmin)
        g = f.add_constant(-eps * float(rng.uniform(1.5, 3.0)))
        mu = build_measure_1d(interval(), f, eps)
        rep = verify_exploration(mu, f, g, eps, 1 / 8,
                                 guarantee_threshold_1d(eps), 20000,
                                 np.random.default_rng(100 + trial),
                                 gap_scaling="eps")
        assert rep.ci_low > rep.threshold, (trial, eps)


def test_measure_on_one_sided_body_stays_inside():
    body = ConvexBody(1, [[1.0]], [0.3], [0.0], 1.0)  # x <= 0.3 inside B(0, 1)
    mu = build_measure_1d(body, vee(0.6), 0.1)  # minimum over the body at 0.3
    for _, comp, amap in mu.flatten():
        assert amap is None
        if isinstance(comp, PointMass):
            assert comp.point[0] == 0.3  # argmin's certified LP vertex
        else:
            assert -1.0 <= comp.lo and comp.hi <= 0.3


# -- exact 1-D event masses --------------------------------------------------------

def _random_max_affine_1d(rng, with_eta):
    # the quadratic term as eta, or as eta plus a 1 x 1 form
    p = int(rng.integers(1, 5))
    offsets, slopes = rng.uniform(-0.5, 0.5, p), rng.uniform(-2.0, 2.0, (p, 1))
    if not with_eta:
        return MaxAffineFunction(offsets, slopes)
    quad = [[rng.uniform(0.0, 1.0)]] if rng.uniform() < 0.5 else None
    return MaxAffineFunction(offsets, slopes, eta=rng.uniform(0.1, 2.0), quad=quad)


def _random_interval(rng):
    lo = float(rng.uniform(-1.0, 0.8))
    return lo, lo + float(rng.uniform(0.01, 1.0))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans(),
       st.sampled_from(["eps", "max"]), st.sampled_from([1.0, 0.25, 1 / 16, 1 / 256]),
       st.sampled_from([0.125, 0.5]))
def test_exact_event_mass_matches_grid_oracle(seed, eta_f, eta_g, scaling,
                                              eps, gap):
    # Two segments, a 1-D ball, an atom and a pushforward (possibly
    # orientation-reversing) of a segment and an atom. The oracle reads
    # every leaf's interval from the construction, not from the measure.
    rng = np.random.default_rng(seed)
    f = _random_max_affine_1d(rng, eta_f)
    g = _random_max_affine_1d(rng, eta_g)
    (a, b), (c, d), (e, h), (u, v) = (_random_interval(rng) for _ in range(4))
    atom, inner_atom = (float(x) for x in rng.uniform(-1.0, 1.0, 2))
    scale = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.5))
    shift = float(rng.uniform(-0.3, 0.3))
    inner = ExplorationMeasure([Fraction(2, 3), Fraction(1, 3)],
                               [UniformSegment(u, v), PointMass([inner_atom])])
    raw = [Fraction(int(k), 64) for k in rng.integers(1, 20, 4)]
    weights = raw + [1 - sum(raw)]
    mu = ExplorationMeasure(weights, [
        UniformSegment(a, b), UniformSegment(c, d),
        UniformBall([(e + h) / 2], (h - e) / 2), PointMass([atom]),
        Pushforward(AffineMap([[scale]], [shift]), inner)])
    pushed = sorted((scale * u + shift, scale * v + shift))
    comps = [("segment", a, b), ("segment", c, d), ("segment", e, h),
             ("atom", atom), ("segment", *pushed),
             ("atom", scale * inner_atom + shift)]
    oracle_weights = [float(w) for w in weights[:4]] + [
        float(weights[4]) * 2 / 3, float(weights[4]) / 3]

    def event(x):
        fv, gv = f.value(x), g.value(x)
        level = np.maximum(eps, fv) if scaling == "max" else eps
        return np.abs(fv - gv) > gap * level

    oracle = grid_event_mass_1d(oracle_weights, comps, event, grid=200001)
    first, second = np.random.default_rng(1), np.random.default_rng(2)
    states = first.bit_generator.state, second.bit_generator.state
    rep = verify_exploration(mu, f, g, eps, gap, 0.1, 5000, first,
                             gap_scaling=scaling)
    again = verify_exploration(mu, f, g, eps, gap, 0.1, 5000, second,
                               gap_scaling=scaling)
    assert abs(rep.p_hat - oracle) < 1e-4, (rep.p_hat, oracle)
    assert rep == again
    assert rep.samples == 0 and rep.ci_low == rep.p_hat == rep.ci_high
    assert rep.passed == (rep.p_hat > 0.1)
    assert (first.bit_generator.state, second.bit_generator.state) == states


def test_exact_event_mass_of_a_certain_event_is_one():
    # Every leaf's share is 1, so the mass is exactly 1 whatever the
    # round-off in the weights.
    mu = ExplorationMeasure([Fraction(1, 3)] * 3, [
        UniformSegment(0.0, 0.7), UniformSegment(0.1, 0.2),
        PointMass([0.4])])
    f = MaxAffineFunction([0.0, 0.0], [[1.0], [-1.0]], eta=0.5)
    rep = verify_exploration(mu, f, f.add_constant(-1.0), 0.5, 0.25, 0.5,
                             100, np.random.default_rng(0), gap_scaling="max")
    assert rep.p_hat == 1.0 and rep.passed


@pytest.mark.parametrize("k", range(3, 21))
def test_certain_and_impossible_events_are_exact_for_equal_mixtures(k):
    # A plain sum of k copies of fl(1/k) misses 1 for 11 of these k, and
    # weights read from a file may miss it by up to 1e-12; a certain event
    # still has mass exactly 1.0, an impossible one 0.0.
    segments = [UniformSegment(i / k, (i + 2) / k) for i in range(k)]
    f = MaxAffineFunction([0.0], [[1.0]])
    for weights in ([1 / k] * k, [1 / k] * (k - 1) + [1 / k + 5e-13]):
        mu = ExplorationMeasure(weights, segments)
        for alt, mass in ((f.add_constant(-1.0), 1.0), (f, 0.0)):
            rep = verify_exploration(mu, f, alt, 0.5, 0.25, 0.5, 100,
                                     np.random.default_rng(0), gap_scaling="eps")
            assert rep.p_hat == mass and rep.samples == 0


def test_c1_masses_match_the_rational_weight_sum():
    # The c1 corpus (instances, gap eps/8 and scaling as in the acceptance
    # gate): the float weight sum agrees with the former exact rational one.
    worst = 0.0
    for j, k in enumerate(range(2, 7)):
        eps = 2.0 ** -k
        for i in range(20):
            rng = np.random.default_rng(10000 + 100 * j + i)
            dom = random_interval(rng)
            f, g, _ = random_dip_pair_1d(rng, dom, eps)
            mu = build_measure_1d(dom, f, eps)
            rep = verify_exploration(mu, f, g, eps, 1 / 8, 0.0, 1,
                                     np.random.default_rng(0), gap_scaling="eps")

            def event(x):
                return np.abs(f.value(x) - g.value(x)) > eps / 8

            ends = [(c.point[0], c.point[0]) if isinstance(c, PointMass)
                    else (c.lo, c.hi) for c in mu.components]
            oracle = rational_interval_mass(
                [Fraction(1, len(ends))] * len(ends), ends, event,
                _event_breakpoints_1d(f, g, eps, 1 / 8, "eps"))
            worst = max(worst, abs(rep.p_hat - oracle))
    assert worst <= 1e-15, worst


def test_fiber_lift_off_the_host_raises():
    # Base draws in [2, 3] lie off the square's shadow [-1, 1]: no fiber
    # meets the host.
    host = ConvexBody.box([-1.0, -1.0], [1.0, 1.0])
    base = ExplorationMeasure([0.5, 0.5], [UniformSegment(2.0, 3.0),
                                           UniformSegment(-0.5, 0.5)])
    lift = FiberLift(base, np.zeros(2), [[0.0], [1.0]], [1.0, 0.0], host)
    with pytest.raises(InfeasibleBodyError, match="zero-length fiber"):
        ExplorationMeasure([1.0], [lift]).sample(200, np.random.default_rng(0))


def test_fiber_lift_through_a_vertex_gives_the_vertex():
    # u = 1 is the end of the diamond |x| + |y| <= 1's shadow on the y axis;
    # its horizontal fiber is the single point (0, 1).
    host = ConvexBody(2, [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]],
                      [1.0] * 4)
    base = ExplorationMeasure([0.5, 0.5], [PointMass([1.0]),
                                           UniformSegment(-0.5, 0.5)])
    lift = FiberLift(base, np.zeros(2), [[0.0], [1.0]], [1.0, 0.0], host)
    pts = ExplorationMeasure([1.0], [lift]).sample(400, np.random.default_rng(1))
    top = pts[:, 1] == 1.0
    assert 100 < top.sum() < 300
    assert np.array_equal(pts[top], np.tile([0.0, 1.0], (int(top.sum()), 1)))
    assert host.contains(pts).all()


def test_line_image_of_a_2d_measure_is_sampled():
    # A 1-D measure that pushes a 2-D ball onto the line has no uniform
    # interval leaf, so its mass is estimated from m draws.
    disk = ExplorationMeasure([1], [UniformBall([0.0, 0.0], 1.0)])
    mu = ExplorationMeasure([1], [Pushforward(AffineMap([[1.0, 0.0]], [0.0]), disk)])
    f = MaxAffineFunction([0.0], [[0.0]])
    g = MaxAffineFunction([0.0], [[1.0]])   # |f - g| > 0.1 off |x| <= 0.1
    rep = verify_exploration(mu, f, g, 1.0, 0.1, 0.5, 4000,
                             np.random.default_rng(3), gap_scaling="eps")
    assert rep.samples == 4000 and rep.ci_low < rep.p_hat < rep.ci_high
    # the projected disk's density is (2/pi) sqrt(1 - x^2)
    band = (2 / math.pi) * 0.1 * (math.sqrt(0.99) + math.asin(0.1) / 0.1)
    assert abs(rep.p_hat - (1 - band)) < 0.03
