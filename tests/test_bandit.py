"""Bandit game: nets, posterior, surrogates, two-point strategy, testing."""
import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexplore import bandit
from convexplore.bandit import (GameParams, LikelihoodModel, ScenarioSet,
                                build_net, hypothesis_test, loss_values,
                                posterior_update, regret_info,
                                round_accounting, run_game, step1_epsilon,
                                step2_select_point, surrogates,
                                thompson_action, two_point_action)
from convexplore.convexfn import MaxAffineFunction
from convexplore.errors import (ConfigError, CoverError,
                                ObservationMismatchError, StepFailureError)
from convexplore.explore1d import (ExplorationMeasure, PointMass,
                                   dyadic_measure_1d)
from convexplore.geometry import ConvexBody
from convexplore.instances import clustered_scenarios, random_polygon

from oracles import (accounted_rv, covering_radius_reference,
                     gaussian_posterior_oracle, ids_two_point_ratio,
                     plan_expectations, pushforward,
                     reference_game, round_quantities, step1_grid_oracle,
                     surrogate_rows_reference, toy_r, toy_v)
from test_acceptance import _spread_vees

UNIT = ConvexBody.interval(0.0, 1.0)


def vee(minimum: float, level: float = 0.2, slope: float = 0.6):
    return MaxAffineFunction([level + slope * minimum, level - slope * minimum],
                             [[-slope], [slope]])


def ramp_pair():
    """Losses x and 1 - x: the posterior-mean surrogate is constant 1/2."""
    up = MaxAffineFunction([0.0], [[1.0]])
    down = MaxAffineFunction([1.0], [[-1.0]])
    return up, down


def toy_scenarios(horizon: int = 4) -> ScenarioSet:
    net = build_net(UNIT, horizon)
    return ScenarioSet(ramp_pair(), [0.5, 0.5], net, horizon, body=UNIT)


def observe(sset, weights, t, x, y, likelihood=LikelihoodModel()):
    """Posterior update with the scenario losses at x evaluated directly."""
    losses = loss_values(sset, t, [x])[:, 0]
    return posterior_update(weights, t, y, losses, likelihood)


# -- nets ---------------------------------------------------------------------

def test_net_unit_interval():
    net = build_net(UNIT, 16)
    assert net.points.ravel().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert net.spacing == 0.25
    assert net.covering_radius <= net.spacing + 1e-9
    assert net.size <= 4 * 16


def test_net_two_dimensional():
    body = ConvexBody.box([0.0, 0.0], [1.0, 1.0])
    net = build_net(body, 25, np.random.default_rng(0))
    assert net.size == 36
    assert net.size <= (4 * 25) ** 2
    assert all(body.contains(p, tol=1e-9) for p in net.points)
    assert net.covering_radius <= 0.2 + 1e-9


def test_net_horizon_gate():
    with pytest.raises(ValueError):
        build_net(UNIT, 3)


def test_net_covering_check_matches_full_array_reference():
    # The check takes each probe's nearest net point over blocks of probes:
    # one probe per block on the unit cube at T = 256 (4913 points), a few
    # per block on a random polygon. The radius must be the whole array's,
    # bit for bit, without forming that array (30 MB on the cube).
    cube = ConvexBody.box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    polygon = random_polygon(np.random.default_rng(41))
    for body in (cube, polygon):
        tracemalloc.start()
        net = build_net(body, 256, np.random.default_rng(7))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        blocks = -(-256 // max(1, bandit.ACCOUNT_BLOCK // net.points.size))
        assert blocks >= 20 and peak < 4 * 2 ** 20
        probes = body.sample_uniform(256, np.random.default_rng(7))
        assert net.covering_radius == covering_radius_reference(net.points,
                                                                probes)


# -- scenario sets and posterior -------------------------------------------------

def test_scenario_validation():
    net = build_net(UNIT, 16)
    too_big = MaxAffineFunction([1.5], [[0.0]])
    with pytest.raises(ConfigError, match="leaves"):
        ScenarioSet([too_big], [1.0], net, 16, body=UNIT)
    with pytest.raises(ConfigError, match="leaves"):  # in round 16 only
        ScenarioSet([[vee(0.5)] * 15 + [too_big]], [1.0], net, 16, body=UNIT)
    steep = vee(0.5, level=0.1, slope=1.2)  # values fine, slope too big
    with pytest.raises(ConfigError, match="Lipschitz"):
        ScenarioSet([steep], [1.0], net, 16, body=UNIT)
    both = MaxAffineFunction([1.5], [[1.2]])  # the slope is checked first
    with pytest.raises(ConfigError, match="Lipschitz"):
        ScenarioSet([both], [1.0], net, 16, body=UNIT)
    with pytest.raises(ValueError, match="length"):
        ScenarioSet([[vee(0.5)] * 7], [1.0], net, 16, body=UNIT)
    with pytest.raises(ValueError, match="sum"):
        ScenarioSet([vee(0.5)], [0.7], net, 16, body=UNIT)


def test_changed_marks_rounds_with_new_loss_objects():
    a, b = ramp_pair()
    again = MaxAffineFunction([0.0], [[1.0]])  # equal to a, another object
    sset = ScenarioSet([[a, a, again, again], [b, b, b, a]], [0.5, 0.5],
                       build_net(UNIT, 4), 4, body=UNIT)
    assert [sset.changed(t) for t in range(1, 5)] == [True, False, True, True]
    assert [toy_scenarios().changed(t) for t in range(1, 5)] == \
        [True, False, False, False]


def test_istar_and_pushforward():
    sset = toy_scenarios()
    assert sset.istar.tolist() == [0, 2]  # argmin of x at 0, of 1-x at 1
    skewed = ScenarioSet(ramp_pair(), [0.3, 0.7], sset.net, 4, body=UNIT)
    assert bandit._pushforward(skewed, skewed.prior).tolist() == [0.3, 0.0, 0.7]


def test_posterior_deterministic_collapse():
    sset = toy_scenarios()
    prior = sset.prior.copy()
    assert observe(sset, prior, 1, [0.2], 0.2).tolist() == [1.0, 0.0]
    out = np.empty(2)
    assert posterior_update(prior, 1, 0.8, [0.2, 0.8], LikelihoodModel(),
                            out=out) is out
    assert out.tolist() == [0.0, 1.0] and prior.tolist() == [0.5, 0.5]
    with pytest.raises(ObservationMismatchError):
        observe(sset, prior, 1, [0.2], 0.55)
    with pytest.raises(ValueError, match="one loss per scenario"):
        posterior_update(prior, 1, 0.2, [0.2, 0.8, 0.5], LikelihoodModel())


def test_posterior_unchanged_by_uninformative_point():
    sset = toy_scenarios()
    assert observe(sset, sset.prior.copy(), 1, [0.5], 0.5).tolist() == [0.5, 0.5]


def test_posterior_gaussian_matches_bayes_formula():
    net = build_net(UNIT, 4)
    flat_a = MaxAffineFunction([0.4], [[0.0]])
    flat_b = MaxAffineFunction([0.6], [[0.0]])
    sset = ScenarioSet([flat_a, flat_b], [0.5, 0.5], net, 4, body=UNIT)
    nxt = observe(sset, sset.prior.copy(), 1, [0.5], 0.4,
                  LikelihoodModel("gaussian", sigma=0.1))
    # residuals (0, 0.2) at sigma 0.1 weight the first scenario 1/(1+e^-2)
    expect = gaussian_posterior_oracle([0.5, 0.5], [0.0, 0.2], 0.1)
    assert nxt == pytest.approx(expect, abs=1e-12)
    assert nxt[0] == pytest.approx(1.0 / (1.0 + math.exp(-2.0)))


def test_posterior_is_martingale_under_the_prior():
    sset = toy_scenarios()
    x = [0.3]
    mean = np.zeros(2)
    for s in range(sset.size):
        y = float(sset.loss(s, 1).value(np.array(x)))
        mean += sset.prior[s] * observe(sset, sset.prior.copy(), 1, x, y)
    assert mean == pytest.approx(sset.prior, abs=1e-12)


# -- surrogates and round quantities ---------------------------------------------

def test_surrogates_toy():
    sset = toy_scenarios()
    xs = np.array([[0.0], [0.2], [1.0]])
    f_t, f_list, support = surrogates(sset, sset.prior.copy(),
                                      loss_values(sset, 1, xs))
    assert f_t == pytest.approx([0.5, 0.5, 0.5])
    assert f_list[0] == pytest.approx([0.0, 0.2, 1.0])
    assert f_list[1] == pytest.approx([1.0, 0.8, 0.0])
    assert support.tolist() == [0, 2]
    # net index 1 has no posterior mass, so it has no conditional loss
    assert f_list.shape == (2, 3)


def test_surrogates_match_per_index_reference_bit_for_bit():
    # Twelve of the sixteen vees share a net optimum, so one group holds more
    # than eight weights, where numpy's own sum would go pairwise: its mass
    # must still be the scenario-order sum, the pushforward alpha_i.
    rng = np.random.default_rng(23)
    net = build_net(UNIT, 16)
    minima = np.concatenate([np.full(12, 0.5), rng.uniform(0.0, 1.0, 4)])
    sset = ScenarioSet([vee(float(m), level=rng.uniform(0.05, 0.3))
                        for m in minima], np.full(16, 1.0 / 16), net, 16,
                       body=UNIT)
    values = loss_values(sset, 1, np.vstack([net.points, [[0.3], [0.77]]]))
    for _ in range(20):
        w = rng.uniform(0.0, 1.0, 16) ** 3
        w[rng.choice(16, 2, replace=False)] = 0.0
        w /= w.sum()
        assert np.bincount(sset.istar[w > 0]).max() > 8
        expected = surrogate_rows_reference(w, sset.istar, values)
        for got, want in zip(surrogates(sset, w, values), expected):
            assert np.array_equal(got, want)


def test_regret_info_toy():
    sset = toy_scenarios()
    cases = [(0.0, 0.25), (0.5, 0.0), (0.8, 0.09)]
    rs, vs = accounted_rv(sset, sset.prior.copy(), loss_values(
        sset, 1, np.vstack([sset.net.points, [[x] for x, _ in cases]])))
    for k, (x, v_expect) in enumerate(cases, start=sset.net.size):
        r, v = rs[k], vs[k]
        # oracle: direct enumeration over the two supported indices
        assert r == pytest.approx(toy_r(0.5, [0.5, 0.5], [0.0, 0.0]), abs=1e-12)
        assert r == pytest.approx(0.5, abs=1e-12)
        assert v == pytest.approx(toy_v([0.5, 0.5], 0.5, [x, 1.0 - x]),
                                  abs=1e-12)
        assert v == pytest.approx(v_expect, abs=1e-12)


def test_regret_zero_at_own_net_point():
    net = build_net(UNIT, 16)
    f = vee(0.5)
    sset = ScenarioSet([f], [1.0], net, 16, body=UNIT)
    rs, vs = accounted_rv(sset, sset.prior.copy(),
                          loss_values(sset, 1, net.points))
    i = int(sset.istar[0])
    r, v = rs[i], vs[i]
    assert r == pytest.approx(0.0, abs=1e-12)
    assert v == pytest.approx(0.0, abs=1e-12)


def _random_cone_2d(rng):
    """0.1 plus the positive part of four planes through a random apex:
    values in [0.1, 0.95] on the unit square, slopes of norm below 0.6."""
    apex = rng.uniform(0.0, 1.0, 2)
    slopes = np.vstack([np.zeros(2), rng.uniform(-0.42, 0.42, (4, 2))])
    return MaxAffineFunction(0.1 - slopes @ apex, slopes)


def _random_sets():
    """A 1-D set with per-round losses and a 2-D set with constant ones."""
    rng = np.random.default_rng(17)
    net1 = build_net(UNIT, 16)
    seqs = [[vee(float(m), level=rng.uniform(0.05, 0.3))
             for m in rng.uniform(0.0, 1.0, 16)] for _ in range(6)]
    yield ScenarioSet(seqs, np.full(6, 1.0 / 6), net1, 16, body=UNIT), rng
    square = ConvexBody.box([0.0, 0.0], [1.0, 1.0])
    net2 = build_net(square, 16, np.random.default_rng(0))
    fns = [_random_cone_2d(rng) for _ in range(7)]
    yield ScenarioSet(fns, np.full(7, 1.0 / 7), net2, 16, body=square), rng


def test_round_accounting_matches_round_oracle():
    # loss_values, surrogates and round_accounting on the net plus eight
    # random points, against direct enumeration at each point
    checked = zero_mass = 0
    for sset, rng in _random_sets():
        n = sset.net.points.shape[1]
        for trial in range(6):
            w = rng.dirichlet(np.ones(sset.size))
            w[rng.permutation(sset.size)[:trial % 3 + 1]] = 0.0
            w /= w.sum()
            alpha = pushforward(sset, w)
            t = int(rng.integers(1, sset.horizon + 1))
            points = np.vstack([sset.net.points, rng.uniform(0.0, 1.0, (8, n))])
            values = loss_values(sset, t, points)
            f_t, f_rows, support = surrogates(sset, w, values)
            r_t, v_t = accounted_rv(sset, w, values)
            for col, x in enumerate(points):
                f, fi, r, v = round_quantities(sset, w, t, x)
                assert support.tolist() == sorted(fi)
                assert f_t[col] == pytest.approx(f, abs=1e-12)
                for k, i in enumerate(support):
                    assert f_rows[k, col] == pytest.approx(fi[i], abs=1e-12)
                assert r_t[col] == pytest.approx(r, abs=1e-12)
                assert v_t[col] == pytest.approx(v, abs=1e-12)
                direct = [float(sset.loss(s, t).value(x))
                          for s in range(sset.size)]
                assert values[:, col] == pytest.approx(direct, abs=1e-12)
                checked += 1
            # an index without posterior mass gets no row
            massless = set(sset.istar.tolist()) - set(support.tolist())
            zero_mass += len(massless)
            assert all(alpha[i] == 0.0 for i in massless)
    assert checked > 100 and zero_mass > 0


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@functools.cache
def _width_sets():
    """Constant vees on [0, 1]: six random ones, sixteen of which twelve
    share a net optimum (so one group holds more than eight weights), and
    eight with evenly spread minima."""
    rng = np.random.default_rng(29)
    net = build_net(UNIT, 16)
    minima = [rng.uniform(0.0, 1.0, 6),
              np.concatenate([np.full(12, 0.5), rng.uniform(0.0, 1.0, 4)]),
              (np.arange(8) + 0.5) / 8]
    return [ScenarioSet([vee(float(m), level=rng.uniform(0.05, 0.3))
                         for m in ms], np.full(ms.size, 1.0 / ms.size), net,
                        16, body=UNIT) for ms in minima]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 2), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_round_quantities_do_not_depend_on_width_or_batch(which, rounds, seed):
    # r and v at a point come out bit for bit the same on K + 1024 columns,
    # on the K net columns, on the K + 2 columns of a two-point round, and
    # on one column through regret_info as the play forms it; each layout
    # in a batch of several rounds and in a batch of one
    sset = _width_sets()[which]
    rng = np.random.default_rng(seed)
    K = sset.net.size
    candidates = np.vstack([sset.net.points, UNIT.sample_uniform(1024, rng)])
    values = loss_values(sset, 1, candidates)
    picks = rng.choice(candidates.shape[0], 2, replace=False)
    rows = []
    for _ in range(rounds):
        w = rng.dirichlet(np.ones(sset.size)) ** 2
        w[rng.random(sset.size) < 0.3] = 0.0
        w[rng.integers(sset.size)] += 0.01
        rows.append(w / w.sum())
    weights = np.stack(rows)
    alphas = np.stack([pushforward(sset, w) for w in rows])
    full = [accounted_rv(sset, w, values) for w in rows]
    for columns in (np.arange(candidates.shape[0]), np.arange(K),
                    np.concatenate([np.arange(K), picks])):
        table = np.stack([values[:, columns]] * rounds)
        batch = round_accounting(sset, weights, alphas, table)
        for k, (r, v) in enumerate(full):
            single = round_accounting(sset, weights[k:k + 1], alphas[k:k + 1],
                                      table[k:k + 1])
            for got, row in ((batch, k), (single, 0)):
                assert _bits(got[0][row]) == _bits(r[columns])
                assert _bits(got[1][row]) == _bits(v[columns])
    for w, alpha, (r, v) in zip(rows, alphas, full):
        support = np.flatnonzero(alpha > 0)
        own = np.diagonal(surrogates(sset, w, values[:, support])[1])
        for j in picks:
            f, fi, _ = surrogates(sset, w, values[:, [j]])
            r_j, v_j = regret_info(f, fi, alpha[support], own)
            assert _bits(r_j) == _bits(r[[j]]) and _bits(v_j) == _bits(v[[j]])


def _cli_sets():
    """Environments 0 and 1 of the two families a ``bandit_cli`` pass
    plays, at its body and horizon: c7's clustered vees and c6's spread
    vees."""
    body = ConvexBody(1, [[1.0], [-1.0]], [1.0, 0.0], [0.5], 0.6)
    net = build_net(body, 256)
    for i in range(2):
        for fns in (clustered_scenarios(np.random.default_rng(1000 + i), 8, 256),
                    _spread_vees(np.random.default_rng(8100 + i), 8)):
            yield ScenarioSet(fns, np.full(8, 1.0 / 8), net, 256, body), i


def _assert_same_game(game, reference):
    (records, summary), (expected, want) = game, reference
    assert len(records) == len(expected)
    for rec, ref in zip(records, expected):
        assert (rec.t, _bits(rec.x), repr(rec.loss), repr(rec.cum_regret),
                rec.action_kind) == (ref.t, _bits(ref.x), repr(ref.loss),
                                     repr(ref.cum_regret), ref.action_kind)
        assert rec.r_t == pytest.approx(ref.r_t, rel=0.0, abs=1e-12)
        assert rec.v_t == pytest.approx(ref.v_t, rel=0.0, abs=1e-12)
        assert rec.cum_info == pytest.approx(ref.cum_info, rel=0.0, abs=1e-12)
    for key in ("fallbacks", "relaxed_rounds", "measure_builds",
                "build_failures", "true_scenario", "final_regret_net",
                "final_regret_pool", "net_regret_dominates"):
        assert repr(summary[key]) == repr(want[key]), key
    # v_t itself is matched to 1e-12 above: the reference forms it by @
    assert summary["sum_v"] == pytest.approx(want["sum_v"], rel=0.0, abs=1e-12)
    if want["c_agg"] is None:
        assert summary["c_agg"] is None
    else:
        assert summary["c_agg"] == pytest.approx(want["c_agg"], rel=1e-9)


@pytest.mark.parametrize("policy", ["two_point", "thompson", "uniform"])
def test_game_matches_per_round_reference(policy):
    lik = LikelihoodModel("gaussian", sigma=0.25)
    explored = 0
    for sset, seed in _cli_sets():
        game = run_game(sset, policy=policy, seed=seed, likelihood=lik)
        _assert_same_game(game, reference_game(sset, policy=policy, seed=seed,
                                               likelihood=lik))
        explored += sum(r.action_kind == "two_point_explore" for r in game[0])
    for sset in [s for s, _ in _random_sets()] + [_box_cones()]:
        for seed, lik in enumerate([LikelihoodModel(),
                                    LikelihoodModel("gaussian", sigma=0.25)]):
            game = run_game(sset, policy=policy, seed=seed, likelihood=lik)
            _assert_same_game(game, reference_game(
                sset, policy=policy, seed=seed, likelihood=lik))
            explored += game[1]["measure_builds"]
    assert explored > 0 or policy != "two_point"


def _box_cones():
    """Two cones level + slope·|x - apex|_inf on [-1, 1]^2 with values in
    [0.05, 0.95]; their minima lie far apart, so round 1 explores."""
    square = ConvexBody.box([-1.0, -1.0], [1.0, 1.0])
    slopes = 0.6 * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
                             [0.0, -1.0]])
    cones = [MaxAffineFunction(0.05 - slopes @ np.array(apex), slopes)
             for apex in ([-0.5, -0.5], [0.5, 0.5])]
    return ScenarioSet(cones, [0.5, 0.5], build_net(square, 16), 16,
                       body=square)


def test_game_survives_failed_builds(monkeypatch):
    sset = _box_cones()
    records, summary = run_game(sset, seed=0)
    assert summary["measure_builds"] >= 1 and summary["build_failures"] == 0
    assert records[0].action_kind.startswith("two_point")
    calls = []

    def broken(body, fn, eps, profile):
        calls.append(fn)
        raise CoverError("direction hull misses the gamma ball")

    monkeypatch.setattr(bandit, "build_exploratory_measure", broken)
    game = run_game(sset, seed=0)
    records, summary = game
    assert summary["measure_builds"] == 0
    assert summary["build_failures"] >= 1
    assert summary["fallbacks"] == summary["build_failures"]
    assert len(calls) == summary["build_failures"]   # one attempt per build
    assert records[0].action_kind == "thompson"
    assert len(records) == 16
    # the fallback rounds play and account as the per-round reference does
    _assert_same_game(game, reference_game(sset, seed=0))


def test_measure_cache_builds_for_the_round_being_played(monkeypatch):
    # a 2-D build for round 5 must take the most likely scenario's round-5
    # loss
    square = ConvexBody.box([0.0, 0.0], [1.0, 1.0])
    rng = np.random.default_rng(31)
    seqs = [[_random_cone_2d(rng) for _ in range(16)] for _ in range(3)]
    sset = ScenarioSet(seqs, [0.2, 0.5, 0.3],
                       build_net(square, 16, np.random.default_rng(0)), 16,
                       body=square)
    built_for = []

    def spy(body, fn, eps, profile):
        built_for.append(fn)
        raise CoverError("direction hull misses the gamma ball")

    monkeypatch.setattr(bandit, "build_exploratory_measure", spy)
    cache = bandit._MeasureCache(sset, GameParams())
    assert cache(0.25, np.array([0.5, 0.5]), sset.prior.copy(), 5) is None
    assert built_for and all(fn is sset.loss(1, 5) for fn in built_for)


# -- step 1: dyadic scale ---------------------------------------------------------

def test_step1_two_mass_example():
    res = step1_epsilon(np.array([0.5, 0.5]), np.array([-0.4, -0.1]))
    assert res.eps == 0.125
    assert res.indices.tolist() == [0]
    assert not res.relaxed
    eps_o, idx_o, relaxed_o = step1_grid_oracle([0.5, 0.5], [-0.4, -0.1])
    assert (res.eps, res.indices.tolist(), res.relaxed) == \
        (eps_o, idx_o.tolist(), relaxed_o)


def test_step1_point_mass():
    res = step1_epsilon(np.array([1.0]), np.array([-0.5]))
    assert res.eps == 0.25
    assert res.indices.tolist() == [0]


def test_step1_exploit_guard():
    with pytest.raises(ValueError, match="play x\\*"):
        step1_epsilon(np.array([1.0]), np.array([-0.05]), regret_floor=0.1)


def test_step1_matches_oracle_on_random_instances():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 200:
        k = int(rng.integers(2, 8))
        alpha = rng.dirichlet(np.ones(k))
        fi = -rng.uniform(0.0, 1.0, k)
        if float(alpha @ fi) >= -1e-3:
            continue
        res = step1_epsilon(alpha, fi)
        eps_o, idx_o, relaxed_o = step1_grid_oracle(alpha, fi)
        assert res.eps == pytest.approx(eps_o, rel=1e-12)
        assert res.indices.tolist() == idx_o.tolist()
        assert res.relaxed == relaxed_o
        checked += 1


# -- step 2: separated point -----------------------------------------------------

def _const_half(xs):
    return np.full(np.atleast_2d(xs).shape[0], 0.5)


def test_step2_point_mass_toy():
    f_list = [lambda xs: np.atleast_2d(xs)[:, 0],
              lambda xs: 1.0 - np.atleast_2d(xs)[:, 0]]
    mu = ExplorationMeasure([Fraction(1)], [PointMass([0.0])])
    xs = mu.sample(1, np.random.default_rng(0))
    best, J = step2_select_point(_const_half(xs), [fi(xs) for fi in f_list],
                                 np.array([0.5, 0.0, 0.5]), np.array([0, 2]),
                                 0.25, 0.1)
    assert xs[best] == pytest.approx([0.0])
    assert sorted(J.tolist()) == [0, 2]


def test_step2_no_separation_fails():
    mu = ExplorationMeasure([Fraction(1)], [PointMass([0.3])])
    xs = mu.sample(4, np.random.default_rng(0))
    with pytest.raises(StepFailureError):
        step2_select_point(_const_half(xs), [_const_half(xs)], np.array([1.0]),
                           np.array([0]), 0.25, 0.1)


def test_step2_empty_index_set():
    mu = ExplorationMeasure([Fraction(1)], [PointMass([0.3])])
    xs = mu.sample(4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        step2_select_point(_const_half(xs), np.zeros((0, 4)), np.array([1.0]),
                           np.array([], int), 0.25, 0.1)


# -- two-point plans ---------------------------------------------------------------

def test_two_point_exploits_identified_scenario():
    net = build_net(UNIT, 16)
    sset = ScenarioSet([vee(0.5)], [1.0], net, 16, body=UNIT)
    plan = two_point_action(sset, sset.prior.copy(), 1, net.points,
                            loss_values(sset, 1, net.points), lambda *a: None,
                            GameParams(), np.random.default_rng(0))
    assert plan.xbar is None and plan.p_explore == 0.0
    assert plan.L == pytest.approx(0.0, abs=1e-12)
    assert plan.sample(np.random.default_rng(1))[1] == "two_point_exploit"


def test_two_point_plan_identities():
    horizon = 64
    net = build_net(UNIT, horizon)
    sset = ScenarioSet(ramp_pair(), [0.5, 0.5], net, horizon, body=UNIT)
    prior = sset.prior.copy()

    def mu_builder(eps, xstar, _weights, _t):
        return dyadic_measure_1d(UNIT, float(xstar[0]), eps)

    values = loss_values(sset, 1, net.points)
    plan = two_point_action(sset, prior, 1, net.points, values, mu_builder,
                            GameParams(), np.random.default_rng(3))
    expected_r, expected_v = plan_expectations(sset, prior, values, plan)
    # a fresh table at the two candidate plays
    bar = net.size
    star = bar + 1
    check = loss_values(sset, 1, np.vstack([net.points, plan.xbar,
                                            plan.xstar]))
    f_check = surrogates(sset, prior, check)[0]
    r_check, v_check = accounted_rv(sset, prior, check)
    assert plan.xbar is not None and not plan.fallback
    assert plan.losses == pytest.approx(check[:, [star, bar]], abs=1e-12)
    assert plan.L == pytest.approx(-0.5, abs=1e-12)
    assert plan.eps == 0.25
    p = plan.p_explore
    f_bar = float(f_check[bar]) - plan.offset
    # mixed-play identities: E r = |L| + alpha(J) fbar; info floor is exact
    assert expected_r == pytest.approx(abs(plan.L) + p * f_bar, abs=1e-12)
    assert plan.info_lower == pytest.approx(
        GameParams().gap_constant * p * max(plan.eps, f_bar), abs=1e-12)
    assert expected_v >= plan.info_lower ** 2 - 1e-12
    # and E r/E v recompose from the two candidate plays
    r_bar, v_bar = r_check[bar], v_check[bar]
    r_star, v_star = r_check[star], v_check[star]
    assert expected_r == pytest.approx(p * r_bar + (1 - p) * r_star,
                                       abs=1e-12)
    assert expected_v == pytest.approx(p * v_bar + (1 - p) * v_star,
                                       abs=1e-12)


def test_two_point_own_conditionals_keep_their_bits():
    # each supported f_i(xbar_i) comes from one bincount; L must keep the
    # bits of the padded-row sums of _group_conditionals, zero weights and
    # groups without mass included
    checked = 0
    for sset, rng in list(_random_sets()) + [(s, np.random.default_rng(i))
                                             for s, i in _cli_sets()]:
        for trial in range(12):
            w = rng.dirichlet(np.ones(sset.size))
            w[rng.permutation(sset.size)[:trial % 4]] = 0.0
            w /= w.sum()
            t = int(rng.integers(1, sset.horizon + 1))
            values = loss_values(sset, t, sset.net.points)
            alpha = pushforward(sset, w)
            support = np.flatnonzero(alpha > 0)
            own = bandit._group_conditionals(
                sset, w, alpha[sset.groups],
                values[np.arange(sset.size), sset.istar, None])
            own = own[sset.groups.searchsorted(support), 0]
            offset = float(bandit._row_sum(w[:, None] * values).min())
            plan = two_point_action(sset, w, t, sset.net.points, values,
                                    lambda *a: None, GameParams(), rng)
            assert repr(plan.L) == repr(float(np.add.reduce(
                alpha[support] * (own - offset))))
            checked += 1
    assert checked > 50


def test_ids_two_point_oracle_matches_a_grid():
    rng = np.random.default_rng(5)
    q = np.linspace(0.0, 1.0, 4001)[:, None]
    for _ in range(20):
        r = rng.uniform(-0.1, 1.0, 5)
        v = rng.uniform(0.0, 0.5, 5)
        grid = min(float(((q * r[a] + (1 - q) * r[b]) ** 2
                          / (q * v[a] + (1 - q) * v[b])).min())
                   for a in range(5) for b in range(5))
        exact = ids_two_point_ratio(r, v)
        assert exact <= grid + 1e-12
        assert grid <= exact + 1e-4 * max(exact, 1e-2)


def test_two_point_ratio_is_at_least_the_two_point_minimum(monkeypatch):
    # an explore plan mixes two columns of its round's table (the
    # candidates, then x* and xbar), so its information ratio is no smaller
    # than the best mix of any two columns
    horizon = 64
    net = build_net(UNIT, horizon)
    sset = ScenarioSet([vee((j + 0.5) / 8, level=0.1, slope=0.7)
                        for j in range(8)], [0.125] * 8, net, horizon,
                       body=UNIT)
    plans = []
    play = bandit.two_point_action

    def spy(sset, weights, t, points, values, *args):
        plan = play(sset, weights, t, points, values, *args)
        r, v = accounted_rv(sset, weights, np.hstack([values, plan.losses]))
        plans.append((plan, plan_expectations(sset, weights, values, plan),
                      r, v))
        return plan

    monkeypatch.setattr(bandit, "two_point_action", spy)
    monkeypatch.setattr(bandit, "EXPLORE_SAMPLES", 64)
    monkeypatch.setattr(bandit, "POOL_SAMPLES", 64)
    for seed in range(3):
        run_game(sset, seed=seed,
                 likelihood=LikelihoodModel("gaussian", sigma=0.25))
    explored = [entry for entry in plans if entry[0].xbar is not None]
    assert len(explored) >= 3
    for _, (expected_r, expected_v), r, v in explored:
        ratio = expected_r ** 2 / expected_v
        assert ratio >= ids_two_point_ratio(r, v) - 1e-12


def test_thompson_follows_alpha():
    net = build_net(UNIT, 16)
    sset = ScenarioSet([vee(0.25), vee(0.5), vee(0.75)],
                       [0.2, 0.5, 0.3], net, 16, body=UNIT)
    alpha = pushforward(sset, sset.prior)
    rng = np.random.default_rng(0)
    draws = np.array([net.points[thompson_action(alpha, rng)][0]
                      for _ in range(3000)])
    for point, weight in [(0.25, 0.2), (0.5, 0.5), (0.75, 0.3)]:
        freq = float((draws == point).mean())
        assert abs(freq - weight) <= 4.0 * math.sqrt(weight * (1 - weight) / 3000)


def test_thompson_draws_as_generator_choice():
    # the draw reproduces rng.choice(K, p=alpha / alpha.sum()): the same
    # index and the same generator state after it, on posteriors with
    # zero-mass entries, tiny masses and one-point supports
    src = np.random.default_rng(12)
    for i in range(2000):
        K = int(src.integers(1, 40))
        alpha = src.random(K) * (src.random(K) < 0.6)
        alpha[src.random(K) < 0.1] *= 1e-12
        if i % 10 == 0 or not alpha.any():
            alpha = np.zeros(K)
            alpha[src.integers(K)] = 1.0
        alpha /= alpha.sum()
        seed = int(src.integers(2 ** 32))
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        index = thompson_action(alpha, ours)
        assert index == numpys.choice(K, p=alpha / alpha.sum()), i
        assert ours.bit_generator.state == numpys.bit_generator.state


def test_two_point_action_rejects_mass_leak():
    sset = toy_scenarios()
    with pytest.raises(ValueError, match="sum to 1"):
        two_point_action(sset, np.array([0.5, 0.0]), 1, sset.net.points,
                         loss_values(sset, 1, sset.net.points),
                         lambda *a: None, GameParams(),
                         np.random.default_rng(0))


# -- full games ---------------------------------------------------------------------

def test_game_single_scenario_reveals_nothing():
    net = build_net(UNIT, 16)
    sset = ScenarioSet([vee(0.5)], [1.0], net, 16, body=UNIT)
    records, summary = run_game(sset, seed=1)
    assert summary["sum_v"] == pytest.approx(0.0, abs=1e-12)
    assert all(rec.r_t >= -1e-12 for rec in records)
    assert summary["final_regret_net"] <= 1e-9
    assert summary["true_scenario"] == 0


def test_game_two_scenarios_collapse_and_plateau():
    horizon = 16
    net = build_net(UNIT, horizon)
    sset = ScenarioSet([vee(0.5), vee(0.25)], [0.5, 0.5], net, horizon,
                       body=UNIT)
    records, summary = run_game(sset, seed=2)
    assert all(rec.v_t == pytest.approx(0.0, abs=1e-12)
               for rec in records[1:])  # one observation identifies the vee
    assert records[-1].cum_regret == pytest.approx(records[0].cum_regret,
                                                   abs=1e-9)
    assert summary["sum_v"] == pytest.approx(records[0].v_t, abs=1e-12)


def test_game_round_quantities_are_consistent():
    horizon = 24
    net = build_net(UNIT, horizon)
    sset = ScenarioSet([vee(0.2), vee(0.45), vee(0.7), vee(0.9)],
                       [0.25] * 4, net, horizon, body=UNIT)
    records, summary = run_game(sset, policy="two_point", seed=5,
                                likelihood=LikelihoodModel("gaussian",
                                                           sigma=0.1))
    assert all(rec.v_t >= -1e-15 for rec in records)
    infos = [rec.cum_info for rec in records]
    assert all(b >= a - 1e-15 for a, b in zip(infos, infos[1:]))
    assert summary["sum_v"] == pytest.approx(infos[-1])
    assert summary["half_log_k"] == pytest.approx(0.5 * math.log(4))
    assert summary["net_regret_dominates"]
    assert len(records) == horizon


def test_game_information_budget():
    # E sum v_t <= (1/2) ln K; checked with a CLT margin over seeds
    horizon = 24
    net = build_net(UNIT, horizon)
    sset = ScenarioSet([vee(0.2), vee(0.45), vee(0.7), vee(0.9)],
                       [0.25] * 4, net, horizon, body=UNIT)
    sums = []
    for seed in range(8):
        _, summary = run_game(sset, seed=seed,
                              likelihood=LikelihoodModel("gaussian", sigma=0.1))
        sums.append(summary["sum_v"])
    mean = float(np.mean(sums))
    stderr = float(np.std(sums, ddof=1)) / math.sqrt(len(sums))
    assert mean <= 0.5 * math.log(4) + 3.0 * stderr


def test_game_policy_kinds_and_gates():
    net = build_net(UNIT, 16)
    sset = ScenarioSet([vee(0.3), vee(0.6)], [0.5, 0.5], net, 16, body=UNIT)
    records, _ = run_game(sset, policy="uniform", seed=0)
    assert {rec.action_kind for rec in records} == {"uniform"}
    records, _ = run_game(sset, policy="thompson", seed=0)
    assert {rec.action_kind for rec in records} == {"thompson"}
    with pytest.raises(ConfigError):
        run_game(sset, policy="greedy")


def test_game_repeats_exactly_for_a_seed():
    net = build_net(UNIT, 16)
    sset = ScenarioSet([vee(0.3), vee(0.6)], [0.5, 0.5], net, 16, body=UNIT)
    first, s1 = run_game(sset, seed=9)
    second, s2 = run_game(sset, seed=9)
    assert s1 == s2
    for a, b in zip(first, second):
        assert a.x.tolist() == b.x.tolist()
        assert (a.loss, a.r_t, a.v_t, a.cum_regret) == \
            (b.loss, b.r_t, b.v_t, b.cum_regret)


# -- single-measurement hypothesis test ---------------------------------------------

def test_hypothesis_null_matches_level():
    f = vee(0.5)
    mu = dyadic_measure_1d(UNIT, 0.5, 0.125)
    out = hypothesis_test(f, f, 0.125, mu, 0.1, 4000,
                          np.random.default_rng(0))
    se = math.sqrt(0.05 * 0.95 / 4000)
    assert abs(out["power"] - 0.05) <= 5.0 * se
    assert abs(out["size"] - 0.05) <= 5.0 * se
    assert out["trials"] == 4000 and out["level"] == 0.05


def test_hypothesis_noiseless_alternative_always_detected():
    f = vee(0.5)
    g = MaxAffineFunction(f.offsets - 0.1, f.slopes)
    mu = dyadic_measure_1d(UNIT, 0.5, 0.125)
    out = hypothesis_test(f, g, 0.125, mu, 0.0, 500,
                          np.random.default_rng(1))
    assert out["power"] == 1.0
    assert out["size"] == 0.0


def test_hypothesis_detects_separated_alternative_under_noise():
    f = vee(0.5)
    g = MaxAffineFunction(f.offsets - 0.15, f.slopes)
    mu = dyadic_measure_1d(UNIT, 0.5, 0.125)
    out = hypothesis_test(f, g, 0.125, mu, 0.2, 4000,
                          np.random.default_rng(2))
    assert out["power"] > out["level"] + 5.0 * out["se_power"]
    assert out["tv_lower_estimate"] > 0.0


def test_hypothesis_seeded_output_frozen():
    # Literal output of a seeded run: f is evaluated once per null draw, and
    # the draws, the calibration and the bins must not move a bit.
    f = vee(0.5)
    g = MaxAffineFunction(f.offsets - 0.1, f.slopes)
    mu = dyadic_measure_1d(UNIT, 0.5, 0.125)
    out = hypothesis_test(f, g, 0.125, mu, 0.1, 2000, np.random.default_rng(7))
    assert out == {"power": 0.1465, "size": 0.035, "level": 0.05,
                   "threshold": 0.885572835461447,
                   "tv_lower_estimate": 0.21199999999999997,
                   "trials": 2000, "se_power": 0.007906887820122402}


def test_hypothesis_validation():
    f = vee(0.5)
    mu = dyadic_measure_1d(UNIT, 0.5, 0.125)
    with pytest.raises(ValueError):
        hypothesis_test(f, f, 0.125, mu, -0.1, 500, np.random.default_rng(0))
    with pytest.raises(ValueError):
        hypothesis_test(f, f, 0.125, mu, 0.1, 50, np.random.default_rng(0))


@pytest.mark.parametrize("eps", [0.0, -0.125, math.inf, math.nan])
def test_hypothesis_refuses_eps_before_drawing(eps):
    # eps = 0 would divide by f(x) = 0 and report a power of 0.0.
    f, rng = vee(0.5), np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="eps"):
        hypothesis_test(f, f, eps, dyadic_measure_1d(UNIT, 0.5, 0.125), 0.1,
                        500, rng)
    assert rng.bit_generator.state == state


def test_likelihood_model_validation():
    with pytest.raises(ConfigError):
        LikelihoodModel("poisson")
    with pytest.raises(ConfigError):
        LikelihoodModel("gaussian", sigma=0.0)
