"""Bandit game: nets, posterior, surrogates, two-point strategy, testing."""
import math
from fractions import Fraction

import numpy as np
import pytest

from convexplore import bandit
from convexplore.bandit import (GameParams, LikelihoodModel, PosteriorState,
                                ScenarioSet, ValueTable, build_net,
                                hypothesis_test, initial_state, loss_values,
                                posterior_update, run_game,
                                step1_epsilon, step2_select_point, surrogates,
                                thompson_action, two_point_action)
from convexplore.convexfn import MaxAffineFunction
from convexplore.errors import (ConfigError, ObservationMismatchError,
                                StepFailureError)
from convexplore.explore1d import (ExplorationMeasure, PointMass,
                                   dyadic_measure_1d)
from convexplore.geometry import ConvexBody

from oracles import (gaussian_posterior_oracle, ids_two_point_ratio,
                     round_quantities, step1_grid_oracle,
                     surrogate_rows_reference, toy_r, toy_v)

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


def observe(state, t, x, y, likelihood=LikelihoodModel()):
    """Posterior update with the scenario losses at x evaluated directly."""
    losses = loss_values(state.scenario_set, t, [x])[:, 0]
    return posterior_update(state, t, y, losses, likelihood)


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


# -- scenario sets and posterior -------------------------------------------------

def test_scenario_validation():
    net = build_net(UNIT, 16)
    too_big = MaxAffineFunction([1.5], [[0.0]])
    with pytest.raises(ConfigError, match="leaves"):
        ScenarioSet([too_big], [1.0], net, 16, body=UNIT)
    steep = vee(0.5, level=0.1, slope=1.2)  # values fine, slope too big
    with pytest.raises(ConfigError, match="Lipschitz"):
        ScenarioSet([steep], [1.0], net, 16, body=UNIT)
    with pytest.raises(ValueError, match="length"):
        ScenarioSet([[vee(0.5)] * 7], [1.0], net, 16, body=UNIT)
    with pytest.raises(ValueError, match="sum"):
        ScenarioSet([vee(0.5)], [0.7], net, 16, body=UNIT)


def test_istar_and_pushforward():
    sset = toy_scenarios()
    assert sset.istar.tolist() == [0, 2]  # argmin of x at 0, of 1-x at 1
    state = initial_state(
        ScenarioSet(ramp_pair(), [0.3, 0.7], sset.net, 4, body=UNIT))
    assert state.alpha.tolist() == [0.3, 0.0, 0.7]
    assert state.t == 0


def test_posterior_deterministic_collapse():
    sset = toy_scenarios()
    state = initial_state(sset)
    nxt = observe(state, 1, [0.2], 0.2)
    assert nxt.alpha_scenarios.tolist() == [1.0, 0.0]
    assert nxt.t == 1
    with pytest.raises(ObservationMismatchError):
        observe(state, 1, [0.2], 0.55)


def test_posterior_unchanged_by_uninformative_point():
    sset = toy_scenarios()
    state = initial_state(sset)
    nxt = observe(state, 1, [0.5], 0.5)
    assert nxt.alpha_scenarios.tolist() == [0.5, 0.5]


def test_posterior_gaussian_matches_bayes_formula():
    net = build_net(UNIT, 4)
    flat_a = MaxAffineFunction([0.4], [[0.0]])
    flat_b = MaxAffineFunction([0.6], [[0.0]])
    sset = ScenarioSet([flat_a, flat_b], [0.5, 0.5], net, 4, body=UNIT)
    state = initial_state(sset)
    nxt = observe(state, 1, [0.5], 0.4, LikelihoodModel("gaussian", sigma=0.1))
    # residuals (0, 0.2) at sigma 0.1 weight the first scenario 1/(1+e^-2)
    expect = gaussian_posterior_oracle([0.5, 0.5], [0.0, 0.2], 0.1)
    assert nxt.alpha_scenarios == pytest.approx(expect, abs=1e-12)
    assert nxt.alpha_scenarios[0] == pytest.approx(1.0 / (1.0 + math.exp(-2.0)))


def test_posterior_is_martingale_under_the_prior():
    sset = toy_scenarios()
    state = initial_state(sset)
    x = [0.3]
    mean = np.zeros(2)
    for s in range(sset.size):
        y = float(sset.loss(s, 1).value(np.array(x)))
        mean += sset.prior[s] * observe(state, 1, x, y).alpha_scenarios
    assert mean == pytest.approx(sset.prior, abs=1e-12)


# -- surrogates and round quantities ---------------------------------------------

def test_surrogates_toy():
    sset = toy_scenarios()
    state = initial_state(sset)
    xs = np.array([[0.0], [0.2], [1.0]])
    f_t, f_list, support = surrogates(state, loss_values(sset, 1, xs))
    assert f_t == pytest.approx([0.5, 0.5, 0.5])
    assert f_list[0] == pytest.approx([0.0, 0.2, 1.0])
    assert f_list[1] == pytest.approx([1.0, 0.8, 0.0])
    assert state.alpha.tolist() == [0.5, 0.0, 0.5]
    assert support.tolist() == [0, 2]
    # net index 1 has no posterior mass, so it has no conditional loss
    assert f_list.shape == (2, 3)


def test_surrogates_match_per_index_reference_bit_for_bit():
    # Twelve of the sixteen vees share a net optimum, so one group holds more
    # than the eight weights below which numpy's pairwise sum is sequential.
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
        alpha = np.zeros(net.size)
        np.add.at(alpha, sset.istar, w)
        state = PosteriorState(sset, w, alpha, 1)
        assert np.bincount(sset.istar[w > 0]).max() > 8
        expected = surrogate_rows_reference(w, sset.istar, values)
        for got, want in zip(surrogates(state, values), expected):
            assert np.array_equal(got, want)


def test_regret_info_toy():
    sset = toy_scenarios()
    cases = [(0.0, 0.25), (0.5, 0.0), (0.8, 0.09)]
    table = ValueTable(initial_state(sset), 1,
                       np.vstack([sset.net.points, [[x] for x, _ in cases]]))
    for k, (x, v_expect) in enumerate(cases, start=sset.net.size):
        r, v = table.r[k], table.v[k]
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
    table = ValueTable(initial_state(sset), 1, net.points)
    i = int(sset.istar[0])
    r, v = table.r[i], table.v[i]
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


def test_value_table_matches_round_oracle():
    checked = zero_mass = 0
    for sset, rng in _random_sets():
        n = sset.net.points.shape[1]
        for trial in range(6):
            w = rng.dirichlet(np.ones(sset.size))
            w[rng.permutation(sset.size)[:trial % 3 + 1]] = 0.0
            w /= w.sum()
            alpha = np.zeros(sset.net.size)
            for s in range(sset.size):
                alpha[sset.istar[s]] += w[s]
            state = PosteriorState(sset, w, alpha, 0)
            t = int(rng.integers(1, sset.horizon + 1))
            extra = rng.uniform(0.0, 1.0, (5, n))
            table = ValueTable(state, t, np.vstack([sset.net.points, extra]))
            first = table.append(rng.uniform(0.0, 1.0, (3, n)))
            assert first == sset.net.size + 5
            for col, x in enumerate(table.points):
                f, fi, r, v = round_quantities(sset, state, t, x)
                assert table.support.tolist() == sorted(fi)
                assert table.f[col] == pytest.approx(f, abs=1e-12)
                for k, i in enumerate(table.support):
                    assert table.fi[k, col] == pytest.approx(fi[i], abs=1e-12)
                assert table.r[col] == pytest.approx(r, abs=1e-12)
                assert table.v[col] == pytest.approx(v, abs=1e-12)
                direct = [float(sset.loss(s, t).value(x))
                          for s in range(sset.size)]
                assert table.values[:, col] == pytest.approx(direct, abs=1e-12)
                checked += 1
            # an index without posterior mass gets no row
            massless = set(sset.istar.tolist()) - set(table.support.tolist())
            zero_mass += len(massless)
            assert all(alpha[i] == 0.0 for i in massless)
    assert checked > 100 and zero_mass > 0


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
    state = initial_state(sset)
    plan = two_point_action(state, ValueTable(state, 1, net.points), 16,
                            lambda *a: None, GameParams(),
                            np.random.default_rng(0))
    assert plan.xbar is None and plan.p_explore == 0.0
    assert plan.L == pytest.approx(0.0, abs=1e-12)
    assert plan.sample(np.random.default_rng(1))[1] == "two_point_exploit"


def test_two_point_plan_identities():
    horizon = 64
    net = build_net(UNIT, horizon)
    sset = ScenarioSet(ramp_pair(), [0.5, 0.5], net, horizon, body=UNIT)
    state = initial_state(sset)

    def mu_builder(eps, xstar, _state):
        return dyadic_measure_1d(UNIT, float(xstar[0]), eps)

    plan = two_point_action(state, ValueTable(state, 1, net.points), horizon,
                            mu_builder, GameParams(), np.random.default_rng(3))
    # a fresh table at the two candidate plays
    check = ValueTable(state, 1, net.points)
    bar = check.append([plan.xbar, plan.xstar])
    star = bar + 1
    assert plan.xbar is not None and not plan.fallback
    assert plan.L == pytest.approx(-0.5, abs=1e-12)
    assert plan.eps == 0.25
    p = plan.p_explore
    f_bar = float(check.f[bar]) - plan.offset
    # mixed-play identities: E r = |L| + alpha(J) fbar; info floor is exact
    assert plan.expected_r == pytest.approx(abs(plan.L) + p * f_bar, abs=1e-12)
    assert plan.info_lower == pytest.approx(
        GameParams().gap_constant * p * max(plan.eps, f_bar), abs=1e-12)
    assert plan.expected_v >= plan.info_lower ** 2 - 1e-12
    # and E r/E v recompose from the two candidate plays
    r_bar, v_bar = check.r[bar], check.v[bar]
    r_star, v_star = check.r[star], check.v[star]
    assert plan.expected_r == pytest.approx(p * r_bar + (1 - p) * r_star,
                                            abs=1e-12)
    assert plan.expected_v == pytest.approx(p * v_bar + (1 - p) * v_star,
                                            abs=1e-12)


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
    # an explore plan mixes two columns of its round's table, so its
    # information ratio is no smaller than the best mix of any two columns
    horizon = 64
    net = build_net(UNIT, horizon)
    sset = ScenarioSet([vee((j + 0.5) / 8, level=0.1, slope=0.7)
                        for j in range(8)], [0.125] * 8, net, horizon,
                       body=UNIT)
    plans = []
    play = bandit.two_point_action

    def spy(state, table, *args):
        plan = play(state, table, *args)
        plans.append((plan, table.r.copy(), table.v.copy()))
        return plan

    monkeypatch.setattr(bandit, "two_point_action", spy)
    for seed in range(3):
        run_game(sset, UNIT, horizon, seed=seed,
                 likelihood=LikelihoodModel("gaussian", sigma=0.25),
                 params=GameParams(explore_samples=64, pool_samples=64))
    explored = [entry for entry in plans if entry[0].xbar is not None]
    assert len(explored) >= 3
    for plan, r, v in explored:
        ratio = plan.expected_r ** 2 / plan.expected_v
        assert ratio >= ids_two_point_ratio(r, v) - 1e-12


def test_thompson_follows_alpha():
    net = build_net(UNIT, 16)
    sset = ScenarioSet([vee(0.25), vee(0.5), vee(0.75)],
                       [0.2, 0.5, 0.3], net, 16, body=UNIT)
    state = initial_state(sset)
    rng = np.random.default_rng(0)
    draws = np.array([net.points[thompson_action(state, rng)][0]
                      for _ in range(3000)])
    for point, weight in [(0.25, 0.2), (0.5, 0.5), (0.75, 0.3)]:
        freq = float((draws == point).mean())
        assert abs(freq - weight) <= 4.0 * math.sqrt(weight * (1 - weight) / 3000)


def test_posterior_state_rejects_mass_leak():
    sset = toy_scenarios()
    with pytest.raises(ValueError):
        PosteriorState(sset, np.array([0.5, 0.0]), np.array([0.5, 0.0, 0.0]), 0)


# -- full games ---------------------------------------------------------------------

def test_game_single_scenario_reveals_nothing():
    net = build_net(UNIT, 16)
    sset = ScenarioSet([vee(0.5)], [1.0], net, 16, body=UNIT)
    records, summary = run_game(sset, UNIT, 16, seed=1)
    assert summary["sum_v"] == pytest.approx(0.0, abs=1e-12)
    assert all(rec.r_t >= -1e-12 for rec in records)
    assert summary["final_regret_net"] <= 1e-9
    assert summary["true_scenario"] == 0


def test_game_two_scenarios_collapse_and_plateau():
    horizon = 16
    net = build_net(UNIT, horizon)
    sset = ScenarioSet([vee(0.5), vee(0.25)], [0.5, 0.5], net, horizon,
                       body=UNIT)
    records, summary = run_game(sset, UNIT, horizon, seed=2)
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
    records, summary = run_game(sset, UNIT, horizon, policy="two_point",
                                seed=5, likelihood=LikelihoodModel("gaussian",
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
        _, summary = run_game(sset, UNIT, horizon, seed=seed,
                              likelihood=LikelihoodModel("gaussian", sigma=0.1))
        sums.append(summary["sum_v"])
    mean = float(np.mean(sums))
    stderr = float(np.std(sums, ddof=1)) / math.sqrt(len(sums))
    assert mean <= 0.5 * math.log(4) + 3.0 * stderr


def test_game_policy_kinds_and_gates():
    net = build_net(UNIT, 16)
    sset = ScenarioSet([vee(0.3), vee(0.6)], [0.5, 0.5], net, 16, body=UNIT)
    records, _ = run_game(sset, UNIT, 16, policy="uniform", seed=0)
    assert {rec.action_kind for rec in records} == {"uniform"}
    records, _ = run_game(sset, UNIT, 16, policy="thompson", seed=0)
    assert {rec.action_kind for rec in records} == {"thompson"}
    with pytest.raises(ConfigError):
        run_game(sset, UNIT, 16, policy="greedy")
    with pytest.raises(ValueError, match="horizon"):
        run_game(sset, UNIT, 32, policy="thompson")


def test_game_repeats_exactly_for_a_seed():
    net = build_net(UNIT, 16)
    sset = ScenarioSet([vee(0.3), vee(0.6)], [0.5, 0.5], net, 16, body=UNIT)
    first, s1 = run_game(sset, UNIT, 16, seed=9)
    second, s2 = run_game(sset, UNIT, 16, seed=9)
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
    assert out == {"power": 0.153, "size": 0.0575, "level": 0.05,
                   "threshold": 0.8806011504462204, "tv_lower_estimate": 0.2,
                   "trials": 2000, "se_power": 0.008049565205649308}


def test_hypothesis_validation():
    f = vee(0.5)
    mu = dyadic_measure_1d(UNIT, 0.5, 0.125)
    with pytest.raises(ValueError):
        hypothesis_test(f, f, 0.125, mu, -0.1, 500, np.random.default_rng(0))
    with pytest.raises(ValueError):
        hypothesis_test(f, f, 0.125, mu, 0.1, 50, np.random.default_rng(0))


def test_likelihood_model_validation():
    with pytest.raises(ConfigError):
        LikelihoodModel("poisson")
    with pytest.raises(ConfigError):
        LikelihoodModel("gaussian", sigma=0.0)
