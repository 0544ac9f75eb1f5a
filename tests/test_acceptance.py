"""Acceptance gate: one test per shipped guarantee, printed as a checklist.

Every test draws its corpus from fixed seeds, runs the public API at the
stated tolerances, and prints a single "criterion N: PASS" line with the
realized margins (visible with pytest -s; the -v test line carries the
verdict either way). Failures surface as ordinary assertion errors.
"""
import hashlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from convexplore import bandit
from convexplore.bandit import (GameParams, LikelihoodModel, ScenarioSet,
                                build_net, hypothesis_test, loss_values,
                                posterior_update, run_game, surrogates,
                                thompson_action, two_point_action)
from convexplore.calibration import load_calibration, threshold_from
from convexplore.cli import main
from convexplore.convexfn import MaxAffineFunction
from convexplore.explore1d import (ExplorationMeasure, UniformSegment,
                                   build_measure_1d, guarantee_threshold_1d,
                                   segment_gap_check, verify_exploration)
from convexplore.explore_nd import (build_exploratory_measure,
                                    multi_scale_measure)
from convexplore.fileio import (body_to_dict, function_to_dict, save_json,
                                scenario_file_to_dict)
from convexplore.geometry import ConvexBody
from convexplore.instances import (anchored_scenarios, clustered_scenarios,
                                   random_cone_2d, random_dip_pair_1d,
                                   random_dip_pair_2d, random_interval,
                                   random_polygon)
from convexplore.profiles import CALIBRATED
from convexplore.stats import wilson_interval

UNIT = ConvexBody.interval(0.0, 1.0)


def report(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS - {detail}", flush=True)


# -- criterion 1: 1-D guarantee at the theory constants -------------------------

def test_c1_exploration_guarantee_1d():
    t0 = time.time()
    worst = math.inf
    for j, k in enumerate(range(2, 7)):
        eps = 2.0 ** -k
        for i in range(20):
            rng = np.random.default_rng(10000 + 100 * j + i)
            dom = random_interval(rng)
            f, g, w = random_dip_pair_1d(rng, dom, eps)
            mu = build_measure_1d(dom, f, eps)
            rep = verify_exploration(
                mu, f, g, eps, 1.0 / 8.0, guarantee_threshold_1d(eps),
                100000, np.random.default_rng(20000 + 100 * j + i),
                gap_scaling="eps", witness=w)
            assert rep.passed, (eps, i, rep)
            assert rep.samples == 0 and rep.ci_low == rep.p_hat == rep.ci_high
            worst = min(worst, rep.p_hat - rep.threshold)
    dt = time.time() - t0
    assert dt < 300.0
    report(1, f"100/100 instances at gap eps/8, min mass - threshold "
              f"(exact) {worst:.3f}, {dt:.0f}s")


# -- criterion 2: segment half-mass bound ----------------------------------------

def _segment_instance(seed: int):
    """Random density-bounded segment mixture with a planted gap pair."""
    rng = np.random.default_rng(seed)
    eps = float(rng.choice([0.05, 0.1, 0.2]))
    x0 = rng.uniform(-0.5, 0.5)
    ell = rng.uniform(0.3, 1.0)
    alpha = x0 + ell
    # f: zero at x0, nondecreasing right of it (flat piece keeps f >= 0)
    offsets, slopes = [0.0], [[0.0]]
    for _ in range(3):
        s = rng.uniform(0.3, 2.0)
        d = rng.uniform(0.0, 0.5 * ell * s)
        offsets.append(-s * x0 - d)
        slopes.append([s])
    f = MaxAffineFunction(offsets, slopes)
    g_slopes = sorted(rng.uniform(-1.0, 1.0, 3))
    g0 = MaxAffineFunction(list(rng.uniform(-0.3, 0.3, 3)),
                           [[s] for s in g_slopes])
    shift = -eps * rng.uniform(1.2, 2.5) - float(g0.value(np.array([alpha])))
    g = g0.add_constant(shift)
    segs, weights = [], []
    raw = rng.uniform(0.2, 1.0, 3)
    raw /= raw.sum()
    wts = [Fraction(int(round(1000 * r)), 1000) for r in raw[:-1]]
    wts.append(1 - sum(wts))
    for w in wts:
        a, b = np.sort(rng.uniform(x0, alpha, 2))
        if b - a < 0.05 * ell:
            b = min(alpha, a + 0.05 * ell)
        segs.append(UniformSegment(a, b))
        weights.append(w)
    # exact density bound of the piecewise-constant mixture
    pts = sorted({x0, alpha, *(s.lo for s in segs), *(s.hi for s in segs)})
    beta = 1.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (lo + hi)
        beta = max(beta, sum(float(w) / s.length
                             for w, s in zip(weights, segs)
                             if s.lo <= mid <= s.hi))
    beta *= 1 + 1e-9
    return f, g, x0, alpha, ExplorationMeasure(weights, segs), beta, eps


def test_c2_segment_half_mass_bound():
    from oracles import segment_event_mass
    worst = math.inf
    oracle_gap = 0.0
    for i in range(50):
        f, g, x0, alpha, mu, beta, eps = _segment_instance(30000 + i)
        rep = segment_gap_check(f, g, x0, alpha, mu, beta, eps, 20000,
                                np.random.default_rng(40000 + i))
        assert rep.passed, (i, rep)
        worst = min(worst, rep.p_hat - 0.5)
        mass = sum(
            float(w) * segment_event_mass(
                f, g, seg.lo, seg.hi,
                lambda x, fv: 0.25 / beta * np.maximum(eps, fv))
            for w, seg in zip(mu.weights, mu.components))
        gap = abs(rep.p_hat - mass)
        assert gap < 0.02, (i, gap)
        oracle_gap = max(oracle_gap, gap)
    report(2, f"50/50 instances above mass 1/2 (min mass - 1/2 (exact) "
              f"{worst:.3f}); grid oracle within {oracle_gap:.4f} on 50")


# -- criterion 3: n=2 construction structure -------------------------------------

def _fresh_patch_fractions(stage, rng, m=768):
    """Each kept patch's fresh concentration fraction and Wilson half-width."""
    f = stage.function
    for ball, direction, scale in zip(stage.patches, stage.directions,
                                      stage.scales, strict=True):
        u = rng.standard_normal((m, f.dimension))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = ball.radius * rng.uniform(0.0, 1.0, m) ** (1.0 / f.dimension)
        pts = ball.center + u * r[:, None]
        dev = np.linalg.norm(f.subgradients(pts) - scale * direction, axis=1)
        hits = int((dev <= stage.xi * scale).sum())
        low, high = wilson_interval(hits, m)
        yield hits / m, 0.5 * (high - low)


def _random_quadratic_2d(rng, body):
    a = rng.uniform(0.0, math.pi)
    R = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    Q = R @ np.diag(rng.uniform(0.5, 2.0, 2)) @ R.T
    c = body.ball_center * 0.3
    return MaxAffineFunction([0.0], [np.zeros(2)], quad=Q).translate(list(-c))


def test_c3_multiscale_structure_2d():
    gamma = CALIBRATED.gamma(2)
    max_vol = 0.0
    min_slack = math.inf
    for i in range(20):
        rng = np.random.default_rng(90000 + i)
        body = random_polygon(rng)
        eps = 0.05 if i % 2 else 0.1
        f = (random_cone_2d(rng, body) if i < 10
             else _random_quadratic_2d(rng, body))
        _, res = multi_scale_measure(f, body, eps)
        assert not res.capped
        assert 1 <= len(res.stages) <= CALIBRATED.stage_cap(2, eps)
        fresh = np.random.default_rng(92000 + i)
        for st in res.stages:
            max_vol = max(max_vol, st.volume)
            assert st.volume <= 0.55, (i, st.volume)
            assert len(st.patches) <= 3
            assert st.hull_norm <= gamma * (1 + 1e-6)
            for frac, half in _fresh_patch_fractions(st, fresh):
                min_slack = min(min_slack, frac - (0.5 - 3 * half))
                assert frac >= 0.5 - 3 * half, (i, frac, half)
    report(3, f"20/20 builds, no retry: volume ratio <= {max_vol:.3f},"
              f" |H'| <= 3, min fresh-triplet slack {min_slack:.3f}")


# -- criterion 4: n=2 guarantee with the stored constants ------------------------

def test_c4_calibrated_guarantee_2d():
    cal = load_calibration(2)
    assert cal["n"] == 2
    assert cal["fresh_pass_rate"] >= 0.9
    assert threshold_from(cal["c_prob"], 2, cal["eps"]) == pytest.approx(
        cal["threshold"], abs=1e-12)
    eps, c_gap, thr = cal["eps"], cal["c_gap"], cal["threshold"]
    passes = 0
    for i, seed in enumerate(cal["fresh_seeds"]):
        rng = np.random.default_rng(seed)
        body = random_polygon(rng)
        f, g, _ = random_dip_pair_2d(rng, body, eps)
        mu, _ = build_exploratory_measure(body, f, eps)
        rep = verify_exploration(mu, f, g, eps, c_gap, thr,
                                 cal["mass_samples"],
                                 np.random.default_rng(6000 + i),
                                 gap_scaling="max")
        passes += bool(rep.passed)
    rate = passes / len(cal["fresh_seeds"])
    assert rate >= 0.9
    # seeded end to end, so the recorded rate must reproduce exactly
    assert rate == cal["fresh_pass_rate"]
    report(4, f"c_gap={c_gap} c_prob={cal['c_prob']:.3f} "
              f"threshold={thr:.3f}; fresh pass rate {rate:.2f} (need 0.90)")


# -- criterion 5: information budget ---------------------------------------------

def test_c5_information_budget():
    from oracles import accounted_rv, toy_r, toy_v
    # hand-enumerable 2-scenario toy: losses x and 1-x, uniform prior
    toy = ScenarioSet(
        [MaxAffineFunction([0.0], [[1.0]]), MaxAffineFunction([1.0], [[-1.0]])],
        [0.5, 0.5], build_net(UNIT, 4), 4, body=UNIT)
    xs = (0.0, 0.5, 0.8)
    rs, vs = accounted_rv(toy, toy.prior.copy(), loss_values(
        toy, 1, np.vstack([toy.net.points, [[x] for x in xs]])))
    for k, x in enumerate(xs, start=toy.net.size):
        r, v = rs[k], vs[k]
        assert r == pytest.approx(toy_r(0.5, [0.5, 0.5], [0.0, 0.0]), abs=1e-12)
        assert v == pytest.approx(toy_v([0.5, 0.5], 0.5, [x, 1.0 - x]),
                                  abs=1e-12)

    T = 64
    lik = LikelihoodModel("gaussian", sigma=0.1)
    margins = []
    for K in (4, 16):
        for policy in ("two_point", "thompson"):
            sums = []
            for s in range(20):
                rng = np.random.default_rng(7000 + 97 * K + s)
                fns = anchored_scenarios(rng, K, T)
                net = build_net(UNIT, T, np.random.default_rng(50 + s))
                ss = ScenarioSet(fns, np.full(K, 1.0 / K), net, T, UNIT)
                _, summ = run_game(ss, policy=policy, seed=s, likelihood=lik)
                sums.append(summ["sum_v"])
            mean = float(np.mean(sums))
            se = float(np.std(sums, ddof=1)) / math.sqrt(len(sums))
            bound = 0.5 * math.log(K) + 3 * se
            assert mean <= bound, (K, policy, mean, bound)
            margins.append(bound - mean)
    report(5, f"toy r,v match enumeration to 1e-12; mean sum_v below "
              f"ln(K)/2 + 3*stderr for K in (4,16), both policies; "
              f"min margin {min(margins):.3f}")


# -- criterion 6: per-round two-point identities ----------------------------------

def _spread_vees(rng, count, level=0.1):
    """Vees with well-separated minima: the posterior-mean surrogate stays
    expensive at its own minimum, forcing the explore branch."""
    fns = []
    for j in range(count):
        m = (j + rng.uniform(0.2, 0.8)) / count
        slope = rng.uniform(0.5, 0.8)
        fns.append(MaxAffineFunction([level + slope * m, level - slope * m],
                                     [[-slope], [slope]]))
    return fns


def test_c6_two_point_round_identities():
    from convexplore.explore1d import dyadic_measure_1d
    from oracles import plan_expectations, pushforward
    T = 64
    params = GameParams()
    checked = 0
    worst_r = 0.0
    min_v_slack = math.inf
    for sigma in (0.1, 0.25):
        lik = LikelihoodModel("gaussian", sigma=sigma)
        for env_seed in range(4):
            fns = _spread_vees(np.random.default_rng(8100 + env_seed), 8)
            net = build_net(UNIT, T, np.random.default_rng(60 + env_seed))
            ss = ScenarioSet(fns, np.full(8, 1.0 / 8), net, T, UNIT)
            for seed in range(4):
                rng = np.random.default_rng(seed)
                true_s = int(rng.choice(8, p=ss.prior))
                pool = UNIT.sample_uniform(bandit.POOL_SAMPLES, rng)
                candidates = np.vstack([net.points, pool])
                w = ss.prior.copy()
                mu_b = lambda e, xs, *_: dyadic_measure_1d(UNIT, float(xs[0]), e)
                for t in range(1, T + 1):
                    values = loss_values(ss, t, candidates)
                    plan = two_point_action(ss, w, t, candidates, values,
                                            mu_b, params, rng)
                    if plan.fallback:
                        alpha = pushforward(ss, w)
                        x_t = net.points[thompson_action(alpha, rng)]
                    elif plan.xbar is None:
                        x_t = plan.xstar
                    else:
                        f_bar, _, _ = surrogates(
                            ss, w, loss_values(ss, t, [plan.xbar]))
                        f_xbar = float(f_bar[0]) - plan.offset
                        expected_r, expected_v = plan_expectations(
                            ss, w, values, plan)
                        dr = abs(expected_r
                                 - (abs(plan.L) + plan.p_explore * f_xbar))
                        assert dr <= 1e-12, (env_seed, seed, t, dr)
                        lower = (params.gap_constant * plan.p_explore
                                 * max(plan.eps, f_xbar))
                        assert math.sqrt(expected_v) >= lower
                        worst_r = max(worst_r, dr)
                        min_v_slack = min(min_v_slack,
                                          expected_v - lower * lower)
                        checked += 1
                        x_t = (plan.xstar, plan.xbar)[plan.sample(rng)[0]]
                    y = float(ss.loss(true_s, t).value(np.atleast_1d(x_t)))
                    y += float(rng.normal(0.0, sigma))
                    losses = loss_values(ss, t, [x_t])[:, 0]
                    w = posterior_update(w, t, y, losses, lik)
    assert checked >= 50
    report(6, f"{checked} explore rounds: max |E r - (|L|+a*f)| = "
              f"{worst_r:.1e}, min E v - bound^2 = {min_v_slack:.1e}")


# -- criterion 7: regret scaling ---------------------------------------------------

def test_c7_regret_scaling_sweep():
    # env seeds are shared across horizons, so each seed's scenario cluster
    # keeps its shape while its width shrinks with 1/sqrt(T): the sweep
    # compares the same family at four resolutions instead of fresh noise
    t0 = time.time()
    body = ConvexBody(1, [[1.0], [-1.0]], [1.0, 0.0], [0.5], 0.6)
    lik = LikelihoodModel("gaussian", sigma=0.25)
    horizons = [64, 128, 256, 512]
    means = {}
    baseline = []
    for T in horizons:
        net = build_net(body, T)
        finals = []
        for s in range(20):
            fns = clustered_scenarios(np.random.default_rng(1000 + s), 8, T)
            ss = ScenarioSet(fns, np.full(8, 1.0 / 8), net, T, body)
            _, summ = run_game(ss, policy="two_point", seed=s,
                               likelihood=lik)
            finals.append(summ["final_regret_net"])
            if T == horizons[-1]:
                _, summ_u = run_game(ss, policy="uniform", seed=s,
                                     likelihood=lik)
                baseline.append(summ_u["final_regret_net"])
        means[T] = float(np.mean(finals))
    base_mean = float(np.mean(baseline))
    slope = float(np.polyfit(np.log(horizons),
                             np.log([means[T] for T in horizons]), 1)[0])
    dt = time.time() - t0
    assert 0.4 <= slope <= 0.75, (means, slope)
    assert means[512] <= 0.7 * base_mean, (means[512], base_mean)
    assert dt < 900.0
    report(7, f"slope {slope:.3f} in [0.4, 0.75]; regret at T=512 "
              f"{means[512]:.2f} <= 0.7 x uniform {base_mean:.2f}; {dt:.0f}s")


# -- criterion 8: single-measurement hypothesis power ------------------------------

def test_c8_hypothesis_power():
    trials = 10000
    sigma = 0.25
    bar = 0.05 + 5 * math.sqrt(0.05 * 0.95 / trials)
    powers = {1: [], 2: []}
    for i in range(3):
        rng = np.random.default_rng(81000 + i)
        dom = random_interval(rng)
        f, g, _ = random_dip_pair_1d(rng, dom, 0.1)
        mu = build_measure_1d(dom, f, 0.1)
        res = hypothesis_test(f, g, 0.1, mu, sigma, trials,
                              np.random.default_rng(82000 + i))
        assert res["power"] > bar, (1, i, res["power"])
        powers[1].append(res["power"])
    for i in range(3):
        rng = np.random.default_rng(83000 + i)
        body = random_polygon(rng)
        f, g, _ = random_dip_pair_2d(rng, body, 0.1)
        mu, _ = build_exploratory_measure(body, f, 0.1)
        res = hypothesis_test(f, g, 0.1, mu, sigma, trials,
                              np.random.default_rng(85000 + i))
        assert res["power"] > bar, (2, i, res["power"])
        powers[2].append(res["power"])
    report(8, f"bar {bar:.4f}: n=1 exact powers "
              f"{[f'{p:.3f}' for p in powers[1]]}, n=2 powers at 10^4 trials "
              f"{[f'{p:.3f}' for p in powers[2]]}")


# -- criterion 9: determinism across identical CLI runs ----------------------------

def _cli_outputs(into):
    into.mkdir()
    body1 = into / "b1.json"
    fn1 = into / "f1.json"
    save_json(body1, body_to_dict(UNIT))
    save_json(fn1, function_to_dict(
        MaxAffineFunction([0.24, -0.24], [[-0.8], [0.8]])))
    rng = np.random.default_rng(2)
    body2 = into / "b2.json"
    fn2 = into / "f2.json"
    poly = random_polygon(rng)
    save_json(body2, body_to_dict(poly))
    save_json(fn2, function_to_dict(random_cone_2d(rng, poly)))
    scen = into / "scen.json"
    save_json(scen, scenario_file_to_dict(
        _spread_vees(np.random.default_rng(9), 4), [0.25] * 4, 16))
    assert main(["explore", "build", "--body", str(body1), "--fn", str(fn1),
                 "--eps", "0.0625", "--out", str(into / "mu1.json")]) == 0
    assert main(["explore", "build", "--body", str(body2), "--fn", str(fn2),
                 "--eps", "0.1", "--seed", "4",
                 "--out", str(into / "mu2.json")]) == 0
    assert main(["bandit", "run", "--scenarios", str(scen), "--seeds", "0,1",
                 "--out", str(into / "runs.csv")]) == 0
    assert main(["hypothesis", "test", "--fn", str(fn1), "--alt", str(fn1),
                 "--eps", "0.0625", "--sigma", "0.1", "--trials", "500",
                 "--body", str(body1), "--out", str(into / "hyp.json")]) == 0
    names = ["mu1.json", "mu2.json", "mu2.json.trace.json", "runs.csv",
             "runs.csv.summary.json", "hyp.json"]
    return {nm: hashlib.sha256((into / nm).read_bytes()).hexdigest()
            for nm in names}


def test_c9_cli_determinism(tmp_path, capsys):
    first = _cli_outputs(tmp_path / "a")
    second = _cli_outputs(tmp_path / "b")
    capsys.readouterr()
    assert first == second
    report(9, f"{len(first)} CLI artifacts byte-identical across reruns "
              f"(measures, trace, game CSV, summaries)")
