"""Bayesian bandit simulator over finite scenario environments.

An environment is a finite set of full loss sequences with a prior. The
posterior over scenarios pushes forward (through each scenario's optimal net
point) to a posterior ``alpha`` over net indices; the surrogate losses
``f_t`` and the conditionals ``f_{i,t}`` are then exact finite averages. The
two-point strategy plays either the surrogate minimizer x* or one exploratory
point drawn from an exploration measure. Each round evaluates every
scenario's loss once on the candidate points as one value table, from which
f_t, f_{i,t} and the regret/information quantities r_t and v_t are read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ObservationMismatchError, StepFailureError
from .convexfn import MaxAffineFunction
from .geometry import ConvexBody
from .explore1d import ExplorationMeasure, dyadic_measure_1d
from .explore_nd import PipelineParams, build_exploratory_measure
from .profiles import CALIBRATED, ConstantProfile


# -- nets ---------------------------------------------------------------------

@dataclass(frozen=True)
class Net:
    """Axis-aligned grid restricted to the body, used as the action net."""

    points: np.ndarray          # (K, n)
    covering_radius: float      # spot-checked against random body points
    spacing: float

    @property
    def size(self) -> int:
        return self.points.shape[0]


def build_net(body: ConvexBody, horizon: int,
              rng: np.random.Generator | None = None) -> Net:
    """Grid of spacing 1/sqrt(T) intersected with the body.

    The covering radius is estimated on random body points and must come out
    at most 1/sqrt(T); the point count respects K <= (4T)^n.
    """
    if horizon < 4:
        raise ValueError("horizon must be at least 4")
    rng = rng if rng is not None else np.random.default_rng(0)
    n = body.dimension
    spacing = 1.0 / math.sqrt(horizon)
    lows, highs = body.bounding_box()
    axes = [np.arange(lows[i], highs[i] + spacing * 0.5, spacing)
            for i in range(n)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    points = mesh[body.contains(mesh, tol=1e-9)]
    if points.shape[0] == 0:
        raise ValueError("net is empty: body too thin for the grid spacing")
    if points.shape[0] > (4 * horizon) ** n:
        raise ConfigError("net exceeds the (4T)^n size bound; body too large")
    probes = body.sample_uniform(256, rng)
    d2 = ((probes[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    covering = float(np.sqrt(d2.min(axis=1).max()))
    if covering > spacing + 1e-9:
        raise ConfigError(
            f"net covering radius {covering:.4g} exceeds spacing {spacing:.4g}")
    return Net(points, covering, spacing)


# -- scenarios and posterior ---------------------------------------------------

class ScenarioSet:
    """Finite family of loss sequences with a prior over them.

    Each scenario is a sequence of length ``horizon`` of convex losses with
    values in [0, 1] and Lipschitz constant at most 1 on the body. ``istar``
    maps each scenario to the net index minimizing its total loss (ties to
    the lowest index).
    """

    def __init__(self, sequences: Sequence, prior, net: Net, horizon: int,
                 body: ConvexBody | None = None, validate: bool = True):
        if horizon < 1:
            raise ValueError("horizon must be positive")
        seqs = []
        for seq in sequences:
            if isinstance(seq, MaxAffineFunction):
                seqs.append((seq,) * horizon)
            else:
                seq = tuple(seq)
                if len(seq) != horizon:
                    raise ValueError("loss sequence length differs from horizon")
                seqs.append(seq)
        if not seqs:
            raise ValueError("need at least one scenario")
        prior = np.asarray(prior, dtype=float)
        if prior.shape != (len(seqs),) or np.any(prior < 0):
            raise ValueError("prior must be a nonnegative vector over scenarios")
        if abs(prior.sum() - 1.0) > 1e-12:
            raise ValueError("prior must sum to 1")
        self.sequences = tuple(seqs)
        self.prior = prior
        self.net = net
        self.horizon = horizon
        self.body = body
        if validate:
            self._validate()
        self.totals = np.zeros((len(seqs), net.size))
        rows: dict[int, np.ndarray] = {}
        for t in range(1, horizon + 1):
            self.totals += loss_values(self, t, net.points, rows)
        self.istar = np.argmin(self.totals, axis=1)  # ties to the lowest index

    def _validate(self):
        pts = self.net.points
        if self.body is not None:
            radius = float(np.linalg.norm(self.body.ball_center)
                           + self.body.ball_radius)
        else:
            radius = float(np.linalg.norm(pts, axis=1).max()) + 1.0
        for seq in self.sequences:
            seen = set()
            for fn in seq:
                if id(fn) in seen:
                    continue
                seen.add(id(fn))
                vals = np.asarray(fn.value(pts), dtype=float)
                if vals.min() < -1e-9 or vals.max() > 1.0 + 1e-9:
                    raise ConfigError("scenario loss leaves [0, 1] on the net")
                if fn.lipschitz_bound(radius) > 1.0 + 1e-6:
                    raise ConfigError("scenario loss is not 1-Lipschitz")

    @property
    def size(self) -> int:
        return len(self.sequences)

    def loss(self, scenario: int, t: int) -> MaxAffineFunction:
        """Loss of the given scenario at round t (1-based)."""
        return self.sequences[scenario][t - 1]


@dataclass(frozen=True)
class PosteriorState:
    """Posterior over scenarios and its pushforward over net indices."""

    scenario_set: ScenarioSet
    alpha_scenarios: np.ndarray
    alpha: np.ndarray           # over net indices, via istar
    t: int

    def __post_init__(self):
        for simplex in (self.alpha_scenarios, self.alpha):
            if abs(float(simplex.sum()) - 1.0) > 1e-12:
                raise ValueError("posterior weights must sum to 1")


def _pushforward(scenario_set: ScenarioSet, weights: np.ndarray) -> np.ndarray:
    alpha = np.zeros(scenario_set.net.size)
    np.add.at(alpha, scenario_set.istar, weights)
    return alpha


def initial_state(scenario_set: ScenarioSet) -> PosteriorState:
    return PosteriorState(scenario_set, scenario_set.prior.copy(),
                          _pushforward(scenario_set, scenario_set.prior), 0)


@dataclass(frozen=True)
class LikelihoodModel:
    """Observation model: exact losses or Gaussian noise of known sigma."""

    kind: str = "deterministic"
    sigma: float = 0.1
    tol: float = 1e-9

    def __post_init__(self):
        if self.kind not in ("deterministic", "gaussian"):
            raise ConfigError(f"unknown likelihood model {self.kind!r}")
        if self.kind == "gaussian" and self.sigma <= 0:
            raise ConfigError("gaussian likelihood needs sigma > 0")


def posterior_update(state: PosteriorState, t: int, y_t: float, losses,
                     likelihood_model: LikelihoodModel) -> PosteriorState:
    """Bayes update after observing loss y_t at the round's played point.

    ``losses`` holds every scenario's round-t loss at that point: the played
    column of the round's value table.
    """
    sset = state.scenario_set
    vals = np.asarray(losses, dtype=float)
    if vals.shape != (sset.size,):
        raise ValueError("need one loss per scenario at the played point")
    if likelihood_model.kind == "deterministic":
        keep = np.abs(vals - y_t) <= likelihood_model.tol
        weights = state.alpha_scenarios * keep
    else:
        resid2 = (vals - y_t) ** 2
        loglik = -(resid2 - resid2.min()) / (2.0 * likelihood_model.sigma ** 2)
        weights = state.alpha_scenarios * np.exp(loglik)
    total = float(weights.sum())
    if total <= 0.0:
        raise ObservationMismatchError(
            f"observation {y_t} is inconsistent with every scenario at round {t}")
    weights = weights / total
    return PosteriorState(sset, weights, _pushforward(sset, weights), t)


# -- value tables ---------------------------------------------------------------

def loss_values(scenarios: ScenarioSet, t: int, points,
                rows: dict | None = None) -> np.ndarray:
    """S × m table of every scenario's round-t loss at m points (rows).

    Each loss object is evaluated once. ``rows`` carries the rows from call
    to call on the same points and keeps only those of round t's losses, so
    rows of past rounds do not pile up.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    fns = [scenarios.loss(s, t) for s in range(scenarios.size)]
    kept = {id(fn): (rows or {}).get(id(fn)) for fn in fns}
    for fn in fns:
        if kept[id(fn)] is None:
            kept[id(fn)] = np.asarray(fn.value(pts), dtype=float)
    if rows is not None:
        rows.clear()
        rows.update(kept)
    return np.array([kept[id(fn)] for fn in fns])


def surrogates(state: PosteriorState, values: np.ndarray):
    """Posterior-mean loss and conditional losses per net index on a table.

    ``values`` holds every scenario's loss at m points (S × m). f_t averages
    all scenarios by posterior weight; f_{i,t} averages the scenarios whose
    optimal net point is index i. Returns (f, fi, support): f has length m,
    and fi has one row per index in ``support``, the net indices with
    posterior mass. Indices without mass have no conditional loss.
    """
    w = state.alpha_scenarios
    support = np.flatnonzero(state.alpha > 0)
    live = np.flatnonzero(w > 0)
    rows = np.searchsorted(support, state.scenario_set.istar[live])
    # Each group's mass is numpy's sum of its weights in scenario order.
    mass = [w[live[rows == k]].sum() for k in range(support.size)]
    # One pass in scenario order, so every row is summed from zero in that order.
    f = np.zeros(values.shape[1])
    fi = np.zeros((support.size, values.shape[1]))
    for s, k in zip(live.tolist(), rows.tolist()):
        f += w[s] * values[s]
        fi[k] += (w[s] / mass[k]) * values[s]
    return f, fi, support


def regret_info(f: np.ndarray, fi: np.ndarray, weights: np.ndarray,
                own: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """r_t and v_t at every point of a table: regret and dispersion.

    r(x) = f(x) - sum_i alpha_i f_i(xbar_i); v(x) = sum_i alpha_i
    (f(x) - f_i(x))^2, both over the supported indices, whose alpha_i are
    ``weights`` and whose f_i(xbar_i) are ``own``.
    """
    return f - float(weights @ own), weights @ (f - fi) ** 2


class ValueTable:
    """One round's scenario losses and the round quantities at its points.

    Column i < K is net point i; the candidate pool follows, then any
    points added by ``append``. ``f`` is f_t and ``fi`` has one row of
    f_{i,t} per net index in ``support``; ``own`` holds those rows at their
    own net points, and ``r``/``v`` are r_t/v_t.
    """

    def __init__(self, state: PosteriorState, t: int, points,
                 rows: dict | None = None):
        self.state, self.t = state, t
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.values = loss_values(state.scenario_set, t, self.points, rows)
        self.f, self.fi, self.support = surrogates(state, self.values)
        self.weights = state.alpha[self.support]
        self.own = self.fi[np.arange(self.support.size), self.support]
        self.r, self.v = regret_info(self.f, self.fi, self.weights, self.own)

    def append(self, points) -> int:
        """Add columns for further points of the round; returns the first."""
        first = self.f.size
        points = np.atleast_2d(np.asarray(points, dtype=float))
        values = loss_values(self.state.scenario_set, self.t, points)
        f, fi, _ = surrogates(self.state, values)
        r, v = regret_info(f, fi, self.weights, self.own)
        self.points = np.vstack([self.points, points])
        self.values = np.hstack([self.values, values])
        self.f, self.fi = np.concatenate([self.f, f]), np.hstack([self.fi, fi])
        self.r = np.concatenate([self.r, r])
        self.v = np.concatenate([self.v, v])
        return first


# -- two-point strategy ---------------------------------------------------------

@dataclass(frozen=True)
class Step1Result:
    eps: float
    indices: np.ndarray
    relaxed: bool


def step1_epsilon(alpha: np.ndarray, fi_at_xbar: np.ndarray,
                  regret_floor: float = 0.0) -> Step1Result:
    """Dyadic scale at which enough posterior mass sits well below zero.

    Scans eps over {|L|/2 * 2^j} within [|L|/2, 1] and returns the first
    scale whose sublevel mass alpha({i : f_i(xbar_i) <= -eps}) reaches
    |L| / (2 ln(2/|L|) eps). When no grid point passes (finite-grid slack),
    the mass requirement is halved and the result flagged as relaxed.
    """
    alpha = np.asarray(alpha, dtype=float)
    fi = np.asarray(fi_at_xbar, dtype=float)
    supported = alpha > 0
    L = float(np.sum(alpha[supported] * fi[supported]))
    if L >= -regret_floor:
        raise ValueError(
            f"L={L:.4g} is above the exploit threshold {-regret_floor:.4g}; "
            "play x* instead")
    mag = -L
    relax = 1.0
    relaxed = False
    for _ in range(64):
        eps = mag / 2.0
        while eps <= 1.0 + 1e-15:
            mask = supported & (fi <= -eps)
            need = relax * mag / (2.0 * math.log(2.0 / mag) * eps)
            if float(alpha[mask].sum()) >= need:
                return Step1Result(float(eps), np.flatnonzero(mask), relaxed)
            eps *= 2.0
        relax *= 0.5
        relaxed = True
    raise StepFailureError("no dyadic scale accumulated the required mass")


def step2_select_point(f: np.ndarray, fi: np.ndarray, alpha: np.ndarray,
                       I: np.ndarray, eps: float, gap_constant: float):
    """Exploratory sample maximizing the separated posterior mass.

    ``f`` holds the normalized surrogate at M sampled points and ``fi`` the
    normalized conditional losses of the indices in I, one row each. A
    sample x scores the alpha-mass of the i in I with |f(x) - f_i(x)| >=
    gap_constant * max(eps, f(x)). Returns the best sample's position and
    its contributing index set J; ties go to the first draw. Raises
    ``StepFailureError`` when every score is zero.
    """
    I = np.asarray(I, dtype=int)
    if I.size == 0:
        raise ValueError("index set I is empty")
    needed = gap_constant * np.maximum(eps, f)
    hits = np.ascontiguousarray((np.abs(f - fi) >= needed).T)
    scores = hits @ alpha[I]
    best = int(np.argmax(scores))
    if scores[best] <= 0.0:
        raise StepFailureError(
            "no sampled point separates the surrogate losses")
    return best, I[hits[best]]


@dataclass(frozen=True)
class TwoPointPlan:
    """Distribution over {xbar, xstar} with its round diagnostics.

    ``star`` and ``bar`` are the columns of x* and xbar in the round's value
    table.
    """

    xstar: np.ndarray
    xbar: np.ndarray | None
    star: int
    bar: int | None
    p_explore: float
    L: float
    offset: float                 # f_t(x*), subtracted before steps 1-2
    eps: float | None = None
    I: np.ndarray | None = None
    J: np.ndarray | None = None
    relaxed: bool = False
    fallback: bool = False
    expected_r: float = 0.0
    expected_v: float = 0.0
    info_lower: float = 0.0

    def sample(self, rng: np.random.Generator) -> tuple[int, str]:
        """Table column to play, and the action kind."""
        if self.bar is not None and rng.uniform() < self.p_explore:
            return self.bar, "two_point_explore"
        return self.star, "two_point_exploit"


@dataclass(frozen=True)
class GameParams:
    gap_constant: float = 0.125
    explore_samples: int = 512     # M in step 2
    pool_samples: int = 1024       # body samples joining the net for x*
    staleness_tv: float = 0.05
    profile: ConstantProfile = CALIBRATED
    pipeline: PipelineParams | None = None


def two_point_action(state: PosteriorState, table: ValueTable, horizon: int,
                     mu_builder: Callable, params: GameParams,
                     rng: np.random.Generator) -> TwoPointPlan:
    """One round of the two-point strategy on the round's value table.

    Takes x* as the table column minimizing f_t, normalizes the surrogate
    by f(x*), and either exploits (L >= -1/sqrt(T)) or runs the dyadic scale
    selection and the separated-point search over M draws from the
    exploration measure, which are appended to the table. A failed step 2
    yields a plan flagged ``fallback``; the caller should play a posterior
    draw instead.
    """
    alpha = state.alpha
    star = int(np.argmin(table.f))
    offset = float(table.f[star])
    fi_at = table.own - offset           # f_i(xbar_i) - f(x*) over the support
    L = float(np.sum(table.weights * fi_at))
    floor = 1.0 / math.sqrt(horizon)
    plan = TwoPointPlan(table.points[star], None, star, None, 0.0, L, offset,
                        expected_r=float(table.r[star]),
                        expected_v=float(table.v[star]))
    if L >= -floor:
        return plan
    step1 = step1_epsilon(table.weights, fi_at, regret_floor=floor)
    I = table.support[step1.indices]
    mu = mu_builder(step1.eps, plan.xstar, state)
    first = table.append(mu.sample(params.explore_samples, rng))
    try:
        best, J = step2_select_point(
            table.f[first:] - offset, table.fi[step1.indices, first:] - offset,
            alpha, I, step1.eps, params.gap_constant)
    except StepFailureError:
        return replace(plan, eps=step1.eps, I=I, relaxed=step1.relaxed,
                       fallback=True)
    bar = first + best
    p = float(alpha[J].sum())
    f_xbar = float(table.f[bar]) - offset
    expected_r = p * table.r[bar] + (1.0 - p) * table.r[star]
    expected_v = p * table.v[bar] + (1.0 - p) * table.v[star]
    info_lower = params.gap_constant * p * max(step1.eps, f_xbar)
    return TwoPointPlan(plan.xstar, table.points[bar], star, bar, p, L, offset,
                        step1.eps, I, J, step1.relaxed, False,
                        float(expected_r), float(expected_v), info_lower)


def thompson_action(state: PosteriorState, rng: np.random.Generator) -> int:
    """Net index drawn from the posterior alpha."""
    alpha = state.alpha
    return int(rng.choice(alpha.size, p=alpha / float(alpha.sum())))


# -- the game -------------------------------------------------------------------

@dataclass(frozen=True)
class RoundRecord:
    t: int
    x: np.ndarray
    loss: float
    r_t: float
    v_t: float
    cum_regret: float
    cum_info: float
    action_kind: str


class _MeasureCache:
    """Rebuilds the exploration measure only when the posterior moved.

    Triggers: no measure yet, total-variation drift above the threshold, or
    a request at a strictly finer scale than the last build.
    """

    def __init__(self, body: ConvexBody, scenario_set: ScenarioSet,
                 params: GameParams, rng: np.random.Generator):
        self.body = body
        self.scenario_set = scenario_set
        self.params = params
        self.rng = rng
        self.measure = None
        self.built_eps = math.inf
        self.built_alpha = None
        self.builds = 0

    def __call__(self, eps: float, xstar: np.ndarray,
                 state: PosteriorState) -> ExplorationMeasure:
        drift = (math.inf if self.built_alpha is None else
                 0.5 * float(np.abs(state.alpha_scenarios
                                    - self.built_alpha).sum()))
        if (self.measure is None or drift > self.params.staleness_tv
                or eps < self.built_eps * (1.0 - 1e-12)):
            if self.body.dimension == 1:
                self.measure = dyadic_measure_1d(self.body, float(xstar[0]), eps)
            else:
                # The posterior mean is not representable in the function
                # class, so higher-dimensional builds use the most likely
                # scenario's loss; the plan identities hold regardless.
                s_map = int(np.argmax(state.alpha_scenarios))
                fn = self.scenario_set.loss(s_map, max(state.t, 1))
                self.measure, _ = build_exploratory_measure(
                    self.body, fn, eps, self.params.profile,
                    self.params.pipeline, self.rng)
            self.built_eps = eps
            self.built_alpha = state.alpha_scenarios.copy()
            self.builds += 1
        return self.measure


def run_game(scenario_set: ScenarioSet, body: ConvexBody, horizon: int,
             policy: str = "two_point", seed: int = 0,
             likelihood: LikelihoodModel | None = None,
             params: GameParams | None = None):
    """Play one game; returns (records, summary).

    The true scenario is drawn from the prior. Each round the policy picks
    a column of the round's value table, the realized loss is observed
    (optionally with Gaussian noise matching the likelihood model), r_t/v_t
    are recorded before the posterior update, and cumulative regret is
    tracked against the best net point in hindsight.
    """
    if policy not in ("two_point", "thompson", "uniform"):
        raise ConfigError(f"unknown policy {policy!r}")
    if scenario_set.horizon != horizon:
        raise ValueError("scenario_set horizon differs from the game horizon")
    likelihood = likelihood if likelihood is not None else LikelihoodModel()
    params = params if params is not None else GameParams()
    rng = np.random.default_rng(seed)
    net = scenario_set.net
    true_s = int(rng.choice(scenario_set.size, p=scenario_set.prior))
    candidates = np.vstack([net.points,
                            body.sample_uniform(params.pool_samples, rng)])
    cache = _MeasureCache(body, scenario_set, params, rng)
    state = initial_state(scenario_set)
    rows: dict[int, np.ndarray] = {}
    records: list[RoundRecord] = []
    expected_rv: list[tuple[float, float]] = []
    pool_cum = np.zeros(candidates.shape[0])    # the net's columns come first
    uniform_play = np.full(net.size, 1.0 / net.size)
    cum_loss_true = 0.0
    cum_info = 0.0
    fallbacks = 0
    relaxed_rounds = 0
    for t in range(1, horizon + 1):
        table = ValueTable(state, t, candidates, rows)
        plan = None
        if policy == "two_point":
            plan = two_point_action(state, table, horizon, cache, params, rng)
            fallbacks += plan.fallback
            relaxed_rounds += plan.relaxed
        if plan is not None and not plan.fallback:
            col, kind = plan.sample(rng)
            exp_r, exp_v = plan.expected_r, plan.expected_v
        else:
            # a posterior draw (thompson, or a failed step 2) or a uniform
            # draw over the net: E r and E v average the net columns
            if policy == "uniform":
                col, kind = int(rng.integers(net.size)), "uniform"
                play = uniform_play
            else:
                col, kind = thompson_action(state, rng), "thompson"
                play = state.alpha
            exp_r = float(play @ table.r[:net.size])
            exp_v = float(play @ table.v[:net.size])
        x_t = table.points[col].copy()
        r_t, v_t = float(table.r[col]), float(table.v[col])
        losses = table.values[:, col]
        loss_true = float(losses[true_s])
        y_t = loss_true
        if likelihood.kind == "gaussian":
            y_t = loss_true + float(rng.normal(0.0, likelihood.sigma))
        state = posterior_update(state, t, y_t, losses, likelihood)
        pool_cum += table.values[true_s, :pool_cum.size]
        cum_loss_true += loss_true
        cum_info += v_t
        cum_regret = cum_loss_true - float(pool_cum[:net.size].min())
        records.append(RoundRecord(t, x_t, float(y_t), r_t, v_t, cum_regret,
                                   cum_info, kind))
        expected_rv.append((exp_r, exp_v))
    floor = 1.0 / math.sqrt(horizon)
    ratios = [(er - floor) / math.sqrt(ev)
              for er, ev in expected_rv if ev > 1e-15]
    c_emp = max(ratios) if ratios else 0.0
    residuals = [er - floor - c_emp * math.sqrt(max(ev, 0.0))
                 for er, ev in expected_rv]
    regret_net = cum_loss_true - float(pool_cum[:net.size].min())
    regret_pool = cum_loss_true - float(pool_cum.min())
    summary = {
        "policy": policy,
        "seed": seed,
        "horizon": horizon,
        "true_scenario": true_s,
        "sum_v": cum_info,
        "half_log_k": 0.5 * math.log(scenario_set.size),
        "c_emp": c_emp,
        "residuals": residuals,
        "final_regret_net": regret_net,
        "final_regret_pool": regret_pool,
        "net_regret_dominates": bool(regret_net + math.sqrt(horizon) + 1e-9
                                     >= regret_pool),
        "fallbacks": fallbacks,
        "relaxed_rounds": relaxed_rounds,
        "measure_builds": cache.builds,
        "covering_radius": net.covering_radius,
        "likelihood": likelihood.kind,
    }
    return records, summary


# -- single-measurement hypothesis test ------------------------------------------

def hypothesis_test(f, g, eps: float, mu: ExplorationMeasure,
                    noise_sigma: float, trials: int,
                    rng: np.random.Generator, level: float = 0.05) -> dict:
    """Test H0: observations come from f, against the alternative g.

    Each trial draws one x from mu and one noisy value y = h(x) + N(0,
    sigma^2); the statistic |y - f(x)| / max(eps, f(x)) is compared to a
    threshold calibrated to the requested level on fresh H0 draws. Reports
    the power under g, the realized size, and a binned total-variation lower
    bound between the two observation distributions.
    """
    if noise_sigma < 0:
        raise ValueError("noise sigma must be nonnegative")
    if trials < 100:
        raise ValueError("need at least 100 trials")

    def evaluate(h, xs):
        return np.asarray(h.value(xs) if hasattr(h, "value") else h(xs), float)

    def stats(h, m):
        xs = mu.sample(m, rng)
        fx = evaluate(f, xs)
        hx = fx if h is f else evaluate(h, xs)
        y = hx + (rng.normal(0.0, noise_sigma, m) if noise_sigma > 0 else 0.0)
        return np.abs(y - fx) / np.maximum(eps, fx)

    calib = stats(f, trials)
    threshold = float(np.quantile(calib, 1.0 - level, method="higher"))
    s_null = stats(f, trials)
    s_alt = stats(g, trials)
    power = float((s_alt > threshold).mean())
    size = float((s_null > threshold).mean())
    pooled = np.concatenate([s_null, s_alt])
    edges = np.quantile(pooled, np.linspace(0.0, 1.0, 33))
    edges = np.unique(edges)
    if edges.size < 2:
        tv = 0.0
    else:
        p_hist, _ = np.histogram(s_null, bins=edges)
        q_hist, _ = np.histogram(s_alt, bins=edges)
        tv = 0.5 * float(np.abs(p_hist / trials - q_hist / trials).sum())
    return {
        "power": power,
        "size": size,
        "level": level,
        "threshold": threshold,
        "tv_lower_estimate": tv,
        "trials": trials,
        "se_power": math.sqrt(max(power * (1.0 - power), 1e-12) / trials),
    }
