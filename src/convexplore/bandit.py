"""Bayesian bandit simulator over finite scenario environments.

An environment is a finite set of full loss sequences with a prior. The
posterior over scenarios pushes forward (through each scenario's optimal net
point) to a posterior ``alpha`` over net indices; the surrogate losses
``f_t`` and the conditionals ``f_{i,t}`` are then exact finite averages. The
two-point strategy plays either the surrogate minimizer x* or one exploratory
point drawn from an exploration measure. A game's rounds compute only what
picks the play, from every scenario's losses on the candidate points (one
table, remade only where ``ScenarioSet.changed``); the regret/information
quantities r_t and v_t of all rounds come afterwards from batched passes
over the stacked posteriors.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (CONSTRUCTION_ERRORS, ConfigError,
                     ObservationMismatchError, StepFailureError)
from .convexfn import MaxAffineFunction
from .geometry import ConvexBody
from .explore1d import ExplorationMeasure, dyadic_measure_1d
from .explore_nd import build_exploratory_measure, with_retries
from .profiles import CALIBRATED, ConstantProfile

EXPLORE_SAMPLES = 512   # M in step 2: exploration-measure draws per round
POOL_SAMPLES = 1024     # body samples joining the net as candidates for x*
STALENESS_TV = 0.05     # posterior drift (total variation) forcing a rebuild
OBSERVATION_TOL = 1e-9  # deterministic likelihood: exact-match tolerance
ACCOUNT_BLOCK = 1 << 13  # values per batch: rounds × S × c, probes × K × n


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
        raise ConfigError("net is empty: body too thin for the grid spacing")
    if points.shape[0] > (4 * horizon) ** n:
        raise ConfigError("net exceeds the (4T)^n size bound; body too large")
    probes = body.sample_uniform(256, rng)
    step = max(1, ACCOUNT_BLOCK // points.size)  # probes per block
    d2 = max(((probes[lo:lo + step, None] - points) ** 2).sum(axis=2)
             .min(axis=1).max() for lo in range(0, len(probes), step))
    covering = float(np.sqrt(d2))
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
                 body: ConvexBody):
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
            raise ConfigError("need at least one scenario")
        prior = np.asarray(prior, dtype=float)
        if prior.shape != (len(seqs),) or not np.all(prior >= 0):
            raise ConfigError("prior must be a nonnegative vector over scenarios")
        if abs(prior.sum() - 1.0) > 1e-12:
            raise ConfigError("prior must sum to 1")
        self.sequences = tuple(seqs)
        self.prior = prior
        self.net = net
        self.horizon = horizon
        self.body = body
        rounds = list(zip(*seqs))
        self._changed = [True] + [any(map(operator.is_not, now, before))
                                  for before, now in zip(rounds, rounds[1:])]
        radius = float(np.linalg.norm(body.ball_center) + body.ball_radius)
        for fn in set().union(*seqs):
            if fn.lipschitz_bound(radius) > 1.0 + 1e-6:
                raise ConfigError("scenario loss is not 1-Lipschitz")
        self.totals = np.zeros((len(seqs), net.size))
        for t in range(1, horizon + 1):
            if self.changed(t):
                values = loss_values(self, t, net.points)
                if values.min() < -1e-9 or values.max() > 1.0 + 1e-9:
                    raise ConfigError("scenario loss leaves [0, 1] on the net")
            self.totals += values
        self.istar = np.argmin(self.totals, axis=1)  # ties to the lowest index
        # Scenarios grouped by optimal net index: the sorted indices, each
        # scenario's group, and each group's members padded with index S.
        self.groups = np.flatnonzero(np.bincount(self.istar))
        self.group_of = np.searchsorted(self.groups, self.istar)
        counts = np.bincount(self.group_of)
        self.group_members = np.full((self.groups.size, counts.max()),
                                     len(seqs))
        for g, count in enumerate(counts.tolist()):
            self.group_members[g, :count] = np.flatnonzero(self.group_of == g)

    @property
    def size(self) -> int:
        return len(self.sequences)

    def loss(self, scenario: int, t: int) -> MaxAffineFunction:
        """Loss of the given scenario at round t (1-based)."""
        return self.sequences[scenario][t - 1]

    def changed(self, t: int) -> bool:
        """True at t = 1 and when some scenario's round-t loss is another
        object than its round t - 1 loss: the rounds that need a new table."""
        return self._changed[t - 1]


def _pushforward(scenario_set: ScenarioSet, weights: np.ndarray) -> np.ndarray:
    # bincount adds in scenario order, from zero; a stack's rows end to end
    K = scenario_set.net.size
    if weights.ndim == 1:
        return np.bincount(scenario_set.istar, weights=weights, minlength=K)
    index = scenario_set.istar + K * np.arange(len(weights))[:, None]
    return np.bincount(index.ravel(), weights.ravel(),
                       len(weights) * K).reshape(-1, K)


@dataclass(frozen=True)
class LikelihoodModel:
    """Observation model: exact losses or Gaussian noise of known sigma."""

    kind: str = "deterministic"
    sigma: float = 0.1

    def __post_init__(self):
        if self.kind not in ("deterministic", "gaussian"):
            raise ConfigError(f"unknown likelihood model {self.kind!r}")
        if self.kind == "gaussian" and self.sigma <= 0:
            raise ConfigError("gaussian likelihood needs sigma > 0")


def posterior_update(weights: np.ndarray, t: int, y_t: float, losses,
                     likelihood_model: LikelihoodModel, out=None) -> np.ndarray:
    """Scenario weights after observing loss y_t at the round's played point.

    ``losses`` holds every scenario's round-t loss at that point. Returns
    ``weights`` times the likelihood, normalized, in ``out`` when given.
    """
    vals = np.asarray(losses, dtype=float)
    if vals.shape != weights.shape:
        raise ValueError("need one loss per scenario at the played point")
    if likelihood_model.kind == "deterministic":
        like = np.abs(vals - y_t) <= OBSERVATION_TOL
    else:
        resid2 = (vals - y_t) ** 2
        like = np.exp((np.minimum.reduce(resid2) - resid2)
                      / (2.0 * likelihood_model.sigma ** 2))
    weights = np.multiply(weights, like, out=out)
    total = float(np.add.reduce(weights))
    if total <= 0.0:
        raise ObservationMismatchError(
            f"observation {y_t} is inconsistent with every scenario at round {t}")
    weights /= total
    return weights


# -- loss tables ----------------------------------------------------------------

def loss_values(scenarios: ScenarioSet, t: int, points) -> np.ndarray:
    """S × m table of every scenario's round-t loss at m points (rows)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.array([scenarios.loss(s, t).value(pts)
                     for s in range(scenarios.size)])


def _row_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over axis -2, adding row after row to zero.

    numpy reduces an axis that is not the fast one in memory row by row,
    so on a C-ordered table each sum's bits depend only on its own terms,
    whatever the width and the leading (batch) axes. The fast axis itself
    numpy sums pairwise, so a table of width 1 runs as a loop. (``@``
    rounds by the column count.)
    """
    if terms.shape[-1] > 1:
        return np.add.reduce(np.ascontiguousarray(terms), axis=-2,
                             initial=0.0)
    total = np.zeros(terms.shape[:-2] + (1,))
    for k in range(terms.shape[-2]):
        total += terms[..., k, :]
    return total


def _group_conditionals(scenarios: ScenarioSet, weights: np.ndarray,
                        mass: np.ndarray, values: np.ndarray) -> np.ndarray:
    """f_{i,t} of every optimum group at the columns of ``values``.

    ``weights`` is (..., S), ``mass`` (..., G) the groups' pushforward
    masses ``alpha[..., groups]`` and ``values`` (..., S, c); returns
    (..., G, c), each row summed from zero in scenario order (zero weights
    and the padding add nothing). A group without mass gets a zero row.
    """
    coef = weights / np.where(mass > 0, mass, 1.0)[..., scenarios.group_of]
    terms = coef[..., None] * values
    terms = np.concatenate(
        [terms, np.zeros(terms.shape[:-2] + (1, terms.shape[-1]))], axis=-2)
    return _row_sum(terms[..., scenarios.group_members, :])


def surrogates(scenario_set: ScenarioSet, weights: np.ndarray,
               values: np.ndarray):
    """Posterior-mean loss and conditional losses per net index on a table.

    ``values`` holds every scenario's loss at m points (S × m). f_t averages
    all scenarios by their ``weights``; f_{i,t} averages the scenarios whose
    optimal net point is index i. Returns (f, fi, support): f has length m,
    and fi has one row per index in ``support``, the net indices with
    posterior mass. Indices without mass have no conditional loss.
    """
    groups = scenario_set.groups
    alpha = _pushforward(scenario_set, weights)
    support = np.flatnonzero(alpha > 0)
    fi = _group_conditionals(scenario_set, weights, alpha[groups], values)
    return (_row_sum(weights[:, None] * values),
            fi[np.searchsorted(groups, support)], support)


def regret_info(f: np.ndarray, fi: np.ndarray, weights: np.ndarray,
                own: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """r_t and v_t at every point of a table: regret and dispersion.

    r(x) = f(x) - sum_i alpha_i f_i(xbar_i); v(x) = sum_i alpha_i
    (f(x) - f_i(x))^2, over the indices whose alpha_i are ``weights`` and
    whose f_i(xbar_i) are ``own``. Shapes: f (..., m), fi (..., k, m),
    weights and own (..., k); leading axes are rounds. Both sums run over
    i in order, so a point's r and v do not depend on the other columns
    or rounds, and an index of zero weight adds nothing.
    """
    spread = f[..., None, :] - fi
    spread *= spread
    spread *= weights[..., None]
    return f - _row_sum((weights * own)[..., None]), _row_sum(spread)


def round_accounting(scenarios: ScenarioSet, weights: np.ndarray,
                     alpha: np.ndarray, values: np.ndarray):
    """r_t and v_t of a batch of rounds, each at its own columns.

    ``weights`` (B × S) and ``alpha`` (B × K) are each round's posterior
    before its play, and ``values`` (B × S × c) the scenario losses at
    its c columns, of which the first K are the net points. Returns r and
    v, each B × c; a column's bits do not depend on the other columns or
    rounds.
    """
    groups = scenarios.groups
    mass = alpha[..., groups]
    fi = _group_conditionals(scenarios, weights, mass, values)
    own = fi[..., np.arange(groups.size), groups]
    f = _row_sum(weights[..., None] * values)
    return regret_info(f, fi, mass, own)


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

    ``losses`` holds every scenario's round loss at x* (column 0) and at
    xbar (column 1; x* again when there is no xbar).
    """

    xstar: np.ndarray
    xbar: np.ndarray | None
    losses: np.ndarray            # S × 2
    p_explore: float
    L: float
    offset: float                 # f_t(x*), subtracted before steps 1-2
    eps: float | None = None
    I: np.ndarray | None = None
    J: np.ndarray | None = None
    relaxed: bool = False
    fallback: bool = False
    info_lower: float = 0.0

    def sample(self, rng: np.random.Generator) -> tuple[int, str]:
        """Column of ``losses`` to play, and the action kind."""
        if self.xbar is not None and rng.uniform() < self.p_explore:
            return 1, "two_point_explore"
        return 0, "two_point_exploit"


@dataclass(frozen=True)
class GameParams:
    gap_constant: float = 0.125
    profile: ConstantProfile = CALIBRATED


def two_point_action(scenario_set: ScenarioSet, weights: np.ndarray, t: int,
                     points: np.ndarray, values: np.ndarray,
                     mu_builder: Callable, params: GameParams,
                     rng: np.random.Generator) -> TwoPointPlan:
    """One round t of the two-point strategy over the round's candidates.

    ``weights`` is the posterior over scenarios before round t; ``values``
    holds every scenario's round-t loss at ``points`` (S × m), whose first K
    rows are the net points. Takes x* as the candidate minimizing f_t,
    normalizes the surrogate by f(x*), and either exploits (L >= -1/sqrt(T))
    or runs the dyadic scale selection and the separated-point search over
    M draws from ``mu_builder(eps, xstar, weights, t)``. A failed step 2, or
    a builder returning None, yields a plan flagged ``fallback``; the caller
    should play a posterior draw instead.
    """
    sset = scenario_set
    alpha = _pushforward(sset, weights)
    if (abs(float(weights.sum()) - 1.0) > 1e-12
            or abs(float(alpha.sum()) - 1.0) > 1e-12):
        raise ValueError("posterior weights must sum to 1")
    f = _row_sum(weights[:, None] * values)
    group_mass = alpha[sset.groups]
    supported = group_mass > 0           # alpha is zero off the groups
    support, mass = sset.groups[supported], group_mass[supported]
    # each supported f_{i,t} at its own net point: bincount adds a group's
    # terms from zero in scenario order, as _group_conditionals does
    coef = weights / np.where(supported, group_mass, 1.0)[sset.group_of]
    own = np.bincount(sset.group_of,
                      coef * values[np.arange(sset.size), sset.istar],
                      sset.groups.size)[supported]
    star = int(f.argmin())
    offset = float(f[star])
    fi_at = own - offset                 # f_i(xbar_i) - f(x*) over the support
    L = float(np.add.reduce(mass * fi_at))
    floor = 1.0 / math.sqrt(sset.horizon)
    plan = TwoPointPlan(points[star], None, values[:, [star, star]], 0.0, L,
                        offset)
    if L >= -floor:
        return plan
    step1 = step1_epsilon(mass, fi_at, regret_floor=floor)
    I = support[step1.indices]
    fallback = replace(plan, eps=step1.eps, I=I, relaxed=step1.relaxed,
                       fallback=True)
    mu = mu_builder(step1.eps, plan.xstar, weights, t)
    if mu is None:
        return fallback
    draws = mu.sample(EXPLORE_SAMPLES, rng)
    draws = draws[rng.permutation(EXPLORE_SAMPLES)]  # step 2 ties pick the first draw
    drawn = loss_values(sset, t, draws)
    f, fi, _ = surrogates(sset, weights, drawn)
    try:
        best, J = step2_select_point(
            f - offset, fi[step1.indices] - offset, alpha, I, step1.eps,
            params.gap_constant)
    except StepFailureError:
        return fallback
    p = float(alpha[J].sum())
    info_lower = params.gap_constant * p * max(step1.eps, float(f[best]) - offset)
    return TwoPointPlan(plan.xstar, draws[best],
                        np.column_stack([values[:, star], drawn[:, best]]), p,
                        L, offset, step1.eps, I, J, step1.relaxed, False,
                        info_lower)


def thompson_action(alpha: np.ndarray, rng: np.random.Generator) -> int:
    """Net index drawn from the posterior alpha, as ``rng.choice(alpha.size,
    p=alpha / alpha.sum())`` draws it, without validating p."""
    cdf = (alpha / float(np.add.reduce(alpha))).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), "right"))


# -- the game -------------------------------------------------------------------

class RoundRecord(NamedTuple):
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
    a request at a strictly finer scale than the last build. A build in
    n >= 2 retries from a seed drawn from the game's generator; when every
    attempt fails it returns None, counts a failure and keeps the old
    measure, so the next request tries again.
    """

    def __init__(self, scenario_set: ScenarioSet, params: GameParams,
                 rng: np.random.Generator):
        self.scenario_set = scenario_set
        self.params = params
        self.rng = rng
        self.measure = None
        self.built_eps = math.inf
        self.built_weights = None
        self.builds = 0
        self.failures = 0

    def __call__(self, eps: float, xstar: np.ndarray, weights: np.ndarray,
                 t: int) -> ExplorationMeasure | None:
        drift = (math.inf if self.built_weights is None else
                 0.5 * float(np.abs(weights - self.built_weights).sum()))
        if (self.measure is None or drift > STALENESS_TV
                or eps < self.built_eps * (1.0 - 1e-12)):
            body = self.scenario_set.body
            if body.dimension == 1:
                self.measure = dyadic_measure_1d(body, float(xstar[0]), eps)
            else:
                # The posterior mean is outside the function class, so an
                # n >= 2 build takes the most likely scenario's round-t
                # loss; the plan identities hold regardless.
                s_map = int(np.argmax(weights))
                fn = self.scenario_set.loss(s_map, t)
                seed = int(self.rng.integers(2 ** 32))
                try:
                    (self.measure, _), _ = with_retries(
                        lambda rng: build_exploratory_measure(
                            body, fn, eps, self.params.profile, rng),
                        seed)
                except CONSTRUCTION_ERRORS:
                    self.failures += 1
                    return None
            self.built_eps = eps
            self.built_weights = weights.copy()
            self.builds += 1
        return self.measure


def run_game(scenario_set: ScenarioSet, policy: str = "two_point",
             seed: int = 0, likelihood: LikelihoodModel | None = None,
             params: GameParams | None = None):
    """Play one game; returns (records, summary).

    The body and horizon are the scenario set's, and the true scenario is
    drawn from its prior. Each round the policy picks a point, the realized
    loss is observed (optionally with Gaussian noise matching the
    likelihood model) and the posterior is updated; cumulative regret is
    tracked against the best net point in hindsight. A round computes only
    what its play reads. After the last round,
    ``round_accounting`` gives every round's r_t/v_t (at the played point,
    under the posterior before the update) and E r_t/E v_t (under the
    policy's play distribution), over batches of rounds.
    """
    if policy not in ("two_point", "thompson", "uniform"):
        raise ConfigError(f"unknown policy {policy!r}")
    likelihood = likelihood if likelihood is not None else LikelihoodModel()
    params = params if params is not None else GameParams()
    rng = np.random.default_rng(seed)
    horizon, net = scenario_set.horizon, scenario_set.net
    K, S = net.size, scenario_set.size
    true_s = int(rng.choice(S, p=scenario_set.prior))
    pool = scenario_set.body.sample_uniform(POOL_SAMPLES, rng)
    candidates = np.vstack([net.points, pool])
    cache = _MeasureCache(scenario_set, params, rng)
    # Row t of weights is the posterior after round t (row 0 the prior).
    # Each round's losses at the net points (one shared array while the
    # losses stay the same), at x* and xbar (x* twice without xbar) for
    # two_point, its played column, and the plan's p (-1 for a net draw).
    weights = np.empty((horizon + 1, S))
    weights[0] = scenario_set.prior
    nets, plan_values = [], np.empty((horizon, S, 2))
    played, explore = np.empty(horizon, dtype=int), np.full(horizon, -1.0)
    xs, ys, kinds, true_losses = [], [], [], []
    pool_cum = np.zeros(candidates.shape[0])
    fallbacks = relaxed_rounds = 0
    for t in range(1, horizon + 1):
        if scenario_set.changed(t):
            values = loss_values(scenario_set, t, candidates)
            net_values, true_values = values[:, :K].copy(), values[true_s]
        nets.append(net_values)
        plan = None
        if policy == "two_point":
            plan = two_point_action(scenario_set, weights[t - 1], t,
                                    candidates, values, cache, params, rng)
            fallbacks += plan.fallback
            relaxed_rounds += plan.relaxed
            plan_values[t - 1] = plan.losses
        if plan is not None and not plan.fallback:
            col, kind = plan.sample(rng)
            x_t = plan.xbar if col else plan.xstar
            losses = plan.losses[:, col]
            played[t - 1] = K + col
            explore[t - 1] = plan.p_explore
        else:
            # a posterior draw (thompson, or a failed step 2 or build) or a
            # uniform draw over the net
            if policy == "uniform":
                col, kind = int(rng.integers(K)), "uniform"
            else:
                alpha = _pushforward(scenario_set, weights[t - 1])
                col, kind = thompson_action(alpha, rng), "thompson"
            x_t, losses = candidates[col], values[:, col]
            played[t - 1] = col
        loss_true = float(losses[true_s])
        y_t = loss_true
        if likelihood.kind == "gaussian":
            y_t = loss_true + float(rng.normal(0.0, likelihood.sigma))
        posterior_update(weights[t - 1], t, y_t, losses, likelihood,
                         out=weights[t])
        pool_cum += true_values
        true_losses.append(loss_true)
        xs.append(x_t.copy())
        ys.append(y_t)
        kinds.append(kind)
    alphas = _pushforward(scenario_set, weights)
    for simplex in (weights, alphas):   # two_point_action's check, every row
        if np.abs(simplex.sum(axis=1) - 1.0).max() > 1e-12:
            raise ValueError("posterior weights must sum to 1")
    r_t, v_t, exp_r, exp_v = _settle(
        scenario_set, policy, weights[:-1], alphas[:-1], nets,
        plan_values if policy == "two_point" else None, played, explore)
    cum_info = np.cumsum(v_t)
    # both cumulative losses add round after round, as the rounds are played
    cum_loss_true = np.cumsum(true_losses)
    cum_regret = cum_loss_true - np.cumsum([n[true_s] for n in nets], 0).min(1)
    records = list(map(RoundRecord._make, zip(
        range(1, horizon + 1), xs, ys, r_t.tolist(), v_t.tolist(),
        cum_regret.tolist(), cum_info.tolist(), kinds)))
    floor = 1.0 / math.sqrt(horizon)
    total_v = float(exp_v.sum())
    c_agg = (float(np.maximum(exp_r - floor, 0.0).sum())
             / math.sqrt(horizon * total_v) if total_v > 0.0 else None)
    regret_net = float(cum_regret[-1])
    regret_pool = float(cum_loss_true[-1]) - float(pool_cum.min())
    summary = {
        "policy": policy,
        "seed": seed,
        "horizon": horizon,
        "true_scenario": true_s,
        "sum_v": float(cum_info[-1]),
        "half_log_k": 0.5 * math.log(S),
        "c_agg": c_agg,
        "final_regret_net": regret_net,
        "final_regret_pool": regret_pool,
        "net_regret_dominates": bool(regret_net + math.sqrt(horizon) + 1e-9
                                     >= regret_pool),
        "fallbacks": fallbacks,
        "relaxed_rounds": relaxed_rounds,
        "measure_builds": cache.builds,
        "build_failures": cache.failures,
        "covering_radius": net.covering_radius,
        "likelihood": likelihood.kind,
    }
    return records, summary


def _settle(scenario_set: ScenarioSet, policy: str, weights, alphas, nets,
            plan_values, played, explore):
    """Every round's r_t, v_t, E r_t and E v_t, from ``round_accounting``.

    Round t's columns are the net points (``nets[t]``), then x* and xbar
    from ``plan_values`` for two_point. A round with ``explore[t]`` >= 0 is
    a two-point play, whose expectations mix x* and xbar with that weight;
    the others play the net under alpha (a posterior draw) or uniformly.
    The batches hold at most ``ACCOUNT_BLOCK`` loss values; no bit depends
    on how the rounds are batched.
    """
    T, S = weights.shape
    K = alphas.shape[1]
    width = K + (0 if plan_values is None else 2)
    r, v = np.empty((T, width)), np.empty((T, width))
    block = max(1, ACCOUNT_BLOCK // (S * width))
    for lo in range(0, T, block):
        hi = min(lo + block, T)
        values = np.stack(nets[lo:hi])
        if plan_values is not None:
            values = np.concatenate([values, plan_values[lo:hi]], axis=2)
        r[lo:hi], v[lo:hi] = round_accounting(
            scenario_set, weights[lo:hi], alphas[lo:hi], values)
    play = np.full((T, K), 1.0 / K) if policy == "uniform" else alphas

    def expect(q):
        net = (play * q[:, :K]).sum(axis=1)
        if plan_values is None:
            return net
        mixed = explore * q[:, K + 1] + (1.0 - explore) * q[:, K]
        return np.where(explore >= 0.0, mixed, net)

    rounds = np.arange(T)
    return r[rounds, played], v[rounds, played], expect(r), expect(v)


# -- single-measurement hypothesis test ------------------------------------------

def _sorted_quantiles(pool: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile(pool, q)`` of an ascending pool without its copy and
    partition: numpy's ``linear`` rule at index q·(n − 1), lerped as its
    ``_lerp`` does. The bits agree unless the pool holds both signed zeros,
    which numpy's partition may reorder."""
    at = (pool.size - 1) * q
    lo = np.where(at >= pool.size - 1, -1.0, np.floor(at))
    i = lo.astype(np.intp)
    a, b = pool[i], pool[np.where(i < 0, i, i + 1)]
    t, step = at - lo, b - a
    out = a + step * t
    np.subtract(b, step * (1 - t), out=out, where=t >= 0.5)
    return out


def _higher_index(n: int, q: float) -> int:
    """Position of ``np.quantile(a, q, method="higher")`` in an ascending
    copy of n values: numpy's ceil((n − 1)·q), for q in [0, 1]."""
    return math.ceil((n - 1) * q)


def hypothesis_test(f, g, eps: float, mu: ExplorationMeasure,
                    noise_sigma: float, trials: int,
                    rng: np.random.Generator, level: float = 0.05) -> dict:
    """Test H0: observations come from f, against the alternative g.

    Each trial draws one x from mu and one noisy value y = h(x) + N(0,
    sigma^2); the statistic |y - f(x)| / max(eps, f(x)) is compared to a
    threshold calibrated to the requested level on fresh H0 draws. Reports
    the power under g, the realized size, and a binned total-variation lower
    bound between the two observation distributions. Each figure is a
    symmetric function of a batch of x, so x may come grouped by leaf.

    The threshold is the calibration draws' ``np.quantile(…, 1 - level,
    method="higher")``, read after one partition. Power, size and the TV
    bins' counts are read with ``searchsorted`` from the sorted null
    statistics and the sorted pool of null and alternative ones, as
    ``np.histogram`` counts (its last bin is closed); the alternative's
    counts are the pool's less the null's. With eps > 0 and a finite f the
    statistics are never NaN or -0.0, so all of this has numpy's bits; an
    eps that is not positive and finite raises ``ValueError`` before any
    draw.
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError("eps must be positive and finite")
    if noise_sigma < 0:
        raise ValueError("noise sigma must be nonnegative")
    if trials < 100:
        raise ValueError("need at least 100 trials")
    if not 0.0 <= level <= 1.0:
        raise ValueError("level must lie in [0, 1]")

    def stats(h, m):
        xs = mu.sample(m, rng)
        fx = np.asarray(f(xs), float)
        hx = fx if h is f else np.asarray(h(xs), float)
        s = hx + (rng.normal(0.0, noise_sigma, m) if noise_sigma > 0 else 0.0)
        s -= fx
        np.abs(s, out=s)
        s /= np.maximum(eps, fx)
        return s

    def below(s, edges):
        # how many of the sorted s lie below each edge; the last bin closed
        n = s.searchsorted(edges)
        n[-1] = s.searchsorted(edges[-1], "right")
        return n

    calib = stats(f, trials)
    k = _higher_index(trials, 1.0 - level)
    calib.partition(k)
    threshold = float(calib[k])
    s_null = np.sort(stats(f, trials))
    pooled = np.concatenate([s_null, stats(g, trials)])
    pooled.sort()
    # the alternative's counts are the pool's less the null's
    null_above = trials - int(s_null.searchsorted(threshold, "right"))
    alt_above = (2 * trials - int(pooled.searchsorted(threshold, "right"))
                 - null_above)
    power, size = alt_above / trials, null_above / trials
    edges = np.unique(_sorted_quantiles(pooled, np.linspace(0.0, 1.0, 33)))
    tv = 0.0
    if edges.size >= 2:
        p_hist = np.diff(below(s_null, edges))
        q_hist = np.diff(below(pooled, edges)) - p_hist
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
