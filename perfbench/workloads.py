"""The benchmark's workloads: inputs from a seed, one timed op, its checks.

A workload object is used in three steps:

* ``prepare(seed, workdir)`` builds every input from the workload seed
  (instances, scenario files, nets, measures). Its cost is set-up time.
* ``op(p, j, tag)`` runs op ``j`` of pass ``p`` of the closed loop and
  returns what the checks need. A pass is ``pass_ops`` ops, and a run
  repeats it. Op ``j`` does the same work in every pass: its inputs depend
  only on the seed and ``j``, except that ``verify`` draws its samples
  afresh in each pass, which leaves the amount of work unchanged.
* ``check(p, j, result)`` returns a dict with ``ok`` (the op passed every
  check) and ``work`` (rounds, builds or checks it completed);
  ``summary(checked)`` applies the run-level checks and returns
  ``(ok, metrics)``.

A workload with ``one_cpu`` set runs pinned to one CPU of those the process
may use.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from convexplore import bandit, cli, explore1d, explore_nd, instances
from convexplore.calibration import load_calibration
from convexplore.convexfn import MaxAffineFunction
from convexplore.fileio import save_json, scenario_file_to_dict
from convexplore.geometry import ConvexBody
from convexplore.profiles import CALIBRATED

# [0, 1] clipped by the ball B(0.5, 0.6): the CLI's body for files without one
GAME_BODY = ConvexBody(1, [[1.0], [-1.0]], [1.0, 0.0], [0.5], 0.6)
RETRY_SHIFT = 100000   # build seed shift per retry, as in the c4 gate
BUILD_ATTEMPTS = 3


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed & (2 ** 63 - 1), *keys])


def seed_int(seed: int, *keys: int) -> int:
    return int(rng_for(seed, *keys).integers(0, 10 ** 6))


def build_with_retry(body, f, eps, build_seed):
    """One build including its retries: (measure, report, failed attempts).

    Each attempt that raises one of ``cli.CONSTRUCTION_ERRORS`` is retried
    with the seed shifted by ``RETRY_SHIFT``; the last failure propagates.
    """
    failures = 0
    for attempt in range(BUILD_ATTEMPTS):
        try:
            measure, report = explore_nd.build_exploratory_measure(
                body, f, eps,
                rng=np.random.default_rng(build_seed + RETRY_SHIFT * attempt))
            return measure, report, failures
        except cli.CONSTRUCTION_ERRORS:
            failures += 1
            if attempt + 1 == BUILD_ATTEMPTS:
                raise


# -- bandit_cli ------------------------------------------------------------------

def spread_vees(rng: np.random.Generator, count: int, level: float = 0.1):
    """Vees with well-separated minima (the c6 family): the posterior-mean
    surrogate stays expensive at its own minimum, forcing explore rounds."""
    fns = []
    for j in range(count):
        m = (j + rng.uniform(0.2, 0.8)) / count
        slope = rng.uniform(0.5, 0.8)
        fns.append(MaxAffineFunction([level + slope * m, level - slope * m],
                                     [[-slope], [slope]]))
    return fns


class BanditCli:
    """In-process ``bandit run`` invocations over scenario files.

    A pass runs the three policies on one file of each family. The files
    are scenario environments of the c7 and c6 gates; the workload seed
    picks which of them (one of four per family) and the game seeds.
    """

    name = "bandit_cli"
    unit = "rounds"
    # The pool's two game threads share the GIL. Spread over both CPUs of a
    # shared VM, GIL hand-overs cross CPUs, and op times swung by more than
    # the reference kernel timed between ops could follow; on one CPU they
    # follow it.
    one_cpu = True
    policies = ("two_point", "thompson", "uniform")
    pass_ops = 6                   # two files (one per family) x 3 policies
    choices = 4                    # environments per family to pick from
    scenarios = 8
    horizon = 256
    seeds_per_op = 2
    max_ratio = 0.7                # regret_vs_uniform gate of test c7

    def prepare(self, seed, workdir):
        self.workdir = Path(workdir)
        self.seeds = [seed_int(seed, 1) + i for i in range(self.seeds_per_op)]
        self.files = [int(rng_for(seed, 2, family).integers(self.choices))
                      for family in range(2)]
        self.paths = []
        net = bandit.build_net(GAME_BODY, self.horizon)
        for family, i in enumerate(self.files):
            # one environment of c7 (clustered) and one of c6 (spread)
            if family == 0:
                fns = instances.clustered_scenarios(
                    np.random.default_rng(1000 + i), self.scenarios,
                    self.horizon)
            else:
                fns = spread_vees(np.random.default_rng(8100 + i),
                                  self.scenarios)
            prior = [1.0 / self.scenarios] * self.scenarios
            # the file must load as a valid scenario set, or every op fails
            bandit.ScenarioSet(fns, prior, net, self.horizon, body=GAME_BODY)
            path = self.workdir / f"scenarios_{family}.json"
            save_json(path, scenario_file_to_dict(fns, prior, self.horizon))
            self.paths.append(path)

    def _plan(self, j):
        family, policy = divmod(j, len(self.policies))
        return family, self.policies[policy]

    def op(self, p, j, tag):
        family, policy = self._plan(j)
        out = self.workdir / f"op{p}_{j}_{tag}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["bandit", "run",
                           "--scenarios", str(self.paths[family]),
                           "--policy", policy,
                           "--seeds", ",".join(map(str, self.seeds)),
                           "--likelihood", "gaussian", "--sigma", "0.25",
                           "--out", str(out)])
        return {"rc": rc, "out": out}

    def check(self, p, j, result):
        family, policy = self._plan(j)
        seeds = self.seeds
        family = ("clustered", "spread")[family]
        info = {"ok": False, "work": 0, "policy": policy, "family": family,
                "label": f"{policy}/{family}", "key": family}
        out = result["out"]
        summary_path = Path(str(out) + ".summary.json")
        if result["rc"] != 0:
            info["error"] = f"exit code {result['rc']}"
            return info
        data = out.read_bytes()
        summary = json.loads(summary_path.read_text())
        out.unlink()
        summary_path.unlink()
        rows = data.decode().splitlines()[1:]
        games = summary["per_horizon"][0]["seeds"]
        info["work"] = len(rows)
        info["csv_sha256"] = hashlib.sha256(data).hexdigest()
        info["final_regret"] = [g["final_regret_net"] for g in games]
        info["explore_rows"] = sum(r.endswith(",two_point_explore")
                                   for r in rows)
        info["measure_builds"] = sum(g["measure_builds"] for g in games)
        if len(rows) != len(seeds) * self.horizon:
            info["error"] = f"{len(rows)} CSV rows, expected " \
                            f"{len(seeds) * self.horizon}"
        elif not all(g["net_regret_dominates"] for g in games):
            info["error"] = "net_regret_dominates is false"
        else:
            info["ok"] = True
        return info

    def summary(self, checked):
        regret = {p: {} for p in self.policies}
        for c in checked:
            if c["ok"]:
                regret[c["policy"]][c["key"]] = c["final_regret"]
        shared = sorted(set(regret["two_point"]) & set(regret["uniform"]))
        two = [r for key in shared for r in regret["two_point"][key]]
        uni = [r for key in shared for r in regret["uniform"][key]]
        ratio = float(np.mean(two) / np.mean(uni)) if shared else 0.0
        two_point_ops = [c for c in checked if c["ok"]
                         and c["policy"] == "two_point"]
        rows = sum(c["work"] for c in two_point_ops)
        metrics = {
            "csv_sha256": [c["csv_sha256"] for c in checked if c["ok"]],
            "regret_vs_uniform": ratio,
            "bandit.explore_share": (sum(c["explore_rows"] for c in two_point_ops)
                                     / rows if rows else 0.0),
            "bandit.measure_builds": sum(c["measure_builds"]
                                         for c in two_point_ops),
        }
        for family in ("clustered", "spread"):
            fam = [c for c in two_point_ops if c["family"] == family]
            fam_rows = sum(c["work"] for c in fam)
            metrics[f"bandit.explore_share.{family}"] = (
                sum(c["explore_rows"] for c in fam) / fam_rows
                if fam_rows else 0.0)
        # with no file run under both policies (only when ops
        # failed, which fails the run anyway) the gate cannot be applied
        ok = not shared or ratio <= self.max_ratio
        return ok, metrics


# -- build_2d / build_3d -----------------------------------------------------------

def random_quadratic_2d(rng, body):
    """Random PSD quadratic (the c3 family's smooth objective)."""
    a = rng.uniform(0.0, math.pi)
    rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    q = rot @ np.diag(rng.uniform(0.5, 2.0, 2)) @ rot.T
    c = body.ball_center * 0.3
    return MaxAffineFunction([0.0], [np.zeros(2)], quad=q).translate(list(-c))


def sheared_cube():
    shear = np.array([[1.0, 0.6, 0.2], [0.0, 1.0, 0.4], [0.0, 0.0, 1.0]])
    cube = ConvexBody.box([-1.0] * 3, [1.0] * 3)
    # image of the cube under x -> shear @ x
    return ConvexBody(3, cube.normals @ np.linalg.inv(shear), cube.offsets)


def random_polytope_3d(rng, facets=16):
    normals = rng.standard_normal((facets, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return ConvexBody(3, normals, rng.uniform(0.6, 1.2, facets))


class Build:
    """Closed loop of ``build_exploratory_measure`` calls with retries."""

    unit = "builds"
    one_cpu = False
    check_samples = 400

    @property
    def pass_ops(self):
        return len(self.instances)

    def op(self, p, j, tag):
        body, f, eps, build_seed = self.instances[j]
        return build_with_retry(body, f, eps, build_seed)

    def check(self, p, j, result):
        body = self.instances[j][0]
        measure, report, failed_attempts = result
        info = {"ok": False, "work": 1, "failed_attempts": failed_attempts}
        pts = measure.sample(self.check_samples, rng_for(self.seed, 4, j))
        if not np.all(body.contains(pts, tol=1e-8)):
            info["error"] = "sampled point outside the body"
            return info
        dims = []
        node = report
        while node is not None:
            dims.append(node.dimension)
            n = node.dimension
            for st in node.stages:
                if len(st.patches) > n + 1:
                    info["error"] = f"stage keeps {len(st.patches)} patches"
                    return info
                if st.hull_norm > CALIBRATED.gamma(n) * (1 + 1e-6):
                    info["error"] = f"hull_norm {st.hull_norm:.4g} > gamma"
                    return info
            node = node.child
        expected = list(range(body.dimension, 0, -1))
        if dims != expected:
            info["error"] = f"report chain {dims}, expected {expected}"
            return info
        info["ok"] = True
        return info

    def summary(self, checked):
        return True, {"build.failed_attempts":
                      sum(c.get("failed_attempts", 0) for c in checked)}


def c3_instance(i):
    """Instance i of the c3 corpus: polygon, eps, cone (i < 10) or quadratic."""
    rng = np.random.default_rng(90000 + i)
    body = instances.random_polygon(rng)
    eps = 0.05 if i % 2 else 0.1
    f = (instances.random_cone_2d(rng, body) if i < 10
         else random_quadratic_2d(rng, body))
    return body, f, eps


def c4_instance(cal, i):
    """Instance i of the c4 fresh corpus: polygon, objective f, alternative g."""
    rng = np.random.default_rng(cal["fresh_seeds"][i])
    body = instances.random_polygon(rng)
    f, g, _ = instances.random_dip_pair_2d(rng, body, cal["eps"])
    return body, f, g


class Build2d(Build):
    """16 polygons of the c3 and c4 corpora, cone and quadratic objectives.

    The pass holds c3 entries 0-3 (cones) and 10-13 (quadratics), both at
    eps 0.1 and 0.05, and the first 8 c4 entries. Each is built with the
    seeds its tier-1 gate uses (91000 + i for c3, the calibration's
    5000 + i for c4). Fresh random instances are not used: some cone
    instances at eps 0.05 fail two attempts in three, so a run of fresh
    builds fails an op now and then. The set is fixed, so that every run
    times the same builds; the workload seed sets their order in the pass.
    """

    name = "build_2d"
    c3_entries = (0, 1, 2, 3, 10, 11, 12, 13)
    c4_entries = 8

    def prepare(self, seed, workdir):
        self.seed = seed
        cal = load_calibration(2)
        corpus = [(*c3_instance(i), 91000 + i) for i in self.c3_entries]
        for i in range(self.c4_entries):
            body, f, _ = c4_instance(cal, i)
            corpus.append((body, f, cal["eps"], cal["fresh_build_offset"] + i))
        order = rng_for(seed, 5).permutation(len(corpus))
        self.instances = [corpus[j] for j in order]


class Build3d(Build):
    """The 3-D smoke instance, a sheared cube and a random 16-facet body."""

    name = "build_3d"

    def prepare(self, seed, workdir):
        self.seed = seed
        quad = MaxAffineFunction([0.0], [np.zeros(3)], eta=1.0)
        self.instances = [
            (ConvexBody.box([-1.0] * 3, [1.0] * 3), quad, 0.25, 0),
            (sheared_cube(), quad, 0.5, seed_int(seed, 3, 1)),
            (random_polytope_3d(np.random.default_rng(16)), quad, 0.5,
             seed_int(seed, 3, 2)),
        ]


# -- verify ----------------------------------------------------------------------

class Verify:
    """Exploration checks and hypothesis tests on prebuilt measures.

    A pass runs each kind of check once on each measure of its dimension:
    ``verify_1d`` on the 1-D measures, then ``verify_2d``, ``hypothesis_1d``
    and ``hypothesis_2d``. Each op draws its samples afresh in every pass.
    """

    name = "verify"
    unit = "checks"
    one_cpu = False                # numpy's BLAS uses both CPUs here
    kinds = ("verify_1d", "verify_2d", "hypothesis_1d", "hypothesis_2d")
    count_1d = 10
    count_2d = 4
    pass_ops = 2 * (count_1d + count_2d)
    samples_1d = 100_000
    trials = 10_000
    sigma = 0.25
    level = 0.05
    min_pass_rate_2d = 0.9         # c4 gate

    def prepare(self, seed, workdir):
        self.seed = seed
        self.one_d = []
        for i in range(self.count_1d):
            eps = 2.0 ** -(2 + i % 5)
            rng = rng_for(seed, 7, i)
            dom = instances.random_interval(rng)
            f, g, w = instances.random_dip_pair_1d(rng, dom, eps)
            self.one_d.append((explore1d.build_measure_1d(dom, f, eps),
                               f, g, eps, w))
        cal = load_calibration(2)
        self.cal = cal
        self.two_d = []
        for i in range(self.count_2d):
            body, f, g = c4_instance(cal, i)
            mu, _, _ = build_with_retry(body, f, cal["eps"],
                                        cal["fresh_build_offset"] + i)
            self.two_d.append((mu, f, g, cal["eps"]))

    def _plan(self, j):
        """(kind, measure index) of op j of a pass."""
        for kind, size in enumerate((self.count_1d, self.count_2d) * 2):
            if j < size:
                return kind, j
            j -= size
        raise IndexError("op index beyond the pass")

    def op(self, p, j, tag):
        kind, i = self._plan(j)
        rng = rng_for(self.seed, 9, p, j)
        if kind == 0:
            mu, f, g, eps, w = self.one_d[i]
            return explore1d.verify_exploration(
                mu, f, g, eps, 1.0 / 8.0, explore1d.guarantee_threshold_1d(eps),
                self.samples_1d, rng, gap_scaling="eps", witness=w)
        if kind == 1:
            mu, f, g, eps = self.two_d[i]
            return explore1d.verify_exploration(
                mu, f, g, eps, self.cal["c_gap"], self.cal["threshold"],
                self.cal["mass_samples"], rng, gap_scaling="max")
        mu, f, g, eps = (self.one_d if kind == 2 else self.two_d)[i][:4]
        return bandit.hypothesis_test(f, g, eps, mu, self.sigma, self.trials,
                                      rng, level=self.level)

    def check(self, p, j, result):
        kind, _ = self._plan(j)
        info = {"ok": True, "work": 1, "label": self.kinds[kind]}
        if kind == 0:
            info["ok"] = bool(result.passed)
            if not info["ok"]:
                info["error"] = "1-D exploration check failed"
        elif kind == 1:
            info["passed_2d"] = bool(result.passed)
        else:
            # the realised size varies with both the calibration draws and
            # the fresh null draws; six standard errors keep the chance of
            # a false alarm over a run's ~10^3 tests below 1e-5
            se = math.sqrt(2 * self.level * (1 - self.level) / self.trials)
            if not (0.0 <= result["power"] <= 1.0
                    and result["size"] <= self.level + 6 * se):
                info["ok"] = False
                info["error"] = (f"hypothesis test size {result['size']:.4f}"
                                 f" or power {result['power']:.4f} invalid")
        return info

    def summary(self, checked):
        runs = [c["passed_2d"] for c in checked if "passed_2d" in c]
        rate = sum(runs) / len(runs) if runs else 1.0
        return rate >= self.min_pass_rate_2d, {"verify.pass_rate_2d": rate}


WORKLOADS = {w.name: w for w in (BanditCli, Build2d, Build3d, Verify)}
