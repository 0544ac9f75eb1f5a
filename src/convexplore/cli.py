"""Command-line front end.

Commands:
    convexplore explore build    construct an exploration measure
    convexplore explore verify   check the separation event's mass
    convexplore bandit run       play repeated games over a scenario file
    convexplore hypothesis test  one-measurement test between two objectives

Exit codes: 0 success, 1 verification failed, 2 configuration error,
3 construction failure.
Identical configuration and seeds reproduce byte-identical output files.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bandit import (GameParams, LikelihoodModel, ScenarioSet, build_net,
                     hypothesis_test, run_game)
from .errors import CONSTRUCTION_ERRORS, ConfigError, DimensionMismatchError
from .explore1d import guarantee_threshold_1d, verify_exploration
from .explore_nd import build_exploratory_measure, with_retries
from .fileio import (body_from_dict, config_hash, function_from_dict,
                     load_json, measure_from_dict, measure_to_dict,
                     records_to_csv, report_to_dict, save_json,
                     scenario_file_from_dict)
from .geometry import ConvexBody
from .profiles import get_profile


def _meta(cfg: dict, seed, profile: str) -> dict:
    return {"tool_version": __version__, "config_hash": config_hash(cfg),
            "seed": seed, "profile": profile}


def _parse_int_list(text: str) -> list[int]:
    try:
        vals = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        vals = []
    if not vals:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}")
    return vals


def _parse_seeds(text: str) -> list[int]:
    """Seed lists: "7", "0,3,9", or the inclusive range "0..19"."""
    if ".." not in text:
        seeds = _parse_int_list(text)
    else:
        try:
            lo, hi = (int(s) for s in text.split(".."))
        except ValueError:
            raise ConfigError(f"malformed seed range {text!r}") from None
        seeds = list(range(lo, hi + 1))
    if not seeds or min(seeds) < 0:
        raise ConfigError(f"expected seeds >= 0, got {text!r}")
    return seeds


def _number(ok, what: str):
    """argparse type: a finite float for which ``ok`` holds."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and ok(value)):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return parse


EPS = _number(lambda x: 0 < x <= 1, "a number in (0, 1]")
POSITIVE = _number(lambda x: x > 0, "a finite number > 0")
NONNEGATIVE = _number(lambda x: x >= 0, "a finite number >= 0")
FRACTION = _number(lambda x: 0 <= x <= 1, "a number in [0, 1]")
LEVEL = _number(lambda x: 0 < x < 1, "a number in (0, 1)")


def _integer(minimum: int):
    """argparse type: an integer >= ``minimum`` (argparse reports the
    ValueError of a non-integer)."""
    def integer(text: str) -> int:
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"{text!r} is below {minimum}")
        return int(text)
    return integer


# -- explore build -----------------------------------------------------------------

def _cmd_explore_build(args) -> int:
    cfg = {"command": "explore build", "eps": args.eps,
           "profile": args.profile, "seed": args.seed,
           "body": load_json(args.body), "fn": load_json(args.fn)}
    body = body_from_dict(cfg["body"])
    fn = function_from_dict(cfg["fn"])
    profile = get_profile(args.profile)
    meta = _meta(cfg, args.seed, args.profile)
    (mu, report), retries = with_retries(
        lambda rng: build_exploratory_measure(body, fn, args.eps,
                                              profile=profile, rng=rng),
        args.seed)
    out = measure_to_dict(mu)
    out["meta"] = meta
    save_json(args.out, out)
    if report.stages or args.trace:  # a 1-D build records no stages
        save_json(args.trace or f"{args.out}.trace.json",
                  dict(report_to_dict(report), retries=retries, meta=meta))
    print(f"wrote {args.out} ({len(mu.components)} components)")
    return 0


# -- explore verify ----------------------------------------------------------------

def _cmd_explore_verify(args) -> int:
    inputs = {"measure": load_json(args.measure), "fn": load_json(args.fn),
              "alt": load_json(args.alt)}
    mu = measure_from_dict(inputs["measure"])
    fn = function_from_dict(inputs["fn"])
    alt = function_from_dict(inputs["alt"])
    if args.gap is None and mu.dimension != 1:
        raise ConfigError("--gap is required for dimension >= 2 "
                          "(use a calibrated constant)")
    if args.threshold is None and mu.dimension != 1:
        raise ConfigError("--threshold is required for dimension >= 2")
    gap = args.gap if args.gap is not None else 0.125
    threshold = (args.threshold if args.threshold is not None
                 else guarantee_threshold_1d(args.eps))
    scaling = args.gap_scaling or ("eps" if mu.dimension == 1 else "max")
    cfg = {"command": "explore verify", "eps": args.eps, "gap": gap,
           "threshold": threshold, "gap_scaling": scaling,
           "samples": args.samples, "seed": args.seed, **inputs}
    rng = np.random.default_rng(args.seed)
    rep = verify_exploration(mu, fn, alt, args.eps, gap, threshold,
                             args.samples, rng, gap_scaling=scaling)
    out = {"p_hat": rep.p_hat, "ci": [rep.ci_low, rep.ci_high],
           "threshold": rep.threshold, "pass": rep.passed,
           "samples": rep.samples, "seed": args.seed,
           "meta": _meta(cfg, args.seed, args.profile)}
    save_json(args.out, out)
    status = "PASS" if rep.passed else "FAIL"
    print(f"{status} p_hat={rep.p_hat:.4f} "
          f"ci=[{rep.ci_low:.4f},{rep.ci_high:.4f}] "
          f"threshold={rep.threshold:.4f}")
    return 0 if rep.passed else 1


# -- bandit run --------------------------------------------------------------------

def _cmd_bandit_run(args) -> int:
    raw = load_json(args.scenarios)
    sequences, prior, horizon, file_body = scenario_file_from_dict(
        raw, base_dir=Path(args.scenarios).parent)
    if args.body:
        body = body_from_dict(load_json(args.body))
    elif file_body is not None:
        body = file_body
    else:  # [0, 1] clipped by the ball B(0.5, 0.6)
        body = ConvexBody(1, [[1.0], [-1.0]], [1.0, 0.0], [0.5], 0.6)
    seeds = _parse_seeds(args.seeds)
    sweep = args.sweep_T is not None
    horizons = _parse_int_list(args.sweep_T) if sweep else [horizon]
    if min(horizons) < 4:
        raise ConfigError(f"horizons must be at least 4, got {horizons}")
    if sweep and any(isinstance(s, (list, tuple)) for s in sequences):
        raise ConfigError("sweep-T requires constant (single-loss) scenarios")
    likelihood = LikelihoodModel(kind=args.likelihood, sigma=args.sigma)
    params = GameParams(gap_constant=args.gap_constant,
                        profile=get_profile(args.profile))
    cfg = {"command": "bandit run", "policy": args.policy,
           "seeds": args.seeds, "sweep_T": args.sweep_T,
           "likelihood": args.likelihood, "sigma": args.sigma,
           "gap_constant": args.gap_constant, "profile": args.profile,
           "scenarios": raw}

    csv_text = ""
    per_T = []
    for T in horizons:
        net = build_net(body, T)
        sset = ScenarioSet(sequences, prior, net, T, body=body)
        records, summaries = {}, []
        for seed in sorted(seeds):  # one game per seed, in turn
            records[seed], summary = run_game(
                sset, policy=args.policy, seed=seed, likelihood=likelihood,
                params=params)
            summaries.append(summary)
        # one block per horizon under the first block's header; rows stay
        # sorted by seed within a block
        block = records_to_csv(records)
        csv_text += block.split("\n", 1)[1] if csv_text else block
        mean_regret = float(np.mean([s["final_regret_net"]
                                     for s in summaries]))
        per_T.append({"T": T, "mean_final_regret": mean_regret,
                      "mean_sum_v": float(np.mean([s["sum_v"]
                                                   for s in summaries])),
                      "seeds": summaries})
    Path(args.out).write_text(csv_text)

    summary = {"policy": args.policy, "seeds": seeds,
               "per_horizon": per_T,
               "meta": _meta(cfg, args.seeds, args.profile)}
    if len(horizons) > 1:
        means = [p["mean_final_regret"] for p in per_T]
        if min(means) > 0:
            xs = np.log([p["T"] for p in per_T])
            summary["regret_slope"] = float(np.polyfit(xs, np.log(means), 1)[0])
        else:
            summary["regret_slope"] = None  # nonpositive mean: no power-law fit
    summary_path = args.summary or (str(args.out) + ".summary.json")
    save_json(summary_path, summary)

    line = f"wrote {args.out}; mean final regret " + ", ".join(
        f"T={p['T']}: {p['mean_final_regret']:.3f}" for p in per_T)
    if summary.get("regret_slope") is not None:
        line += f"; log-log slope {summary['regret_slope']:.3f}"
    print(line)
    return 0


# -- hypothesis test ----------------------------------------------------------------

def _cmd_hypothesis_test(args) -> int:
    cfg = {"command": "hypothesis test", "eps": args.eps,
           "sigma": args.sigma, "trials": args.trials, "level": args.level,
           "seed": args.seed, "profile": args.profile,
           "fn": load_json(args.fn), "alt": load_json(args.alt)}
    fn = function_from_dict(cfg["fn"])
    alt = function_from_dict(cfg["alt"])
    rng = np.random.default_rng(args.seed)
    if args.measure:
        cfg["measure"] = load_json(args.measure)
        mu = measure_from_dict(cfg["measure"])
    else:
        if not args.body:
            raise ConfigError("need --measure or --body to supply the "
                              "sampling distribution")
        cfg["body"] = load_json(args.body)
        body = body_from_dict(cfg["body"])
        # A 1-D body gets the dyadic measure; an n >= 2 build retries as
        # `explore build` does, from seed + 1.
        (mu, _), _ = with_retries(
            lambda build_rng: build_exploratory_measure(
                body, fn, args.eps, profile=get_profile(args.profile),
                rng=build_rng),
            args.seed + 1)
    res = hypothesis_test(fn, alt, args.eps, mu, args.sigma, args.trials,
                          rng, level=args.level)
    res["meta"] = _meta(cfg, args.seed, args.profile)
    save_json(args.out, res)
    print(f"power={res['power']:.4f} size={res['size']:.4f} "
          f"tv_lower={res['tv_lower_estimate']:.4f}")
    return 0


# -- parser ------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; keep the contract
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _add_profile(p):
    p.add_argument("--profile", default="calibrated",
                   choices=["calibrated", "paper"])


def build_parser() -> _Parser:
    top = _Parser(prog="convexplore",
                  description="Exploration measures for convex minimization")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="group", required=True)

    explore = sub.add_parser("explore", help="measure construction").add_subparsers(
        dest="action", required=True)
    b = explore.add_parser("build", help="build an exploration measure")
    b.add_argument("--body", required=True)
    b.add_argument("--fn", required=True)
    b.add_argument("--eps", type=EPS, required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--trace", default=None)
    b.add_argument("--seed", type=_integer(0), default=0)
    _add_profile(b)
    b.set_defaults(func=_cmd_explore_build)

    v = explore.add_parser("verify", help="check the separation event mass")
    v.add_argument("--measure", required=True)
    v.add_argument("--fn", required=True)
    v.add_argument("--alt", required=True, help="competing objective g")
    v.add_argument("--eps", type=EPS, required=True)
    v.add_argument("--out", required=True)
    v.add_argument("--gap", type=POSITIVE, default=None)
    v.add_argument("--threshold", type=FRACTION, default=None)
    v.add_argument("--gap-scaling", choices=["eps", "max"], default=None)
    v.add_argument("--samples", type=_integer(1), default=100_000)
    v.add_argument("--seed", type=_integer(0), default=0)
    _add_profile(v)
    v.set_defaults(func=_cmd_explore_verify)

    bandit = sub.add_parser("bandit", help="repeated games").add_subparsers(
        dest="action", required=True)
    r = bandit.add_parser("run", help="play games over a scenario file")
    r.add_argument("--scenarios", required=True)
    r.add_argument("--policy", default="two_point",
                   choices=["two_point", "thompson", "uniform"])
    r.add_argument("--seeds", default="0")
    r.add_argument("--out", required=True)
    r.add_argument("--summary", default=None)
    r.add_argument("--body", default=None)
    r.add_argument("--sweep-T", dest="sweep_T", default=None)
    r.add_argument("--likelihood", default="deterministic",
                   choices=["deterministic", "gaussian"])
    r.add_argument("--sigma", type=NONNEGATIVE, default=0.1)
    r.add_argument("--gap-constant", type=POSITIVE, default=0.125)
    _add_profile(r)
    r.set_defaults(func=_cmd_bandit_run)

    hyp = sub.add_parser("hypothesis", help="two-sample testing").add_subparsers(
        dest="action", required=True)
    t = hyp.add_parser("test", help="single-measurement test power")
    t.add_argument("--fn", required=True)
    t.add_argument("--alt", required=True)
    t.add_argument("--eps", type=EPS, required=True)
    t.add_argument("--sigma", type=NONNEGATIVE, required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--measure", default=None)
    t.add_argument("--body", default=None)
    t.add_argument("--trials", type=_integer(100), default=10_000)
    t.add_argument("--level", type=LEVEL, default=0.05)
    t.add_argument("--seed", type=_integer(0), default=0)
    _add_profile(t)
    t.set_defaults(func=_cmd_hypothesis_test)
    return top


_parser = None   # built on the first ``main`` call, then reused


def main(argv=None) -> int:
    global _parser
    try:
        if _parser is None:
            _parser = build_parser()
        args = _parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, DimensionMismatchError, OSError) as exc:
        # inputs are read through load_json, so an OSError is an output path
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CONSTRUCTION_ERRORS as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        if args.profile == "paper":
            print("hint: the paper constants are far below float resolution "
                  "at this size; retry with --profile calibrated",
                  file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
