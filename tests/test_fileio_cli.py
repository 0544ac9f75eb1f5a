"""Serialization round-trips and the command-line front end."""
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convexplore
from convexplore import _highs, bandit, cli
from convexplore.bandit import (LikelihoodModel, RoundRecord, ScenarioSet,
                                build_net, run_game)
from convexplore.cli import _parse_seeds, main
from convexplore.convexfn import MaxAffineFunction
from convexplore.errors import ConfigError, CoverError
from convexplore.explore1d import (ExplorationMeasure, FiberLift, PointMass,
                                   build_measure_1d)
from convexplore.explore_nd import build_exploratory_measure
from convexplore.fileio import (CSV_HEADER, body_from_dict, body_to_dict,
                                canonical_dumps, config_hash,
                                function_from_dict, function_to_dict,
                                load_json, measure_from_dict, measure_to_dict,
                                records_to_csv, save_json,
                                scenario_file_from_dict, scenario_file_to_dict)
from convexplore.geometry import AffineMap, ConvexBody, affine_image, slab
from convexplore.instances import (clustered_scenarios, random_cone_2d,
                                   random_polygon)

UNIT = ConvexBody.interval(0.0, 1.0)


def vee(minimum: float, level: float = 0.2, slope: float = 0.6):
    return MaxAffineFunction([level + slope * minimum, level - slope * minimum],
                             [[-slope], [slope]])


# -- canonical JSON ------------------------------------------------------------

def test_canonical_dumps_is_order_free():
    assert canonical_dumps({"b": 1, "a": [1.5, 2]}) == '{"a":[1.5,2],"b":1}'
    assert canonical_dumps({"a": 1, "b": 2}) == canonical_dumps({"b": 2, "a": 1})
    with pytest.raises(ValueError):
        canonical_dumps({"x": math.nan})


def test_config_hash_shape_and_sensitivity():
    h = config_hash({"eps": 0.5, "seed": 0})
    assert len(h) == 16 and int(h, 16) >= 0
    assert h == config_hash({"seed": 0, "eps": 0.5})
    assert h != config_hash({"eps": 0.5, "seed": 1})


def test_load_json_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_json(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_json(bad)


# -- object round-trips ----------------------------------------------------------

def test_body_round_trip():
    body = ConvexBody.box([0.0, -1.0], [2.0, 1.0])
    back = body_from_dict(body_to_dict(body))
    assert back.dimension == 2
    assert np.array_equal(back.normals, body.normals)
    assert np.array_equal(back.offsets, body.offsets)
    assert np.array_equal(back.ball_center, body.ball_center)
    assert back.ball_radius == body.ball_radius


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_body_json_round_trip_keeps_normal_bits(seed):
    # Normals of images and slabs are unit only to within an ulp or two; a
    # body rebuilt from their JSON must not divide them again.
    rng = np.random.default_rng(seed)
    body = affine_image(random_polygon(rng),
                        AffineMap(rng.standard_normal((2, 2)) + 2 * np.eye(2),
                                  rng.standard_normal(2)))
    for b in (body, slab(body, rng.standard_normal(2), 0.3, center=body.ball_center)):
        back = body_from_dict(json.loads(canonical_dumps(body_to_dict(b))))
        assert back.normals.tobytes() == b.normals.tobytes()
        assert back.offsets.tobytes() == b.offsets.tobytes()


def test_function_round_trip():
    f = MaxAffineFunction([0.1, -0.2], [[1.0, 0.0], [0.5, -0.5]], eta=0.25,
                          quad=[[0.1, 0.0], [0.0, 0.2]])
    back = function_from_dict(json.loads(canonical_dumps(function_to_dict(f))))
    for name in ("offsets", "slopes", "form"):
        assert getattr(back, name).tobytes() == getattr(f, name).tobytes()
    # A piecewise-linear record has no form and keeps its "eta": 0.0.
    pl = MaxAffineFunction([0.5, -0.25], [[1.0], [-1.0]])
    assert canonical_dumps(function_to_dict(pl)) == (
        '{"dimension":1,"eta":0.0,"pieces":[{"a":0.5,"y":[1.0]},{"a":-0.25,"y":[-1.0]}]}')
    assert function_from_dict(function_to_dict(vee(0.3))).form is None


def test_measure_round_trip_keeps_exact_weights():
    # Weights are written once, as repr floats, so the JSON text gives them
    # back bit for bit.
    mu = build_measure_1d(UNIT, vee(0.3), 1.0 / 16)
    d = measure_to_dict(mu)
    assert [c["weight"] for c in d["components"]] == [0.1] * 10
    assert not any("weight_exact" in c for c in d["components"])
    back = measure_from_dict(json.loads(canonical_dumps(d)))
    assert back.weights == mu.weights
    a = mu.sample(200, np.random.default_rng(7))
    b = back.sample(200, np.random.default_rng(7))
    assert np.array_equal(a, b)


def _old_format(d):
    """A measure record as files before float weights held it: every
    component also carries its weight as a "p/q" string."""
    comps = []
    for c in d["components"]:
        c = dict(c, weight_exact="{0.numerator}/{0.denominator}".format(
            Fraction(c["weight"]).limit_denominator(10 ** 6)))
        for key in ("inner", "base"):
            if key in c:
                c[key] = _old_format(c[key])
        comps.append(c)
    return {"components": comps}


def test_measure_in_the_old_format_loads_and_draws_the_same():
    rng = np.random.default_rng(1)
    body = random_polygon(rng)
    mu, _ = build_exploratory_measure(body, random_cone_2d(rng, body), 0.1)
    old = _old_format(measure_to_dict(mu))
    assert '"weight_exact":"1/2"' in canonical_dumps(old)
    back = measure_from_dict(json.loads(canonical_dumps(old)))
    assert measure_to_dict(back) == measure_to_dict(mu)
    assert np.array_equal(back.sample(300, np.random.default_rng(3)),
                          mu.sample(300, np.random.default_rng(3)))


@pytest.mark.parametrize("change", [
    {0: 0.1 + 1e-9},            # the weights sum to 1 + 1e-9
    {0: -0.1, 1: 0.3},          # a negative weight, the sum still 1
    {0: math.nan},
])
def test_measure_weights_are_checked_on_load(tmp_path, capsys, change):
    d = measure_to_dict(build_measure_1d(UNIT, vee(0.3), 1.0 / 16))
    for i, w in change.items():
        d["components"][i]["weight"] = w
    with pytest.raises(ConfigError):
        measure_from_dict(d)
    paths = {name: tmp_path / f"{name}.json" for name in ("mu", "fn")}
    paths["mu"].write_text(json.dumps(d))   # NaN written as the NaN literal
    save_json(paths["fn"], function_to_dict(vee(0.3)))
    rc = main(["explore", "verify", "--measure", str(paths["mu"]), "--fn",
               str(paths["fn"]), "--alt", str(paths["fn"]), "--eps", "0.5",
               "--out", str(tmp_path / "v.json")])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("config error:") and "Traceback" not in err


def test_measure_round_trip_nested_two_dimensional():
    rng = np.random.default_rng(1)
    body = random_polygon(rng)
    f = random_cone_2d(rng, body)
    mu, _ = build_exploratory_measure(body, f, 0.1)
    back = measure_from_dict(measure_to_dict(mu))
    a = mu.sample(300, np.random.default_rng(3))
    b = back.sample(300, np.random.default_rng(3))
    assert np.array_equal(a, b)
    # serialized form survives a JSON print/parse cycle unchanged
    d2 = json.loads(canonical_dumps(measure_to_dict(back)))
    again = measure_from_dict(d2)
    assert np.array_equal(again.sample(50, np.random.default_rng(4)),
                          mu.sample(50, np.random.default_rng(4)))


def test_fiber_lift_record_with_budget_still_loads():
    # Older measure files carry a per-lift "budget" of re-draw rounds; a
    # lift no longer re-draws, and the key is ignored.
    host = ConvexBody.box([-1.0, -1.0], [1.0, 1.0])
    base = ExplorationMeasure([1], [PointMass(np.array([0.25]))])
    lift = FiberLift(base, np.zeros(2), np.array([[0.0], [1.0]]),
                     np.array([1.0, 0.0]), host)
    d = measure_to_dict(ExplorationMeasure([1], [lift]))
    assert "budget" not in d["components"][0]
    d["components"][0]["budget"] = 16
    pts = measure_from_dict(d).sample(100, np.random.default_rng(0))
    assert np.all(pts[:, 1] == 0.25)
    assert host.contains(pts).all()


def test_scenario_file_round_trip(tmp_path):
    fns = [vee(0.3), vee(0.6)]
    d = scenario_file_to_dict(fns, [0.25, 0.75], 16, body=UNIT)
    sequences, prior, horizon, body = scenario_file_from_dict(d)
    assert horizon == 16
    assert prior.tolist() == [0.25, 0.75]
    assert body is not None and body.dimension == 1
    xs = np.linspace(0, 1, 9)[:, None]
    for fn, back in zip(fns, sequences):
        assert back.value(xs) == pytest.approx(fn.value(xs))


def test_scenario_file_refs_and_errors(tmp_path):
    ref = tmp_path / "loss.json"
    save_json(ref, function_to_dict(vee(0.4)))
    d = {"T": 8, "scenarios": [{"weight": 1.0, "losses": [{"ref": "loss.json"}]}]}
    sequences, prior, horizon, body = scenario_file_from_dict(d, tmp_path)
    assert horizon == 8 and body is None
    assert sequences[0].value(np.array([[0.4]])) == pytest.approx([0.2])
    with pytest.raises(ConfigError, match="length 1 or T"):
        scenario_file_from_dict({"T": 8, "scenarios": [
            {"weight": 1.0, "losses": [function_to_dict(vee(0.4))] * 3}]})
    with pytest.raises(ConfigError, match="malformed"):
        scenario_file_from_dict({"scenarios": []})
    with pytest.raises(ConfigError, match="spacing"):
        scenario_file_from_dict({"T": 8, "net_spacing_rule": "fixed",
                                 "scenarios": []})


def test_scenario_file_loads_one_object_per_distinct_record(tmp_path):
    # A per-round copy of an 8-scenario file lists each record T times,
    # four scenarios inline and four by ref (relative, then absolute): it
    # loads 8 loss objects, so only round 1 needs a new loss table.
    T = 256
    fns = clustered_scenarios(np.random.default_rng(1000), 8, T)
    d = scenario_file_to_dict([[fn] * T for fn in fns], [0.125] * 8, T)
    for j in range(4):
        path = tmp_path / f"loss{j}.json"
        save_json(path, function_to_dict(fns[j]))
        d["scenarios"][j]["losses"] = ([{"ref": path.name}] * (T // 2)
                                       + [{"ref": str(path)}] * (T // 2))
    sequences, prior, _, _ = scenario_file_from_dict(d, tmp_path)
    assert len({id(fn) for seq in sequences for fn in seq}) == 8
    xs = np.linspace(0.0, 1.0, 9)[:, None]
    for fn, seq in zip(fns, sequences):
        assert len(seq) == T
        assert seq[0].value(xs).tobytes() == fn.value(xs).tobytes()
    sset = ScenarioSet(sequences, prior, build_net(UNIT, T), T, body=UNIT)
    assert [sset.changed(t) for t in range(1, T + 1)] == [True] + [False] * (T - 1)


def test_scenario_file_keys_inline_records_by_their_numbers(tmp_path, capsys):
    # an all-inline per-round copy of an 8-scenario file loads 8 objects
    T = 256
    fns = clustered_scenarios(np.random.default_rng(1000), 8, T)
    d = scenario_file_to_dict([[fn] * T for fn in fns], [0.125] * 8, T)
    sequences, _, _, _ = scenario_file_from_dict(d)
    assert len({id(fn) for seq in sequences for fn in seq}) == 8
    # a record differing from the base in any one number is its own object
    base = {"dimension": 2, "eta": 0.5, "quad": [[1.0, 0.25], [0.25, 1.0]],
            "pieces": [{"a": 0.1, "y": [0.2, -0.3]},
                       {"a": 0.4, "y": [-0.5, 0.6]}]}
    variants = [base]
    for path in (["eta"], ["quad", 0, 0], ["quad", 1, 0],
                 ["pieces", 0, "a"], ["pieces", 1, "a"],
                 ["pieces", 0, "y", 0], ["pieces", 0, "y", 1],
                 ["pieces", 1, "y", 0], ["pieces", 1, "y", 1]):
        rec = json.loads(json.dumps(base))
        *head, last = path
        holder = rec
        for step in head:
            holder = holder[step]
        holder[last] = math.nextafter(holder[last], math.inf)
        variants.append(rec)
    losses = [json.loads(json.dumps(rec)) for rec in variants * 2]
    (seq,), _, _, _ = scenario_file_from_dict(
        {"T": len(losses), "scenarios": [{"weight": 1.0, "losses": losses}]})
    k = len(variants)
    assert len({id(fn) for fn in seq}) == k
    assert all(a is b for a, b in zip(seq[:k], seq[k:]))
    # a malformed inline record among repeated ones still exits 2
    for bad in ({"dimension": 1, "pieces": [{"a": 0.1}]}, "vee", [0.1, 0.2],
                {"dimension": 1, "pieces": [{"a": 0.1, "y": {"x": 1}}]}):
        rounds = scenario_file_to_dict([[vee(0.3)] * 16], [1.0], 16)
        rounds["scenarios"][0]["losses"][5] = bad
        save_json(tmp_path / "rounds.json", rounds)
        assert main(["bandit", "run", "--scenarios", str(tmp_path / "rounds.json"),
                     "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err


def test_records_to_csv_sorted_rows():
    def rec(t, kind):
        return RoundRecord(t, np.array([0.5, 0.25]), 0.5, 0.1, 0.0, 0.1,
                           0.0, kind)
    text = records_to_csv({1: [rec(1, "uniform")], 0: [rec(1, "thompson"),
                                                       rec(2, "thompson")]})
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("0,1,0.5;0.25,")
    assert lines[2].startswith("0,2,")
    assert lines[3].startswith("1,1,")
    assert lines[1].endswith(",thompson")


def test_records_to_csv_matches_reference_writer():
    from oracles import records_to_csv_reference
    # a 1-D and a 2-D game's records, and hand-made rows with signed zeros,
    # a subnormal, integral floats and extreme exponents
    records = {}
    for seed, (body, fns) in enumerate([(UNIT, [vee(0.3), vee(0.7)]),
                                        (SQUARE_2D, [BOWL_2D])]):
        sset = ScenarioSet(fns, np.full(len(fns), 1.0 / len(fns)),
                           build_net(body, 16), 16, body=body)
        records[seed], _ = run_game(sset, policy="thompson", seed=seed,
                                    likelihood=LikelihoodModel(
                                        "gaussian", sigma=0.1))
    specials = [0.0, -0.0, 5e-324, 3.0, -1e300, 1.0 / 3.0, 2.0 ** 60]
    records[7] = [RoundRecord(t, np.array(specials[t - 1:t + 1]), *(
        specials[(t + k) % len(specials)] for k in range(5)), "uniform")
        for t in range(1, len(specials))]
    text = records_to_csv(records)
    assert text == records_to_csv_reference(records)
    assert text.count("\n") == 1 + 2 * 16 + len(specials) - 1


# -- seed lists -------------------------------------------------------------------

def test_parse_seeds():
    assert _parse_seeds("7") == [7]
    assert _parse_seeds("0,3,9") == [0, 3, 9]
    assert _parse_seeds("0..19") == list(range(20))
    assert _parse_seeds(" 1, 2,") == [1, 2]
    for text in ("5..1", "a", "0..x", "1..2..3", ",", "", "-1", "0..-1", "1.5"):
        with pytest.raises(ConfigError):
            _parse_seeds(text)


# -- command line -----------------------------------------------------------------

@pytest.fixture()
def onedim_files(tmp_path):
    body = tmp_path / "body.json"
    fn = tmp_path / "fn.json"
    save_json(body, body_to_dict(UNIT))
    save_json(fn, function_to_dict(vee(0.3)))
    return tmp_path, body, fn


def test_cli_explore_build_and_verify(onedim_files, capsys):
    tmp, body, fn = onedim_files
    out = tmp / "measure.json"
    rc = main(["explore", "build", "--body", str(body), "--fn", str(fn),
               "--eps", "0.0625", "--out", str(out)])
    assert rc == 0
    data = load_json(out)
    assert len(data["components"]) == 10
    meta = data["meta"]
    assert set(meta) == {"tool_version", "config_hash", "seed", "profile"}
    assert not (tmp / "measure.json.trace.json").exists()

    alt = tmp / "alt.json"
    save_json(alt, function_to_dict(MaxAffineFunction([-0.2], [[0.0]])))
    report = tmp / "verify.json"
    rc = main(["explore", "verify", "--measure", str(out), "--fn", str(fn),
               "--alt", str(alt), "--eps", "0.0625", "--out", str(report),
               "--samples", "20000"])
    assert rc == 0
    rep = load_json(report)
    assert rep["pass"] is True
    assert rep["p_hat"] >= rep["threshold"]
    assert rep["ci"][0] <= rep["p_hat"] + 1e-12 <= rep["ci"][1] + 2e-12
    assert "PASS" in capsys.readouterr().out

    # the objective itself never separates: the check must fail
    rc = main(["explore", "verify", "--measure", str(out), "--fn", str(fn),
               "--alt", str(fn), "--eps", "0.0625", "--out", str(report),
               "--samples", "5000"])
    assert rc == 1


def test_cli_reuses_one_parser_across_commands(onedim_files, monkeypatch):
    # Two commands in one process: the parser is built once, and the first
    # command's flags do not leak into the second's defaults.
    tmp, body, fn = onedim_files
    built, build_parser = [], cli.build_parser

    def build():
        built.append(True)
        return build_parser()
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", build)
    alt, mu, report = tmp / "alt.json", tmp / "mu.json", tmp / "verify.json"
    save_json(alt, function_to_dict(MaxAffineFunction([-0.2], [[0.0]])))
    assert main(["explore", "build", "--body", str(body), "--fn", str(fn),
                 "--eps", "0.125", "--seed", "5", "--profile", "paper",
                 "--out", str(mu)]) == 0
    assert main(["explore", "verify", "--measure", str(mu), "--fn", str(fn),
                 "--alt", str(alt), "--eps", "0.125", "--out", str(report)]) == 0
    assert len(built) == 1
    rep = load_json(report)
    assert rep["seed"] == 0 and rep["meta"]["profile"] == "calibrated"
    assert rep["samples"] == 0 and rep["ci"] == [rep["p_hat"], rep["p_hat"]]


def test_cli_explore_build_writes_trace_for_2d(tmp_path):
    rng = np.random.default_rng(2)
    body = random_polygon(rng)
    f = random_cone_2d(rng, body)
    body_path = tmp_path / "body.json"
    fn_path = tmp_path / "fn.json"
    out = tmp_path / "mu.json"
    save_json(body_path, body_to_dict(body))
    save_json(fn_path, function_to_dict(f))
    rc = main(["explore", "build", "--body", str(body_path), "--fn",
               str(fn_path), "--eps", "0.1", "--out", str(out), "--seed", "4"])
    assert rc == 0
    trace = load_json(str(out) + ".trace.json")
    assert trace["dimension"] == 2
    assert len(trace["stages"]) >= 1
    stage = trace["stages"][0]
    assert {"volume_ratio", "hull_norm", "patches"} <= set(stage)
    assert trace["meta"]["seed"] == 4


def test_cli_build_is_deterministic(onedim_files):
    tmp, body, fn = onedim_files
    a, b = tmp / "a.json", tmp / "b.json"
    for out in (a, b):
        assert main(["explore", "build", "--body", str(body), "--fn", str(fn),
                     "--eps", "0.125", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_bandit_run(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    save_json(scen, scenario_file_to_dict([vee(0.3), vee(0.6)], [0.5, 0.5], 16))
    out = tmp_path / "runs.csv"
    rc = main(["bandit", "run", "--scenarios", str(scen), "--seeds", "0,1",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 16
    summary = load_json(str(out) + ".summary.json")
    assert summary["seeds"] == [0, 1]
    assert len(summary["per_horizon"]) == 1
    assert summary["per_horizon"][0]["T"] == 16
    assert "regret_slope" not in summary
    assert "wrote" in capsys.readouterr().out

    again = tmp_path / "again.csv"
    rc = main(["bandit", "run", "--scenarios", str(scen), "--seeds", "0,1",
               "--out", str(again)])
    assert rc == 0
    assert again.read_bytes() == out.read_bytes()


def test_cli_bandit_sweep(tmp_path):
    scen = tmp_path / "scen.json"
    save_json(scen, scenario_file_to_dict([vee(0.3), vee(0.6)], [0.5, 0.5], 16))
    out = tmp_path / "sweep.csv"
    rc = main(["bandit", "run", "--scenarios", str(scen), "--seeds", "0..2",
               "--sweep-T", "16,25", "--out", str(out),
               "--summary", str(tmp_path / "s.json")])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 3 * (16 + 25)
    summary = load_json(tmp_path / "s.json")
    assert [p["T"] for p in summary["per_horizon"]] == [16, 25]
    assert "regret_slope" in summary
    # the sweep's CSV is the single-horizon CSVs joined under one header
    single = []
    for T in ("16", "25"):
        path = tmp_path / f"T{T}.csv"
        assert main(["bandit", "run", "--scenarios", str(scen), "--seeds",
                     "0..2", "--sweep-T", T, "--out", str(path)]) == 0
        single.append(path.read_text())
    assert out.read_text() == single[0] + single[1].split("\n", 1)[1]


def test_cli_bandit_run_per_round_files(tmp_path):
    # A file that lists each loss T times loads one object per distinct
    # record, so its games match the single-loss file's bit for bit. A file
    # whose scenarios switch once also plays.
    fns = [vee(0.3), vee(0.6)]
    files = {"single": scenario_file_to_dict(fns, [0.5, 0.5], 16),
             "rounds": scenario_file_to_dict([[fn] * 16 for fn in fns],
                                             [0.5, 0.5], 16),
             "switch": scenario_file_to_dict(
                 [[vee(0.3)] * 8 + [vee(0.7)] * 8,
                  [vee(0.6)] * 5 + [vee(0.2)] * 11], [0.5, 0.5], 16)}
    for name, d in files.items():
        save_json(tmp_path / f"{name}.json", d)
    for policy in ("two_point", "thompson", "uniform"):
        for name in files:
            assert main(["bandit", "run", "--scenarios",
                         str(tmp_path / f"{name}.json"), "--policy", policy,
                         "--seeds", "0,1",
                         "--out", str(tmp_path / f"{name}_{policy}.csv")]) == 0
        assert (tmp_path / f"rounds_{policy}.csv").read_bytes() == \
            (tmp_path / f"single_{policy}.csv").read_bytes()
    assert main(["bandit", "run", "--scenarios", str(tmp_path / "rounds.json"),
                 "--sweep-T", "16,25", "--out", str(tmp_path / "sweep.csv")]) == 2


def test_cli_hypothesis_test(tmp_path, onedim_files):
    tmp, body, fn = onedim_files
    alt = tmp / "alt.json"
    g = vee(0.3)
    save_json(alt, function_to_dict(MaxAffineFunction(g.offsets - 0.1,
                                                      g.slopes)))
    out = tmp / "test.json"
    rc = main(["hypothesis", "test", "--fn", str(fn), "--alt", str(alt),
               "--eps", "0.125", "--sigma", "0.0", "--body", str(body),
               "--trials", "500", "--out", str(out)])
    assert rc == 0
    res = load_json(out)
    assert res["power"] == 1.0
    assert res["meta"]["profile"] == "calibrated"

    rc = main(["hypothesis", "test", "--fn", str(fn), "--alt", str(alt),
               "--eps", "0.125", "--sigma", "0.0", "--trials", "500",
               "--out", str(out)])
    assert rc == 2  # neither --measure nor --body


def test_cli_config_errors(tmp_path, onedim_files, capsys):
    tmp, body, fn = onedim_files
    rc = main(["explore", "build", "--body", str(tmp / "nope.json"),
               "--fn", str(fn), "--eps", "0.1", "--out", str(tmp / "o.json")])
    assert rc == 2
    rc = main(["explore", "build", "--body", str(body), "--fn", str(fn),
               "--eps", "0.1", "--out", str(tmp / "o.json"),
               "--profile", "heroic"])
    assert rc == 2
    scen = tmp / "scen.json"
    save_json(scen, scenario_file_to_dict([vee(0.3)], [1.0], 16))
    rc = main(["bandit", "run", "--scenarios", str(scen), "--seeds", "5..1",
               "--out", str(tmp / "r.csv")])
    assert rc == 2
    capsys.readouterr()


def _config_error(argv, capsys):
    rc = main(argv)
    err = capsys.readouterr().err
    return rc == 2 and "config error:" in err


def test_cli_body_without_radius_is_config_error(onedim_files, capsys):
    tmp, body, fn = onedim_files
    record = body_to_dict(UNIT)
    del record["bounding_ball"]["radius"]
    save_json(body, record)
    assert _config_error(["explore", "build", "--body", str(body), "--fn",
                          str(fn), "--eps", "0.1", "--out",
                          str(tmp / "o.json")], capsys)
    with pytest.raises(ConfigError, match="radius"):
        body_from_dict(record)


def test_cli_rejects_eps_outside_unit_interval_in_1d(onedim_files, capsys):
    tmp, body, fn = onedim_files
    for eps in ("0", "-1", "1.5"):
        assert _config_error(["explore", "build", "--body", str(body), "--fn",
                              str(fn), "--eps", eps, "--out",
                              str(tmp / "o.json")], capsys), eps
    assert not (tmp / "o.json").exists()


def test_cli_rejects_nonfinite_numbers(onedim_files, capsys):
    tmp, body, fn = onedim_files
    build = ["explore", "build", "--body", str(body), "--fn", str(fn),
             "--out", str(tmp / "o.json")]
    for eps in ("nan", "inf", "abc"):
        assert _config_error(build + ["--eps", eps], capsys), eps
    scen = tmp / "scen.json"
    save_json(scen, scenario_file_to_dict([vee(0.3)], [1.0], 16))
    run = ["bandit", "run", "--scenarios", str(scen), "--out",
           str(tmp / "r.csv")]
    for flag, value in [("--sigma", "nan"), ("--sigma", "-0.1"),
                        ("--gap-constant", "inf"), ("--gap-constant", "0")]:
        assert _config_error(run + [flag, value], capsys), (flag, value)
    assert not (tmp / "r.csv").exists()
    hyp = ["hypothesis", "test", "--fn", str(fn), "--alt", str(fn),
           "--body", str(body), "--out", str(tmp / "h.json")]
    assert _config_error(hyp + ["--eps", "nan", "--sigma", "0.1"], capsys)
    assert _config_error(hyp + ["--eps", "0.1", "--sigma", "nan"], capsys)


def test_cli_construction_failure_is_exit_3(tmp_path, capsys):
    body = ConvexBody.box([-1.0, -1e-9], [1.0, 1e-9])
    body_path = tmp_path / "thin.json"
    fn_path = tmp_path / "fn.json"
    save_json(body_path, body_to_dict(body))
    save_json(fn_path, function_to_dict(
        MaxAffineFunction([0.0], [[0.0, 0.0]], eta=1.0)))
    rc = main(["explore", "build", "--body", str(body_path), "--fn",
               str(fn_path), "--eps", "0.5", "--out", str(tmp_path / "o.json")])
    assert rc == 3
    assert "construction failed" in capsys.readouterr().err


def test_cli_verify_with_exhausted_fiber_lift_is_exit_3(tmp_path, capsys):
    # The base atom u = 5 lands outside the host box, so every fiber misses
    # the host.
    host = ConvexBody.box([-1.0, -1.0], [1.0, 1.0])
    base = ExplorationMeasure([1], [PointMass(np.array([5.0]))])
    lift = FiberLift(base, np.zeros(2), np.array([[0.0], [1.0]]),
                     np.array([1.0, 0.0]), host)
    mu_path = tmp_path / "mu.json"
    fn_path = tmp_path / "fn.json"
    save_json(mu_path, measure_to_dict(ExplorationMeasure([1], [lift])))
    save_json(fn_path, function_to_dict(
        MaxAffineFunction([0.0], [[0.0, 0.0]], eta=1.0)))
    rc = main(["explore", "verify", "--measure", str(mu_path), "--fn",
               str(fn_path), "--alt", str(fn_path), "--eps", "0.1",
               "--gap", "0.1", "--threshold", "0.1", "--samples", "1000",
               "--out", str(tmp_path / "v.json")])
    assert rc == 3
    assert "construction failed: zero-length fiber" in capsys.readouterr().err


def test_cli_box_build_off_centre_shadow_verifies(tmp_path, capsys):
    # The final slab of f = 0.3 + 0.3 x1 on the square lies off the centre
    # of its shadow; a child measure built on a wrong shadow gives fibers of
    # zero length, and verify exits 3.
    box = ConvexBody.box([-1.0, -1.0], [1.0, 1.0])
    f = MaxAffineFunction([0.3], [[0.3, 0.0]])
    paths = {name: str(tmp_path / f"{name}.json") for name in ("body", "fn", "alt", "mu")}
    save_json(paths["body"], body_to_dict(box))
    save_json(paths["fn"], function_to_dict(f))
    save_json(paths["alt"], function_to_dict(f.add_constant(-0.5)))
    assert main(["explore", "build", "--body", paths["body"], "--fn", paths["fn"],
                 "--eps", "0.5", "--seed", "0", "--out", paths["mu"]]) == 0
    mu = measure_from_dict(load_json(paths["mu"]))
    assert box.contains(mu.sample(1000, np.random.default_rng(0))).all()
    rc = main(["explore", "verify", "--measure", paths["mu"], "--fn", paths["fn"],
               "--alt", paths["alt"], "--eps", "0.5", "--gap", "0.5",
               "--threshold", "0.5", "--out", str(tmp_path / "v.json")])
    assert rc == 0, capsys.readouterr().err


def test_cli_failed_projection_is_exit_3(tmp_path, capsys, monkeypatch):
    # A linear objective puts the minimiser on the boundary, so cover probes
    # fall outside the body and are projected back onto it.
    # Only the projection is a QP: make every solve with a Hessian fail.
    solve = _highs.solve
    monkeypatch.setattr(_highs, "solve", lambda *args, hessian=None, **kwargs: (
        (_highs.FAILED, None) if hessian is not None else solve(*args, **kwargs)))
    body_path = tmp_path / "box.json"
    fn_path = tmp_path / "fn.json"
    save_json(body_path, body_to_dict(ConvexBody.box([-1.0, -1.0], [1.0, 1.0])))
    save_json(fn_path, function_to_dict(MaxAffineFunction([0.0], [[1.0, 0.3]])))
    rc = main(["explore", "build", "--body", str(body_path), "--fn",
               str(fn_path), "--eps", "0.1", "--out", str(tmp_path / "o.json")])
    assert rc == 3
    assert "construction failed: projection onto body" in capsys.readouterr().err


SQUARE = body_to_dict(ConvexBody.box([-1.0, -1.0], [1.0, 1.0]))
PLANE_FN = function_to_dict(MaxAffineFunction([0.0], [[0.0, 0.0]], eta=1.0))


@pytest.mark.parametrize("kind, record", [
    ("body", {**SQUARE, "bounding_ball": {"center": [0.0, 0.0], "radius": -1.0}}),
    ("body", {**SQUARE, "halfspaces": [{"normal": [0.0, 0.0], "offset": 1.0}]}),
    ("body", {"dimension": 0, "bounding_ball": {"center": [], "radius": 1.0}}),
    ("body", {**SQUARE, "bounding_ball": {"center": [0.0], "radius": 1.0}}),
    ("body", {"dimension": 2}),
    ("fn", {"dimension": 2, "eta": 0.0, "pieces": []}),
    ("fn", {**PLANE_FN, "eta": -1.0}),
    ("fn", {"dimension": 2, "pieces": [{"a": 0.0, "y": [0.0, 0.0]},
                                       {"a": 0.0, "y": [1.0]}]}),
    ("fn", {**PLANE_FN, "quad": [[1.0]]}),
    ("scenarios", {"T": 16, "scenarios": [{"losses": [PLANE_FN]}]}),
    # integers a float cannot hold, as raw JSON text: 401 and 4,301 digits
    *(pytest.param("body", '{"dimension": 1, "halfspaces": [{"normal": [1.0], '
                   f'"offset": 1{"0" * zeros}}}]}}', id=f"body-{zeros + 1}-digit-int")
      for zeros in (400, 4300)),
])
def test_cli_malformed_records_are_config_errors(tmp_path, capsys, kind, record):
    files = {"body": SQUARE, "fn": PLANE_FN,
             "scenarios": {"T": 16, "scenarios": [{"weight": 1.0, "losses": [PLANE_FN]}]}}
    files[kind] = record
    for name, content in files.items():
        if isinstance(content, str):
            (tmp_path / f"{name}.json").write_text(content)
        else:
            save_json(tmp_path / f"{name}.json", content)
    if kind == "scenarios":
        argv = ["bandit", "run", "--scenarios", str(tmp_path / "scenarios.json"),
                "--body", str(tmp_path / "body.json"), "--out", str(tmp_path / "r.csv")]
    else:
        argv = ["explore", "build", "--body", str(tmp_path / "body.json"), "--fn",
                str(tmp_path / "fn.json"), "--eps", "0.5", "--out", str(tmp_path / "o.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("body", [
    ConvexBody(3, ball_center=np.zeros(3), ball_radius=1.0),  # active ball outside 2-D
    ConvexBody.box(-np.ones(4), np.ones(4)),                   # above the dimension cap
])
def test_cli_unsupported_build_bodies_are_config_errors(tmp_path, capsys, body):
    n = body.dimension
    save_json(tmp_path / "body.json", body_to_dict(body))
    save_json(tmp_path / "fn.json", function_to_dict(
        MaxAffineFunction([0.0], [np.zeros(n)], eta=1.0)))
    rc = main(["explore", "build", "--body", str(tmp_path / "body.json"), "--fn",
               str(tmp_path / "fn.json"), "--eps", "0.5", "--out", str(tmp_path / "o.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and "Traceback" not in err


def test_cli_flat_scenario_body_is_exit_3(tmp_path, capsys):
    # The strip |y| <= 1e-13 inside the unit disk: no draw lands in it.
    flat = ConvexBody(2, [[0.0, 1.0], [0.0, -1.0]], [1e-13, 1e-13], [0.0, 0.0], 1.0)
    scen = tmp_path / "scen.json"
    save_json(scen, scenario_file_to_dict([MaxAffineFunction([0.0], [[1.0, 0.0]])],
                                          [1.0], 16, body=flat))
    rc = main(["bandit", "run", "--scenarios", str(scen), "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("construction failed:") and "Traceback" not in err


# -- CLI contract: exit codes, retries, fuzzed argv ---------------------------------

SQUARE_2D = ConvexBody.box([-1.0, -1.0], [1.0, 1.0])
BOWL_2D = MaxAffineFunction([0.0], [[0.0, 0.0]], eta=0.25)
# The interval [0.5, 0.5], and a 1 × 0.004 strip at angle 1 rad: too thin
# for a net point at T = 16.
POINT_1D = {"dimension": 1, "halfspaces": [{"normal": [1.0], "offset": 0.5},
                                           {"normal": [-1.0], "offset": -0.5}]}
_C, _S = math.cos(1.0), math.sin(1.0)
STRIP_2D = {"dimension": 2, "halfspaces": [
    {"normal": [_C, _S], "offset": 1.0}, {"normal": [-_C, -_S], "offset": 0.0},
    {"normal": [-_S, _C], "offset": 0.002}, {"normal": [_S, -_C], "offset": 0.002}]}


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Valid, malformed and dimension-mismatched inputs, by name."""
    root = tmp_path_factory.mktemp("cli")
    records = {
        "body1": body_to_dict(UNIT),
        "body2": body_to_dict(SQUARE_2D),
        "point1": POINT_1D,
        "strip2": STRIP_2D,
        "fn1": function_to_dict(vee(0.3)),
        "fn2": function_to_dict(BOWL_2D),
        "alt1": function_to_dict(MaxAffineFunction([-0.2], [[0.0]])),
        "alt2": function_to_dict(MaxAffineFunction([-0.2], [[0.0, 0.0]])),
        "mu1": measure_to_dict(build_measure_1d(UNIT, vee(0.3), 0.125)),
        "mu2": measure_to_dict(build_exploratory_measure(
            SQUARE_2D, BOWL_2D, 0.5)[0]),
        "scen1": scenario_file_to_dict([vee(0.3), vee(0.6)], [0.5, 0.5], 16),
        "scen2": scenario_file_to_dict([BOWL_2D], [1.0], 16),
        "scenT2": scenario_file_to_dict([vee(0.3)], [1.0], 2),
        "scen_prior": scenario_file_to_dict([vee(0.3)], [0.5], 16),
        "scen_none": {"T": 16, "scenarios": []},
        "scen_badT": {"T": "x", "scenarios": []},
        "scen_int": {"T": 16, "scenarios": 5},
        "list": [1, 2],
        "empty": {},
    }
    paths = {name: str(root / f"{name}.json") for name in records}
    for name, record in records.items():
        save_json(paths[name], record)
    for name, text in [("bad", b"{not json"), ("binary", b"\xff\xfe"),
                       ("nan", b'{"pieces": [{"a": NaN, "y": [0.0]}]}'),
                       ("huge", b'{"pieces": [{"a": 1e999, "y": [0.0]}]}'),
                       ("bigint", b'{"dimension": 1, "halfspaces": [{"normal": [1.0], '
                                  b'"offset": 1' + b"0" * 400 + b'}]}'),
                       ("longint", b'{"dimension": 2, "pieces": [{"a": 1' + b"0" * 4300
                                   + b', "y": [0.0, 0.0]}]}')]:
        paths[name] = str(root / f"{name}.json")
        (root / f"{name}.json").write_bytes(text)
    paths["missing"] = str(root / "missing.json")
    paths["dir"] = str(root)
    paths["no_dir"] = str(root / "absent" / "out.json")
    paths["out"] = str(root / "out.json")
    return paths


def _run(argv):
    """main's exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


@pytest.mark.parametrize("argv", [
    # dimensions that disagree: body, function, alternative, measure, scenario loss
    "explore build --body {body2} --fn {fn1} --eps 0.5 --out {out}",
    "explore verify --measure {mu1} --fn {fn2} --alt {fn2} --eps 0.5 --out {out}",
    "explore verify --measure {mu1} --fn {fn1} --alt {fn2} --eps 0.5 --out {out}",
    "hypothesis test --fn {fn1} --alt {fn1} --body {body2} --eps 0.5 --sigma 0.1 --out {out}",
    "bandit run --scenarios {scen2} --out {out}",
    # malformed or empty integer lists
    "bandit run --scenarios {scen1} --seeds a --out {out}",
    "bandit run --scenarios {scen1} --seeds 0..x --out {out}",
    "bandit run --scenarios {scen1} --seeds , --out {out}",
    "bandit run --scenarios {scen1} --sweep-T x --out {out}",
    # counts below their minimum
    "explore verify --measure {mu1} --fn {fn1} --alt {fn1} --eps 0.5 --samples 0 --out {out}",
    "explore verify --measure {mu1} --fn {fn1} --alt {fn1} --eps 0.5 --samples -5 --out {out}",
    "hypothesis test --fn {fn1} --alt {fn1} --body {body1} --eps 0.5 --sigma 0.1 --trials 5 --out {out}",
    # horizons below 4
    "bandit run --scenarios {scen1} --sweep-T 2 --out {out}",
    "bandit run --scenarios {scenT2} --out {out}",
    # found by the fuzz test below
    "explore build --body {body1} --fn {fn1} --eps 0.5 --seed -1 --out {out}",
    "explore build --body {body1} --fn {nan} --eps 0.5 --out {out}",
    "explore build --body {body1} --fn {huge} --eps 0.5 --out {out}",
    "explore build --body {binary} --fn {fn1} --eps 0.5 --out {out}",
    "explore build --body {dir} --fn {fn1} --eps 0.5 --out {out}",
    "explore build --body {body1} --fn {fn1} --eps 0.5 --out {no_dir}",
    "bandit run --scenarios {scen_prior} --out {out}",
    "bandit run --scenarios {scen_none} --out {out}",
    "bandit run --scenarios {scen_badT} --out {out}",
    "bandit run --scenarios {scen_int} --out {out}",
    # a body too thin for any net point
    "bandit run --scenarios {scen2} --body {strip2} --out {out}",
])
def test_cli_bad_input_is_config_error(cli_files, argv):
    rc, err = _run(argv.format(**cli_files).split(" "))
    assert rc == 2 and "config error:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    "explore build --body {point1} --fn {fn1} --eps 0.125 --out {out}",
    "hypothesis test --body {point1} --fn {fn1} --alt {alt1} --eps 0.125 "
    "--sigma 0.25 --trials 200 --out {out}",
])
def test_cli_point_interval_is_exit_3(cli_files, argv):
    rc, err = _run(argv.format(**cli_files).split(" "))
    assert rc == 3 and err.splitlines() == ["construction failed: domain has no length"]


def test_cli_build_seed_does_not_change_the_measure(cli_files, tmp_path):
    # --seed is recorded in the meta, but a build draws nothing: every seed
    # writes the measure that build_exploratory_measure returns
    direct, _ = build_exploratory_measure(SQUARE_2D, BOWL_2D, 0.5)
    expected = json.loads(json.dumps(measure_to_dict(direct)))
    for seed in ("0", "7"):
        out = tmp_path / f"mu{seed}.json"
        rc, _ = _run(["explore", "build", "--body", cli_files["body2"], "--fn",
                      cli_files["fn2"], "--eps", "0.5", "--seed", seed,
                      "--out", str(out)])
        assert rc == 0
        written = load_json(out)
        assert written.pop("meta")["seed"] == int(seed)
        assert written == expected
        assert "retries" not in load_json(str(out) + ".trace.json")


def test_cli_build_gives_up_after_one_attempt(cli_files, tmp_path, monkeypatch):
    calls = []

    def build(*args, **kwargs):
        calls.append(kwargs)
        raise CoverError("direction hull misses the gamma ball")
    monkeypatch.setattr(cli, "build_exploratory_measure", build)
    rc, err = _run(["explore", "build", "--body", cli_files["body2"], "--fn",
                    cli_files["fn2"], "--eps", "0.5", "--seed", "7", "--out",
                    str(tmp_path / "mu.json"), "--profile", "paper"])
    assert rc == 3
    assert len(calls) == 1 and "rng" not in calls[0]
    assert err.splitlines() == [
        "construction failed: direction hull misses the gamma ball"]


def test_cli_2d_game_survives_failed_builds(tmp_path, monkeypatch):
    # two cones with minima far apart on [-1, 1]^2, so two_point explores
    # and asks for 2-D measures; every build attempt fails
    attempts = []

    def broken(*args, **kwargs):
        attempts.append(args)
        raise CoverError("direction hull misses the gamma ball")

    monkeypatch.setattr(bandit, "build_exploratory_measure", broken)
    slopes = 0.6 * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    cones = [MaxAffineFunction(0.05 - slopes @ np.array(apex), slopes)
             for apex in ([-0.5, -0.5], [0.5, 0.5])]
    body, scen = tmp_path / "box.json", tmp_path / "scen.json"
    save_json(body, body_to_dict(SQUARE_2D))
    save_json(scen, scenario_file_to_dict(cones, [0.5, 0.5], 16))
    out = tmp_path / "runs.csv"
    rc, err = _run(["bandit", "run", "--scenarios", str(scen), "--body",
                    str(body), "--seeds", "0,1", "--out", str(out)])
    assert rc == 0 and "Traceback" not in err
    games = load_json(str(out) + ".summary.json")["per_horizon"][0]["seeds"]
    failures = [game["build_failures"] for game in games]
    assert min(failures) >= 1
    assert all(game["measure_builds"] == 0 for game in games)
    assert len(attempts) == sum(failures)   # one attempt per build
    assert len(out.read_text().strip().split("\n")) == 1 + 2 * 16

# Each flag draws a valid token three times in four, else an invalid one.
# Valid files come in 1-D and 2-D, so dimensions may disagree; invalid ones
# are another kind of record, malformed, missing or not a file.
BROKEN = ["list", "empty", "bad", "nan", "huge", "bigint", "longint", "binary",
          "missing", "dir"]
BODIES = (["body1", "body2"], ["fn1"] + BROKEN)
FNS = (["fn1", "fn2", "alt1", "alt2"], ["body2"] + BROKEN)
MEASURES = (["mu1", "mu2"], ["fn1"] + BROKEN)
SCENARIOS = (["scen1", "scen2"], ["scenT2", "scen_prior", "scen_none",
                                  "scen_badT", "scen_int", "body1"] + BROKEN)
NUMBERS = (["0.05", "0.5", "1"], ["0", "-1", "3", "nan", "inf", "x", ""])
INTS = (["0", "1", "150"], ["-5", "2.5", "x", ""])
LISTS = (["0", "0,1", "0..1", "4", "16,8"], ["1..0", ",", "", "a", "0..x", "2", "-1"])
OUT = (["out"], ["dir", "no_dir"])


PROFILE = (["calibrated", "paper"], ["x"])
COMMANDS = {
    # flag: (tokens, required)
    "explore build": {"--body": (BODIES, True), "--fn": (FNS, True),
                      "--eps": (NUMBERS, True), "--out": (OUT, True),
                      "--seed": (INTS, False), "--profile": (PROFILE, False)},
    "explore verify": {"--measure": (MEASURES, True), "--fn": (FNS, True),
                       "--alt": (FNS, True), "--eps": (NUMBERS, True),
                       "--out": (OUT, True), "--gap": (NUMBERS, False),
                       "--threshold": (NUMBERS, False),
                       "--gap-scaling": ((["eps", "max"], ["x"]), False),
                       "--samples": (INTS, False), "--seed": (INTS, False)},
    "bandit run": {"--scenarios": (SCENARIOS, True), "--out": (OUT, True),
                   "--body": (BODIES, False), "--seeds": (LISTS, False),
                   "--sweep-T": (LISTS, False),
                   "--policy": ((["two_point", "thompson", "uniform"], ["x"]), False),
                   "--likelihood": ((["deterministic", "gaussian"], ["x"]), False),
                   "--sigma": (NUMBERS, False), "--gap-constant": (NUMBERS, False),
                   "--profile": (PROFILE, False)},
    "hypothesis test": {"--fn": (FNS, True), "--alt": (FNS, True),
                        "--eps": (NUMBERS, True), "--sigma": (NUMBERS, True),
                        "--out": (OUT, True), "--measure": (MEASURES, False),
                        "--body": (BODIES, False), "--trials": (INTS, False),
                        "--level": (NUMBERS, False), "--seed": (INTS, False),
                        "--profile": (PROFILE, False)},
}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_fuzzed_argv_exits_with_a_documented_code(cli_files, data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    argv = command.split(" ")
    for flag, (tokens, required) in COMMANDS[command].items():
        if required or data.draw(st.booleans()):
            valid, invalid = tokens
            broken = data.draw(st.integers(0, 3)) == 0
            token = data.draw(st.sampled_from(invalid if broken else valid))
            argv += [flag, cli_files.get(token, token)]
    # only the package's documented UserWarnings may come out; any other
    # warning, a RuntimeWarning included, fails the run
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, err = _run(argv)
    for w in caught:
        assert w.category is UserWarning and str(w.message).startswith((
            "stable-gradient patch not found", "stage cap reached",
            "covariance eigenvalue floored")), w
    assert rc in (0, 1, 2, 3)
    assert rc != 1 or command == "explore verify"
    assert "Traceback" not in err


# -- cold start: scipy's solvers load at first use ------------------------------------

# CI's console-script inputs: a 1-D vee on [0, 1] with an alternative and a
# constant scenario file, the 2-D box with an affine function, and the flat box
# {0 <= x <= 1, y = 0.5}.
CI_FILES = {
    "body.json": {"dimension": 1, "halfspaces": [{"normal": [1.0], "offset": 1.0},
                                                 {"normal": [-1.0], "offset": 0.0}]},
    "fn.json": {"dimension": 1, "pieces": [{"a": 0.38, "y": [-0.6]}, {"a": 0.02, "y": [0.6]}]},
    "alt.json": {"dimension": 1, "pieces": [{"a": -0.2, "y": [0.0]}]},
    "scen.json": {"T": 16, "scenarios": [{"weight": 1.0, "losses": [{"ref": "fn.json"}]}]},
    "box.json": {"dimension": 2, "halfspaces": [
        {"normal": [1.0, 0.0], "offset": 1.0}, {"normal": [-1.0, 0.0], "offset": 1.0},
        {"normal": [0.0, 1.0], "offset": 1.0}, {"normal": [0.0, -1.0], "offset": 1.0}]},
    "fn2.json": {"dimension": 2, "pieces": [{"a": 0.3, "y": [0.3, 0.0]}]},
    "flat.json": {"dimension": 2, "halfspaces": [
        {"normal": [1.0, 0.0], "offset": 1.0}, {"normal": [-1.0, 0.0], "offset": 0.0},
        {"normal": [0.0, 1.0], "offset": 0.5}, {"normal": [0.0, -1.0], "offset": -0.5}]},
}
# Run one CLI command in a fresh interpreter; print the scipy solver modules
# it left loaded.
_FRESH = """import json, sys
from convexplore.cli import main
rc = main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith(("scipy.optimize", "scipy.spatial")))))
sys.exit(rc)
"""


def _fresh(argv, cwd):
    """Exit code, stderr and loaded solver modules of ``argv`` in a new process."""
    env = dict(os.environ, PYTHONPATH=str(Path(convexplore.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _FRESH, *argv.split(" ")], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    loaded = json.loads(done.stdout.splitlines()[-1]) if done.stdout else None
    return done.returncode, done.stderr, loaded


@pytest.fixture(scope="module")
def ci_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("ci")
    for name, record in CI_FILES.items():
        (root / name).write_text(json.dumps(record))
    assert main(f"explore build --body {root}/body.json --fn {root}/fn.json "
                f"--eps 0.125 --out {root}/mu.json".split(" ")) == 0
    return root


@pytest.mark.parametrize("argv, loads", [
    ("bandit run --scenarios scen.json --seeds 0,1 --out runs.csv", False),
    ("explore verify --measure mu.json --fn fn.json --alt alt.json --eps 0.125 "
     "--out verify.json", False),
    ("hypothesis test --measure mu.json --fn fn.json --alt alt.json --eps 0.125 "
     "--sigma 0.25 --trials 2000 --out hyp.json", False),
    # a 2-D build solves LPs and runs qhull, so both load when it needs them
    ("explore build --body box.json --fn fn2.json --eps 0.5 --seed 0 --out mu2.json", True),
])
def test_cli_loads_scipy_solvers_only_when_used(ci_dir, argv, loads):
    rc, err, loaded = _fresh(argv, ci_dir)
    assert rc == 0, err
    prefixes = {name.split(".")[1] for name in loaded}
    assert prefixes == ({"optimize", "spatial"} if loads else set()), loaded


def test_cli_first_qhull_error_is_exit_3(ci_dir):
    # The flat box's vertex enumeration is the process's first qhull call.
    rc, err, _ = _fresh("explore build --body flat.json --fn fn2.json --eps 0.5 "
                        "--out flat_mu.json", ci_dir)
    lines = err.splitlines()
    assert rc == 3 and len(lines) == 1, err
    assert lines[0].startswith("construction failed: qhull found no vertices")
