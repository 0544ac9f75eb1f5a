"""Serialization round-trips and the command-line front end."""
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexplore import _highs
from convexplore.bandit import RoundRecord
from convexplore.cli import _parse_seeds, main
from convexplore.convexfn import MaxAffineFunction
from convexplore.errors import ConfigError
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
from convexplore.instances import random_cone_2d, random_polygon

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
    back = function_from_dict(function_to_dict(f))
    xs = np.random.default_rng(0).uniform(-1, 1, (50, 2))
    assert back.value(xs) == pytest.approx(f.value(xs), abs=1e-15)
    plain = function_from_dict(function_to_dict(vee(0.3)))
    assert plain.quad is None and plain.eta == 0.0


def test_measure_round_trip_keeps_exact_weights():
    mu = build_measure_1d(UNIT, vee(0.3), 1.0 / 16)
    d = measure_to_dict(mu)
    assert d["components"][0]["weight_exact"] == "1/10"
    back = measure_from_dict(d)
    assert list(back.weights) == list(mu.weights)
    assert all(isinstance(w, Fraction) for w in back.weights)
    a = mu.sample(200, np.random.default_rng(7))
    b = back.sample(200, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_measure_round_trip_nested_two_dimensional():
    rng = np.random.default_rng(1)
    body = random_polygon(rng)
    f = random_cone_2d(rng, body)
    mu, _ = build_exploratory_measure(body, f, 0.1,
                                      rng=np.random.default_rng(11))
    back = measure_from_dict(measure_to_dict(mu))
    a = mu.sample(300, np.random.default_rng(3))
    b = back.sample(300, np.random.default_rng(3))
    assert np.array_equal(a, b)
    # serialized form survives a JSON print/parse cycle unchanged
    d2 = json.loads(canonical_dumps(measure_to_dict(back)))
    again = measure_from_dict(d2)
    assert np.array_equal(again.sample(50, np.random.default_rng(4)),
                          mu.sample(50, np.random.default_rng(4)))


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


# -- seed lists -------------------------------------------------------------------

def test_parse_seeds():
    assert _parse_seeds("7") == [7]
    assert _parse_seeds("0,3,9") == [0, 3, 9]
    assert _parse_seeds("0..19") == list(range(20))
    with pytest.raises(ConfigError):
        _parse_seeds("5..1")


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
    # The base atom u = 5 lands outside the host box, so every fiber has zero
    # length and the lift's re-draws run out.
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
])
def test_cli_malformed_records_are_config_errors(tmp_path, capsys, kind, record):
    files = {"body": SQUARE, "fn": PLANE_FN,
             "scenarios": {"T": 16, "scenarios": [{"weight": 1.0, "losses": [PLANE_FN]}]}}
    files[kind] = record
    for name, content in files.items():
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
