"""Self-test of the benchmark harness.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests

Each workload of BENCHMARK.json is run twice, traced, for one pass of its ops and
the same seed. The runs must agree on every count (the program is seeded),
produce byte-identical game CSVs, and fire every boundary the workload is
meant to exercise, so a renamed function cannot quietly report zero.
"""
import inspect
import sys
import warnings
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

run.import_package()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from convexplore import explore_nd, geometry  # noqa: E402

SEED = 3
WORKLOADS = ("bandit_cli", "build_2d", "verify")

FIRES = {
    "bandit_cli": [
        "geometry.linprog.calls", "convexfn.value.calls",
        "bandit.regret_info.calls", "bandit.surrogates.self_s",
        "bandit.posterior_update.self_s", "bandit.two_point_action.self_s",
        "bandit.step2_select_point.calls", "bandit.explore_share",
        "bandit.measure_builds", "explore1d.dyadic_measure_1d.calls",
        "explore1d.sample.calls", "bandit.run_game.self_s",
        "bandit.ScenarioSet.self_s", "bandit.build_net.self_s",
        "cli.main.self_s", "cli.pool.threads", "cli.pool.parallelism",
        "fileio.records_to_csv.self_s", "fileio.records_to_csv.bytes",
        "fileio.scenario_file_from_dict.self_s",
        "setup.bandit.ScenarioSet.self_s", "setup.bandit.build_net.self_s",
        "regret_vs_uniform", "trace.overhead",
    ],
    "build_2d": [
        "geometry.linprog.calls", "geometry.linprog.self_s",
        "geometry.support_point.calls", "geometry.thinnest_slab.self_s",
        "geometry.sample_uniform.calls", "geometry.sample_uniform.points",
        "geometry.sample_uniform.self_s",
        "geometry.largest_inscribed_ball.self_s", "geometry.slsqp.calls",
        "geometry.chord_bounds.self_s", "convexfn.argmin.self_s",
        "convexfn.smoothed_gradient.self_s", "convexfn.value.calls",
        "minnorm.min_norm_point.self_s", "minnorm.caratheodory_prune.self_s",
        "explore_nd.find_stable_gradient_patch.calls",
        "explore_nd.find_stable_gradient_patch.accept_ratio",
        "explore_nd.find_stable_gradient_patch.self_s",
        "explore_nd.single_scale_measure.calls",
        "explore_nd.multi_scale_measure.self_s", "trace.overhead",
    ],
    "verify": [
        "explore1d.sample.calls", "explore1d.sample.points",
        "explore1d.sample.self_s", "explore1d.event_probability.points",
        "explore1d.event_probability.self_s",
        "explore1d.verify_exploration.self_s", "geometry.chord_bounds.self_s",
        "bandit.hypothesis_test.self_s", "convexfn.value.calls",
        "setup.explore_nd.build_exploratory_measure.self_s",
        "trace.overhead",
    ],
}

COUNT_SUFFIXES = (".calls", ".points", ".failures", ".bytes", ".threads",
                  ".rows_per_call", ".measure_builds", ".explore_share")


@pytest.fixture(scope="module", params=WORKLOADS)
def twin_runs(request):
    name = request.param
    runs = [run.run_workload(name, SEED, 0.0, True, max_passes=1,
                             setup_repeats=1) for _ in range(2)]
    return name, runs[0]["detail"]["ops"], runs


def test_runs_pass_their_checks(twin_runs):
    name, ops, runs = twin_runs
    for rec in runs:
        assert rec["correct"], rec["errors"]
        assert rec["detail"]["passes"] == 1
        assert rec["attempted"] == 2 * ops


def test_same_seed_same_counts(twin_runs):
    name, ops, (a, b) = twin_runs
    counts = [m for m in a["metrics"]
              if m.endswith(COUNT_SUFFIXES)
              or m in ("fail_rate", "regret_vs_uniform")]
    assert counts
    for m in counts:
        assert a["metrics"][m] == b["metrics"][m], m
    assert a["detail"].get("csv_sha256") == b["detail"].get("csv_sha256")
    if name == "bandit_cli":
        assert len(a["detail"]["csv_sha256"]) == ops


def test_boundaries_fire(twin_runs):
    name, _, (rec, _) = twin_runs
    silent = [m for m in FIRES[name] if not rec["metrics"][m]["value"] > 0]
    assert not silent, f"{name}: no activity at {silent}"


def test_untraced_run_prints_end_to_end_metrics():
    rec = run.run_workload("verify", SEED, 0.0, False, max_passes=1,
                           setup_repeats=1)
    spec = run.load_spec()
    assert rec["correct"], rec["errors"]
    assert list(rec["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in rec["metrics"].values())
    # the kernel is timed before the first op and after the last
    assert len(rec["detail"]["ref_samples"]) >= 2
    assert rec["metrics"]["ops_per_ref"]["value"] == pytest.approx(
        rec["detail"]["ops_per_s"] * rec["detail"]["ref_s"])


def test_warning_sites_are_counted():
    for prefix, metric in tracing.WARNINGS:
        module = explore_nd if metric.startswith("explore_nd") else geometry
        assert prefix in inspect.getsource(module), prefix
    tr = tracing.Tracer()
    with tr.installed():
        for prefix, _ in tracing.WARNINGS:
            warnings.warn(prefix + " (test)")
    for _, metric in tracing.WARNINGS:
        assert tr.warning_count(metric) == 1


def test_failures_counted_once_through_recursion():
    tr = tracing.Tracer()

    def descend(depth):
        if depth == 0:
            raise RuntimeError("bottom")
        return traced(depth - 1)

    traced = tr._wrap("recursive", descend, False, None)
    with pytest.raises(RuntimeError):
        traced(3)
    st = tr.stat("recursive")
    assert (st.calls, st.failures) == (4, 1)
    assert st.self_s <= st.total_s


def test_untraced_code_is_restored():
    before = explore_nd.thinnest_slab
    tr = tracing.Tracer()
    with tr.installed():
        assert explore_nd.thinnest_slab is not before
    assert explore_nd.thinnest_slab is before
    assert geometry.ConvexBody.__dict__["support_point"].__name__ == "support_point"
    assert not hasattr(geometry.ConvexBody.__dict__["support_point"],
                       "__wrapped__")
