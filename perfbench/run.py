"""Closed-loop benchmark of convexplore, one workload per process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client thread runs the workload's operations back to back, each starting
after the previous one completed. The ops form a pass of fixed size, and the
run repeats the pass at least twice and then while the timed phase is more
than half a pass short of S seconds, so every run times whole passes of the
same ops and lasts about S seconds. Every op's output is checked.

The machine's speed drifts while a run goes on, and from one run to the next,
when it is shared. So the run also times a fixed reference kernel between
ops, about every half second, and BENCHMARK.json's op timings are given in
units of the kernel's mean time (``ref``); the plain seconds are in the
record's ``detail``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The full record, with the environment, goes to ``perfbench/results/``.

With ``--trace 1`` each op runs twice, untraced and then traced with the
boundary wrappers of ``tracer.py``; per-layer numbers come from the traced
runs and ``trace.overhead`` is traced seconds over untraced seconds.

The exit code is 0 when every check passed, 1 when one failed, and 2 when
the checkout holds no convexplore sources to benchmark.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.special import betainc

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORK = BENCH_DIR / ".work"
SETUP_REPEATS = 3
MIN_PASSES = 2
MAX_ERRORS_SHOWN = 5
# per-layer metrics read from one workload's outputs; 0 on the others
OUTPUT_METRICS = ("regret_vs_uniform", "bandit.explore_share",
                  "bandit.measure_builds")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_package():
    """Import convexplore from this checkout's src/, or exit with code 2."""
    if not (SRC / "convexplore" / "__init__.py").is_file():
        print(f"perfbench: no convexplore sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import convexplore
    if Path(convexplore.__file__).resolve().parent != (SRC / "convexplore").resolve():
        print(f"perfbench: convexplore was imported from "
              f"{convexplore.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return convexplore


def time_imports(repeats: int) -> list[float]:
    """Wall time of a fresh interpreter importing the package, per repeat."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import convexplore.cli"],
                       cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


# -- environment -------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """Commit of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")
                       or k == "EXPLORER_THREADS"},
        "git_commit": _git_commit(),
    }


# -- statistics --------------------------------------------------------------------

def median(times: list[float]) -> float:
    """Harrell-Davis estimate of the median.

    A weighted mean of all order statistics around the middle. Ops of a
    mixed workload (three policies, four check kinds) cluster by kind, and
    the plain sample median jumps between clusters from run to run.
    """
    x = np.sort(np.asarray(times, dtype=float))
    n = x.size
    a = b = (n + 1) / 2.0
    weights = np.diff(betainc(a, b, np.arange(n + 1) / n))
    return float(weights @ x)


def tail(times: list[float]) -> dict | None:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(times)
    ordered = sorted(times)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = math.ceil(n * pct / 100.0)          # nearest-rank percentile
        if rank >= 1 and n - rank >= 10:
            return {"value": ordered[rank - 1], "percentile": pct,
                    "beyond": n - rank, "samples": n}
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- running -----------------------------------------------------------------------

REF_EVERY_S = 0.5     # time the reference kernel once per this much time,
REF_BURST = 4         # up to this many times in one gap between two ops
_REF_ROWS = np.random.default_rng(0).standard_normal((13, 1))
_REF_POINTS = np.random.default_rng(1).standard_normal((20_000, 2))


def reference_kernel() -> float:
    """Seconds taken by fixed work of the kinds the program does.

    Four parts of 3-4 ms each: an integer loop in the interpreter,
    building dicts and tuples, numpy calls on a 13-row array (as in one
    ``MaxAffineFunction.value``) and passes over 20,000 points (as in
    hit-and-run). No change to convexplore can make it faster or slower;
    timed between ops, it tracks the speed of the machine.
    """
    start = perf_counter()
    n = 0
    for i in range(37_000):
        n += i * i % 7
    table = {}
    for i in range(10_000):
        table[i % 977] = [i, (i, str(i))]
    acc = 0.0
    for _ in range(280):
        z = _REF_ROWS * 0.1 + 0.5
        acc += float(np.max(z)) + float(np.min(z * 2.0 - 1.0))
    direction = np.array([0.3, 0.7])
    for _ in range(70):
        acc += float(np.minimum(_REF_POINTS @ direction, 0.5).sum())
    return perf_counter() - start


def timed_op(workload, p, j, tag, tracer=None):
    """Run op j of pass p (traced when a tracer is given), then check it."""
    start = perf_counter()
    try:
        if tracer is None:
            result = workload.op(p, j, tag)
        else:
            with tracer.installed(op=p * workload.pass_ops + j):
                result = workload.op(p, j, tag)
        error = None
    except Exception:
        error = traceback.format_exc()
    seconds = perf_counter() - start
    if error is None:
        try:
            info = workload.check(p, j, result)
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        info = {"ok": False, "work": 0, "error": error}
    return seconds, info


def layer_metric(name: str, tracer, extra: dict) -> float:
    """Value of one per-layer metric named ``[setup.]<boundary>.<field>``."""
    if name in extra or name in OUTPUT_METRICS:
        return extra.get(name, 0.0)
    phase = "run"
    if name.startswith("setup."):
        phase, name = "setup", name[len("setup."):]
    if ".warn." in name:
        return tracer.warning_count(name, phase)
    boundary, field = name.rsplit(".", 1)
    if boundary not in tracer.boundary_names():
        raise KeyError(f"per-layer metric {name!r} names no traced boundary")
    st = tracer.stat(boundary, phase)
    if field in ("calls", "failures", "self_s", "total_s"):
        return getattr(st, field)
    if field == "rows_per_call":
        return st.extra.get("rows", 0) / st.calls if st.calls else 0.0
    if field == "accept_ratio":
        return (st.calls - st.failures) / st.calls if st.calls else 0.0
    if field in ("points", "bytes"):
        return st.extra.get(field, 0)
    raise KeyError(f"unknown per-layer field in {name!r}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 max_passes: int | None = None,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run; returns the full record (see module docstring)."""
    import tracer as tracing
    import workloads

    spec = load_spec()
    make = workloads.WORKLOADS[name]
    tracer = tracing.Tracer() if trace else None
    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    cpus = os.sched_getaffinity(0)
    try:
        if make.one_cpu:
            os.sched_setaffinity(0, {min(cpus)})
        import_s = time_imports(setup_repeats)
        prepare_s = []
        for r in range(setup_repeats):
            workload = make()
            d = workdir / f"setup{r}"
            d.mkdir(parents=True)
            start = perf_counter()
            if tracer is not None and r == setup_repeats - 1:
                with tracer.installed(phase="setup"):
                    workload.prepare(seed, d)
            else:
                workload.prepare(seed, d)
            prepare_s.append(perf_counter() - start)

        # untraced seconds of each op and of each reference kernel, with
        # when it started (seconds into the timed phase)
        op_s, op_at, ref_s, ref_at = [], [], [], []
        checked, traced_checked = [], []
        traced_s = 0.0
        passes = 0
        reference_kernel()                          # warm-up
        t0 = perf_counter()
        last_ref = t0 - REF_EVERY_S

        def time_reference():
            nonlocal last_ref
            last_ref = perf_counter()
            ref_at.append(last_ref - t0)
            ref_s.append(reference_kernel())

        def another_pass():
            if max_passes is not None:
                return passes < max_passes
            elapsed = perf_counter() - t0
            return (passes < MIN_PASSES
                    or elapsed + 0.5 * elapsed / passes < seconds)

        while another_pass():
            for j in range(workload.pass_ops):
                due = int((perf_counter() - last_ref) / REF_EVERY_S)
                for _ in range(min(due, REF_BURST)):
                    time_reference()
                op_at.append(perf_counter() - t0)
                dt, info = timed_op(workload, passes, j, "u")
                op_s.append(dt)
                checked.append(info)
                if tracer is not None:
                    dt, info = timed_op(workload, passes, j, "t", tracer)
                    traced_s += dt
                    traced_checked.append(info)
            passes += 1
        wall_s = perf_counter() - t0
        time_reference()
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(workdir, ignore_errors=True)

    every = checked + traced_checked
    failed = sum(not c["ok"] for c in every)
    run_ok, summary = workload.summary(traced_checked if trace else checked)
    errors = [c["error"] for c in every if "error" in c][:MAX_ERRORS_SHOWN]
    if not run_ok:
        errors.append(f"run-level check failed: {summary}")
    work = sum(c["work"] for c in checked)
    busy = sum(op_s)
    # the mean, not the median: the kernel's time jumps between a fast and a
    # slow level, and the mean follows the share of time the machine is slow
    ref = statistics.fmean(ref_s)
    detail = {
        "setup_s": statistics.median(import_s) + statistics.median(prepare_s),
        "setup.import_s": import_s,
        "setup.prepare_s": prepare_s,
        "ops": len(op_s),
        "passes": passes,
        "op_s_p50": median(op_s),
        "ops_per_s": len(op_s) / busy,
        f"{workload.unit}_per_s": work / busy,
        "op_p50_ref": median(op_s) / ref,
        "ops_per_ref": len(op_s) / busy * ref,
        "ref_s": ref,
        "peak_rss_mb": peak_rss_mb(),
        "fail_rate": failed / len(every),
        "wall_s": wall_s,
        "op_samples": [[c.get("label", ""), at, t]
                       for c, at, t in zip(checked, op_at, op_s)],
        "ref_samples": [list(x) for x in zip(ref_at, ref_s)],
        **summary,
    }
    op_tail = tail(op_s)
    if op_tail is not None:
        detail["op_s_tail"] = op_tail
    if trace:
        detail["trace.overhead"] = traced_s / busy
        threads, parallelism = tracer.pool_figures()
        detail["cli.pool.threads"] = threads
        detail["cli.pool.parallelism"] = parallelism
        names = [m["name"] for m in spec["per_layer"]]
        metrics = {n: layer_metric(n, tracer, detail) for n in names}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        metrics = {n: detail[n] for n in names}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "correct": failed == 0 and run_ok,
        "attempted": len(every), "failed": failed,
        "metrics": {n: {"value": float(v), "unit": units[n]}
                    for n, v in metrics.items()},
        "detail": detail,
        "errors": errors,
    }
    if trace:
        record["boundaries"] = tracer.boundary_table("run")
        record["setup_boundaries"] = tracer.boundary_table("setup")
        record["spans"] = tracer.spans
    return record


def write_record(record: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    stem = (f"{record['workload']}-seed{record['seed']}"
            f"-trace{record['trace']}")
    spans = record.pop("spans", None)
    if spans is not None:
        fields = ("id", "name", "start", "end", "parent", "thread", "op")
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": fields, "spans": spans}, separators=(",", ":")))
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    path = write_record(record)
    for error in record["errors"]:
        print(error, file=sys.stderr)
    for n, m in record["metrics"].items():
        print(f"{n} = {m['value']:.6g} {m['unit']}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
