"""Outside-in tracing of convexplore's layer boundaries.

The tracer wraps public functions and methods of the package from outside:
every name a convexplore module holds for a wrapped function is rebound, and
wrapped methods are replaced on their class. ``installed()`` puts the
wrappers in place for one block and restores the originals afterwards, so
untraced code runs unmodified.

Each call through a boundary updates that boundary's aggregate (calls, total
and self seconds, failures, extra counters). Boundaries not marked hot also
append one span record ``(id, name, start, end, parent, thread, op)`` kept in
memory. Self time is the span's duration minus the part covered by its
children; children on the same thread are nested and sequential, and root
calls on pool threads are adopted by the client thread's innermost open
span, whose self time then loses the union of their intervals.
"""
from __future__ import annotations

import contextlib
import itertools
import sys
import threading
import warnings
from time import perf_counter

import scipy.optimize

from convexplore import (bandit, cli, convexfn, explore1d, explore_nd,
                         fileio, geometry, minnorm)


def _rows(extra, args, kwargs, result):
    extra["rows"] = extra.get("rows", 0) + (
        1 if result.__class__ is float else len(result))


def _points_out(extra, args, kwargs, result):
    extra["points"] = extra.get("points", 0) + len(result)


def _event_points(extra, args, kwargs, result):
    m = args[2] if len(args) > 2 else kwargs["m"]
    extra["points"] = extra.get("points", 0) + m


def _csv_bytes(extra, args, kwargs, result):
    extra["bytes"] = extra.get("bytes", 0) + len(result)


# (owner, attribute, boundary name, hot, counter). Hot boundaries are
# aggregated only; the rest also record one span per call. A function is
# rebound under every convexplore module name that holds it, so
# scipy's linprog and minimize are traced where the package calls them.
FUNCTIONS = [
    (scipy.optimize, "linprog", "geometry.linprog", True, None),
    (scipy.optimize, "minimize", "geometry.slsqp", True, None),
    (geometry, "thinnest_slab", "geometry.thinnest_slab", False, None),
    (convexfn, "argmin", "convexfn.argmin", False, None),
    (convexfn, "smoothed_gradient", "convexfn.smoothed_gradient", True, None),
    (minnorm, "min_norm_point", "minnorm.min_norm_point", False, None),
    (minnorm, "caratheodory_prune", "minnorm.caratheodory_prune", False, None),
    (explore_nd, "find_stable_gradient_patch",
     "explore_nd.find_stable_gradient_patch", True, None),
    (explore_nd, "caratheodory_reduce", "explore_nd.caratheodory_reduce",
     False, None),
    (explore_nd, "build_exploratory_measure",
     "explore_nd.build_exploratory_measure", False, None),
    (explore_nd, "single_scale_measure", "explore_nd.single_scale_measure",
     False, None),
    (explore_nd, "multi_scale_measure", "explore_nd.multi_scale_measure",
     False, None),
    (explore1d, "dyadic_measure_1d", "explore1d.dyadic_measure_1d", False, None),
    (explore1d, "verify_exploration", "explore1d.verify_exploration",
     False, None),
    (bandit, "surrogates", "bandit.surrogates", True, None),
    (bandit, "regret_info", "bandit.regret_info", True, None),
    (bandit, "posterior_update", "bandit.posterior_update", True, None),
    (bandit, "two_point_action", "bandit.two_point_action", True, None),
    (bandit, "step2_select_point", "bandit.step2_select_point", False, None),
    (bandit, "hypothesis_test", "bandit.hypothesis_test", False, None),
    (bandit, "build_net", "bandit.build_net", False, None),
    (bandit, "run_game", "bandit.run_game", False, None),
    (cli, "main", "cli.main", False, None),
    (fileio, "records_to_csv", "fileio.records_to_csv", False, _csv_bytes),
    (fileio, "scenario_file_from_dict", "fileio.scenario_file_from_dict",
     False, None),
]

METHODS = [
    (geometry.ConvexBody, "support_point", "geometry.support_point", True, None),
    (geometry.ConvexBody, "sample_uniform", "geometry.sample_uniform", False,
     _points_out),
    (geometry.ConvexBody, "largest_inscribed_ball",
     "geometry.largest_inscribed_ball", True, None),
    (geometry.ConvexBody, "chord_bounds", "geometry.chord_bounds", True, None),
    (convexfn.MaxAffineFunction, "value", "convexfn.value", True, _rows),
    (explore1d.ExplorationMeasure, "sample", "explore1d.sample", True,
     _points_out),
    (explore1d.ExplorationMeasure, "event_probability",
     "explore1d.event_probability", False, _event_points),
    (bandit.ScenarioSet, "__init__", "bandit.ScenarioSet", False, None),
]

# Message prefixes of the package's four warnings.warn sites.
WARNINGS = [
    ("stable-gradient patch not found", "explore_nd.warn.xi_relax"),
    ("stage cap reached", "explore_nd.warn.stage_cap"),
    ("covariance eigenvalue floored", "geometry.warn.eig_floor"),
    ("body has empty interior", "geometry.warn.flat_body"),
]


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "failures", "extra")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.failures = 0
        self.extra = {}


class _Frame:
    __slots__ = ("span_id", "child_s", "cross")

    def __init__(self, span_id):
        self.span_id = span_id   # a hot frame carries its nearest span's id
        self.child_s = 0.0
        self.cross = None        # intervals of adopted calls on other threads


class _ThreadState(threading.local):
    """Per-thread frame stack and stats table, so no lock guards the hot path."""

    def __init__(self, tables):
        self.frames = []
        self.stats = {}          # (phase, name) -> Stat
        tables.append(self.stats)


def _covered(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Boundary aggregates and spans for the ops run under ``installed()``."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, thread, op)
        self.warnings = {}       # (phase, metric) -> count
        self.phase = "run"
        self.op = None
        self._tables = []        # one stats table per thread that made calls
        self._state = _ThreadState(self._tables)
        self._client = None      # frame list of the thread that installed us
        self._cross_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._failed = {}        # name -> last exception counted
        self._target_list = None

    # -- installation ----------------------------------------------------

    def _targets(self):
        """(owner, attribute, original, name, hot, counter) for every rebind."""
        if self._target_list is None:
            self._target_list = self._find_targets()
        return self._target_list

    @staticmethod
    def _find_targets():
        modules = [m for k, m in sys.modules.items()
                   if k == "convexplore" or k.startswith("convexplore.")]
        out = []
        for owner, attr, name, hot, counter in FUNCTIONS:
            orig = getattr(owner, attr)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        out.append((mod, key, orig, name, hot, counter))
        for cls, attr, name, hot, counter in METHODS:
            out.append((cls, attr, vars(cls)[attr], name, hot, counter))
        return out

    @contextlib.contextmanager
    def installed(self, phase="run", op=None):
        """Trace one block: rebind every boundary, count warnings, restore."""
        self.phase, self.op = phase, op
        self._client = self._state.frames
        targets = self._targets()
        wrapped = {}
        for owner, attr, orig, name, hot, counter in targets:
            if id(orig) not in wrapped:
                wrapped[id(orig)] = self._wrap(name, orig, hot, counter)
            setattr(owner, attr, wrapped[id(orig)])
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                yield self
        finally:
            for owner, attr, orig, *_ in targets:
                setattr(owner, attr, orig)
            for w in caught:
                self._count_warning(str(w.message))
            self._failed.clear()

    def _count_warning(self, message):
        metric = next((m for prefix, m in WARNINGS
                       if message.startswith(prefix)), "warn.other")
        key = (self.phase, metric)
        self.warnings[key] = self.warnings.get(key, 0) + 1

    # -- the wrapper -----------------------------------------------------

    def _wrap(self, name, fn, hot, counter):
        tracer = self

        def traced(*args, **kwargs):
            return tracer._call(name, fn, hot, counter, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _call(self, name, fn, hot, counter, args, kwargs):
        state = self._state
        frames = state.frames
        if frames:
            parent, cross = frames[-1], False
        else:
            client = self._client
            parent = client[-1] if client else None
            cross = parent is not None
        if hot:
            frame = _Frame(parent.span_id if parent is not None else None)
        else:
            frame = _Frame(next(self._ids))
        frames.append(frame)
        failed = None
        result = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            failed = exc
            raise
        finally:
            end = perf_counter()
            frames.pop()
            dur = end - start
            own = dur - frame.child_s
            if frame.cross:
                own -= _covered(frame.cross, start, end)
            if cross:
                with self._cross_lock:
                    if parent.cross is None:
                        parent.cross = []
                    parent.cross.append((start, end))
            elif parent is not None:
                parent.child_s += dur
            key = (self.phase, name)
            st = state.stats.get(key)
            if st is None:
                st = state.stats[key] = Stat()
            st.calls += 1
            st.total_s += dur
            st.self_s += own
            if failed is not None:
                if self._failed.get(name) is not failed:
                    # a recursive boundary re-raises its child's exception:
                    # count each exception once per boundary
                    st.failures += 1
                    self._failed[name] = failed
            elif counter is not None:
                counter(st.extra, args, kwargs, result)
            if not hot:
                self.spans.append((frame.span_id, name, start, end,
                                   parent.span_id if parent else None,
                                   threading.get_ident(), self.op))

    # -- reporting -------------------------------------------------------

    @staticmethod
    def boundary_names():
        return {name for _, _, name, _, _ in FUNCTIONS + METHODS}

    @property
    def stats(self):
        """(phase, name) -> Stat, summed over threads."""
        merged = {}
        for table in list(self._tables):
            for key, st in list(table.items()):
                m = merged.get(key)
                if m is None:
                    m = merged[key] = Stat()
                m.calls += st.calls
                m.total_s += st.total_s
                m.self_s += st.self_s
                m.failures += st.failures
                for k, v in st.extra.items():
                    m.extra[k] = m.extra.get(k, 0) + v
        return merged

    def stat(self, name, phase="run"):
        return self.stats.get((phase, name)) or Stat()

    def warning_count(self, metric, phase="run"):
        return self.warnings.get((phase, metric), 0)

    def boundary_table(self, phase="run"):
        """{name: {calls, total_s, self_s, failures, **extra}} for one phase."""
        out = {}
        for (ph, name), st in sorted(self.stats.items()):
            if ph == phase:
                out[name] = {"calls": st.calls, "total_s": st.total_s,
                             "self_s": st.self_s, "failures": st.failures,
                             **st.extra}
        return out

    def pool_figures(self):
        """(most threads running run_game under one cli.main, and
        run_game seconds over cli.main seconds)."""
        mains = {rec[0] for rec in self.spans if rec[1] == "cli.main"}
        threads = {}
        for sid, name, start, end, parent, tid, op in self.spans:
            if name == "bandit.run_game" and parent in mains:
                threads.setdefault(parent, set()).add(tid)
        main_s = self.stat("cli.main").total_s
        game_s = self.stat("bandit.run_game").total_s
        return (max((len(t) for t in threads.values()), default=0),
                game_s / main_s if main_s > 0 else 0.0)
