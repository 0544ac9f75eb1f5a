"""JSON/CSV serialization for bodies, functions, measures, traces, and runs.

All writers produce canonical output (sorted keys, fixed separators, repr
floats) so identical configurations and seeds reproduce byte-identical
files.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .convexfn import MaxAffineFunction
from .errors import ConfigError
from .explore1d import (ExplorationMeasure, FiberLift, PointMass, Pushforward,
                        UniformBall, UniformSegment)
from .explore_nd import BuildReport, StageRecord
from .geometry import AffineMap, ConvexBody


def _listify(x):
    return np.asarray(x, dtype=float).tolist()


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, no whitespace padding."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, allow_nan=False)


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_dumps(config).encode()).hexdigest()[:16]


def save_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1,
                                     ensure_ascii=True, allow_nan=False)
                          + "\n")


def load_json(path):
    """Parsed JSON file; unreadable files, bad JSON, NaN and numbers a float
    cannot hold (integers included) raise ConfigError."""
    def finite(text, kind=float):
        if not math.isfinite(float(text)):
            raise ConfigError(f"non-finite number {text[:24]} in {path}")
        return kind(text)
    try:
        return json.loads(Path(path).read_text(), parse_float=finite,
                          parse_int=lambda text: finite(text, int),
                          parse_constant=finite)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None


# -- bodies ---------------------------------------------------------------------

def body_to_dict(body: ConvexBody) -> dict:
    return {
        "dimension": body.dimension,
        "halfspaces": [{"normal": _listify(a), "offset": float(b)}
                       for a, b in zip(body.normals, body.offsets)],
        "bounding_ball": {"center": _listify(body.ball_center),
                          "radius": float(body.ball_radius)},
    }


def body_from_dict(d: dict) -> ConvexBody:
    try:
        n = int(d["dimension"])
        halfspaces = d.get("halfspaces", [])
        normals = np.array([h["normal"] for h in halfspaces], dtype=float)
        offsets = np.array([h["offset"] for h in halfspaces], dtype=float)
        ball = d.get("bounding_ball")
        center = np.array(ball["center"], dtype=float) if ball else None
        radius = float(ball["radius"]) if ball else None
        return ConvexBody(n, normals, offsets, center, radius)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed body record: {exc!r}") from None


# -- functions -------------------------------------------------------------------

def function_to_dict(f: MaxAffineFunction) -> dict:
    d = {
        "dimension": f.dimension,
        "eta": 0.0,
        "pieces": [{"a": float(a), "y": _listify(y)}
                   for a, y in zip(f.offsets, f.slopes)],
    }
    if f.form is not None:
        d["quad"] = [_listify(row) for row in f.form]
    return d


def function_from_dict(d: dict) -> MaxAffineFunction:
    try:
        offsets = [p["a"] for p in d["pieces"]]
        slopes = [p["y"] for p in d["pieces"]]
        eta = float(d.get("eta", 0.0))
        quad = d.get("quad")
        f = MaxAffineFunction(offsets, slopes, eta,
                              np.array(quad, dtype=float) if quad else None)
        dimension = int(d.get("dimension", f.dimension))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed function record: {exc}") from None
    if f.dimension != dimension:
        raise ConfigError("function pieces disagree with declared dimension")
    return f


# -- measures --------------------------------------------------------------------

def _component_to_dict(comp) -> dict:
    if isinstance(comp, PointMass):
        return {"kind": "atom", "point": _listify(comp.point)}
    if isinstance(comp, UniformSegment):
        return {"kind": "segment", "lo": float(comp.lo), "hi": float(comp.hi)}
    if isinstance(comp, UniformBall):
        return {"kind": "ball", "center": _listify(comp.center),
                "radius": float(comp.radius)}
    if isinstance(comp, Pushforward):
        return {"kind": "pushforward",
                "matrix": [_listify(r) for r in comp.map.matrix],
                "offset": _listify(comp.map.offset),
                "inner": measure_to_dict(comp.inner)}
    if isinstance(comp, FiberLift):
        return {"kind": "fiberlift",
                "base": measure_to_dict(comp.base),
                "anchor": _listify(comp.anchor),
                "frame": [_listify(r) for r in comp.frame],
                "direction": _listify(comp.direction),
                "host": body_to_dict(comp.host)}
    raise ConfigError(f"unknown component type {type(comp).__name__}")


def _component_from_dict(d: dict):
    kind = d.get("kind")
    if kind == "atom":
        return PointMass(np.array(d["point"], dtype=float))
    if kind == "segment":
        return UniformSegment(float(d["lo"]), float(d["hi"]))
    if kind == "ball":
        return UniformBall(np.array(d["center"], dtype=float),
                           float(d["radius"]))
    if kind == "pushforward":
        amap = AffineMap(np.array(d["matrix"], dtype=float),
                         np.array(d["offset"], dtype=float))
        return Pushforward(amap, measure_from_dict(d["inner"]))
    if kind == "fiberlift":
        return FiberLift(measure_from_dict(d["base"]),
                         np.array(d["anchor"], dtype=float),
                         np.array(d["frame"], dtype=float),
                         np.array(d["direction"], dtype=float),
                         body_from_dict(d["host"]))
    raise ConfigError(f"unknown measure component kind {kind!r}")


def measure_to_dict(mu: ExplorationMeasure) -> dict:
    return {"components": [dict(_component_to_dict(comp), weight=w)
                           for w, comp in zip(mu.weights, mu.components)]}


def measure_from_dict(d: dict) -> ExplorationMeasure:
    """A measure from its record; a ``weight_exact`` field, which older files
    carry next to ``weight``, is ignored."""
    try:
        comps = d["components"]
        return ExplorationMeasure([float(c["weight"]) for c in comps],
                                  [_component_from_dict(c) for c in comps])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed measure record: {exc}") from None


# -- construction traces -----------------------------------------------------------

def _patch_to_dict(p) -> dict:
    return {"center": _listify(p.center), "direction": _listify(p.direction),
            "scale": float(p.scale), "radius": float(p.radius),
            "fraction": float(p.fraction), "sample_count": p.sample_count,
            "xi": float(p.xi)}


def _stage_to_dict(s: StageRecord) -> dict:
    return {
        "index": s.index,
        "whiten": [_listify(r) for r in s.whiten],
        "width_before": float(s.width_before),
        "patches": [_patch_to_dict(p) for p in s.patches],
        "separator_count": s.separator_count,
        "raw_patch_count": s.raw_patch_count,
        "failures": s.failures,
        "hull_norm": float(s.hull_norm),
        "inscribed_radius": float(s.inscribed_radius),
        "slab_direction": _listify(s.slab_direction),
        "slab_halfwidth": float(s.slab_halfwidth),
        "volume_ratio": float(s.volume),
    }


def report_to_dict(report: BuildReport) -> dict:
    d = {
        "dimension": report.dimension,
        "profile": report.profile,
        "capped": bool(report.capped),
        "stages": [_stage_to_dict(s) for s in report.stages],
    }
    if report.direction is not None:
        d["direction"] = _listify(report.direction)
        d["base_point"] = _listify(report.base_point)
        d["slab_halfwidth"] = float(report.slab_halfwidth)
    if report.child is not None:
        d["child"] = report_to_dict(report.child)
    return d


# -- scenario files ----------------------------------------------------------------

def scenario_file_to_dict(functions, prior, horizon: int,
                          body: ConvexBody | None = None) -> dict:
    d = {
        "T": int(horizon),
        "net_spacing_rule": "inv_sqrt_T",
        "scenarios": [{"weight": float(w),
                       "losses": [function_to_dict(fn) for fn in
                                  (seq if isinstance(seq, (list, tuple))
                                   else [seq])]}
                      for w, seq in zip(prior, functions)],
    }
    if body is not None:
        d["body"] = body_to_dict(body)
    return d


def _numbers(obj):
    """``obj`` with its lists made tuples, at any depth: a hashable key."""
    return tuple(map(_numbers, obj)) if isinstance(obj, list) else obj


def scenario_file_from_dict(d: dict, base_dir: Path | None = None):
    """Returns (sequences, prior, horizon, body_or_None).

    A scenario's ``losses`` list holds inline function records or
    ``{"ref": path}`` entries; a single loss means a constant sequence.
    Each distinct record (by resolved path, or by its numbers, which match
    when equal: 1 and 1.0, 0.0 and -0.0) gives one loss object, shared by
    every entry that repeats it.
    """
    try:
        horizon = int(d["T"])
        raw = list(d["scenarios"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed scenario file: {exc}") from None
    if d.get("net_spacing_rule", "inv_sqrt_T") != "inv_sqrt_T":
        raise ConfigError("unsupported net spacing rule")
    sequences, prior, loaded = [], [], {}
    for s in raw:
        try:
            prior.append(float(s["weight"]))
            losses = []
            for rec in s["losses"]:
                if "ref" in rec:
                    ref = Path(rec["ref"])
                    if base_dir is not None and not ref.is_absolute():
                        ref = base_dir / ref
                    key = ref.resolve()
                    if key not in loaded:
                        rec = load_json(ref)
                else:
                    key = _numbers([rec.get("dimension"), rec.get("eta"),
                                    rec.get("quad"),
                                    [[p["a"], p["y"]] for p in rec["pieces"]]])
                if key not in loaded:
                    loaded[key] = function_from_dict(rec)
                losses.append(loaded[key])
        except ConfigError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed scenario entry: {exc!r}") from None
        if len(losses) == 1:
            sequences.append(losses[0])
        elif len(losses) == horizon:
            sequences.append(losses)
        else:
            raise ConfigError("losses must have length 1 or T")
    body = body_from_dict(d["body"]) if "body" in d else None
    return sequences, np.array(prior), horizon, body


# -- run records --------------------------------------------------------------------

CSV_HEADER = "seed,t,x,loss,r_t,v_t,cum_regret,cum_info,action_kind"


def records_to_csv(per_seed_records) -> str:
    """CSV text for {seed: [RoundRecord, ...]}, rows sorted by (seed, t).

    Numbers are written by ``repr``, so a record holds Python floats and a
    1-D array x, as ``run_game``'s records do.
    """
    lines = [CSV_HEADER]
    for seed in sorted(per_seed_records):
        lines += [f"{seed},{t},{';'.join(map(repr, x.tolist()))},{loss!r},"
                  f"{r_t!r},{v_t!r},{cum_regret!r},{cum_info!r},{kind}"
                  for t, x, loss, r_t, v_t, cum_regret, cum_info, kind
                  in per_seed_records[seed]]
    return "\n".join(lines) + "\n"
