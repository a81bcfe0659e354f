"""Span tracing around covario's layer boundaries, from outside the package.

A traced repetition replaces selected covario functions by wrappers that
record one span per call: (id, name, start, end, parent, run id, attributes).
Spans stay in memory and are written as JSONL when the repetition ends.
`layer_metrics` turns such a file into the per-layer numbers.  Nothing under
`src/` is modified; untraced repetitions never call `install`.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter


def _count_of(value):
    shape = getattr(value, "shape", None)
    if shape is not None:
        n = 1
        for d in shape:
            n *= d
        return n
    if hasattr(value, "__len__"):
        return len(value)
    return 1


def _ray_attrs(args, kwargs, result):
    ctx = args[0]
    zetas = args[1] if len(args) > 1 else kwargs.get("zeta", kwargs.get("zetas"))
    return {"n": _count_of(zetas), "nodes": int(ctx.nodes.shape[0])}


# (module, attribute path, attributes recorded from (args, kwargs, result))
TARGETS = [
    ("covario.geometry", "SupportBody.__post_init__", None),
    ("covario.geometry", "polygonal_approximation", None),
    ("covario.radon", "chord_function", None),
    ("covario.radon", "ChordFunction.__call__", lambda a, k, r: {"n": _count_of(a[1])}),
    ("covario._quadrature", "panel_table",
     lambda a, k, r: {"n": int(r[0].shape[0]) if r is not None else 0}),
    ("covario.fourier_laplace", "build_context",
     lambda a, k, r: {"n": int(r.nodes.shape[0]) if r is not None else 0}),
    ("covario.fourier_laplace", "flt_ray", _ray_attrs),
    ("covario.fourier_laplace", "flt_ray_derivative", _ray_attrs),
    ("covario.fourier_laplace", "flt_ray_many", _ray_attrs),
    ("covario.fourier_laplace", "track_zero",
     lambda a, k, r: {"validated": bool(r is not None and r.validated)}),
    ("covario.fourier_laplace", "winding_number", None),
    ("covario.covariogram", "_pair_area", None),
    ("covario.covariogram", "cross_covariogram_grid",
     lambda a, k, r: {"n": int(r.values.size) if r is not None else 0}),
    ("covario.covariogram", "curvature_pair_from_covariogram", None),
    ("covario.covariogram", "clip_areas_batch",
     lambda a, k, r: {"n": int(r.shape[0]) if r is not None else 0}),
    ("covario.asymptotics", "kobayashi_report", None),
    ("covario.asymptotics", "determination_experiment", None),
    ("covario.asymptotics", "crosscov_counterexample", None),
    ("covario.oracles", "paraboloid_volume",
     lambda a, k, r: {"n": int(r.estimate.n) if r is not None else 0}),
    ("covario.oracles", "matrix_identities", None),
    ("covario.oracles", "bessel_j1_zero", None),
    ("covario.cli", "suite_matrix_identities", None),
    ("covario.cli", "suite_paraboloid", None),
    ("covario.cli", "suite_factorization", None),
    ("covario.cli", "suite_counterexample", None),
    ("covario.cli", "suite_kobayashi_disk", None),
    ("covario.cli", "suite_properties", None),
    ("covario._parallel", "parallel_map",
     lambda a, k, r: {"n": len(r) if r is not None else 0}),
    ("covario._parallel", "thread_count", lambda a, k, r: {"workers": r or 0}),
]

# lru caches read with cache_info() at the end of a repetition
CACHES = [
    ("covario.radon", "chord_function", "radon.chord_function"),
    ("covario.covariogram", "_clip_fan", "covariogram.fan_cache"),
]


class Tracer:
    """In-memory span recorder for one repetition (one process)."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counters = {}
        self._stack = []
        self._ids = itertools.count(1)
        self._caches = {}

    def wrap(self, fn, name, attrs=None):
        """fn with every call recorded as a span called name."""
        spans, stack, ids = self.spans, self._stack, self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                extra = attrs(args, kwargs, result) if attrs is not None else None
                spans.append((sid, name, start, end, parent, extra))

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every TARGETS function, in every covario module that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "covario" or n.startswith("covario.")]
        for mod_name, cache_attr, label in CACHES:
            self._caches[label] = getattr(sys.modules[mod_name], cache_attr)
        for mod_name, path, attrs in TARGETS:
            owner = sys.modules[mod_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            name = mod_name.removeprefix("covario.") + "." + path
            wrapped = self.wrap(original, name, attrs)
            if cls_path:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def read_caches(self):
        for label, cached in self._caches.items():
            info = cached.cache_info()
            self.counters[label + ".hits"] = info.hits
            self.counters[label + ".misses"] = info.misses

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, extra in self.spans:
                rec = {"type": "span", "id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "run": self.run_id}
                if extra:
                    rec["attrs"] = extra
                fh.write(json.dumps(rec) + "\n")
            for name, value in sorted(self.counters.items()):
                fh.write(json.dumps({"type": "counter", "name": name, "value": value,
                                     "run": self.run_id}) + "\n")


class NullTracer:
    """Stand-in for untraced repetitions: wraps nothing."""

    def wrap(self, fn, name, attrs=None):
        return fn


def read_trace(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _pct(values, q):
    """Percentile q in (0, 100) by linear interpolation; 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[q - 1])


# metric prefix -> span names it aggregates
FLT_SPANS = ("fourier_laplace.flt_ray", "fourier_laplace.flt_ray_derivative",
             "fourier_laplace.flt_ray_many")
SUITE_SPANS = {
    "matrix-identities": "cli.suite_matrix_identities",
    "paraboloid": "cli.suite_paraboloid",
    "factorization": "cli.suite_factorization",
    "counterexample": "cli.suite_counterexample",
    "kobayashi-disk": "cli.suite_kobayashi_disk",
    "properties": "cli.suite_properties",
}


def layer_metrics(records):
    """Per-layer metrics of one repetition from its span and counter records."""
    spans = [r for r in records if r["type"] == "span"]
    counters = {r["name"]: r["value"] for r in records if r["type"] == "counter"}
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(dur(s) for s in by_name[name])

    def work(name, key="n"):
        return sum(s.get("attrs", {}).get(key, 0) for s in by_name[name])

    def self_time(name):
        return sum(dur(s) - sum(dur(c) for c in children[s["id"]]) for s in by_name[name])

    def child_calls(s, name):
        return sum(1 for c in children[s["id"]] if c["name"] == name)

    m = {}
    m["geometry.body_init.s"] = busy("geometry.SupportBody.__post_init__")
    m["geometry.polygonal_approximation.calls"] = calls("geometry.polygonal_approximation")
    m["geometry.polygonal_approximation.s"] = busy("geometry.polygonal_approximation")

    m["radon.chord_function.calls"] = calls("radon.chord_function")
    m["radon.chord_function.hits"] = counters.get("radon.chord_function.hits", 0)
    m["radon.chord_eval.points"] = work("radon.ChordFunction.__call__")
    m["radon.chord_eval.s"] = busy("radon.ChordFunction.__call__")

    m["quadrature.panel_table.calls"] = calls("_quadrature.panel_table")
    m["quadrature.panel_table.nodes"] = work("_quadrature.panel_table")
    m["quadrature.panel_table.s"] = busy("_quadrature.panel_table")

    m["fourier_laplace.build_context.calls"] = calls("fourier_laplace.build_context")
    m["fourier_laplace.build_context.nodes"] = work("fourier_laplace.build_context")
    m["fourier_laplace.build_context.self_s"] = self_time("fourier_laplace.build_context")

    flt = [s for name in FLT_SPANS for s in by_name[name]]
    m["fourier_laplace.flt.evals"] = sum(s["attrs"]["n"] for s in flt)
    m["fourier_laplace.flt.s"] = sum(dur(s) for s in flt)
    m["fourier_laplace.flt.node_products"] = sum(s["attrs"]["n"] * s["attrs"]["nodes"]
                                                 for s in flt)

    tz = by_name["fourier_laplace.track_zero"]
    tz_ms = [1e3 * dur(s) for s in tz]
    m["fourier_laplace.track_zero.calls"] = len(tz)
    m["fourier_laplace.track_zero.self_s"] = self_time("fourier_laplace.track_zero")
    m["fourier_laplace.track_zero.ms.p50"] = _pct(tz_ms, 50)
    m["fourier_laplace.track_zero.ms.p90"] = _pct(tz_ms, 90)
    # each Newton step evaluates the derivative once (plus one final residual
    # scale); each damping candidate that passes the Im cap evaluates f once
    # (plus f at the start point)
    iterations = sum(max(child_calls(s, "fourier_laplace.flt_ray_derivative") - 1, 0) for s in tz)
    candidates = sum(max(child_calls(s, "fourier_laplace.flt_ray") - 1, 0) for s in tz)
    m["fourier_laplace.newton.iterations"] = iterations
    m["fourier_laplace.newton.candidates"] = candidates
    m["fourier_laplace.newton.accept_ratio"] = iterations / candidates if candidates else 0.0

    wind = by_name["fourier_laplace.winding_number"]
    m["fourier_laplace.winding.calls"] = len(wind)
    m["fourier_laplace.winding.s"] = sum(dur(s) for s in wind)
    m["fourier_laplace.winding.contour_points"] = sum(
        c["attrs"]["n"] for s in wind for c in children[s["id"]]
        if c["name"] == "fourier_laplace.flt_ray_many")
    validated = sum(1 for s in tz if s.get("attrs", {}).get("validated"))
    m["fourier_laplace.validated_ratio"] = validated / len(tz) if tz else 0.0

    pts_us = [1e6 * dur(s) for s in by_name["covariogram._pair_area"]]
    m["covariogram.point.calls"] = len(pts_us)
    m["covariogram.point.s"] = busy("covariogram._pair_area")
    m["covariogram.point.us.p50"] = _pct(pts_us, 50)
    m["covariogram.point.us.p90"] = _pct(pts_us, 90)
    m["covariogram.grid.points"] = work("covariogram.cross_covariogram_grid")
    m["covariogram.grid.s"] = busy("covariogram.cross_covariogram_grid")
    m["covariogram.curvature_pair.calls"] = calls("covariogram.curvature_pair_from_covariogram")
    m["covariogram.curvature_pair.s"] = busy("covariogram.curvature_pair_from_covariogram")
    m["covariogram.fan_cache.hits"] = counters.get("covariogram.fan_cache.hits", 0)
    m["covariogram.fan_cache.misses"] = counters.get("covariogram.fan_cache.misses", 0)
    m["covariogram.clip_batch.translations"] = work("covariogram.clip_areas_batch")
    m["covariogram.clip_batch.s"] = busy("covariogram.clip_areas_batch")

    m["asymptotics.kobayashi_report.self_s"] = self_time("asymptotics.kobayashi_report")
    m["asymptotics.determination.g_calls"] = calls("asymptotics.determination.g")
    m["asymptotics.determination.self_s"] = self_time("asymptotics.determination_experiment")
    m["asymptotics.counterexample.calls"] = calls("asymptotics.crosscov_counterexample")
    m["asymptotics.counterexample.s"] = busy("asymptotics.crosscov_counterexample")

    m["oracles.paraboloid_volume.samples"] = work("oracles.paraboloid_volume")
    m["oracles.paraboloid_volume.s"] = busy("oracles.paraboloid_volume")
    m["oracles.matrix_identities.s"] = busy("oracles.matrix_identities")
    m["oracles.bessel_j1_zero.s"] = busy("oracles.bessel_j1_zero")
    for suite, span in SUITE_SPANS.items():
        m[f"cli.suite.{suite}.s"] = busy(span)

    m["parallel.parallel_map.items"] = work("_parallel.parallel_map")
    m["parallel.workers"] = max((s["attrs"]["workers"] for s in by_name["_parallel.thread_count"]),
                                default=0)
    return m


# unit of every per-layer metric, by name suffix
def layer_unit(name):
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    if ".ms." in name:
        return "ms"
    if ".us." in name:
        return "us"
    if name.endswith("_ratio") or name == "trace.overhead":
        return "ratio"
    return "count"
