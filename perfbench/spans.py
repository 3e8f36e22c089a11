"""Span recorder that wraps okubo's public functions from outside.

Nothing under src/ is edited: `install` replaces each target function or
method with a wrapper in every loaded okubo module that holds a reference
to it (``from .x import f`` copies the reference), and `uninstall` puts
the originals back.  A span is (name, layer, start_ns, end_ns, parent,
op_id, info); spans stay in memory and are written when the run ends.
A layer's self time is the sum over its spans of the span's duration
minus the time its direct child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from fractions import Fraction

# (layer, module, attribute or Class.method, span name)
TARGETS = (
    ("exact", "okubo.exact", "mat_mul", "exact.mat_mul"),
    ("exact", "okubo.exact", "RationalMatrix.inverse", "exact.inverse"),
    ("exact", "okubo.exact", "RationalMatrix.det", "exact.det"),
    ("exact", "okubo.exact", "RationalMatrix.char_poly", "exact.char_poly"),
    ("exact", "okubo.exact", "RationalMatrix.left_null_space",
     "exact.left_null_space"),
    ("exact", "okubo.exact", "PolyMatrix.__mul__",
     "exact.PolyMatrix.__mul__"),
    ("exact", "okubo.exact", "PolyMatrix.det", "exact.PolyMatrix.det"),
    ("exact", "okubo.exact", "poly_adjugate", "exact.poly_adjugate"),
    ("exact", "okubo.exact", "left_eigenvectors", "exact.left_eigenvectors"),
    ("hgsystem", "okubo.hgsystem", "build_product_system",
     "hgsystem.build_product_system"),
    ("hgsystem", "okubo.hgsystem", "build_okubo_system",
     "hgsystem.build_okubo_system"),
    ("hgsystem", "okubo.hgsystem", "build_diagonalizer",
     "hgsystem.build_diagonalizer"),
    ("hgsystem", "okubo.hgsystem", "gauge_matrix", "hgsystem.gauge_matrix"),
    ("hgsystem", "okubo.hgsystem", "contiguous_product_matrix",
     "hgsystem.contiguous_product_matrix"),
    ("accessory", "okubo.accessory", "substantially_same",
     "accessory.substantially_same"),
    ("accessory", "okubo.accessory", "solve_accessory",
     "accessory.solve_accessory"),
    ("accessory", "okubo.accessory", "realize_product_system",
     "accessory.realize_product_system"),
    ("accessory", "okubo.accessory", "recover_chart",
     "accessory.recover_chart"),
    ("accessory", "okubo.accessory", "okubo_from_chart",
     "accessory.okubo_from_chart"),
    ("accessory", "okubo.accessory", "cubic_blocks", "accessory.cubic_blocks"),
    ("accessory", "okubo.accessory", "difference_systems",
     "accessory.difference_systems"),
    ("accessory", "okubo.accessory", "epsilon_delta",
     "accessory.epsilon_delta"),
    ("accessory", "okubo.accessory", "special_matrix",
     "accessory.special_matrix"),
    ("series", "okubo.series", "local_series", "series.local_series"),
    ("series", "okubo.series", "residual_report", "series.residual_report"),
    ("series", "okubo.series", "hyp2f1_jet", "series.hyp2f1"),
    ("series", "okubo.series", "product_vector_w", "series.product_vector_w"),
    ("series", "okubo.series", "w_residual", "series.w_residual"),
    ("series", "okubo.series", "contiguous_product_vector",
     "series.contiguous_product_vector"),
    ("series", "okubo.series", "v_via_transform", "series.v_via_transform"),
    ("series", "okubo.series", "v_residual", "series.v_residual"),
    ("dotsenko_fateev", "okubo.dotsenko_fateev", "df_integral_solution",
     "dotsenko_fateev.df_integral_solution"),
    ("dotsenko_fateev", "okubo.dotsenko_fateev", "check_df_transformation",
     "dotsenko_fateev.check_df_transformation"),
    ("dotsenko_fateev", "okubo.dotsenko_fateev", "euler_reduce",
     "dotsenko_fateev.euler_reduce"),
    ("sampling", "okubo.sampling", "rand_fraction", "sampling.rand_fraction"),
    ("sampling", "okubo.sampling", "draw_exponents", "sampling.draw"),
    ("sampling", "okubo.sampling", "draw_generic_params", "sampling.draw"),
    ("sampling", "okubo.sampling", "draw_okubo_params", "sampling.draw"),
    ("sampling", "okubo.sampling", "draw_chart", "sampling.draw"),
    ("sampling", "okubo.sampling", "draw_special_chart", "sampling.draw"),
    ("sampling", "okubo.sampling", "draw_perturbed_chart", "sampling.draw"),
    ("sampling", "okubo.sampling", "draw_df_params", "sampling.draw"),
    ("verify", "okubo.verify", "run_criterion", "verify.criterion"),
)

#: the criteria of okubo.verify, in report order
CRITERIA = ("1a-infinity-factorization", "1b-gauge-and-diagonalizer",
            "1c-cubic-blocks", "1d-sameness-biconditional",
            "1e-special-value-branches", "1f-realization", "1g-dual-verdict",
            "1h-size-three-reduction", "2a-product-vector-residual",
            "2b-contiguous-dual-path", "2c-local-series-residuals",
            "2d-integral-solution-residual")

#: point evaluations whose exact rebuilds `hgsystem.calls_per_point` counts
POINT_EVALUATIONS = ("series.product_vector_w", "series.w_residual",
                     "series.contiguous_product_vector",
                     "series.v_via_transform", "series.v_residual")
HG_BUILDS = ("hgsystem.build_product_system", "hgsystem.build_okubo_system",
               "hgsystem.build_diagonalizer", "hgsystem.gauge_matrix",
               "hgsystem.contiguous_product_matrix")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _info_local_series(args, kwargs, result):
    sols = list(result)
    bits = 0
    if sols and sols[0].exact:
        bits = max(Fraction(c).denominator.bit_length()
                   for sol in sols for vec in sol.coeffs for c in vec)
    return {"mode": _arg(args, kwargs, 4, "mode", "float"),
            "terms": _arg(args, kwargs, 3, "terms", 80),
            "solutions": len(sols),
            "vectors": sum(len(sol.coeffs) for sol in sols),
            "den_bits": bits}


def _info_jet(args, kwargs, result):
    value = abs(result.value)
    return {"rel_tail": result.tail / value if value else float("inf")}


def _info_residual(args, kwargs, result):
    return {"points": len(result.sample_points)}


def _info_sameness(args, kwargs, result):
    return {"pair": _arg(args, kwargs, 1, "point_pair", "1-inf"),
            "verdict": bool(result.verdict)}


def _info_df_solution(args, kwargs, result):
    return {"nodes": result.nodes,
            "refinement": result.refinement_difference}


def _info_criterion(args, kwargs, result):
    return {"criterion": _arg(args, kwargs, 0, "name")}


def _info_point(args, kwargs, result):
    x = complex(_arg(args, kwargs, 1, "x"))
    return {"x": (x.real, x.imag)}


INFO = {
    "series.local_series": _info_local_series,
    "series.hyp2f1": _info_jet,
    "series.residual_report": _info_residual,
    "accessory.substantially_same": _info_sameness,
    "dotsenko_fateev.df_integral_solution": _info_df_solution,
    "verify.criterion": _info_criterion,
    **{name: _info_point for name in POINT_EVALUATIONS},
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = -1
        self.paused = False
        self.missing = []
        self._restore = []

    def record(self, name, layer, fn, args=(), kwargs=None):
        """Call fn(*args, **kwargs) inside a span and return its result."""
        kwargs = kwargs or {}
        if self.paused:
            return fn(*args, **kwargs)
        span = [name, layer, 0, 0, self.stack[-1] if self.stack else -1,
                self.op_id, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter_ns()
            self.stack.pop()
        info = INFO.get(name)
        if info is not None:
            span[6] = info(args, kwargs, result)
        return result

    def _wrapper(self, name, layer, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.record(name, layer, fn, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "okubo" or key.startswith("okubo.")]
        for layer, modname, attr, name in TARGETS:
            module = importlib.import_module(modname)
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = holder.__dict__.get(leaf) if holder is not None else None
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self._wrapper(name, layer, original)
            self._restore.append((holder, leaf, original))
            setattr(holder, leaf, wrapped)
            if owner:
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original and mod is not holder:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, t0, t1, parent, op, info in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer,
                                     "start_ns": t0, "end_ns": t1,
                                     "parent": parent, "op": op,
                                     "info": info}) + "\n")


def self_times(spans) -> list:
    """Duration minus the time covered by direct children, per span."""
    child = [0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            child[span[4]] += span[3] - span[2]
    return [(s[3] - s[2] - c) / 1e9 for s, c in zip(spans, child)]


def _ancestor_in(spans, index, names) -> bool:
    parent = spans[index][4]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][4]
    return False


def _mean(total, count, scale=1.0):
    return total / count * scale if count else 0.0


def layer_metrics(spans, criteria=()) -> dict:
    """Per-layer metrics from one traced cycle (see BENCHMARK.json)."""
    selfs = self_times(spans)
    out = {}
    layers = ("exact", "hgsystem", "accessory", "dotsenko_fateev",
              "sampling")
    for layer in layers:
        out[f"{layer}.self_s"] = sum(
            t for s, t in zip(spans, selfs) if s[1] == layer)
    series_exact = series_float = 0.0
    for s, t in zip(spans, selfs):
        if s[1] != "series":
            continue
        if s[0] == "series.local_series" and s[6] and s[6]["mode"] == "exact":
            series_exact += t
        else:
            series_float += t
    out["series.self_s.exact"] = series_exact
    out["series.self_s.float"] = series_float

    calls, total = {}, {}
    for s in spans:
        calls[s[0]] = calls.get(s[0], 0) + 1
        total[s[0]] = total.get(s[0], 0) + (s[3] - s[2]) / 1e9

    def count(name):
        return calls.get(name, 0)

    def mean(name, scale):
        return _mean(total.get(name, 0.0), calls.get(name, 0), scale)

    for op in ("mat_mul", "inverse", "det", "char_poly", "left_null_space",
               "PolyMatrix.__mul__"):
        out[f"exact.{op}.calls"] = count(f"exact.{op}")
        out[f"exact.{op}.us"] = mean(f"exact.{op}", 1e6)
    for op in ("build_okubo_system", "build_diagonalizer",
               "build_product_system"):
        out[f"hgsystem.{op}.calls"] = count(f"hgsystem.{op}")
        out[f"hgsystem.{op}.ms"] = mean(f"hgsystem.{op}", 1e3)
    points = set()
    rebuilds = 0
    for i, s in enumerate(spans):
        if s[0] in POINT_EVALUATIONS and not _ancestor_in(
                spans, i, POINT_EVALUATIONS):
            points.add((s[5], s[6]["x"]))
        elif s[0] in HG_BUILDS and _ancestor_in(spans, i, POINT_EVALUATIONS):
            rebuilds += 1
    out["hgsystem.calls_per_point"] = _mean(rebuilds, len(points))

    same = [s for s in spans if s[0] == "accessory.substantially_same"]
    for pair in ("1-inf", "0-inf"):
        group = [s for s in same if s[6]["pair"] == pair]
        out[f"accessory.substantially_same.{pair}.ms"] = _mean(
            sum(s[3] - s[2] for s in group) / 1e9, len(group), 1e3)
    out["accessory.solve_accessory.ms"] = mean("accessory.solve_accessory",
                                               1e3)
    out["accessory.realize_product_system.ms"] = mean(
        "accessory.realize_product_system", 1e3)
    out["accessory.verdict_true_share"] = _mean(
        sum(1 for s in same if s[6]["verdict"]), len(same))

    series = [s for s in spans if s[0] == "series.local_series"]
    for mode in ("exact", "float"):
        for terms in (80, 400):
            group = [s for s in series
                     if s[6]["mode"] == mode and s[6]["terms"] == terms]
            out[f"series.{mode}.{terms}.ms"] = _mean(
                sum(s[3] - s[2] for s in group) / 1e9,
                sum(s[6]["solutions"] for s in group), 1e3)
    out["series.coeff_vectors"] = sum(s[6]["vectors"] for s in series)
    out["series.exact.max_den_bits"] = max(
        [s[6]["den_bits"] for s in series], default=0)
    residual = [s for s in spans if s[0] == "series.residual_report"]
    out["series.residual.us_per_point"] = _mean(
        sum(s[3] - s[2] for s in residual) / 1e9,
        sum(s[6]["points"] for s in residual), 1e6)
    out["series.hyp2f1.calls"] = count("series.hyp2f1")
    out["series.hyp2f1.us"] = mean("series.hyp2f1", 1e6)
    out["series.hyp2f1.max_rel_tail"] = max(
        [s[6]["rel_tail"] for s in spans if s[0] == "series.hyp2f1"],
        default=0.0)
    out["series.v_via_transform.us"] = mean("series.v_via_transform", 1e6)
    out["series.w_residual.us"] = mean("series.w_residual", 1e6)

    df_runs = [s for s in spans
               if s[0] == "dotsenko_fateev.df_integral_solution" and s[6]]
    out["dotsenko_fateev.df_integral_solution.ms"] = mean(
        "dotsenko_fateev.df_integral_solution", 1e3)
    out["dotsenko_fateev.nodes"] = sum(s[6]["nodes"] for s in df_runs)
    out["dotsenko_fateev.refinement_difference.max"] = max(
        [s[6]["refinement"] for s in df_runs], default=0.0)
    out["dotsenko_fateev.check_df_transformation.ms"] = mean(
        "dotsenko_fateev.check_df_transformation", 1e3)

    top_draws = [i for i, s in enumerate(spans) if s[0] == "sampling.draw"
                 and not _ancestor_in(spans, i, ("sampling.draw",))]
    out["sampling.draws"] = len(top_draws)
    out["sampling.candidates_per_draw"] = _mean(
        count("sampling.rand_fraction"), len(top_draws))

    crit = {}
    for s in spans:
        if s[0] == "verify.criterion":
            crit.setdefault(s[6]["criterion"], []).append((s[3] - s[2]) / 1e9)
    for name in criteria:
        times = crit.get(name, [])
        out[f"verify.{name}.s"] = _mean(sum(times), len(times))
    out["trace.spans"] = len(spans)
    return out
