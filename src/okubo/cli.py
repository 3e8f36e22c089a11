"""Batch command-line interface.

Every subcommand reads rationals as 'p/q' strings (inline flags or JSON
parameter files), emits a JSON report, and uses the exit code to state
its verdict: 0 for success / verdict-true / residual below tolerance,
1 for verdict-false or an exceeded tolerance, 2 for input errors, 3 for
an internal inconsistency (a bug, never a verdict).  Each subcommand
accepts only the flags its handler reads (COMMANDS); any other flag is a
usage error, which argparse reports with exit code 2.  The
environment variable OKUBO_PRECISION overrides the default float
comparison tolerance of 1e-10.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import accessory, dotsenko_fateev as df, hgsystem, sampling, series, \
    verify
from .errors import InputError, InternalInconsistency, OkuboError
from .exact import matrix_from_json, to_fraction

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _tolerance() -> float:
    raw = os.environ.get("OKUBO_PRECISION", "1e-10")
    try:
        return float(raw)
    except ValueError as exc:
        raise InputError(f"bad OKUBO_PRECISION value {raw!r}") from exc


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _emit(report: dict, out: str = None):
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _hg_params(args) -> hgsystem.HGParams:
    if not args.params:
        raise InputError("this command needs --params FILE")
    return hgsystem.HGParams.from_json(_load_json(args.params))


def _df_params(args) -> df.DFParams:
    if args.params:
        return df.DFParams.from_json(_load_json(args.params))
    if all(getattr(args, k) is not None for k in ("a", "b", "c", "g")):
        return df.DFParams(to_fraction(args.a), to_fraction(args.b),
                           to_fraction(args.c), to_fraction(args.g))
    raise InputError("need --params FILE or all of --a --b --c --g")


def _abcd(args) -> tuple:
    vals = (args.a, args.b, args.c, args.d)
    if any(v is None for v in vals):
        raise InputError("need all of --a --b --c --d")
    return tuple(to_fraction(v) for v in vals)


def _system_from_args(args) -> hgsystem.OkuboSystem:
    if args.chart:
        chart = accessory.AccessoryChart.from_json(_load_json(args.chart))
        return accessory.okubo_from_chart(chart)
    if args.params:
        _, system = hgsystem.build_okubo_system(_hg_params(args))
        return system
    if args.a is not None:
        _, system = accessory.solve_accessory(*_abcd(args), args.branch)
        return system
    raise InputError("need --chart, --params, or --a/--b/--c/--d")


# --------------------------------------------------------------------------
# subcommand handlers: each returns (report dict, exit code)
# --------------------------------------------------------------------------

def cmd_build_product(args):
    p = _hg_params(args)
    sys_ = hgsystem.build_product_system(p)
    return {"params": p.to_json(),
            "residue_at_0": sys_.residue_at_0.to_strings(),
            "residue_at_1": sys_.residue_at_1.to_strings(),
            "infinity_exponents": [str(e) for e in
                                   hgsystem.infinity_exponents(p)]}, EXIT_OK


def cmd_build_okubo(args):
    p = _hg_params(args)
    gauge, system = hgsystem.build_okubo_system(p)
    return {"params": p.to_json(),
            "gauge": gauge.to_strings(),
            "coeff": system.coeff.to_strings(),
            "exponents": {"a": str(system.a), "b": str(system.b),
                          "c": str(system.c), "d": str(system.d)}}, EXIT_OK


def cmd_recover_chart(args):
    if not args.matrix:
        raise InputError("recover-chart needs --matrix FILE")
    matrix = matrix_from_json(_load_json(args.matrix))
    a, b, c, d = _abcd(args)
    diag, chart = accessory.recover_chart(matrix, a, b, c, d)
    return {"diag": diag.to_strings(),
            "chart": chart.to_json()}, EXIT_OK


def cmd_solve_accessory(args):
    a, b, c, d = _abcd(args)
    scale = to_fraction(args.scale)
    chart, system = accessory.solve_accessory(a, b, c, d, args.branch, scale)
    return {"chart": chart.to_json(),
            "coeff": system.coeff.to_strings(),
            "branch": args.branch}, EXIT_OK


def cmd_check_same(args):
    if not args.chart:
        raise InputError("check-same needs --chart FILE")
    chart = accessory.AccessoryChart.from_json(_load_json(args.chart))
    verdict = accessory.substantially_same(chart, args.pair)
    report = verdict.to_json()
    return report, EXIT_OK if verdict.verdict else EXIT_FALSE


def cmd_verify_realize(args):
    p = _hg_params(args)
    report = accessory.realize_product_system(p)
    return report.to_json(), EXIT_OK if report.verdict else EXIT_FALSE


def cmd_series(args):
    system = _system_from_args(args)
    sols = series.local_series(system, args.base, args.index, args.terms,
                               args.mode)
    return {"base": args.base, "index": args.index, "mode": args.mode,
            "solutions": [s.to_json() for s in sols]}, EXIT_OK


def cmd_residual(args):
    system = _system_from_args(args)
    sols = series.local_series(system, args.base, args.index, args.terms,
                               args.mode)
    rng = sampling.rng_for(args.seed)
    tol = _tolerance()
    reps = [series.residual_report(
        system, sol, [sampling.series_sample(rng, args.base)
                      for _ in range(8)]) for sol in sols]
    worst = series.worst_defect(rep.max_residual for rep in reps)
    reports = [rep.to_json() for rep in reps]
    return ({"base": args.base, "index": args.index,
             "tolerance": format(tol, ".17g"),
             "max_residual": format(worst, ".17g"),
             "reports": reports},
            EXIT_OK if worst <= tol else EXIT_FALSE)


def cmd_v_vector(args):
    p = _hg_params(args)
    x = args.x
    direct = series.contiguous_product_vector(p, x, args.terms)
    via = series.v_via_transform(p, x, args.terms)
    scale = max(1.0, float(np.max(np.abs(via))))
    gap = float(np.max(np.abs(direct - via))) / scale
    tol = _tolerance()
    cf = lambda z: [format(z.real, ".17g"), format(z.imag, ".17g")]
    return ({"x": format(x, ".17g"),
             "direct": [cf(z) for z in direct],
             "via_transform": [cf(z) for z in via],
             "relative_gap": format(gap, ".17g"),
             "tolerance": format(tol, ".17g")},
            EXIT_OK if gap <= tol else EXIT_FALSE)


def cmd_df_build(args):
    params = _df_params(args)
    c0, c1 = df.df_residues(params)
    shifts = df.shifted_eigenvalues(params)
    return {"params": params.to_json(),
            "c0": c0.to_strings(), "c1": c1.to_strings(),
            "shifted_eigenvalues": {k: [str(x) for x in v]
                                    for k, v in shifts.items()}}, EXIT_OK


def cmd_df_reduce(args):
    if args.params:
        data = _load_json(args.params)
        if "alpha1" in data:
            hg = hgsystem.HGParams.from_json(data)
        else:
            hg = df.DFParams.from_json(data).induced_hg()
    else:
        hg = _df_params(args).induced_hg()
    k0, k1 = df.euler_reduce(hg)
    return {"params": hg.to_json(),
            "k0": k0.to_strings(), "k1": k1.to_strings()}, EXIT_OK


def cmd_df_verify(args):
    params = _df_params(args)
    report = df.check_df_transformation(params)
    return report.to_json(), EXIT_OK if report.verdict else EXIT_FALSE


def cmd_df_solve(args):
    params = _df_params(args)
    x, nodes = args.x, args.nodes
    if args.params:
        # the parameter file may carry the evaluation point and node count;
        # flags given on the command line take precedence
        data = _load_json(args.params)
        if x is None and "x" in data:
            x = float(data["x"])
        if nodes is None and "nodes" in data:
            nodes = int(data["nodes"])
    if x is None:
        raise InputError("df-solve needs --x in (0, 1)")
    # without a node count anywhere, df_integral_solution's default applies
    options = {} if nodes is None else {"nodes": nodes}
    report = df.df_integral_solution(params, x, **options)
    out = report.to_json()
    out["params"] = params.to_json()
    out["x"] = format(x, ".17g")
    tol = max(_tolerance(), 1e-6)
    out["tolerance"] = format(tol, ".17g")
    return out, EXIT_OK if report.residual <= tol else EXIT_FALSE


def cmd_verify_all(args):
    report, times = verify.verify_all(args.seed)
    for crit in report["criteria"]:
        status = "PASS" if crit["passed"] else "FAIL"
        print(f"{status} {crit['name']:32s} {times[crit['name']]:8.2f}s  "
              f"{crit['detail']}")
    print(f"{'PASS' if report['all_passed'] else 'FAIL'} overall "
          f"({times['total']:.1f}s, seed {report['seed']})")
    if args.out:
        _emit(report, args.out)
    return None, EXIT_OK if report["all_passed"] else EXIT_FALSE


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

#: every flag a handler may read, with its argparse settings
FLAGS = {
    "params": dict(help="JSON parameter file"),
    "chart": dict(help="JSON chart file"),
    "matrix": dict(help="JSON matrix file"),
    "a": {}, "b": {}, "c": {}, "d": {}, "g": {},
    "scale": dict(default="1"),
    "branch": dict(default="auto", choices=["via-r4", "via-r3", "auto"]),
    "pair": dict(default="1-inf", choices=["1-inf", "0-inf"]),
    "base": dict(default="1", choices=["0", "1", "inf"]),
    "index": dict(type=int, default=0),
    "terms": dict(type=int, default=80),
    "mode": dict(default="float", choices=["exact", "float"]),
    "x": dict(type=float),
    "nodes": dict(type=int, help="quadrature nodes (overrides the "
                                 "parameter file's \"nodes\")"),
    "seed": dict(type=int, default=0),
}

SYSTEM_FLAGS = ("chart", "params", "a", "b", "c", "d", "branch")
SERIES_FLAGS = SYSTEM_FLAGS + ("base", "index", "terms", "mode")
DF_FLAGS = ("params", "a", "b", "c", "g")

#: (subcommand, handler, the flags it reads besides --out, help)
COMMANDS = (
    ("build-product", cmd_build_product, ("params",),
     "residue matrices of the product system"),
    ("build-okubo", cmd_build_okubo, ("params",),
     "gauge the product system into Okubo form"),
    ("recover-chart", cmd_recover_chart, ("matrix", "a", "b", "c", "d"),
     "normalize a coefficient matrix into chart form"),
    ("solve-accessory", cmd_solve_accessory,
     ("a", "b", "c", "d", "scale", "branch"),
     "solve the obstructions for the special accessory values"),
    ("check-same", cmd_check_same, ("chart", "pair"),
     "decide whether the reduced difference systems match"),
    ("verify-realize", cmd_verify_realize, ("params",),
     "check the diagonal conjugation onto the product system"),
    ("series", cmd_series, SERIES_FLAGS, "build a local series solution"),
    ("residual", cmd_residual, SERIES_FLAGS + ("seed",),
     "residual of a local series inside its disc"),
    ("v-vector", cmd_v_vector, ("params", "x", "terms"),
     "contiguous product vector, both computation paths"),
    ("df-build", cmd_df_build, DF_FLAGS, "size-three residue matrices"),
    ("df-reduce", cmd_df_reduce, DF_FLAGS,
     "Euler-shift reduction to size three"),
    ("df-verify", cmd_df_verify, DF_FLAGS,
     "verify the size-three conjugation identities"),
    ("df-solve", cmd_df_solve, DF_FLAGS + ("x", "nodes"),
     "integral solution of the size-three system"),
    ("verify-all", cmd_verify_all, ("seed",),
     "run the full exact and numeric verification suites"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="okubo",
        description="Okubo normal form systems for hypergeometric products: "
                    "exact identity checks and series numerics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, flags, help_text in COMMANDS:
        # no abbreviations: a foreign flag such as check-same --c must not
        # be read as a prefix of one the command has (--chart)
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(handler=handler)
        p.add_argument("--out", help="write the JSON report to this file")
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.handler(args)
    except OkuboError as exc:
        _emit(exc.as_json(), args.out)
        return EXIT_INPUT
    except InternalInconsistency as exc:
        _emit({"error": {"code": "internal", "message": str(exc)}}, args.out)
        return EXIT_INTERNAL
    if report is not None:
        _emit(report, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
