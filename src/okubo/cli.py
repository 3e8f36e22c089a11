"""Batch command-line interface.

Every subcommand reads rationals as 'p/q' strings from exactly one
source, a JSON file or a full set of inline flags (none, two or a partial
set is an input error), emits a JSON report, and uses the exit code to
state its verdict: 0 for success / verdict-true / residual below
tolerance, 1 for verdict-false or an exceeded tolerance, 2 for input
errors (an --out file that cannot be written included), 3 for an internal
inconsistency or any other unexpected exception (a bug, never a
verdict).  Each subcommand accepts only the flags its handler reads
(COMMANDS); any other flag is a usage error, which argparse reports with
exit code 2.  `residual` (its defect) and `v-vector` (the gap of its two
paths and, at the Okubo gammas, the defect of v) compare against
TOLERANCE, `df-solve` against 1e-6.  Only the handlers that compute in
floats load numpy.  `_emit` writes every report, error body and summary
line; a stdout whose reader has gone takes no more, and the run keeps its
exit code.  `verify-all` writes its summary to stdout, its report to --out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import accessory, dotsenko_fateev as df, hgsystem, sampling
from .errors import InputError, OkuboError
from .exact import matrix_from_json, rational_text, to_fraction

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

#: float comparison tolerance of `residual` and `v-vector`
TOLERANCE = 1e-10


def _load_json(path: str, kind=dict):
    """The JSON value in a file: an object (dict) or an array (list)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    except (OSError, ValueError) as exc:  # a too-long integer included
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, kind):
        raise InputError(f"{path} must hold a JSON "
                         f"{'object' if kind is dict else 'array'}")
    return data


def _file_field(data: dict, key: str, kind, what: str):
    """data[key], refused unless it is of the JSON type ``kind``."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InputError(f"parameter file field {key!r} must be {what}",
                         {key: repr(value)})
    return value


def _emit(report, out: str = None):
    """The JSON of ``report``, or ``report`` itself if it is text, and a
    newline, to the file ``out`` or to stdout.  A stdout whose reader has
    gone takes no more output: it is pointed at the null device, so that
    the run ends with the exit code it decided."""
    if not isinstance(report, str):
        report = json.dumps(report, indent=2, sort_keys=True)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(report + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc
        return
    try:
        print(report, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _source(args, files=(), inline=""):
    """The one parameter source given: the JSON object in the file of a flag
    of ``files``, or the rationals of all the one-letter flags ``inline`` by
    name.  None, two or a partial inline set is an input error that names
    the accepted sources or the missing flags."""
    flags = lambda names: " ".join(f"--{f}" for f in names)
    given = [f for f in files if getattr(args, f) is not None]
    present = [f for f in inline if getattr(args, f) is not None]
    if len(given) + bool(present) != 1:
        accepted = [f"--{f} FILE" for f in files] + [flags(inline)]
        raise InputError("need exactly one parameter source: "
                         + " or ".join(filter(None, accepted)),
                         {"given": flags(given + present)})
    if given:
        return _load_json(getattr(args, given[0]))
    missing = [f for f in inline if f not in present]
    if missing:
        raise InputError(f"inline parameters lack {flags(missing)}")
    return {f: to_fraction(getattr(args, f)) for f in inline}


def _hg_params(args) -> hgsystem.HGParams:
    return hgsystem.HGParams.from_json(_source(args, ("params",)))


def _df_params(args) -> tuple:
    """(DFParams, the object they were read from) of a DF command."""
    data = _source(args, ("params",), "abcg")
    return df.DFParams.from_json(data), data


def _system_from_args(args) -> hgsystem.OkuboSystem:
    data = _source(args, ("chart", "params"), "abcd")
    if args.chart is not None:
        chart = accessory.AccessoryChart.from_json(data)
        return accessory.okubo_from_chart(chart)
    if args.params is not None:
        return hgsystem.build_okubo_system(
            hgsystem.HGParams.from_json(data))[1]
    return accessory.solve_accessory(**data)[1]


# --------------------------------------------------------------------------
# subcommand handlers: each returns (report dict, exit code)
# --------------------------------------------------------------------------

def cmd_build_product(args):
    p = _hg_params(args)
    sys_ = hgsystem.build_product_system(p)
    return {"params": p.to_json(),
            "residue_at_0": sys_.residue_at_0.to_strings(),
            "residue_at_1": sys_.residue_at_1.to_strings(),
            "infinity_exponents": [rational_text(e) for e in
                                   hgsystem.infinity_exponents(p)]}, EXIT_OK


def cmd_build_okubo(args):
    p = _hg_params(args)
    gauge, system = hgsystem.build_okubo_system(p)
    return {"params": p.to_json(),
            "gauge": gauge.to_strings(),
            "coeff": system.coeff.to_strings(),
            "exponents": {k: rational_text(getattr(system, k))
                          for k in "abcd"}}, EXIT_OK


def cmd_recover_chart(args):
    if not args.matrix:
        raise InputError("recover-chart needs --matrix FILE")
    matrix = matrix_from_json(_load_json(args.matrix, list))
    diag, chart = accessory.recover_chart(matrix,
                                          **_source(args, inline="abcd"))
    return {"diag": diag.to_strings(),
            "chart": chart.to_json()}, EXIT_OK


def cmd_solve_accessory(args):
    abcd = _source(args, inline="abcd")
    chart, system = accessory.solve_accessory(
        **abcd, branch=args.branch, scale=to_fraction(args.scale))
    return {"chart": chart.to_json(),
            "coeff": system.coeff.to_strings(),
            "branch": args.branch}, EXIT_OK


def cmd_check_same(args):
    chart = accessory.AccessoryChart.from_json(_source(args, ("chart",)))
    verdict = accessory.substantially_same(chart, args.pair)
    return verdict.to_json(), EXIT_OK if verdict.verdict else EXIT_FALSE


def cmd_verify_realize(args):
    p = _hg_params(args)
    report = accessory.realize_product_system(p)
    return report.to_json(), EXIT_OK if report.verdict else EXIT_FALSE


def cmd_series(args):
    from . import series

    system = _system_from_args(args)
    sols = series.local_series(system, args.base, args.index, args.terms,
                               args.mode)
    return {"base": args.base, "index": args.index, "mode": args.mode,
            "solutions": [s.to_json() for s in sols]}, EXIT_OK


def cmd_residual(args):
    from . import series

    system = _system_from_args(args)
    sols = series.local_series(system, args.base, args.index, args.terms,
                               args.mode)
    rng = sampling.rng_for(args.seed)
    reps = [series.residual_report(
        system, sol, [sampling.series_sample(rng, args.base)
                      for _ in range(8)]) for sol in sols]
    worst = series.worst_defect(rep.max_residual for rep in reps)
    reports = [rep.to_json() for rep in reps]
    return ({"base": args.base, "index": args.index,
             "tolerance": format(TOLERANCE, ".17g"),
             "max_residual": format(worst, ".17g"),
             "reports": reports},
            EXIT_OK if worst <= TOLERANCE else EXIT_FALSE)


def cmd_v_vector(args):
    from . import series

    p = _hg_params(args)
    x = args.x
    if x is None:
        raise InputError("v-vector needs --x")
    direct = series.contiguous_product_vector(p, x, args.terms)
    via = series.v_via_transform(p, x, args.terms)
    gap = series.relative_gap(direct, via)
    # the two paths share their truncation; v's own defect sees it, but
    # v solves its diagonalized system only at the Okubo gammas
    residual = series.v_residual(p, x, args.terms) if p.is_okubo else None
    cf = lambda z: [format(z.real, ".17g"), format(z.imag, ".17g")]
    return ({"x": format(x, ".17g"),
             "direct": [cf(z) for z in direct],
             "via_transform": [cf(z) for z in via],
             "relative_gap": format(gap, ".17g"),
             "residual": None if residual is None
             else format(residual, ".17g"),
             "tolerance": format(TOLERANCE, ".17g")},
            EXIT_OK if gap <= TOLERANCE
            and (residual is None or residual <= TOLERANCE) else EXIT_FALSE)


def cmd_df_build(args):
    params, _ = _df_params(args)
    c0, c1 = df.df_residues(params)
    shifts = df.shifted_eigenvalues(params)
    return {"params": params.to_json(),
            "c0": c0.to_strings(), "c1": c1.to_strings(),
            "shifted_eigenvalues": {k: [rational_text(x) for x in v]
                                    for k, v in shifts.items()}}, EXIT_OK


def cmd_df_reduce(args):
    # a parameter file may hold hypergeometric parameters instead
    data = _source(args, ("params",), "abcg")
    hg = (hgsystem.HGParams.from_json(data) if "alpha1" in data
          else df.DFParams.from_json(data).induced_hg())
    k0, k1 = df.euler_reduce(hg)
    return {"params": hg.to_json(),
            "k0": k0.to_strings(), "k1": k1.to_strings()}, EXIT_OK


def cmd_df_verify(args):
    params, _ = _df_params(args)
    report = df.check_df_transformation(params)
    return report.to_json(), EXIT_OK if report.verdict else EXIT_FALSE


def cmd_df_solve(args):
    params, data = _df_params(args)
    x, nodes = args.x, args.nodes
    # the parameter file may carry the evaluation point and node count;
    # flags given on the command line take precedence
    if x is None and "x" in data:
        x = float(_file_field(data, "x", (int, float), "a number"))
    if nodes is None and "nodes" in data:
        nodes = _file_field(data, "nodes", int, "an integer")
    if x is None:
        raise InputError("df-solve needs --x in (0, 1)")
    # without a node count anywhere, df_integral_solution's default applies
    options = {} if nodes is None else {"nodes": nodes}
    report = df.df_integral_solution(params, x, **options)
    out = report.to_json()
    out["params"] = params.to_json()
    out["x"] = format(x, ".17g")
    out["tolerance"] = format(1e-6, ".17g")
    return out, EXIT_OK if report.residual <= 1e-6 else EXIT_FALSE


def cmd_verify_all(args):
    from . import verify

    report, times = verify.verify_all(args.seed)
    for crit in report["criteria"]:
        status = "PASS" if crit["passed"] else "FAIL"
        _emit(f"{status} {crit['name']:32s} {times[crit['name']]:8.2f}s  "
              f"{crit['detail']}")
    _emit(f"{'PASS' if report['all_passed'] else 'FAIL'} overall "
          f"({times['total']:.1f}s, seed {report['seed']})")
    # without --out the summary is the whole output
    return (report if args.out else None,
            EXIT_OK if report["all_passed"] else EXIT_FALSE)


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
    "branch": dict(default="via-r4", choices=["via-r4", "via-r3"],
                   help="the ratio set to --scale: r4 (via-r4) or r3"),
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

SYSTEM_FLAGS = ("chart", "params", "a", "b", "c", "d")
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
        if report is not None:
            _emit(report, args.out)
        return code
    except OkuboError as exc:
        error, code = exc.as_json(), EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - any other exception is a bug
        import traceback  # the error path only: no cost at start-up

        traceback.print_exc()
        error = {"error": {"code": "internal",
                           "message": f"{type(exc).__name__}: {exc}"}}
        code = EXIT_INTERNAL
    try:
        _emit(error, args.out)
    except InputError:  # --out is not writable: the error goes to stdout
        _emit(error)
    return code


if __name__ == "__main__":
    sys.exit(main())
