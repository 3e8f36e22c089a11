"""Golden digests: the one home of every byte pin.

Each digest of the exact layer is a sha256 over exact numbers written as
numerator and denominator, or over canonical JSON, recorded from an
earlier release of the exact containers.  A change to how `RationalMatrix`
and `Poly` store or compute their entries must leave every digest
unchanged.

Two files in sha256sum's format hold the output pins: ``exact_cli.sha256``
the stdout of six exact CLI commands, and ``verify_reports.sha256`` the
`verify-all --out` report of seeds 0-9 (``r<seed>.json``).  Each seed's
report is checked once: seeds 3 and 7 as written by a separate
interpreter (`test_cli.test_verify_all_reproducible`,
`test_acceptance.test_criterion_3_cli_verify_all`), the others
in-process; seed 7 also under ``-O`` and ``-W error``.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import okubo
from okubo import cli
from okubo.accessory import solve_accessory, substantially_same
from okubo.dotsenko_fateev import check_df_transformation, euler_reduce
from okubo.errors import OkuboError
from okubo.hgsystem import HGParams, build_okubo_system
from okubo.sampling import (draw_chart, draw_df_params, draw_okubo_params,
                            draw_perturbed_chart, draw_special_chart,
                            draw_special_exponents)
from okubo.series import local_series
from okubo.verify import verify_all

HERE = Path(__file__).resolve().parent
SERIES_TERMS = 120
DRAWS = 50
#: (base, number of exponents) of every local series
BASES = (("0", 3), ("1", 3), ("inf", 4))


def pok_system():
    return build_okubo_system(
        HGParams.okubo(F(1, 3), F(1, 7), F(1, 5), F(1, 11)))[1]


def special_system():
    return solve_accessory(F(1, 3), F(1, 5), F(1, 7), F(1, 11))[1]


def series_digest(system) -> str:
    """Every exact local series of a system, at every base and exponent
    index, coefficient by coefficient as numerator/denominator."""
    h = hashlib.sha256()
    for base, count in BASES:
        for index in range(count):
            for sol in local_series(system, base, index, SERIES_TERMS,
                                    "exact"):
                h.update(f"{base}:{index}:{sol.exponent};".encode())
                for vec in sol.coeffs:
                    h.update(";".join(f"{c.numerator}/{c.denominator}"
                                      for c in vec).encode())
                    h.update(b"\n")
    return h.hexdigest()


def _outcome(build):
    """The JSON of a call, or the class and message of its refusal."""
    try:
        return build()
    except OkuboError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def draws_digest(kind: str) -> str:
    h = hashlib.sha256()
    for seed in range(DRAWS):
        rng = random.Random(f"golden:{kind}:{seed}")
        out = DRAW_KINDS[kind](rng)
        h.update(json.dumps(out, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def _solve_accessory(rng):
    abcd = draw_special_exponents(rng)

    def solve(branch):
        chart, system = solve_accessory(*abcd, branch=branch)
        return {"chart": chart.to_json(),
                "coeff": system.coeff.to_strings()}
    return [_outcome(lambda: solve("via-r4")),
            _outcome(lambda: solve("via-r3"))]


def _build_okubo_system(rng):
    gauge, system = build_okubo_system(draw_okubo_params(rng))
    return {"gauge": gauge.to_strings(), "coeff": system.coeff.to_strings(),
            "exponents": [str(x) for x in
                          (system.a, system.b, system.c, system.d)]}


def _euler_reduce(rng):
    params = draw_df_params(rng)
    k0, k1 = euler_reduce(params.induced_hg())
    return {"k0": k0.to_strings(), "k1": k1.to_strings(),
            "check": check_df_transformation(params).to_json()}


def _substantially_same(rng):
    charts = (draw_chart(rng), draw_special_chart(rng),
              draw_perturbed_chart(rng))
    return [substantially_same(chart, pair).to_json()
            for chart in charts for pair in ("1-inf", "0-inf")]


DRAW_KINDS = {"solve_accessory": _solve_accessory,
              "build_okubo_system": _build_okubo_system,
              "euler_reduce": _euler_reduce,
              "substantially_same": _substantially_same}

GOLDEN_SERIES = {
    "pok":
        "1ce58ee03fb7796c4512c1861de8106d6894f75a065131a175e8a84219f6c701",
    "special":
        "bf0163b3e6aa80c1fa6d5db6ba915061e6fb4620c8360170ba86a6b4b0180ad4",
}

GOLDEN_DRAWS = {
    "solve_accessory":
        "0a972051f45323914a5508d97207ffd5964fb721a962351b8720d4f33a17b279",
    "build_okubo_system":
        "54d742d0c6087a2b11de11b1f10e8e96e468e81bd5d85bcd0e994daffd8812dc",
    "euler_reduce":
        "2e46bef2141a5ab559e8c040e7926b8397191f80bf3da2526276016fe8c1a5d5",
    "substantially_same":
        "b3e9a7d17ef39fd7178940e82bef771b6f8bcbd33a033ae330f6a58abe493fd4",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SERIES))
def test_exact_local_series_digest(name):
    system = {"pok": pok_system, "special": special_system}[name]()
    assert series_digest(system) == GOLDEN_SERIES[name]


@pytest.mark.parametrize("kind", sorted(GOLDEN_DRAWS))
def test_seeded_draws_json_digest(kind):
    assert draws_digest(kind) == GOLDEN_DRAWS[kind]


def digests(pins: str) -> dict:
    """file name -> sha256 of a pin file in sha256sum's format."""
    lines = (HERE / pins).read_text().splitlines()
    return {name: digest for digest, name in (l.split() for l in lines)}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_pin(seed: int) -> str:
    """The pinned sha256 of the `verify-all --seed SEED --out` report."""
    return digests("verify_reports.sha256")[f"r{seed}.json"]


def src_env() -> dict:
    """The environment of a subprocess that imports okubo from this tree."""
    return dict(os.environ,
                PYTHONPATH=str(Path(okubo.__file__).resolve().parent.parent))


#: the exit code and arguments of each output file of ``exact_cli.sha256``;
#: check-same answers "not the same" (exit 1) on CHART, a valid chart off
#: the special values with 12 nonzero minors
CLI_RUNS = {
    "series.json": (0, ["series", "--params", "{params}", "--base", "inf",
                        "--index", "0", "--terms", "80", "--mode", "exact"]),
    "solve-accessory.json": (0, ["solve-accessory", "--a", "1/3", "--b",
                                 "1/5", "--c", "1/7", "--d", "1/11"]),
    "df-reduce.json": (0, ["df-reduce", "--a", "1/3", "--b", "1/5", "--c",
                           "1/7", "--g", "1/2"]),
    "df-verify.json": (0, ["df-verify", "--a", "1/3", "--b", "1/5", "--c",
                           "1/7", "--g", "1/2"]),
    "check-same-1-inf.json": (1, ["check-same", "--chart", "{chart}",
                                  "--pair", "1-inf"]),
    "check-same-0-inf.json": (1, ["check-same", "--chart", "{chart}",
                                  "--pair", "0-inf"]),
}

CHART = ('{"a": "1/3", "b": "1/5", "c": "1/7", "d": "1/11", '
         '"r": ["1", "2", "3", "287688/193301"]}\n')


def test_exact_cli_digests(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text('{"alpha1": "1/3", "alpha2": "1/7", '
                      '"beta1": "1/5", "beta2": "1/11"}\n')
    chart = tmp_path / "c.json"
    chart.write_text(CHART)
    want = digests("exact_cli.sha256")
    assert sorted(want) == sorted(CLI_RUNS)
    for name, (code, args) in CLI_RUNS.items():
        args = [a.format(params=params, chart=chart) for a in args]
        assert cli.main(args) == code, name
        out = capsys.readouterr().out.encode()
        assert sha256(out) == want[name], name


#: the seeds whose report no subprocess test checks
IN_PROCESS_SEEDS = [seed for seed in range(10) if seed not in (3, 7)]


@pytest.mark.parametrize("seed", IN_PROCESS_SEEDS)
def test_verify_all_report_digest(tmp_path, seed):
    report, _ = verify_all(seed)
    out = tmp_path / "report.json"
    cli._emit(report, str(out))  # the bytes `verify-all --out` writes
    assert sha256(out.read_bytes()) == report_pin(seed)


@pytest.mark.parametrize("flags", [["-O"], ["-W", "error"]],
                         ids=["O", "W-error"])
def test_seed_7_report_digest_under_interpreter_flags(tmp_path, flags):
    """-O strips every assert and -W error turns every warning into an
    exception; neither may change a verdict or a byte of the report."""
    out = tmp_path / "r7.json"
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "okubo.cli", "verify-all", "--seed",
         "7", "--out", str(out)],
        env=src_env(), capture_output=True, text=True, timeout=300,
        check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert sha256(out.read_bytes()) == report_pin(7)
