"""Command-line interface: exit codes, JSON reports, reproducibility."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import okubo
from okubo import hgsystem, verify
from okubo.accessory import solve_accessory
from okubo.cli import COMMANDS, EXIT_INPUT, EXIT_INTERNAL, FLAGS, main
from okubo.errors import InternalInconsistency
from okubo.exact import RationalMatrix
from okubo.hgsystem import HGParams, build_okubo_system
from okubo.sampling import draw_perturbed_chart, rng_for
from okubo.series import SeriesSolution, local_series


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def okubo_params_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"alpha1": "1/3", "alpha2": "1/7",
                                "beta1": "1/5", "beta2": "1/11",
                                "gamma_mode": "okubo"}))
    return str(path)


def test_solve_accessory_inline(capsys):
    code, data = run_json(capsys, "solve-accessory", "--a", "1/3",
                          "--b", "1/5", "--c", "1/7", "--d", "1/11",
                          "--branch", "auto")
    assert code == 0
    chart, system = solve_accessory(F(1, 3), F(1, 5), F(1, 7), F(1, 11))
    assert data["chart"]["r"] == [str(x) for x in chart.r]
    assert data["coeff"] == system.coeff.to_strings()


def test_check_same_verdicts(capsys, tmp_path):
    chart, _ = solve_accessory(F(1, 3), F(1, 5), F(1, 7), F(1, 11))
    good = tmp_path / "chart.json"
    good.write_text(json.dumps(chart.to_json()))
    code, data = run_json(capsys, "check-same", "--chart", str(good))
    assert code == 0
    assert data["verdict"] is True
    assert data["epsilon"] == "0" and data["delta"] == "0"

    bad_chart = draw_perturbed_chart(rng_for(5))
    bad = tmp_path / "bad_chart.json"
    bad.write_text(json.dumps(bad_chart.to_json()))
    code, data = run_json(capsys, "check-same", "--chart", str(bad))
    assert code == 1
    assert data["verdict"] is False and data["nonzero_minors"]


def test_input_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alpha1": "abc", "alpha2": "1/7",
                               "beta1": "1/5", "beta2": "1/11",
                               "gamma_mode": "okubo"}))
    code, data = run_json(capsys, "build-product", "--params", str(bad))
    assert code == 2
    assert data["error"]["code"] == "input"

    code, data = run_json(capsys, "solve-accessory", "--a", "abc",
                          "--b", "1/5", "--c", "1/7", "--d", "1/11")
    assert code == 2

    code, data = run_json(capsys, "check-same", "--chart",
                          str(tmp_path / "missing.json"))
    assert code == 2


def test_build_okubo_matrix_round_trip(capsys, okubo_params_file):
    code, data = run_json(capsys, "build-okubo", "--params",
                          okubo_params_file)
    assert code == 0
    _, system = build_okubo_system(
        HGParams.okubo(F(1, 3), F(1, 7), F(1, 5), F(1, 11)))
    assert RationalMatrix.from_strings(data["coeff"]) == system.coeff
    assert RationalMatrix.from_strings(data["gauge"]).det() != 0


def test_verify_realize(capsys, okubo_params_file):
    code, data = run_json(capsys, "verify-realize", "--params",
                          okubo_params_file)
    assert code == 0 and data["verdict"] is True


def test_series_and_residual(capsys, okubo_params_file):
    code, data = run_json(capsys, "series", "--params", okubo_params_file,
                          "--base", "inf", "--index", "0", "--terms", "20",
                          "--mode", "exact")
    assert code == 0
    assert len(data["solutions"]) == 1
    assert len(data["solutions"][0]["coeffs"]) == 20

    code, data = run_json(capsys, "residual", "--params", okubo_params_file,
                          "--base", "1", "--index", "0", "--terms", "60",
                          "--seed", "3")
    assert code == 0
    assert float(data["max_residual"]) <= 1e-10


def test_residual_respects_precision_env(capsys, okubo_params_file,
                                         monkeypatch):
    monkeypatch.setenv("OKUBO_PRECISION", "1e-30")
    code, data = run_json(capsys, "residual", "--params", okubo_params_file,
                          "--base", "1", "--index", "0", "--terms", "60",
                          "--seed", "3")
    assert code == 1  # residual cannot beat 1e-30


def test_residual_nan_exits_1(capsys, okubo_params_file, monkeypatch):
    def nan_evaluate(self, points):
        return np.full((2, len(points), 4), complex(np.nan))

    monkeypatch.setattr(SeriesSolution, "evaluate", nan_evaluate)
    code, data = run_json(capsys, "residual", "--params", okubo_params_file,
                          "--base", "1", "--index", "0", "--terms", "20",
                          "--seed", "3")
    assert code == 1
    assert data["max_residual"] == "nan"


def test_v_vector(capsys, okubo_params_file):
    code, data = run_json(capsys, "v-vector", "--params", okubo_params_file,
                          "--x", "0.2", "--terms", "80")
    assert code == 0
    assert float(data["relative_gap"]) <= 1e-10


def test_df_subcommands(capsys, tmp_path):
    df_file = tmp_path / "df.json"
    df_file.write_text(json.dumps({"a": "1/3", "b": "1/5", "c": "1/7",
                                   "g": "1/2"}))
    code, data = run_json(capsys, "df-build", "--params", str(df_file))
    assert code == 0 and data["c0"][0][0] == str(F(1, 3) * 2 + F(1, 7) * 2
                                                 + F(1, 2))
    code, data = run_json(capsys, "df-reduce", "--params", str(df_file))
    assert code == 0 and len(data["k0"]) == 3
    code, data = run_json(capsys, "df-verify", "--params", str(df_file))
    assert code == 0 and data["verdict"] is True
    code, data = run_json(capsys, "df-solve", "--params", str(df_file),
                          "--x", "0.4", "--nodes", "128")
    assert code == 0 and float(data["residual"]) <= 1e-6
    # evaluation point and node count may live in the parameter file
    df_file2 = tmp_path / "df2.json"
    df_file2.write_text(json.dumps({"a": "1/3", "b": "1/5", "c": "1/7",
                                    "g": "1/2", "x": 0.4, "nodes": 96}))
    code, data = run_json(capsys, "df-solve", "--params", str(df_file2))
    assert code == 0 and data["nodes"] == 192
    # inline flags instead of a file
    code, data = run_json(capsys, "df-verify", "--a", "1/3", "--b", "1/5",
                          "--c", "1/7", "--g", "1/11")
    assert code == 0


def test_df_solve_explicit_nodes_beat_params_file(capsys, tmp_path):
    df_file = tmp_path / "df.json"
    df_file.write_text(json.dumps({"a": "1/3", "b": "1/5", "c": "1/7",
                                   "g": "1/2", "x": 0.4, "nodes": 256}))
    code, data = run_json(capsys, "df-solve", "--params", str(df_file),
                          "--nodes", "128")
    # the report counts the nodes of the finer refinement, 2 * 128
    assert code == 0 and data["nodes"] == 256


def test_internal_inconsistency_exits_3(capsys, monkeypatch,
                                        okubo_params_file):
    def broken(params):
        raise InternalInconsistency("gauge lost its determinant")

    monkeypatch.setattr(hgsystem, "build_okubo_system", broken)
    code, data = run_json(capsys, "build-okubo", "--params",
                          okubo_params_file)
    assert code == EXIT_INTERNAL == 3
    assert data["error"]["code"] == "internal"
    assert "gauge lost its determinant" in data["error"]["message"]


def test_recover_chart_cli(capsys, tmp_path, okubo_params_file):
    _, system = build_okubo_system(
        HGParams.okubo(F(1, 3), F(1, 7), F(1, 5), F(1, 11)))
    mfile = tmp_path / "matrix.json"
    mfile.write_text(json.dumps(system.coeff.to_strings()))
    # negative rationals need the --flag=value form
    code, data = run_json(capsys, "recover-chart", "--matrix", str(mfile),
                          f"--a={system.a}", f"--b={system.b}",
                          f"--c={system.c}", f"--d={system.d}")
    assert code == 0
    assert len(data["chart"]["r"]) == 4


def test_verify_all_reproducible(tmp_path):
    # run through the console entry twice; the JSON reports must be
    # byte-identical for the same seed
    outs = []
    for k in (1, 2):
        out = tmp_path / f"report{k}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "okubo.cli", "verify-all", "--seed", "3",
             "--out", str(out)],
            capture_output=True, text=True, timeout=300, check=False)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "PASS overall" in proc.stdout
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["all_passed"] is True
    assert len(report["criteria"]) == 12


def _src_env() -> dict:
    return dict(os.environ,
                PYTHONPATH=str(Path(okubo.__file__).resolve().parent.parent))


@pytest.mark.parametrize("name,flags", [(c[0], c[2]) for c in COMMANDS],
                         ids=[c[0] for c in COMMANDS])
def test_foreign_flags_exit_2(capsys, name, flags):
    foreign = [flag for flag in FLAGS if flag not in flags]
    assert foreign
    for flag in foreign:
        with pytest.raises(SystemExit) as exc:
            main([name, f"--{flag}", "1"])
        assert exc.value.code == EXIT_INPUT == 2, flag
        assert "unrecognized arguments" in capsys.readouterr().err


def test_series_from_each_system_source(capsys, tmp_path, okubo_params_file):
    chart, _ = solve_accessory(F(1, 3), F(1, 5), F(1, 7), F(1, 11))
    chart_file = tmp_path / "chart.json"
    chart_file.write_text(json.dumps(chart.to_json()))
    common = ("--base", "1", "--index", "0", "--terms", "10")
    for source in (("--chart", str(chart_file)),
                   ("--params", okubo_params_file),
                   ("--a", "1/3", "--b", "1/5", "--c", "1/7", "--d", "1/11",
                    "--branch", "via-r3")):
        code, data = run_json(capsys, "series", *source, *common)
        assert code == 0, source
        assert len(data["solutions"][0]["coeffs"]) == 10


def test_internal_inconsistency_in_verify_all_exits_3(capsys, monkeypatch):
    def broken(seed):
        raise InternalInconsistency("criterion lost its identity")

    monkeypatch.setattr(verify, "EXACT_CRITERIA", (("x-broken", broken, 0),))
    monkeypatch.setattr(verify, "NUMERIC_CRITERIA", ())
    code = main(["verify-all", "--seed", "7"])
    assert code == EXIT_INTERNAL == 3
    assert "criterion lost its identity" in capsys.readouterr().out


def test_import_leaves_scipy_unloaded():
    probe = ("import sys, okubo, okubo.cli; "
             "print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert proc.stdout.strip() == "[]"


def test_exact_series_past_int_string_limit(capsys, tmp_path):
    # at exponent heights near 3000 the denominators pass Python's
    # 4300-digit int-to-str limit within 200 terms
    out = tmp_path / "series.json"
    abcd = ("1/3001", "1/3011", "1/3019", "1/3023")
    code, _ = run_cli(capsys, "series", "--a", abcd[0], "--b", abcd[1],
                      "--c", abcd[2], "--d", abcd[3], "--base", "1",
                      "--index", "0", "--terms", "200", "--mode", "exact",
                      "--out", str(out))
    assert code == 0
    got = [s["coeffs"] for s in json.loads(out.read_text())["solutions"]]
    _, system = solve_accessory(*(F(x) for x in abcd))
    sols = local_series(system, "1", 0, 200, "exact")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert max(len(str(c.denominator)) for c in sols[0].coeffs[-1]) > limit
        assert got == [[[str(c) for c in vec] for vec in sol.coeffs]
                       for sol in sols]
    finally:
        sys.set_int_max_str_digits(limit)
