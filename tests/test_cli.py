"""Command-line interface: exit codes, JSON reports, reproducibility."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from test_golden import report_pin, sha256, src_env

from okubo import accessory, hgsystem, verify
from okubo.accessory import solve_accessory
from okubo.cli import COMMANDS, EXIT_INPUT, EXIT_INTERNAL, FLAGS, main
from okubo.errors import InternalInconsistency, QuadratureError
from okubo.exact import MAX_DIGITS, RationalMatrix
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
                          "--b", "1/5", "--c", "1/7", "--d", "1/11")
    assert code == 0
    chart, system = solve_accessory(F(1, 3), F(1, 5), F(1, 7), F(1, 11))
    assert data["chart"]["r"] == [str(x) for x in chart.r]
    assert data["coeff"] == system.coeff.to_strings()
    # --branch picks the ratio that equals --scale; the system is the same
    for branch, index in (("via-r4", 3), ("via-r3", 2)):
        code, scaled = run_json(capsys, "solve-accessory", "--a", "1/3",
                                "--b", "1/5", "--c", "1/7", "--d", "1/11",
                                "--branch", branch, "--scale", "5/3")
        assert code == 0
        assert scaled["chart"]["r"][index] == "5/3"
        assert scaled["coeff"] == data["coeff"]


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
    assert RationalMatrix(data["coeff"]) == system.coeff
    assert RationalMatrix(data["gauge"]).det() != 0


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


def test_residual_over_tolerance_exits_1_whatever_the_environment(
        capsys, monkeypatch):
    argv = ("residual", "--a", "1/3", "--b", "1/5", "--c", "1/7",
            "--d", "1/11", "--base", "1", "--index", "0", "--terms", "1",
            "--seed", "3")
    for precision in (None, "1e300"):
        if precision is not None:
            # no environment variable moves the tolerance
            monkeypatch.setenv("OKUBO_PRECISION", precision)
        code, data = run_json(capsys, *argv)
        assert code == 1
        assert data["tolerance"] == "1e-10"
        assert float(data["max_residual"]) > 0.28  # one term: about 0.286


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
    assert float(data["residual"]) <= 1e-10


@pytest.mark.parametrize("x, terms", [("0.5", "1"), ("0.9", "80")])
def test_v_vector_fails_on_truncation(capsys, okubo_params_file, x, terms):
    """The two paths share their truncation, so their gap stays small; the
    defect of v in its own system must see it."""
    code, data = run_json(capsys, "v-vector", "--params", okubo_params_file,
                          "--x", x, "--terms", terms)
    assert code == 1
    assert float(data["relative_gap"]) <= 1e-10
    assert float(data["residual"]) > (0.1 if terms == "1" else 1e-10)


def test_v_vector_refuses_r_singular_in_doubles(capsys, tmp_path):
    """alpha1 = -2 + 10^-30: det R != 0 exactly, but R's doubles are
    singular, so v's defect cannot be formed and the request is refused."""
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"alpha1": str(F(-2) + F(1, 10 ** 30)),
                                "alpha2": "-37/4", "beta1": "-2",
                                "beta2": "5/3"}))
    code, data = run_json(capsys, "v-vector", "--params", str(path),
                          "--x", "0.5", "--terms", "10")
    assert code == EXIT_INPUT
    assert data["error"]["code"] == "singular-matrix"


def test_v_vector_with_explicit_gammas_checks_the_gap_alone(capsys,
                                                          tmp_path):
    """Away from the Okubo gammas v solves no diagonalized system (its
    defect there is of order 10), so only the gap is a verdict."""
    path = tmp_path / "generic.json"
    path.write_text(json.dumps({"alpha1": "1/3", "alpha2": "1/7",
                                "beta1": "1/5", "beta2": "1/11",
                                "gamma_mode": ["3/7", "5/9"]}))
    code, data = run_json(capsys, "v-vector", "--params", str(path),
                          "--x", "0.2", "--terms", "80")
    assert code == 0
    assert data["residual"] is None
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
    # inline flags instead of a file: the same reports
    inline = ["--a", "1/3", "--b", "1/5", "--c", "1/7", "--g", "1/2"]
    for argv in (["df-build"], ["df-reduce"], ["df-verify"],
                 ["df-solve", "--x", "0.4", "--nodes", "128"]):
        assert run_cli(capsys, *argv, *inline) == \
            run_cli(capsys, *argv, "--params", str(df_file)), argv[0]
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


def test_unexpected_exception_exits_3(capsys, monkeypatch,
                                      okubo_params_file):
    """Any exception but a stated refusal is a bug, not a verdict false."""
    def crashing(params):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(hgsystem, "build_okubo_system", crashing)
    code = main(["build-okubo", "--params", okubo_params_file])
    out, err = capsys.readouterr()
    assert code == EXIT_INTERNAL == 3
    assert json.loads(out)["error"] == {
        "code": "internal", "message": "ZeroDivisionError: division by zero"}
    assert err.startswith("Traceback") and "in crashing" in err


@pytest.mark.parametrize("argv", [
    ["verify-all", "--seed", "7"],
    ["solve-accessory", "--a", "1/3", "--b", "1/5", "--c", "1/7",
     "--d", "1/11"],
], ids=["verify-all", "solve-accessory"])
def test_unwritable_out_is_an_input_error(capsys, monkeypatch, tmp_path,
                                          argv):
    """Not an OSError traceback with exit 1, the verdict-false code; the
    error body goes to stdout, since --out cannot take it."""
    # verify-all with no criteria: only the write of its report is tested
    monkeypatch.setattr(verify, "EXACT_CRITERIA", ())
    monkeypatch.setattr(verify, "NUMERIC_CRITERIA", ())
    out = tmp_path / "no-such-dir" / "report.json"
    code = main([*argv, "--out", str(out)])
    stdout, stderr = capsys.readouterr()
    assert code == EXIT_INPUT
    error = json.loads(stdout[stdout.index("{"):])["error"]
    assert error["code"] == "input"
    assert error["message"].startswith(f"cannot write {out}: ")
    assert stderr == ""


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
    # byte-identical for the same seed, and equal to the pinned bytes
    outs = []
    for k in (1, 2):
        out = tmp_path / f"report{k}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "okubo.cli", "verify-all", "--seed", "3",
             "--out", str(out)],
            capture_output=True, text=True, timeout=300, check=False)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "PASS overall" in proc.stdout
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert sha256(outs[0]) == report_pin(3)
    report = json.loads(outs[0])
    assert report["all_passed"] is True
    assert len(report["criteria"]) == 12


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


@pytest.mark.parametrize("r", [["1", "1", "2", "3"], ["1", "2", "3", "3"]])
@pytest.mark.parametrize("pair", ["1-inf", "0-inf"])
def test_check_same_refuses_a_degenerate_chart_with_its_ratios(
        capsys, tmp_path, r, pair):
    path = tmp_path / "chart.json"
    path.write_text(json.dumps({"a": "1/3", "b": "1/5", "c": "1/7",
                                "d": "1/11", "r": r}))
    code, data = run_json(capsys, "check-same", "--chart", str(path),
                          "--pair", pair)
    assert code == EXIT_INPUT
    assert data["error"]["code"] == "degenerate-chart"
    assert data["error"]["context"] == {"r": str(r)}


def test_series_from_each_system_source(capsys, tmp_path, okubo_params_file):
    chart, _ = solve_accessory(F(1, 3), F(1, 5), F(1, 7), F(1, 11))
    chart_file = tmp_path / "chart.json"
    chart_file.write_text(json.dumps(chart.to_json()))
    common = ("--base", "1", "--index", "0", "--terms", "10")
    for source in (("--chart", str(chart_file)),
                   ("--params", okubo_params_file),
                   ("--a", "1/3", "--b", "1/5", "--c", "1/7", "--d", "1/11")):
        code, data = run_json(capsys, "series", *source, *common)
        assert code == 0, source
        assert len(data["solutions"][0]["coeffs"]) == 10


def test_solve_accessory_refuses_branch_auto(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve-accessory", "--a", "1/3", "--b", "1/5", "--c", "1/7",
              "--d", "1/11", "--branch", "auto"])
    assert exc.value.code == EXIT_INPUT
    assert "invalid choice: 'auto'" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["series", "residual"])
def test_series_and_residual_have_no_branch(capsys, name):
    # every branch gives the same system, so the flag could not matter
    with pytest.raises(SystemExit) as exc:
        main([name, "--a", "1/3", "--b", "1/5", "--c", "1/7", "--d", "1/11",
              "--branch", "via-r3"])
    assert exc.value.code == EXIT_INPUT
    assert "unrecognized arguments: --branch" in capsys.readouterr().err


def test_internal_inconsistency_in_verify_all_exits_3(capsys, monkeypatch):
    def broken(seed):
        raise InternalInconsistency("criterion lost its identity")

    monkeypatch.setattr(verify, "EXACT_CRITERIA", (("x-broken", broken, 0),))
    monkeypatch.setattr(verify, "NUMERIC_CRITERIA", ())
    code = main(["verify-all", "--seed", "7"])
    assert code == EXIT_INTERNAL == 3
    assert "criterion lost its identity" in capsys.readouterr().out


def test_crash_in_verify_all_is_a_bug_and_exits_3(capsys, monkeypatch):
    def crashing(seed):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(verify, "EXACT_CRITERIA", (("x-crash", crashing, 0),))
    monkeypatch.setattr(verify, "NUMERIC_CRITERIA", ())
    code = main(["verify-all", "--seed", "7"])
    assert code == EXIT_INTERNAL == 3
    assert "x-crash crashed: ZeroDivisionError" in capsys.readouterr().out


def test_stated_refusal_in_verify_all_fails_and_exits_1(capsys, monkeypatch):
    def refusing(seed):
        raise QuadratureError("quadrature refinements disagree")

    monkeypatch.setattr(verify, "EXACT_CRITERIA",
                        (("x-refusal", refusing, 0),))
    monkeypatch.setattr(verify, "NUMERIC_CRITERIA", ())
    code = main(["verify-all", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL x-refusal" in out and "QuadratureError: quadrature" in out
    assert "FAIL overall" in out


def test_import_leaves_scipy_unloaded():
    probe = ("import sys, okubo, okubo.cli; "
             "print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", probe], env=src_env(),
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert proc.stdout.strip() == "[]"


def test_exact_subcommands_load_neither_numpy_nor_scipy(tmp_path,
                                                        okubo_params_file):
    _, system = build_okubo_system(
        HGParams.okubo(F(1, 3), F(1, 7), F(1, 5), F(1, 11)))
    matrix_file = tmp_path / "matrix.json"
    matrix_file.write_text(json.dumps(system.coeff.to_strings()))
    # a perturbed chart: the verdict is false, so check-same exits 1
    chart_file = tmp_path / "chart.json"
    chart_file.write_text(json.dumps(draw_perturbed_chart(rng_for(0))
                                     .to_json()))
    df_file = tmp_path / "df.json"
    df_file.write_text(json.dumps(DF_FILE))
    abcd = [f"--a={system.a}", f"--b={system.b}", f"--c={system.c}",
            f"--d={system.d}"]
    runs = [
        (["build-product", "--params", okubo_params_file], 0),
        (["build-okubo", "--params", okubo_params_file], 0),
        (["recover-chart", "--matrix", str(matrix_file), *abcd], 0),
        (["solve-accessory", "--a", "1/3", "--b", "1/5", "--c", "1/7",
          "--d", "1/11"], 0),
        (["check-same", "--chart", str(chart_file)], 1),
        (["verify-realize", "--params", okubo_params_file], 0),
        (["df-build", "--params", str(df_file)], 0),
        (["df-reduce", "--params", str(df_file)], 0),
        (["df-verify", "--params", str(df_file)], 0),
    ]
    probe = ("import json, sys; from okubo.cli import main; "
             "code = main(sys.argv[1:]); "
             "print(json.dumps([code, sorted(m for m in sys.modules "
             "if m.partition('.')[0] in ('numpy', 'scipy'))]))")
    for argv, want in runs:
        proc = subprocess.run(
            [sys.executable, "-c", probe, *argv, "--out",
             str(tmp_path / "report.json")],
            env=src_env(), capture_output=True, text=True, timeout=60,
            check=True)
        assert json.loads(proc.stdout) == [want, []], argv[0]


#: 10**400, a rational beyond the largest double
OUT_OF_RANGE = "1" + "0" * 400


@pytest.mark.parametrize("argv", [
    ["v-vector", "--params", "{params}", "--x", "0.2"],
    ["series", "--params", "{params}", "--base", "0", "--index", "0",
     "--terms", "5", "--mode", "float"],
    ["residual", "--params", "{params}", "--base", "0", "--index", "0",
     "--terms", "5"],
    ["df-solve", "--a", OUT_OF_RANGE, "--b", "1/5", "--c", "1/7",
     "--g", "1/2", "--x", "0.4"],
], ids=["v-vector", "series", "residual", "df-solve"])
def test_rational_outside_double_range_is_an_input_error(tmp_path, argv):
    """A stated input error, not an OverflowError (exit 3, a bug)."""
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"alpha1": OUT_OF_RANGE, "alpha2": "1/7",
                                  "beta1": "1/5", "beta2": "1/11"}))
    proc = subprocess.run(
        [sys.executable, "-m", "okubo.cli",
         *(arg.format(params=params) for arg in argv)],
        env=src_env(), capture_output=True, text=True, timeout=120,
        check=False)
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert proc.stderr == ""
    error = json.loads(proc.stdout)["error"]
    assert error["code"] == "input"
    assert error["message"] == "rational outside the double range"


@pytest.mark.parametrize("argv", [
    ["--a=-9/10", "--b", "1/5", "--c=-1/5", "--g", "1/2", "--x", "1e-300"],
    ["--a", "1/3", "--b", "1/5", "--c", "1/7", "--g", "1/2", "--x", "1e-300"],
    ["--a", "1/3", "--b", "1/5", "--c", "1/7", "--g", "1000", "--x", "0.4"],
], ids=["power-overflows", "z-underflows", "integrals-underflow"])
def test_df_solve_outside_the_double_range_is_refused(capsys, argv):
    """Not an OverflowError (exit 3), nor an all-zero z that passes its
    own ODE check (exit 0)."""
    code, data = run_json(capsys, "df-solve", *argv)
    assert code == EXIT_INPUT
    assert data["error"]["code"] == "outside-disc"


def test_exact_series_takes_a_rational_outside_double_range(capsys,
                                                            tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"alpha1": OUT_OF_RANGE, "alpha2": "1/7",
                                  "beta1": "1/5", "beta2": "1/11"}))
    code, data = run_json(capsys, "series", "--params", str(params),
                          "--base", "0", "--index", "0", "--terms", "5",
                          "--mode", "exact")
    assert code == 0 and len(data["solutions"]) == 2


def test_df_solve_is_silent_when_the_jacobi_exponents_sum_to_minus_one():
    # a + c + g = 0: scipy computes a 0/0 branch it then discards
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "okubo.cli", "df-solve",
         "--a=-1", "--b=-1", "--c", "1/2", "--g", "1/2", "--x", "0.4"],
        env=src_env(), capture_output=True, text=True, timeout=120,
        check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert float(json.loads(proc.stdout)["residual"]) < 1e-6


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


DF_FILE = {"a": "1/3", "b": "1/5", "c": "1/7", "g": "1/2"}
# valid at r = (1, 2, 3, 4): the d-constraint gives d = 131/231
CHART_1234 = {"a": "7/3", "b": "1/11", "c": "1/7", "d": "131/231"}

# rationals under the read bound whose reports pass the 4300 digits that
# str() of an int stops at: 3000 digits, and not an integer
LONG = "1" * 3000 + "/17"
LONG_HG = {"alpha1": LONG, "alpha2": "1/7", "beta1": "1/5", "beta2": "1/11"}


def long_files(tmp_path) -> None:
    """The parameter files of test_digit_limit_never_reads_as_a_verdict."""
    abcd = [F(CHART_1234[k]) for k in "abcd"]
    r1 = 10 ** 2000 + 1
    r4 = accessory.solve_r4(*abcd, F(r1), F(2), F(3))
    files = {
        # valid, verdict false; its minors pass 4300 digits
        "chart.json": dict(CHART_1234, r=[str(r1), "2", "3", str(r4)]),
        # the d-condition fails with a value past 4300 digits
        "bad.json": dict(CHART_1234, r=[str(r1), "2", "3",
                                        str(10 ** 3000 + 7)]),
        "hg.json": LONG_HG,
        # a sum of alpha1 and beta1 passes 4300 digits in build-product
        "hg2.json": dict(LONG_HG, beta1="1/" + "9" * 2999 + "7"),
        "df.json": dict(DF_FILE, a=LONG),
        "coeff.json": POK_COEFF,
    }
    for name, content in files.items():
        (tmp_path / name).write_text(json.dumps(content))
    # alpha1 a JSON integer of 5000 digits, which json cannot read
    (tmp_path / "int.json").write_text(
        json.dumps(LONG_HG).replace(json.dumps(LONG), "1" * 5000))


@pytest.mark.parametrize("argv,want,long", [
    (["check-same", "--chart", "chart.json"], 1, True),
    (["check-same", "--chart", "bad.json"], 2, True),
    (["series", "--chart", "chart.json"], 2, False),
    (["residual", "--chart", "chart.json"], 2, False),
    (["recover-chart", "--matrix", "coeff.json", "--a", LONG, "--b", "1/5",
      "--c", "1/7", "--d", "1/11"], 2, False),
    (["solve-accessory", "--a", LONG, "--b", "1/5", "--c", "1/7",
      "--d", "1/11"], 0, True),
    (["build-product", "--params", "hg2.json"], 0, True),
    (["build-okubo", "--params", "hg.json"], 0, True),
    (["verify-realize", "--params", "hg.json"], 0, True),
    (["v-vector", "--params", "hg.json", "--x", "0.2"], 2, False),
    (["df-build", "--params", "df.json"], 0, False),
    (["df-reduce", "--params", "df.json"], 0, True),
    (["df-verify", "--params", "df.json"], 0, False),
    (["df-solve", "--params", "df.json", "--x", "0.3"], 2, False),
    (["build-product", "--params", "int.json"], 2, False),
], ids=["check-same", "check-same-d-condition", "series", "residual",
        "recover-chart", "solve-accessory", "build-product", "build-okubo",
        "verify-realize", "v-vector", "df-build", "df-reduce", "df-verify",
        "df-solve", "json-integer"])
def test_digit_limit_never_reads_as_a_verdict(capsys, tmp_path, argv, want,
                                              long):
    # every subcommand that reads rationals, on input under the read bound:
    # the exit code is the verdict or an input error, never 1 for an
    # escape or 3, with one JSON body on stdout and nothing on stderr
    long_files(tmp_path)
    argv = [str(tmp_path / x) if x.endswith(".json") else x for x in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (want, "")
    body = json.loads(captured.out)
    assert ("error" in body) == (code == EXIT_INPUT)
    longest = max(map(len, re.findall(r"\d+", captured.out)), default=0)
    assert (longest > MAX_DIGITS) == long


@pytest.mark.parametrize("argv,flag,content", [
    (["df-solve"], "--params", dict(DF_FILE, x="abc")),
    (["df-solve"], "--params", dict(DF_FILE, x=0.4, nodes="many")),
    (["build-okubo"], "--params", [1, 2]),
    (["check-same"], "--chart", [1, 2]),
    (["df-verify"], "--params", [1, 2]),
    (["check-same"], "--chart", dict(CHART_1234, r=5)),
    (["check-same"], "--chart", dict(CHART_1234, r="1234")),
    (["recover-chart", "--a", "1/3", "--b", "1/5", "--c", "1/7",
      "--d", "1/11"], "--matrix", [1, 2]),
], ids=["df-solve-x", "df-solve-nodes", "build-okubo", "check-same",
        "df-verify", "check-same-r-number", "check-same-r-string",
        "recover-chart"])
def test_malformed_input_files_exit_2(capsys, tmp_path, argv, flag, content):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    code, data = run_json(capsys, *argv, flag, str(path))
    assert code == EXIT_INPUT
    assert data["error"]["code"] == "input"


POK_FILE = {"alpha1": "1/3", "alpha2": "1/7", "beta1": "1/5", "beta2": "1/11"}
RECOVER = ["recover-chart", "--a", "443/1155", "--b=-173/1155",
           "--c", "107/1155", "--d", "47/1155"]
POK_COEFF = build_okubo_system(HGParams.from_json(POK_FILE))[1] \
    .coeff.to_strings()


@pytest.mark.parametrize("argv,flag,content", [
    (["build-product"], "--params", dict(POK_FILE, alpha1=True)),
    (["build-product"], "--params", dict(POK_FILE, gamma_mode=[True, "1/2"])),
    (["check-same"], "--chart", dict(CHART_1234, r=[True, "2", "3", "4"])),
    (RECOVER, "--matrix", [[True, *POK_COEFF[0][1:]], *POK_COEFF[1:]]),
], ids=["alpha1", "gamma-mode", "chart-r", "matrix"])
def test_json_booleans_are_not_rationals(capsys, tmp_path, argv, flag,
                                         content):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    code, data = run_json(capsys, *argv, flag, str(path))
    assert code == EXIT_INPUT
    assert data["error"]["message"] == "cannot convert bool to a rational"


@pytest.mark.parametrize("size", [0, 1, 2, 3, 5])
def test_recover_chart_refuses_other_sizes(capsys, tmp_path, size):
    # POK_COEFF's entries repeated: its diagonal blocks, where they fit
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps([[POK_COEFF[i % 4][j % 4]
                                 for j in range(size)]
                                for i in range(size)]))
    code, data = run_json(capsys, *RECOVER, "--matrix", str(path))
    assert code == EXIT_INPUT
    assert data["error"]["message"] == (
        "matrix is not similar to diag(c*J, d*J)" if size == 5
        else "matrix does not have the required diagonal blocks")


def test_unreadable_input_files_exit_2(capsys, tmp_path):
    raw = tmp_path / "raw.json"
    raw.write_bytes(b"\xff\xfe")
    for path in (tmp_path, raw):
        code, data = run_json(capsys, "build-product", "--params", str(path))
        assert code == EXIT_INPUT
        assert data["error"]["code"] == "input"


def test_chart_1234_is_valid_with_its_ratios_as_a_list(capsys, tmp_path):
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(dict(CHART_1234, r=["1", "2", "3", "4"])))
    code, data = run_json(capsys, "check-same", "--chart", str(path))
    assert code in (0, 1) and "verdict" in data


@pytest.mark.parametrize("argv,error", [
    (["v-vector"], "input"),
    (["v-vector", "--x", "nan"], "outside-disc"),
    (["series", "--terms", "0"], "input"),
    (["residual", "--terms", "0"], "input"),
], ids=["v-vector-no-x", "v-vector-nan", "series-no-terms",
        "residual-no-terms"])
def test_silent_numeric_arguments_exit_2(capsys, okubo_params_file, argv,
                                         error):
    code, data = run_json(capsys, *argv, "--params", okubo_params_file)
    assert code == EXIT_INPUT
    assert data["error"]["code"] == error


def run_into_closed_pipe(*argv):
    """Run the console entry with a stdout whose reader has already gone."""
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(
            [sys.executable, "-m", "okubo.cli", *argv], stdout=write,
            stderr=subprocess.PIPE, env=src_env(), text=True, timeout=300,
            check=False)
    finally:
        os.close(write)


@pytest.mark.parametrize("argv,want", [
    (["series", "--a", "1/3", "--b", "1/5", "--c", "1/7", "--d", "1/11",
      "--base", "1", "--index", "0", "--terms", "3", "--mode", "exact"], 0),
    (["residual", "--a", "1/3", "--b", "1/5", "--c", "1/7", "--d", "1/11",
      "--base", "1", "--index", "0", "--terms", "1", "--seed", "3"], 1),
], ids=["series", "residual-over-tolerance"])
def test_closed_stdout_keeps_the_exit_code(argv, want):
    """A reader that stops early takes no more output; it turns no verdict
    into exit 1 and leaves no traceback."""
    proc = run_into_closed_pipe(*argv)
    assert (proc.returncode, proc.stderr) == (want, "")


def test_closed_stdout_leaves_the_verify_all_report_whole(tmp_path):
    out = tmp_path / "r7.json"
    proc = run_into_closed_pipe("verify-all", "--seed", "7", "--out",
                                str(out))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert sha256(out.read_bytes()) == report_pin(7)


SOURCE_NEEDED = "need exactly one parameter source: "
INLINE_ABCD = ["--a", "1/3", "--b", "1/5", "--c", "1/7", "--d", "1/11"]


@pytest.mark.parametrize("name", ["series", "residual"])
@pytest.mark.parametrize("mix", [("chart", "params"), ("params", "inline"),
                                 ("chart", "inline")],
                         ids=["chart+params", "params+inline",
                              "chart+inline"])
def test_series_and_residual_refuse_two_system_sources(
        capsys, tmp_path, okubo_params_file, name, mix):
    """Each source defines a system of its own; none is dropped silently."""
    chart, _ = solve_accessory(F(1, 3), F(1, 5), F(1, 7), F(1, 11))
    chart_file = tmp_path / "chart.json"
    chart_file.write_text(json.dumps(chart.to_json()))
    sources = {"chart": ["--chart", str(chart_file)],
               "params": ["--params", okubo_params_file],
               "inline": INLINE_ABCD}
    code, data = run_json(capsys, name, *sources[mix[0]], *sources[mix[1]],
                          "--base", "inf", "--terms", "2")
    assert code == EXIT_INPUT
    assert data["error"]["message"] == SOURCE_NEEDED + (
        "--chart FILE or --params FILE or --a --b --c --d")


@pytest.mark.parametrize("argv", [["df-build"], ["df-reduce"], ["df-verify"],
                                  ["df-solve", "--x", "0.4"]],
                         ids=lambda argv: argv[0])
def test_df_commands_refuse_a_file_and_inline_flags(capsys, tmp_path, argv):
    df_file = tmp_path / "d.json"
    df_file.write_text(json.dumps(DF_FILE))
    code, data = run_json(capsys, *argv, "--params", str(df_file),
                          "--a", "9/7")
    assert code == EXIT_INPUT
    assert data["error"] == {
        "code": "input", "context": {"given": "--params --a"},
        "message": SOURCE_NEEDED + "--params FILE or --a --b --c --g"}


@pytest.mark.parametrize("argv,message", [
    (["series", "--a", "1/3", "--b", "1/5", "--c", "1/7"],
     "inline parameters lack --d"),
    (["solve-accessory", "--b", "1/5", "--d", "1/11"],
     "inline parameters lack --a --c"),
    (["df-verify", "--a", "1/3", "--g", "1/2"],
     "inline parameters lack --b --c"),
    (["series"], SOURCE_NEEDED
     + "--chart FILE or --params FILE or --a --b --c --d"),
    (["v-vector", "--x", "0.2"], SOURCE_NEEDED + "--params FILE"),
], ids=["series-partial", "solve-accessory-partial", "df-verify-partial",
        "series-none", "v-vector-none"])
def test_partial_or_missing_source_is_named(capsys, argv, message):
    code, data = run_json(capsys, *argv)
    assert code == EXIT_INPUT
    assert data["error"]["message"] == message


def test_recover_chart_names_the_vanishing_components(capsys, tmp_path):
    matrix = tmp_path / "diag.json"
    matrix.write_text(json.dumps(
        RationalMatrix.diagonal([F(1, 3), F(-1, 3), F(1, 5), F(-1, 5)])
        .to_strings()))
    code, data = run_json(capsys, "recover-chart", "--matrix", str(matrix),
                          "--a", "1/3", "--b", "1/5", "--c", "1/3",
                          "--d", "1/5")
    assert code == EXIT_INPUT
    assert data["error"]["code"] == "eigenvector-degeneracy"
    assert data["error"]["context"] == {"failures": (
        "v_-c[1] = 0; v_c[2] = 0; v_c[3] = 0; v_-c[3] = 0; v_c[4] = 0; "
        "v_-c[4] = 0; det of columns 3,4 = 0")}
