"""run_criterion: failures, stated refusals and bugs are told apart, also
under -O."""

import json
import math
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from test_golden import src_env

from okubo import (accessory, dotsenko_fateev, hgsystem, sampling, series,
                   verify)
from okubo.cli import EXIT_INTERNAL, main
from okubo.errors import InternalInconsistency, QuadratureError
from okubo.exact import RationalMatrix
from okubo.verify import CriterionFailed, run_criterion


def test_criterion_failed_detail_is_the_message():
    def failing(seed):
        raise CriterionFailed("residual 1.000e-03 exceeds 1e-10")

    result = run_criterion("2a-product-vector-residual", failing, 7)
    assert not result.passed
    assert result.detail == "residual 1.000e-03 exceeds 1e-10"


def test_crash_is_a_bug_not_a_failure():
    def crashing(seed):
        raise ZeroDivisionError("division by zero")

    with pytest.raises(InternalInconsistency,
                       match="crash crashed: ZeroDivisionError: division"):
        run_criterion("crash", crashing, 7)


def test_stated_refusal_is_a_failure_with_its_type():
    def refusing(seed):
        raise QuadratureError("quadrature refinements disagree")

    result = run_criterion("refusal", refusing, 7)
    assert not result.passed
    assert result.detail == ("QuadratureError: quadrature refinements "
                             "disagree")


def test_internal_inconsistency_is_raised_not_reported():
    def buggy(seed):
        raise InternalInconsistency("two derivations disagree")

    with pytest.raises(InternalInconsistency, match="two derivations"):
        run_criterion("buggy", buggy, 7)


def test_failure_survives_python_O():
    # under -O every assert is stripped; the check must fail regardless
    probe = """if True:
        import json, sys, types
        from okubo import accessory, verify
        accessory.realize_product_system = \\
            lambda p: types.SimpleNamespace(verdict=False)
        result = verify.run_criterion("1f-realization",
                                      verify.check_realization, 7)
        print(json.dumps({"optimize": sys.flags.optimize,
                          "passed": result.passed,
                          "detail": result.detail}))
    """
    proc = subprocess.run([sys.executable, "-O", "-c", probe],
                          env=src_env(),
                          capture_output=True, text=True, timeout=120,
                          check=True)
    out = json.loads(proc.stdout)
    assert out["optimize"] == 1
    assert out["passed"] is False
    assert out["detail"].startswith("realization fails for ")


def _nan_after_first_w_residual():
    """A stand-in for w_residual that returns 1e-14 on its first call and
    NaN after it, so that a max() seeded with the first result would hide
    the NaN."""
    calls = []

    def fake(p, x, terms=60):
        calls.append(x)
        return 1e-14 if len(calls) == 1 else math.nan
    return fake


def _nan_evaluate(self, points):
    return np.full((2, len(points), 4), complex(math.nan))


def _nan_df_reports(params, xs, nodes=128):
    return tuple(dotsenko_fateev.DFSolutionReport(
        (0j,) * 3, (0j,) * 3, math.nan, 2 * nodes, 0.0) for _ in xs)


@pytest.mark.parametrize("check, target, name, make_fake", [
    (verify.check_product_vector_residual, series, "w_residual",
     _nan_after_first_w_residual),
    (verify.check_contiguous_dual_path, series, "v_via_transform",
     lambda: lambda p, x, terms=60: np.full(4, complex(math.nan))),
    (verify.check_local_series_residuals, series.SeriesSolution, "evaluate",
     lambda: _nan_evaluate),
    (verify.check_df_integral_residual, dotsenko_fateev,
     "df_integral_solutions", lambda: _nan_df_reports)],
    ids=["2a", "2b", "2c", "2d"])
def test_nan_fails_numeric_criterion(monkeypatch, check, target, name,
                                     make_fake):
    monkeypatch.setattr(target, name, make_fake())
    with pytest.raises(CriterionFailed, match="nan exceeds"):
        check(7)
    assert not run_criterion("numeric", check, 7).passed


def test_corrupt_contiguous_closed_form_fails_1b_and_2b(monkeypatch):
    """v_via_transform trusts the closed form of R P^{-1}: one wrong entry
    must fail both the exact check (1b) and the float dual path (2b)."""
    honest = hgsystem.contiguous_product_rows

    def corrupt(p):
        # entry (2, 1) plus one, in the rows' integer numerators over den
        nums, den = honest(p)
        nums = list(nums)
        nums[2 * 4 + 1] += den
        return tuple(nums), den

    monkeypatch.setattr(hgsystem, "contiguous_product_rows", corrupt)
    monkeypatch.setattr(series, "contiguous_product_rows", corrupt)
    criteria = dict((name, fn) for name, fn, _ in verify.EXACT_CRITERIA
                    + verify.NUMERIC_CRITERIA)
    for name, detail in (("1b-gauge-and-diagonalizer", "R G^-1"),
                         ("2b-contiguous-dual-path", "relative gap")):
        result = run_criterion(name, criteria[name], 7)
        assert not result.passed
        assert detail in result.detail


@pytest.mark.parametrize("word", sorted(set(
    hgsystem.DET_DIAGONALIZER_FACTORS)))
def test_dropping_a_det_r_factor_word_fails_1b(monkeypatch, word):
    """1b's det R check verifies the very word list that the det R = 0
    refusals test: a list short of one word fails it."""
    words = list(hgsystem.DET_DIAGONALIZER_FACTORS)
    words.remove(word)
    monkeypatch.setattr(hgsystem, "DET_DIAGONALIZER_FACTORS", tuple(words))
    with pytest.raises(CriterionFailed, match="^det R$"):
        verify.check_gauge_and_diagonalizer(7)


def test_size_three_reduction_reduces_once_per_draw(monkeypatch):
    calls = []
    honest = dotsenko_fateev.euler_reduce

    def counted(p):
        calls.append(p)
        return honest(p)

    monkeypatch.setattr(dotsenko_fateev, "euler_reduce", counted)
    assert verify.check_df_reduction(7) == "30 parameter draws"
    assert len(calls) == verify.DF_DRAWS == 30


def test_relative_gap_is_the_inline_rule_on_2b_points():
    seen_large = False
    for seed in range(3):
        # the draws of check_contiguous_dual_path
        rng = verify._rng(seed, "vdual")
        p = sampling.draw_okubo_params(rng)
        for _ in range(20):
            x = sampling.sample_disc(rng, 0.05, 0.4, max_angle=1.2)
            direct = series.contiguous_product_vector(p, x, terms=80)
            via = series.v_via_transform(p, x, terms=80)
            scale = max(1.0, float(np.max(np.abs(via))))
            inline = float(np.max(np.abs(direct - via))) / scale
            assert series.relative_gap(direct, via).hex() == inline.hex()
            seen_large |= scale > 1.0
    assert seen_large  # both sides of max(1, max|via|) are exercised


def test_wrong_special_matrix_is_a_bug_in_1e_not_a_pass(monkeypatch, capsys):
    honest = accessory._special_coeff

    def wrong(a, b, c, d):
        m = honest(a, b, c, d)
        return RationalMatrix([[m[i, j] + (i == 0 and j == 2)
                                for j in range(4)] for i in range(4)])

    monkeypatch.setattr(accessory, "_special_coeff", wrong)
    with pytest.raises(InternalInconsistency, match="special matrix"):
        run_criterion("1e-special-value-branches",
                      verify.check_special_value_branches, 7)
    monkeypatch.setattr(verify, "EXACT_CRITERIA", tuple(
        crit for crit in verify.EXACT_CRITERIA
        if crit[0] == "1e-special-value-branches"))
    monkeypatch.setattr(verify, "NUMERIC_CRITERIA", ())
    assert main(["verify-all", "--seed", "7"]) == EXIT_INTERNAL == 3
    assert "special matrix" in capsys.readouterr().out


def test_verify_all_passes_at_seed_40658():
    """1e's exponent stream at this seed draws exponents outside the
    domain of via-r4, which draw_special_exponents must redraw."""
    report, _ = verify.verify_all(40658)
    assert report["all_passed"], [c for c in report["criteria"]
                                  if not c["passed"]]


def test_w_parameter_draw_is_capped(monkeypatch):
    """2a's draw rejects a gamma that is a nonpositive integer, and gives
    up after MAX_ATTEMPTS candidates instead of looping forever."""
    candidates = []

    def integer_gamma(rng):
        candidates.append(rng)
        return hgsystem.HGParams.generic(*(F(1, 3),) * 4, F(-2), F(1, 2))

    monkeypatch.setattr(sampling, "MAX_ATTEMPTS", 5)
    monkeypatch.setattr(sampling, "draw_generic_params", integer_gamma)
    with pytest.raises(RuntimeError, match="sampling cap exceeded"):
        sampling.draw_w_params(verify._rng(7, "wres"))
    assert len(candidates) == 5
