"""run_criterion: failures, crashes and bugs are told apart, also under -O."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import okubo
from okubo import dotsenko_fateev, series, verify
from okubo.errors import InternalInconsistency
from okubo.verify import CriterionFailed, run_criterion


def test_criterion_failed_detail_is_the_message():
    def failing(seed):
        raise CriterionFailed("residual 1.000e-03 exceeds 1e-10")

    result = run_criterion("2a-product-vector-residual", failing, 7)
    assert not result.passed
    assert result.detail == "residual 1.000e-03 exceeds 1e-10"


def test_crash_is_a_failure_with_its_type():
    def crashing(seed):
        raise ZeroDivisionError("division by zero")

    result = run_criterion("crash", crashing, 7)
    assert not result.passed
    assert result.detail == "ZeroDivisionError: division by zero"


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
    src = str(Path(okubo.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-O", "-c", probe],
                          env=dict(os.environ, PYTHONPATH=src),
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


def _nan_df_report(params, x, nodes=128):
    return dotsenko_fateev.DFSolutionReport((0j,) * 3, (0j,) * 3, math.nan,
                                            2 * nodes, 0.0)


@pytest.mark.parametrize("check, target, name, make_fake", [
    (verify.check_product_vector_residual, series, "w_residual",
     _nan_after_first_w_residual),
    (verify.check_contiguous_dual_path, series, "v_via_transform",
     lambda: lambda p, x, terms=60: np.full(4, complex(math.nan))),
    (verify.check_local_series_residuals, series.SeriesSolution, "evaluate",
     lambda: _nan_evaluate),
    (verify.check_df_integral_residual, dotsenko_fateev,
     "df_integral_solution", lambda: _nan_df_report)],
    ids=["2a", "2b", "2c", "2d"])
def test_nan_fails_numeric_criterion(monkeypatch, check, target, name,
                                     make_fake):
    monkeypatch.setattr(target, name, make_fake())
    with pytest.raises(CriterionFailed, match="nan exceeds"):
        check(7)
    assert not run_criterion("numeric", check, 7).passed
