"""run_criterion: failures, crashes and bugs are told apart, also under -O."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import okubo
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
