"""Acceptance gate: every verification criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them
inline; they also appear in captured output on failure).  Exact criteria
admit no tolerance at all; numeric tolerances and time budgets are pinned
here and in okubo.verify:

  1a  infinity char-poly factorization, 50 draws          exact
  1b  gauge/diagonalizer closed forms                     exact, < 5 s
  1c  cubic block decomposition, 100 charts               exact, < 30 s
  1d  sameness biconditional, 50 + 50 charts              exact
  1e  special-value branches + certified identity         exact
  1f  realization by the product system, 30 draws         exact
  1g  dual singular-point pair verdict, 50 charts         exact
  1h  size-three reduction, 30 draws                      exact
  2a  product-vector residual, 20 points, 60 terms        <= 1e-10, < 10 s
  2b  contiguous vector dual path, 20 points              <= 1e-9 relative
  2c  local series residuals, all bases and exponents     <= 1e-9, 80 terms
  2d  integral-solution residual at x in {0.3, 0.4, 0.5}  <= 1e-6, < 60 s
  3   verify-all --seed 7 end to end                      exit 0, < 300 s,
                                                          pinned report bytes
"""

import json
import subprocess
import sys
import time

import pytest
from test_golden import report_pin, sha256

from okubo.verify import EXACT_CRITERIA, NUMERIC_CRITERIA, run_criterion

SEED = 7

ALL_CRITERIA = list(EXACT_CRITERIA) + list(NUMERIC_CRITERIA)


@pytest.mark.parametrize("name,fn,limit", ALL_CRITERIA,
                         ids=[c[0] for c in ALL_CRITERIA])
def test_criterion(name, fn, limit):
    result = run_criterion(name, fn, SEED, limit)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {name}: {result.detail} [{result.seconds:.2f}s]")
    assert result.passed, f"{name}: {result.detail}"
    if limit:
        assert result.seconds < limit, \
            f"{name} took {result.seconds:.1f}s (limit {limit:.0f}s)"


def test_criterion_3_cli_verify_all(tmp_path):
    out = tmp_path / "report.json"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "okubo.cli", "verify-all", "--seed", "7",
         "--out", str(out)],
        capture_output=True, text=True, timeout=310, check=False)
    elapsed = time.perf_counter() - start
    status = "PASS" if proc.returncode == 0 else "FAIL"
    print(f"{status} 3-cli-verify-all: exit {proc.returncode} "
          f"[{elapsed:.1f}s]")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 300, f"verify-all took {elapsed:.0f}s"
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    assert len(report["criteria"]) == len(ALL_CRITERIA)
    assert sha256(out.read_bytes()) == report_pin(SEED)
