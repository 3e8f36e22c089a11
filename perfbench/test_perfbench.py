"""Tests of the benchmark itself: every check can fail, traced counts
repeat exactly, and the latency statistics are right.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from checks import BASELINE, FAILED, OK  # noqa: E402
from okubo import exact, series  # noqa: E402
from okubo.errors import QuadratureError  # noqa: E402


# --------------------------------------------------------------------------
# certify
# --------------------------------------------------------------------------

def _report(passed=(True, True)):
    return {"seed": 7, "all_passed": all(passed),
            "criteria": [{"name": f"c{i}", "passed": p, "detail": "",
                          "time_limit": None} for i, p in enumerate(passed)]}


def test_certify_passes_matching_report():
    report = _report()
    assert checks.check_certify(report, 7, checks.report_digest(report)) \
        == [OK, OK]


def test_certify_fails_a_failed_criterion():
    assert checks.check_certify(_report((True, False)), 3, "") == [OK, FAILED]


def test_certify_records_only_the_recorded_failures_as_baseline():
    report = _report((True, False))
    report["criteria"][1].update(name="2a-product-vector-residual",
                                 detail="residual 1.976e-08 exceeds 1e-10")
    assert checks.check_certify(report, 11, "") == [OK, BASELINE]
    report["criteria"][1]["detail"] = "ZeroDivisionError: division by zero"
    assert checks.check_certify(report, 11, "") == [OK, FAILED]
    report["criteria"][1].update(
        name="1e-special-value-branches",
        detail="AdmissibilityError: branch via r4 has a vanishing "
               "denominator")
    assert checks.check_certify(report, 40658, "") == [OK, BASELINE]
    report["criteria"][1]["detail"] = "DegenerateChart: degenerate chart"
    assert checks.check_certify(report, 280328, "") == [OK, BASELINE]
    for detail in ("InternalInconsistency: criteria disagree",
                   "SingularMatrixError: matrix is singular",
                   "conditional identity fails for signs (1, 1)"):
        report["criteria"][1]["detail"] = detail
        assert checks.check_certify(report, 40658, "") == [OK, FAILED]
    report["criteria"][1].update(name="1b-gauge-and-diagonalizer",
                                 detail="SingularMatrixError: matrix is "
                                        "singular")
    assert checks.check_certify(report, 40658, "") == [OK, FAILED]
    report["criteria"][1]["detail"] = "AdmissibilityError: not admissible"
    assert checks.check_certify(report, 40658, "") == [OK, FAILED]


def test_certify_fails_changed_seed7_bytes():
    digest = checks.report_digest(_report())
    flipped = _report()
    flipped["criteria"][0]["detail"] = "10 draws"
    assert checks.check_certify(flipped, 7, digest) == [FAILED, FAILED]


def test_stored_digest_is_a_sha256():
    text = (HERE / "seed7_report.sha256").read_text().split()[0]
    assert len(text) == 64 and int(text, 16) >= 0


# --------------------------------------------------------------------------
# series-numeric: deep local series
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def family_system():
    return workloads.special_system(random.Random(5))


@pytest.mark.parametrize("base,index", [("0", 0), ("1", 1), ("inf", 2)])
def test_exact_series_check_accepts_program_output(family_system, base,
                                                   index):
    short = series.local_series(family_system, base, index, 12, "exact")
    sols = series.local_series(family_system, base, index, 24, "exact")
    assert checks.check_exact_series(family_system, sols, base, index,
                                     short) == OK


def _perturb(sol, k, i, delta):
    coeffs = [list(vec) for vec in sol.coeffs]
    coeffs[k][i] = coeffs[k][i] + delta
    return replace(sol, coeffs=tuple(tuple(vec) for vec in coeffs))


@pytest.mark.parametrize("base,index", [("0", 0), ("1", 1), ("inf", 2)])
def test_exact_series_check_fails_perturbed_coefficient(family_system, base,
                                                        index):
    sols = series.local_series(family_system, base, index, 24, "exact")
    for i in range(4):
        bad = [_perturb(sols[0], 10, i, Fraction(1, 10 ** 30))] + sols[1:]
        assert checks.check_exact_series(family_system, bad, base,
                                         index) == FAILED


def test_exact_series_check_fails_wrong_prefix(family_system):
    short = series.local_series(family_system, "1", 1, 12, "exact")
    sols = series.local_series(family_system, "1", 1, 24, "exact")
    bad_short = [_perturb(short[0], 11, 3, Fraction(1))]
    assert checks.check_exact_series(family_system, sols, "1", 1,
                                     bad_short) == FAILED


def test_exact_series_check_fails_wrong_exponent(family_system):
    sols = series.local_series(family_system, "0", 1, 12, "exact")
    assert checks.check_exact_series(family_system, sols, "0", 2) == FAILED


def test_float_series_check(family_system):
    exact_sols = series.local_series(family_system, "inf", 0, 40, "exact")
    floats = series.local_series(family_system, "inf", 0, 40, "float")
    assert checks.check_float_series(floats, exact_sols, [1e-14]) == OK
    bad = [_perturb(floats[0], 20, 1, 1e-9 * abs(floats[0].coeffs[20][1]))]
    assert checks.check_float_series(bad, exact_sols, [1e-14]) == FAILED
    assert checks.check_float_series(floats, exact_sols, [2e-9]) == FAILED
    assert checks.check_float_series(floats, exact_sols, []) == FAILED


def test_float_exact_gap_is_nan_safe():
    assert checks.float_exact_gap([(math.nan, 0, 0, 0), (1, 0, 0, 0)],
                                  [(1, 0, 0, 0), (1, 0, 0, 0)]) == math.inf


# --------------------------------------------------------------------------
# series-numeric: float evaluation requests
# --------------------------------------------------------------------------

def test_hyp2f1_check_against_mpmath():
    args = (Fraction(1, 3), Fraction(2, 5), Fraction(3, 2))
    for x in (0.3 + 0.2j, 0.55j):
        ref = workloads.mp_hyp2f1(*args, x)
        trunc = checks.gauss_tail_bound(*args, x, 80) / abs(ref)
        assert trunc < 1e-14
        assert checks.check_hyp2f1(series.hyp2f1(*args, x), None, ref,
                                   trunc) == OK
        assert checks.check_hyp2f1(ref * (1 + 1e-8), None, ref, trunc) \
            == FAILED
        assert checks.check_hyp2f1(None, ValueError("boom"), ref, 1.0) \
            == FAILED
    x = 0.97
    ref = workloads.mp_hyp2f1(*args, x)
    trunc = checks.gauss_tail_bound(*args, x, 80) / abs(ref)
    assert checks.check_hyp2f1(series.hyp2f1(*args, x), None, ref, trunc) \
        == BASELINE


def test_hyp2f1_miss_from_cancellation_is_baseline():
    # 2F1(-4/5, -5; -4/5; x) = (1 - x)^5: six terms of up to 10 cancel
    # to about 2e-6 near x = 1, and the float sum misses by 1.4e-10
    args = (Fraction(-4, 5), Fraction(-5), Fraction(-4, 5))
    x = 0.9269509427169276 - 0.009447628613582698j
    ref = workloads.mp_hyp2f1(*args, x)
    value = series.hyp2f1(*args, x)
    rounding = checks.gauss_rounding_bound(*args, x, 80)
    assert checks.gauss_tail_bound(*args, x, 80) == 0
    assert abs(value - ref) <= rounding
    assert checks.check_hyp2f1(value, None, ref, rounding / abs(ref)) \
        == BASELINE
    # without cancellation the rounding bound is far below the tolerance
    assert checks.gauss_rounding_bound(Fraction(1, 3), Fraction(2, 5),
                                       Fraction(3, 2), 0.3, 80) < 1e-12
    assert checks.check_hyp2f1(ref * (1 + 1e-8), None, ref, 1e-13) == FAILED


@pytest.mark.parametrize("seed", range(6))
def test_tail_bound_covers_the_truncation_error(seed):
    rng = random.Random(seed)
    for _ in range(10):
        p = workloads.draw_w_params(rng)
        args = (p.alpha1, p.beta1, p.gamma1)
        x = workloads.unit_disc_point(rng, 0.3, 0.95)
        jet = series.hyp2f1_jet(*args, x, 60)
        ref = workloads.mp_hyp2f1(*args, x)
        slope = complex(args[0] * args[1] / args[2]) * workloads.mp_hyp2f1(
            args[0] + 1, args[1] + 1, args[2] + 1, x)
        roundoff = 1e-12 * max(1.0, abs(ref), abs(slope))
        assert abs(jet.value - ref) <= checks.gauss_tail_bound(
            *args, x, 60) + roundoff
        assert abs(jet.d1 - slope) <= checks.gauss_tail_bound(
            *args, x, 60, 1) + roundoff


def test_w_check():
    p = workloads.draw_w_params(random.Random(3))
    x = 0.2 - 0.1j
    ref, trunc = workloads.mp_product_vector_w(p, x)
    out = (series.product_vector_w(p, x, 60), series.w_residual(p, x, 60))
    assert checks.check_w(out, None, ref, trunc) == OK
    assert checks.check_w((out[0], 1e-6), None, ref, trunc) == BASELINE
    wrong = out[0].copy()
    wrong[2] *= 1 + 1e-7
    assert checks.check_w((wrong, out[1]), None, ref, trunc) == FAILED
    assert checks.check_w((wrong, out[1]), None, ref, 1e-3) == BASELINE
    assert checks.check_w(None, OverflowError(), ref, 1e-3) == FAILED


def test_v_check():
    p = workloads.draw_v_params(random.Random(4))
    x = 0.3 + 0.1j
    direct = series.contiguous_product_vector(p, x, 80)
    via = series.v_via_transform(p, x, 80)
    assert checks.check_v((direct, via), None) == OK
    shifted = via.copy()
    shifted[0] += 1e-6 * max(1.0, abs(via[0]))
    assert checks.check_v((direct, shifted), None) == FAILED
    assert checks.check_v(None, RuntimeError("x")) == FAILED


def test_series_residual_and_df_checks():
    assert checks.check_series_residual(1e-12, None) == OK
    assert checks.check_series_residual(1e-8, None) == FAILED
    assert checks.check_series_residual(None, ValueError()) == FAILED

    class Report:
        z = (1 + 0j, 2j, 3)
        integrals = (1, 2, 3)

    assert checks.check_df(Report, None) == OK
    Report.z = (math.nan, 0, 0)
    assert checks.check_df(Report, None) == FAILED
    assert checks.check_df(None, ArithmeticError()) == FAILED
    assert checks.check_df(None, QuadratureError(
        "quadrature refinements disagree", {"difference": 1e-6})) == BASELINE
    assert checks.check_df(None, QuadratureError("nodes")) == FAILED


# --------------------------------------------------------------------------
# tracing
# --------------------------------------------------------------------------

def _traced_counts(workload):
    workload.prepare()
    tracer, _ = worker.traced_round(workload)
    metrics = spans.layer_metrics(tracer.spans, spans.CRITERIA)
    return {k: v for k, v in metrics.items()
            if k.endswith(".calls") or k in (
                "sampling.draws", "series.coeff_vectors",
                "dotsenko_fateev.nodes", "trace.spans")}


@pytest.mark.parametrize("part", [workloads.NumericEval, workloads.Certify])
def test_traced_counts_repeat_exactly(part):
    first = _traced_counts(part(11))
    second = _traced_counts(part(11))
    assert first == second
    assert first["trace.spans"] > 0
    if part is workloads.Certify:
        assert first["sampling.draws"] > 0
        assert first["exact.mat_mul.calls"] > 0
    else:
        assert first["series.coeff_vectors"] > 0
        assert first["dotsenko_fateev.nodes"] > 0


def test_install_and_uninstall_restore_originals():
    before = (exact.mat_mul, exact.RationalMatrix.inverse,
              series.build_product_system)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert exact.mat_mul is not before[0]
        m = exact.RationalMatrix([[1, 2], [3, 4]])
        assert m.inverse() * m == exact.RationalMatrix.identity(2)
    finally:
        tracer.uninstall()
    assert (exact.mat_mul, exact.RationalMatrix.inverse,
            series.build_product_system) == before
    assert not tracer.missing
    names = [s[0] for s in tracer.spans]
    assert names == ["exact.inverse", "exact.mat_mul"]


def test_self_time_subtracts_children():
    recorded = [["a", "x", 0, 100, -1, 0, None], ["b", "y", 10, 40, 0, 0, None],
             ["c", "y", 50, 60, 0, 0, None], ["d", "x", 12, 20, 1, 0, None]]
    assert spans.self_times(recorded) == [60e-9, 22e-9, 10e-9, 8e-9]


# --------------------------------------------------------------------------
# the statistics run.py prints
# --------------------------------------------------------------------------

def test_tail_latency_leaves_ten_samples_beyond():
    best = [float(i) for i in range(1, 3001)]
    assert run.tail_latency(best) == (2990.0, 2990 / 30)
    assert run.tail_latency(best[:36]) == (26.0, 2600 / 36)
    assert run.tail_latency(best[:20]) == (10.5, 50.0)


def test_numeric_stream_has_equal_counts_and_rotates_v_params():
    wl = workloads.NumericEval(3)
    for reqs in wl.stream:
        kinds = [req[0] for req in reqs]
        assert {kind: kinds.count(kind) for kind in set(kinds)} == {
            "hyp2f1": 20, "w": 20, "v": 20, "df": 20, "series": 20}
    v_params = [req[1] for reqs in wl.stream for req in reqs
                if req[0] == "v"]
    assert v_params == [wl.v_params[k % 8] for k in range(len(v_params))]


# --------------------------------------------------------------------------
# speed scaling
# --------------------------------------------------------------------------

def _speedometer(times, readings):
    meter = speed.Speedometer(read=None)
    meter.times, meter.readings = list(times), list(readings)
    return meter


def test_scale_uses_the_median_reading_near_the_operation():
    ref = speed.REFERENCE_S
    window = speed.WINDOW_S
    # readings of 2 ref near t = 0, of 4 ref from 10 windows later on
    meter = _speedometer([0, 0.5, 1, 10 * window, 10 * window + 1],
                         [2 * ref, 2 * ref, 3 * ref, 4 * ref, 4 * ref])
    assert meter.scale(0.2, 0.1) == pytest.approx(0.05)
    assert meter.scale(10 * window, 1.0) == pytest.approx(0.25)
    # no reading within the window: the two nearest
    assert meter.scale(5 * window, 1.0) == pytest.approx(1 / 3.5)


def test_tick_reads_only_when_the_last_reading_is_old():
    values = iter([1.0, 2.0, 3.0])
    meter = speed.Speedometer(read=lambda: next(values))
    meter.tick()
    meter.tick()
    assert meter.readings == [1.0]
    meter.tick(force=True)
    assert meter.readings == [1.0, 2.0]


def test_reading_is_positive_and_finite():
    value = speed.reading()
    assert 0 < value < 1


def test_peak_rss_is_read():
    assert worker.peak_rss_mb() > 1


def test_end_to_end_statistics():
    # two cycles, three operations, three rounds each
    per_op = [[[1.0, 3.0, 2.0], [0.5, 0.5, 0.6]], [[4.0, 1.0, 2.0]]]
    result = {"per_op": per_op, "per_op_raw": per_op, "statuses":
              [checks.OK] * 8 + [checks.BASELINE],
              "peak_rss_mb": 70.0}
    metrics, notes = run.end_to_end([1.0, 2.0, 9.0], result)
    # round sums 5.5, 4.5, 4.6
    assert metrics["wall_s"] == pytest.approx(4.6)
    assert metrics["ops_per_s"] == pytest.approx(3 / 4.6)
    # per-op medians 2.0, 0.5, 2.0; too few operations for a tail
    assert metrics["op_p50_ms"] == pytest.approx(2000.0)
    assert metrics["op_tail_ms"] == pytest.approx(2000.0)
    assert metrics["setup_s"] == 2.0
    assert metrics["pass_ratio"] == pytest.approx(8 / 9)
    assert "median of 3 rounds" in notes["wall_s"]
