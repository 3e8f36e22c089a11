"""Series numerics: Gauss sums, product vectors, local solutions.

Closed forms (log series, contiguous relations) and exact-mode recurrence
defects provide the oracles; float-mode output is held to the documented
tolerances inside the declared evaluation discs.
"""

import cmath
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from okubo import hgsystem, series
from okubo.accessory import realize_product_system, solve_accessory
from okubo.errors import (InputError, InternalInconsistency, OkuboError,
                          OutsideDisc)
from okubo.exact import PolyMatrix, RationalMatrix, common_denominator
from okubo.hgsystem import HGParams, build_okubo_system, gauge_matrix, lam
from okubo.sampling import sample_disc, series_sample
from okubo.series import (EvalReport, SeriesSolution, check_in_disc,
                          contiguous_product_vector, exponents_at,
                          gauss_coefficients, hyp2f1, hyp2f1_jet,
                          local_series, okubo_residual,
                          product_vector_w, recurrence_defects,
                          residual_report, v_residual, v_via_transform,
                          w_residual)

POK = HGParams.okubo(F(1, 3), F(1, 7), F(1, 5), F(1, 11))
PGEN = HGParams.generic(F(1, 3), F(1, 7), F(1, 5), F(1, 11), F(3, 7), F(5, 9))


# -- Gauss series -------------------------------------------------------------

def test_hyp2f1_at_origin_and_log_value():
    assert hyp2f1(F(1, 3), F(1, 5), F(3, 7), 0, 10) == 1
    # 2F1(1,1,2;x) = -log(1-x)/x
    value = hyp2f1(1, 1, 2, 0.5, 200)
    assert abs(value - 2 * math.log(2)) < 1e-15
    assert hyp2f1_jet(1, 1, 2, 0.5, 200).tail < 1e-60


def test_hyp2f1_domain_errors():
    with pytest.raises(InputError):
        gauss_coefficients(1, 1, 0, 10)
    with pytest.raises(InputError):
        gauss_coefficients(1, 1, -3, 10)
    with pytest.raises(InputError):
        gauss_coefficients(1, 1, F(-2), 10)
    with pytest.raises(OutsideDisc):
        hyp2f1(1, 1, 2, 1.0, 10)
    with pytest.raises(OutsideDisc):
        hyp2f1(1, 1, 2, 1.5 + 0.1j, 10)


def test_contiguous_relation():
    # f + (x/alpha) f' equals the alpha-raised function
    x = 0.25
    for alpha, beta, gamma in ((F(1, 3), F(1, 5), F(3, 7)),
                               (F(1, 7), F(1, 11), F(5, 9))):
        jet = hyp2f1_jet(alpha, beta, gamma, x, 120)
        raised = hyp2f1(alpha + 1, beta, gamma, x, 120)
        assert abs(jet.value + x / float(alpha) * jet.d1 - raised) < 1e-12


# -- product vector -----------------------------------------------------------

def test_w_at_origin_and_component_definition():
    w = product_vector_w(PGEN, 0.0, 40)
    assert np.allclose(w, [1, 0, 0, 0])
    x = 0.2 + 0.1j
    w = product_vector_w(PGEN, x, 80)
    f1 = hyp2f1_jet(PGEN.alpha1, PGEN.beta1, PGEN.gamma1, x, 80)
    f2 = hyp2f1_jet(PGEN.alpha2, PGEN.beta2, PGEN.gamma2, x, 80)
    assert abs(w[1] - x * f1.d1 * f2.value) < 1e-15


def test_w_residual_inside_disc():
    assert w_residual(PGEN, 0.25, 60) <= 1e-10
    rng = random.Random(3)
    for _ in range(10):
        x = sample_disc(rng, 0.05, 0.4)
        assert w_residual(PGEN, x, 60) <= 1e-10


def test_v_dual_paths_and_first_component():
    x = 0.2
    v = contiguous_product_vector(POK, x, 80)
    want = (x ** float(POK.gamma1 - 1)
            * hyp2f1(POK.alpha1 + 1, POK.beta1, POK.gamma1, x, 80)
            * hyp2f1(POK.alpha2 + 1, POK.beta2, POK.gamma2, x, 80))
    assert abs(v[0] - want) < 1e-14
    via = v_via_transform(POK, x, 80)
    assert np.max(np.abs(v - via)) < 1e-10
    rng = random.Random(5)
    for _ in range(20):
        z = sample_disc(rng, 0.05, 0.4, max_angle=1.2)
        gap = np.max(np.abs(contiguous_product_vector(POK, z, 80)
                            - v_via_transform(POK, z, 80)))
        scale = max(1.0, float(np.max(np.abs(v_via_transform(POK, z, 80)))))
        assert gap / scale <= 1e-9


def test_v_solves_diagonalized_system():
    assert v_residual(POK, 0.2, 80) <= 1e-9


def test_u_chain_solves_okubo_system():
    # undo the gauge: u = P^{-1} x^{-e} w with e the gauge exponent
    gauge = gauge_matrix(POK).to_complex()
    _, system = build_okubo_system(POK)
    e = float(lam(POK, "----"))
    rng = random.Random(7)
    from okubo.series import _w_jet
    for _ in range(20):
        x = sample_disc(rng, 0.05, 0.4, max_angle=1.2)
        w, dw = _w_jet(POK, x, 80)
        xe = x ** (-e)
        u = np.linalg.solve(gauge, xe * w)
        du = np.linalg.solve(gauge, -e * x ** (-e - 1) * w + xe * dw)
        assert okubo_residual(system, u, du, x) <= 1e-9


# -- local series -------------------------------------------------------------

def special_system():
    _, system = solve_accessory(F(1, 3), F(1, 5), F(1, 7), F(1, 11))
    return system


def test_exponent_lists_and_index_errors():
    system = special_system()
    assert exponents_at(system, "1") == [F(0), system.b, -system.b]
    assert exponents_at(system, "0") == [F(0), system.a, -system.a]
    assert exponents_at(system, "inf") == [system.c, -system.c,
                                           system.d, -system.d]
    with pytest.raises(InputError):
        local_series(system, "1", 3, 10)
    with pytest.raises(InputError):
        local_series(system, "2", 0, 10)
    with pytest.raises(InputError):
        local_series(system, "1", 0, 10, mode="double")


def test_repeated_exponent_gives_two_solutions():
    system = special_system()
    sols = local_series(system, "1", 0, 12, mode="exact")
    assert len(sols) == 2
    tops = [tuple(s.coeffs[0][:2]) for s in sols]
    assert tops == [(1, 0), (0, 1)]
    assert len(local_series(system, "1", 1, 12)) == 1


def test_initial_vectors():
    system = special_system()
    # at x = 1 with exponent b: top pair zero, bottom pair spans the
    # kernel of diag(0, 2b)
    sol = local_series(system, "1", 1, 8, mode="exact")[0]
    assert sol.coeffs[0] == (0, 0, 1, 0)
    sol = local_series(system, "1", 2, 8, mode="exact")[0]
    assert sol.coeffs[0] == (0, 0, 0, 1)
    # at infinity: h(0) spans the kernel of (sigma I + A)
    for idx, sigma in enumerate(exponents_at(system, "inf")):
        sol = local_series(system, "inf", idx, 8, mode="exact")[0]
        shifted = system.coeff + RationalMatrix.identity(4).scale(sigma)
        image = shifted.apply(list(sol.coeffs[0]))
        assert all(x == 0 for x in image)
    # at the origin with exponent a: (1,0,0,0)
    sol = local_series(system, "0", 1, 8, mode="exact")[0]
    assert sol.coeffs[0] == (1, 0, 0, 0)


def test_exact_recurrence_has_zero_defect():
    for system in (special_system(), build_okubo_system(POK)[1]):
        for base in ("0", "1", "inf"):
            for idx in range(len(exponents_at(system, base))):
                for sol in local_series(system, base, idx, 60, mode="exact"):
                    defects = recurrence_defects(system, sol)
                    assert all(x == 0 for vec in defects for x in vec)


def fraction_reference(system, sol, terms):
    """The recurrence stepped in Fraction arithmetic from sol's g(0), with
    an exact 4x4 inverse of the step matrix at every step at infinity."""
    amat, rho = system.coeff, sol.exponent
    a12, a21 = system.upper_right(), system.lower_left()
    g = list(sol.coeffs[0])
    out = [tuple(g)]
    for r in range(terms - 1):
        z = r + rho
        if sol.base == "inf":
            step = amat + RationalMatrix.identity(4).scale(z + 1)
            g = step.inverse().apply([-z * g[0], -z * g[1], F(0), F(0)])
        else:
            rhs = [z * gi - ai for gi, ai in zip(g, amat.apply(g))]
            step, e = z + 1, system.b if sol.base == "1" else system.a
            if sol.base == "1":
                top = [-rhs[0] / step, -rhs[1] / step]
                mixed = a21.apply(top)
                g = top + [mixed[0] / (step - e), mixed[1] / (step + e)]
            else:
                bottom = [rhs[2] / step, rhs[3] / step]
                mixed = a12.apply(bottom)
                g = [mixed[0] / (step - e), mixed[1] / (step + e)] + bottom
        out.append(tuple(g))
    return tuple(out)


def test_exact_kernel_matches_fraction_reference():
    for system in (special_system(), build_okubo_system(POK)[1]):
        for base in ("0", "1", "inf"):
            for idx in range(len(exponents_at(system, base))):
                for sol in local_series(system, base, idx, 40, mode="exact"):
                    assert sol.coeffs == fraction_reference(system, sol, 40)
                    assert all(type(x) is F for vec in sol.coeffs
                               for x in vec)


class FractionNormaliser:
    """The exact normaliser the split denominator replaced: one gcd against
    the whole denominator per step, then Fraction(n, den) per entry."""

    one = 1

    def __init__(self, scales):
        pass

    @staticmethod
    def normalise(nums, factors, den):
        for f in factors:
            den *= f
        if den < 0:
            nums, den = [-n for n in nums], -den
        g = math.gcd(den, *nums)
        nums, den = [n // g for n in nums], den // g
        return nums, den, tuple(F(n, den) for n in nums)


def reference_series(monkeypatch, system, base, idx, terms):
    enter, factor, _ = series._ARITHMETIC["exact"]
    with monkeypatch.context() as patch:
        patch.setitem(series._ARITHMETIC, "exact",
                      (enter, factor, FractionNormaliser))
        return local_series(system, base, idx, terms, mode="exact")


def assert_same_reduced(got, want):
    """Entry by entry: the same numerator and denominator, a true Fraction
    in lowest terms with a positive denominator."""
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert type(x) is F
        assert (x.numerator, x.denominator) == (y.numerator, y.denominator)
        assert x.denominator > 0
        assert math.gcd(x.numerator, x.denominator) == 1


def assert_series_match_reference(monkeypatch, system, terms, indices=None):
    for base in ("0", "1", "inf"):
        for idx in indices or range(len(exponents_at(system, base))):
            got = local_series(system, base, idx, terms, mode="exact")
            want = reference_series(monkeypatch, system, base, idx, terms)
            assert len(got) == len(want)
            for sol, ref in zip(got, want):
                assert sol.terms == ref.terms == terms
                for vec, ref_vec in zip(sol.coeffs, ref.coeffs):
                    assert_same_reduced(vec, ref_vec)


def test_split_reduction_matches_fraction_reference_at_300_terms(
        monkeypatch):
    # the POK system's chunks of 5 fill up (a heavy prime saturates) at
    # thousands of entries; the special system's heavy primes never do
    for system in (special_system(), build_okubo_system(POK)[1]):
        assert_series_match_reference(monkeypatch, system, 300)


def test_split_reduction_at_heights_near_3000(monkeypatch):
    q = 3000
    _, system = solve_accessory(F(q // 3 - 2, q - 17), F(q // 5 - 1, q + 3),
                                F(q // 7, q + 33), F(q // 11 - 3, q + 37))
    assert_series_match_reference(monkeypatch, system, 60, indices=(0, 1))


def test_split_reduction_with_a_prime_above_the_heavy_bound(monkeypatch):
    # 65537 > 2**16 divides the denominator of A, so it is no heavy prime
    # and every power of it is carried in light
    big = 65537
    _, system = solve_accessory(F(1, 3), F(1, 5), F(1, 7), F(2, big))
    _, dmat = common_denominator([x for row in system.coeff.rows
                                  for x in row])
    assert dmat % big == 0
    heavy = series._heavy_primes([dmat])
    assert big not in heavy and heavy and max(heavy) < 2 ** 16
    assert_series_match_reference(monkeypatch, system, 80)


def test_heavy_primes_by_trial_division():
    assert series._heavy_primes([1, -1]) == ()
    assert series._heavy_primes([2 ** 5 * 3 * 65537, 49]) == (2, 3, 7)
    assert series._heavy_primes([65521 * 65537]) == (65521,)
    assert series._heavy_primes([65537 ** 2, 65539]) == ()


def test_split_reduction_saturated_chunks_and_chained_steps():
    # 3**18 is the chunk of 3 below 2**30: entries divisible by 3**20 and
    # more make the gcd take 3's power a chunk at a time
    split = series._SplitDenominator([3 * 65537])
    assert split.primes == (3,)
    rng = random.Random(19)
    pool = [2, 3, 3 ** 5, 3 ** 19, 7, 65537, 65537 ** 2]
    for _ in range(200):
        den, ref_den = split.one, FractionNormaliser.one
        for _ in range(3):
            factors = [rng.choice((1, -1)) * math.prod(rng.choices(pool, k=3))
                       for _ in range(2)]
            base = rng.choice(pool) * rng.choice((1, 3 ** 18, 3 ** 40))
            nums = [rng.choice((0, 1, -1)) * base
                    * math.prod(rng.choices(pool, k=2)) for _ in range(4)]
            got = split.normalise(nums, factors, den)
            want = FractionNormaliser.normalise(nums, factors, ref_den)
            assert_same_reduced(got[2], want[2])
            nums_got, den, _ = got
            nums_want, ref_den, _ = want
            full, light, (e3,) = den
            assert (nums_got, full) == (nums_want, ref_den)
            assert full == light * 3 ** e3 and light % 3 != 0


def test_perturbed_resolvent_is_an_internal_inconsistency(monkeypatch):
    honest = hgsystem.resolvent_numerator

    def perturbed(matrix, c, d):
        return honest(matrix, c, d) + PolyMatrix.from_constant(
            RationalMatrix.diagonal([F(1, 10**6), 0, 0, 0]))

    monkeypatch.setattr(hgsystem, "resolvent_numerator", perturbed)
    # special_system() builds a new system object, so nothing is cached
    for mode in ("exact", "float"):
        with pytest.raises(InternalInconsistency):
            local_series(special_system(), "inf", 0, 10, mode=mode)


def test_resolvent_is_built_once_per_system(monkeypatch):
    system = special_system()
    honest = hgsystem.resolvent_numerator
    calls = []

    def counted(matrix, c, d):
        calls.append((c, d))
        return honest(matrix, c, d)

    monkeypatch.setattr(hgsystem, "resolvent_numerator", counted)
    for terms in (10, 20):
        for mode in ("exact", "float"):
            for idx in range(4):
                local_series(system, "inf", idx, terms, mode)
    assert len(calls) == 1


def test_infinity_start_is_found_once_per_system_and_exponent(monkeypatch):
    system = special_system()
    honest = RationalMatrix.left_null_space
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return honest(matrix)

    monkeypatch.setattr(RationalMatrix, "left_null_space", counted)
    for terms in (10, 20):
        for mode in ("exact", "float"):
            for idx in range(4):
                local_series(system, "inf", idx, terms, mode)
    assert len(calls) == 4
    # a new system object finds its own
    local_series(special_system(), "inf", 0, 10, "float")
    assert len(calls) == 5


def test_zero_step_denominator_raises():
    system = special_system()
    start = [F(1), F(0), F(0), F(0)]
    for mode in ("exact", "float"):
        # rho = -1 makes step = r + rho + 1 vanish at r = 0; rho = b - 1
        # makes step - b vanish there
        for rho in (F(-1), system.b - 1):
            with pytest.raises(OkuboError):
                series._finite_coeffs(system, "1", rho, start, 4, mode)
        # sigma = c - 1 puts w = c, a root of (w^2-c^2)(w^2-d^2), at s = 0
        with pytest.raises(OkuboError):
            series._infinity_coeffs(system, system.c - 1, start, 4, mode)


def test_float_recurrence_defect_is_small():
    for system in (special_system(), build_okubo_system(POK)[1]):
        for base in ("0", "1", "inf"):
            for idx in range(len(exponents_at(system, base))):
                for sol in local_series(system, base, idx, 80, mode="float"):
                    defects = recurrence_defects(system, sol)
                    worst = max(abs(x) for vec in defects for x in vec)
                    assert worst <= 1e-12, (base, idx, worst)


def test_exact_and_float_coefficients_agree():
    system = special_system()
    exact = local_series(system, "inf", 0, 30, mode="exact")[0]
    flt = local_series(system, "inf", 0, 30, mode="float")[0]
    for ve, vf in zip(exact.coeffs, flt.coeffs):
        for ce, cf in zip(ve, vf):
            assert abs(complex(ce) - complex(cf)) <= 1e-12 * max(
                1.0, abs(complex(ce)))


def row_scaled_gap(float_coeffs, exact_coeffs):
    worst = 0.0
    for fvec, evec in zip(float_coeffs, exact_coeffs, strict=True):
        scale = max(abs(complex(c)) for c in evec) or 1.0
        worst = max(worst, max(abs(complex(f) - complex(e))
                               for f, e in zip(fvec, evec)) / scale)
    return worst


def test_float_series_at_large_heights():
    # exponent denominators near 10^6, 10^15, 10^40 and 10^300: cleared to
    # integers, the tables of A and of the resolvent numerator and the
    # step factors at 400 terms pass the double range, so float mode must
    # not route them through it.  From 10^40 on the exact series is slow
    # to compare with, so the float recurrence defect is checked instead.
    for height in (6, 15, 40, 300):
        q = 10 ** height
        exps = (F(q // 3 - 2, q - 17), F(q // 5 - 1, q + 3),
                F(q // 7, q + 33), F(q // 11 - 3, q + 37))
        _, system = solve_accessory(*exps)
        for base in ("0", "1", "inf"):
            flt = local_series(system, base, 1, 400, mode="float")[0]
            if height >= 40:
                defects = recurrence_defects(system, flt)
                assert max(abs(x) for vec in defects for x in vec) <= 1e-12
                continue
            exact = local_series(system, base, 1, 60, mode="exact")[0]
            assert row_scaled_gap(flt.coeffs[:60], exact.coeffs) <= 1e-10


def test_self_convergence_at_fixed_point():
    _, system = build_okubo_system(POK)
    x = 1.3
    low = local_series(system, "1", 0, 40, mode="float")[0].value(x)
    high = local_series(system, "1", 0, 90, mode="float")[0].value(x)
    assert np.max(np.abs(low - high)) < 1e-8


def test_residual_reports_and_disc_checks():
    system = special_system()
    sol = local_series(system, "1", 1, 60, mode="exact")[0]
    rng = random.Random(11)
    samples = [1 + sample_disc(rng, 0.1, 0.3) for _ in range(6)]
    report = residual_report(system, sol, samples)
    assert report.max_residual <= 1e-10
    assert report.terms_used == 60
    with pytest.raises(OutsideDisc):
        residual_report(system, sol, [2.5])
    assert check_in_disc("inf", 3.0) and not check_in_disc("inf", 1.5)


def test_residual_trend_with_truncation_order():
    # max-norm residual over 30 points decays monotonically with the
    # truncation order until it reaches the round-off floor
    system = special_system()
    rng = random.Random(17)
    points = [1 + sample_disc(rng, 0.1, 0.4, max_angle=2.4)
              for _ in range(30)]
    worst = []
    for terms in (10, 20, 30, 40, 80):
        sol = local_series(system, "1", 0, terms, mode="float")[0]
        worst.append(residual_report(system, sol, points).max_residual)
    floor = 1e-14
    above = [w for w in worst if w > floor]
    assert all(above[k] > above[k + 1] for k in range(len(above) - 1))
    assert worst[-1] <= floor


def test_zero_solution_has_zero_residual():
    system = special_system()
    zero = SeriesSolution(base="1", exponent=F(0),
                          coeffs=((0j, 0j, 0j, 0j),) * 5,
                          variable="x-1", exact=False)
    assert residual_report(system, zero, [1.2]).max_residual == 0.0


def test_transported_solution_solves_product_system():
    report = realize_product_system(POK)
    special, product = report.special, report.product
    dinv = report.diag.inverse().to_complex()
    rng = random.Random(13)
    for idx in (0, 1):
        sol = local_series(special, "inf", idx, 70, mode="float")[0]
        for _ in range(4):
            x = 1 + sample_disc(rng, 1.8, 2.8, max_angle=2.0)
            y, dy = sol.value(x), sol.derivative(x)
            assert okubo_residual(product, dinv @ y, dinv @ dy, x) <= 1e-10


def test_series_json_round_trip_values():
    system = special_system()
    sol = local_series(system, "1", 1, 8, mode="float")[0]
    data = sol.to_json()
    assert data["base"] == "1" and data["exponent"] == str(system.b)
    assert len(data["coeffs"]) == 8
    report = EvalReport((0.5 + 0.25j,), 1e-12, 8)
    out = report.to_json()
    assert out["samples"] == [["0.5", "0.25"]]


# -- one-pass evaluation against the per-point loops --------------------------
#
# The per-point Horner loops of value, derivative and residual_report, kept
# as references: the one-pass evaluation must reproduce them bit for bit.

def reference_coeff_array(sol):
    return np.array([[complex(c) for c in vec] for vec in sol.coeffs],
                    dtype=complex)


def reference_value(sol, x, coeffs=None):
    u = sol._local(x)
    coeffs = reference_coeff_array(sol) if coeffs is None else coeffs
    acc = np.zeros(4, dtype=complex)
    for vec in coeffs[::-1]:
        acc = acc * u + vec
    return u ** float(sol.exponent) * acc


def reference_derivative(sol, x, coeffs=None):
    u = sol._local(x)
    rho = float(sol.exponent)
    coeffs = reference_coeff_array(sol) if coeffs is None else coeffs
    acc = np.zeros(4, dtype=complex)
    for k in range(len(coeffs) - 1, -1, -1):
        acc = acc * u + (rho + k) * coeffs[k]
    if sol.base == "inf":
        return -(u ** (rho + 1)) * acc
    return u ** (rho - 1) * acc


def reference_okubo_residual(system, y, dy, x):
    t = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
    lhs = (x * np.eye(4) - t) @ dy
    rhs = system.coeff.to_complex() @ y
    return float(np.max(np.abs(lhs - rhs)))


def reference_max_residual(system, sol, points, values, derivatives):
    worst = 0.0
    for x, y, dy in zip(points, values, derivatives):
        worst = max(worst, reference_okubo_residual(system, y, dy, x))
    return worst


def bits(values):
    """The bit patterns of a complex array, signed zeros included."""
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64)


#: real points (signed zero imaginary parts) inside each disc
REAL_POINTS = {"0": [0.3, -0.45, 0.55], "1": [1.3, 0.5, 1.55],
               "inf": [3.5, -1.2, 2.7]}


def _evaluation_points(rng, base):
    return ([complex(x) for x in REAL_POINTS[base]]
            + [series_sample(rng, base) for _ in range(5)])


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_one_pass_evaluation_is_bit_identical_to_per_point_loops(mode):
    _, product = build_okubo_system(POK)
    rng = random.Random(23)
    checked = 0
    for system in (special_system(), product):
        for base in ("0", "1", "inf"):
            for idx in range(len(exponents_at(system, base))):
                # the first k coefficients of a series are its k-term series
                for full in local_series(system, base, idx, 400, mode):
                    for terms in (20, 80, 400):
                        sol = SeriesSolution(full.base, full.exponent,
                                             full.coeffs[:terms],
                                             full.variable, full.exact)
                        points = _evaluation_points(rng, base)
                        coeffs = reference_coeff_array(sol)
                        want = (
                            [reference_value(sol, x, coeffs) for x in points],
                            [reference_derivative(sol, x, coeffs)
                             for x in points])
                        got = sol.evaluate(points)
                        assert got.shape == (2, len(points), 4)
                        assert np.array_equal(bits(got), bits(want))
                        got = residual_report(system, sol, points)
                        worst = reference_max_residual(system, sol, points,
                                                       *want)
                        assert got.max_residual.hex() == worst.hex()
                        checked += 1
    assert checked == 3 * 24


def test_value_and_derivative_wrap_the_one_pass_evaluation():
    _, product = build_okubo_system(POK)
    rng = random.Random(29)
    for base in ("0", "1", "inf"):
        for sol in local_series(product, base, 0, 80, mode="float"):
            for x in _evaluation_points(rng, base):
                assert np.array_equal(bits(sol.value(x)),
                                      bits(reference_value(sol, x)))
                assert np.array_equal(bits(sol.derivative(x)),
                                      bits(reference_derivative(sol, x)))


def test_okubo_residual_matches_its_reference():
    system = special_system()
    sol = local_series(system, "1", 1, 60, mode="float")[0]
    for x in (1.3, 1.1 + 0.2j, 0.7 - 0.3j):
        y, dy = sol.value(x), sol.derivative(x)
        assert (okubo_residual(system, y, dy, x).hex()
                == reference_okubo_residual(system, y, dy, x).hex())


@pytest.mark.parametrize("base, x", [("0", 0), ("0", 0j), ("1", 1),
                                     ("1", 1 + 0j)])
def test_residual_at_the_expansion_point_is_outside_the_disc(base, x):
    system = special_system()
    for index in range(len(exponents_at(system, base))):
        for sol in local_series(system, base, index, 20, mode="float"):
            with pytest.raises(OutsideDisc):
                residual_report(system, sol, [0.3 + 0.1j + int(base), x])
            with pytest.raises(OutsideDisc):
                sol.evaluate([x])


def test_series_at_infinity_refuses_x_equal_to_one():
    sol = local_series(special_system(), "inf", 0, 20, mode="float")[0]
    for x in (1, 1.0, 1 + 0j):
        with pytest.raises(OutsideDisc):
            sol.evaluate([3.0, x])


@pytest.mark.parametrize("x", [math.inf, -math.inf, complex(math.inf, 0),
                               complex(3, math.inf), complex(math.nan, 0)])
def test_residual_at_infinity_is_outside_the_disc(x):
    system = special_system()
    sol = local_series(system, "inf", 0, 20, mode="float")[0]
    assert not check_in_disc("inf", x)
    with pytest.raises(OutsideDisc):
        residual_report(system, sol, [3.0, x])


def test_residual_report_needs_a_sample():
    system = special_system()
    sol = local_series(system, "1", 1, 20, mode="float")[0]
    with pytest.raises(InputError):
        residual_report(system, sol, [])


def test_worst_defect_keeps_nan():
    assert series.worst_defect([]) == 0.0
    assert series.worst_defect([1e-12, 3e-12, 2e-12]) == 3e-12
    assert series.worst_defect([math.inf, 1.0]) == math.inf
    for values in ([math.nan, 1.0], [1.0, math.nan], [0.0, math.nan, 0.0]):
        assert math.isnan(series.worst_defect(values))


def test_residual_report_keeps_nan(monkeypatch):
    system = special_system()
    sol = local_series(system, "1", 1, 20, mode="float")[0]
    monkeypatch.setattr(SeriesSolution, "evaluate",
                        lambda self, points: np.full((2, len(points), 4),
                                                     complex(math.nan)))
    assert math.isnan(residual_report(system, sol, [1.2]).max_residual)


def test_hyp2f1_jet_matches_separate_power_arrays():
    rng = random.Random(31)
    for terms in (1, 2, 3, 60, 80, 160):
        for _ in range(4):
            x = sample_disc(rng, 0.0, 0.99)
            c = gauss_coefficients(F(1, 3), F(-2, 5), F(3, 7), terms)
            n = np.arange(terms)
            d1 = complex(np.sum(c[1:] * n[1:] * x ** (n[1:] - 1)))
            d2 = complex(np.sum(c[2:] * n[2:] * (n[2:] - 1)
                                * x ** (n[2:] - 2)))
            jet = hyp2f1_jet(F(1, 3), F(-2, 5), F(3, 7), x, terms)
            assert bits([jet.d1, jet.d2]).tolist() == bits([d1, d2]).tolist()
