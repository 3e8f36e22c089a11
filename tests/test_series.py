"""Series numerics: Gauss sums, product vectors, local solutions.

Closed forms (log series, contiguous relations) and exact-mode recurrence
defects provide the oracles; float-mode output is held to the documented
tolerances inside the declared evaluation discs.
"""

import cmath
import math
import random
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from okubo import hgsystem, series
from okubo.accessory import (okubo_from_chart, realize_product_system,
                             solve_accessory)
from okubo.dotsenko_fateev import DFParams, df_integral_solution
from okubo.errors import (InputError, InternalInconsistency, OkuboError,
                          OutsideDisc, SingularMatrixError)
from okubo.exact import PolyMatrix, RationalMatrix, common_denominator
from okubo.hgsystem import HGParams, build_okubo_system, gauge_matrix, lam
from okubo.sampling import (draw_chart, draw_okubo_params, sample_disc,
                            series_sample)
from okubo.series import (EvalReport, GaussJet, SeriesSolution, check_in_disc,
                          contiguous_product_vector, exponents_at,
                          hyp2f1, hyp2f1_jet, local_series,
                          product_vector_w, residual_report, v_residual,
                          v_via_transform, w_residual)

POK = HGParams.okubo(F(1, 3), F(1, 7), F(1, 5), F(1, 11))
PGEN = HGParams.generic(F(1, 3), F(1, 7), F(1, 5), F(1, 11), F(3, 7), F(5, 9))


def gauss_coefficients(alpha, beta, gamma, terms):
    """One triple's row of the batched Gauss kernel series._gauss_table."""
    nums, den = common_denominator((alpha, beta, gamma))
    return series._gauss_table([nums], terms, den)[0]


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
    # not a nonpositive integer, but its double is -2.0: gamma + 2 would
    # divide by an exact zero within ten terms
    near = F(-2) + F(1, 10**30)
    with pytest.raises(InputError, match="rounds to a nonpositive integer"):
        gauss_coefficients(1, 1, near, 10)
    with pytest.raises(InputError, match="rounds to a nonpositive integer"):
        hyp2f1(1, 1, near, 0.5, 10)
    # with at most three terms the sum stops before gamma + 2
    assert list(gauss_coefficients(1, 1, near, 3)) == [1.0, -0.5, 1.0]
    with pytest.raises(OutsideDisc):
        hyp2f1(1, 1, 2, 1.0, 10)
    with pytest.raises(OutsideDisc):
        hyp2f1(1, 1, 2, 1.5 + 0.1j, 10)


def test_hyp2f1_takes_rationals_only():
    assert hyp2f1(1, F(1, 2), 2, 0.3, 10) == hyp2f1(F(1), F(1, 2), F(2),
                                                     0.3, 10)
    for args in ((0.5, 1, 2), (1, 0.5, 2), (1, 1, 2.0)):
        with pytest.raises(InputError, match="must be rationals"):
            hyp2f1(*args, 0.3, 10)
        with pytest.raises(InputError, match="must be rationals"):
            hyp2f1_jet(*args, 0.3, 10)


@pytest.mark.parametrize("order", [3, -1])
def test_hyp2f1_jet_refuses_an_order_outside_0_to_2(monkeypatch, order):
    # refused before any sum runs
    monkeypatch.setattr(series, "_gauss_jets", None)
    with pytest.raises(InputError, match="order"):
        hyp2f1_jet(F(1, 3), F(1, 5), F(1, 7), 0.3, 10, order)


def test_coprime_fraction_is_the_reduced_fraction():
    for num, den in ((3, 7), (-3, 7), (1, 1)):
        got = series._coprime_fraction(num, den)
        assert type(got) is F and got == F(num, den)
        assert hash(got) == hash(F(num, den)) and str(got) == str(F(num, den))


@pytest.mark.parametrize("x", [0.0, 0.1])
def test_gauss_coefficients_past_the_double_range_are_refused(x):
    # c_59 = (3333980)_59 / 59! overflows: the sum would be NaN or inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="leave the double range") as info:
            hyp2f1(3333980, 1, 1, x, 60)
        assert info.value.context["alpha"] == 3333980
        with pytest.raises(InputError, match="leave the double range"):
            product_vector_w(HGParams.generic(1, 3333980, 1, 1, 1, 1), x, 60)
    # one term fewer stays inside it
    assert math.isfinite(abs(hyp2f1(3333980, 1, 1, 0.1, 40)))


#: Okubo parameters whose R is invertible exactly but singular in doubles
SINGULAR_IN_DOUBLES = HGParams.okubo(F(-2) + F(1, 10 ** 30), F(-37, 4),
                                     F(-2), F(5, 3))


def test_v_residual_refuses_r_singular_in_doubles():
    assert hgsystem.det_diagonalizer_formula(SINGULAR_IN_DOUBLES) != 0
    with pytest.raises(SingularMatrixError, match="singular in doubles"):
        v_residual(SINGULAR_IN_DOUBLES, 0.5, 10)


@pytest.mark.parametrize("request_", [contiguous_product_vector,
                                      v_via_transform, v_residual])
def test_a_power_of_tiny_x_past_the_double_range_is_refused(request_):
    # x^(gamma1 - 1) = x^(-7/2) overflows at x = 3.5e-307
    p = HGParams.generic(F(1, 3), F(1, 5), F(1, 7), F(1, 11), F(-5, 2), 1)
    with pytest.raises(OutsideDisc, match="power of x") as info:
        request_(p, 3.5e-307, 5)
    assert info.value.context["x"] == 3.5e-307
    # gamma1 - 1 = -1/2: only v_residual's derivative power x^(-3/2)
    p = HGParams.generic(F(1, 3), F(1, 5), F(1, 7), F(1, 11), F(1, 2), 1)
    if request_ is v_residual:
        with pytest.raises(OutsideDisc, match="power of x"):
            request_(p, 3.5e-307, 1)
    else:
        assert np.isfinite(request_(p, 3.5e-307, 1)).all()


def test_a_series_power_of_tiny_u_past_the_double_range_is_refused():
    # at x = 0, index 2, rho = -443/1155: u^(rho - 1) overflows at 1e-300
    _, system = build_okubo_system(POK)
    sol = local_series(system, "0", 2, 20)[0]
    assert sol.exponent == F(-443, 1155)
    with pytest.raises(OutsideDisc, match="power of x"):
        sol.evaluate([1e-300])
    with pytest.raises(OutsideDisc, match="power of x"):
        residual_report(system, sol, [0.1, 1e-300])
    assert np.isfinite(sol.evaluate([1e-3])).all()


@pytest.mark.parametrize("x", [math.nan, complex(math.nan, 0.1),
                               complex(0.1, math.nan)])
def test_nan_points_are_outside_the_disc(x):
    with pytest.raises(OutsideDisc):
        hyp2f1_jet(1, 1, 2, x, 10)
    with pytest.raises(OutsideDisc):
        contiguous_product_vector(POK, x, 10)


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
        w, dw = _w_jet(POK, x, 80, True)
        xe = x ** (-e)
        u = np.linalg.solve(gauge, xe * w)
        du = np.linalg.solve(gauge, -e * x ** (-e - 1) * w + xe * dw)
        assert reference_okubo_residual(system, u, du, x) <= 1e-9


# -- local series -------------------------------------------------------------

def special_system():
    _, system = solve_accessory(F(1, 3), F(1, 5), F(1, 7), F(1, 11))
    return system


def mat_vec(m, v) -> list:
    """M v over M's Fraction rows; a complex v gives complex entries."""
    return [sum((a * x for a, x in zip(row, v)), F(0)) for row in m.rows]


def recurrence_defects(system, sol):
    """Defect vectors of the defining recurrence, index by index.

    A's rows are Fractions, which multiply Fraction and complex entries
    alike, so one path serves both modes: for exact solutions every entry
    is a Fraction and must be zero; for float solutions the entries are
    complex round-off residue.
    """
    def apply(v):
        return mat_vec(system.coeff, v)

    t_diag = [0, 0, 1, 1]
    rho = sol.exponent
    vecs = sol.coeffs
    defects = []
    if sol.base in ("0", "1"):
        shift = 0 if sol.base == "0" else -1
        # initial condition rho * (T + shift I) g(0) = 0
        init = [rho * (t_diag[i] + shift) * vecs[0][i] for i in range(4)]
        defects.append(init)
        for r in range(len(vecs) - 1):
            z = r + rho
            lhs = [(z + 1) * (t_diag[i] + shift) * vecs[r + 1][i]
                   for i in range(4)]
            rhs_vec = apply(vecs[r])
            rhs = [z * vecs[r][i] - rhs_vec[i] for i in range(4)]
            defects.append([lhs[i] - rhs[i] for i in range(4)])
    else:
        sigma = rho
        first = apply(vecs[0])
        defects.append([sigma * vecs[0][i] + first[i] for i in range(4)])
        for s in range(len(vecs) - 1):
            z = s + sigma
            step = apply(vecs[s + 1])
            lhs = [(z + 1) * vecs[s + 1][i] + step[i] for i in range(4)]
            rhs = [z * (t_diag[i] - 1) * vecs[s][i] for i in range(4)]
            defects.append([lhs[i] - rhs[i] for i in range(4)])
    return defects


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


def test_local_series_needs_a_term():
    system = special_system()
    for base in ("0", "1", "inf"):
        for mode in ("exact", "float"):
            for terms in (0, -1):
                with pytest.raises(InputError, match="at least one term"):
                    local_series(system, base, 0, terms, mode)


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
        image = mat_vec(shifted, sol.coeffs[0])
        assert all(x == 0 for x in image)
    # at the origin with exponent a: (1,0,0,0)
    sol = local_series(system, "0", 1, 8, mode="exact")[0]
    assert sol.coeffs[0] == (1, 0, 0, 0)


def negative_step_systems():
    """Special systems with a = 3/4, b = 5/7 or c = 5/7: an exponent above
    1/2 makes an early step factor negative at 0, 1 or infinity, so the
    normaliser flips the sign of the denominator there."""
    rest = (F(1, 5), F(1, 7), F(1, 11))
    return [solve_accessory(*abcd)[1] for abcd in
            [(F(3, 4), *rest), (F(1, 3), F(5, 7), *rest[1:]),
             (F(1, 3), F(1, 5), F(5, 7), F(1, 11))]]


def test_exact_recurrence_has_zero_defect():
    for system in (special_system(), build_okubo_system(POK)[1],
                   *negative_step_systems()):
        for base in ("0", "1", "inf"):
            for idx in range(len(exponents_at(system, base))):
                for sol in local_series(system, base, idx, 60, mode="exact"):
                    defects = recurrence_defects(system, sol)
                    assert all(x == 0 for vec in defects for x in vec)


def fraction_reference(system, sol, terms):
    """The recurrence stepped in Fraction arithmetic from sol's g(0), with
    an exact 4x4 inverse of the step matrix at every step at infinity."""
    amat, rho = system.coeff, sol.exponent
    a12, a21 = amat.block(0, 2, 2, 4), amat.block(2, 4, 0, 2)
    g = list(sol.coeffs[0])
    out = [tuple(g)]
    for r in range(terms - 1):
        z = r + rho
        if sol.base == "inf":
            step = amat + RationalMatrix.identity(4).scale(z + 1)
            g = mat_vec(step.inverse(), [-z * g[0], -z * g[1], F(0), F(0)])
        else:
            rhs = [z * gi - ai for gi, ai in zip(g, mat_vec(amat, g))]
            step, e = z + 1, system.b if sol.base == "1" else system.a
            if sol.base == "1":
                top = [-rhs[0] / step, -rhs[1] / step]
                mixed = mat_vec(a21, top)
                g = top + [mixed[0] / (step - e), mixed[1] / (step + e)]
            else:
                bottom = [rhs[2] / step, rhs[3] / step]
                mixed = mat_vec(a12, bottom)
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
    """The exact normaliser the split denominator replaced: the numerators
    rows . basis formed in full, one gcd against the whole denominator per
    step, then Fraction(n, den) per entry."""

    one = 1

    def __init__(self, scales):
        pass

    @staticmethod
    def split(f):
        return f

    @staticmethod
    def normalise(basis, rows, fixed, step, den):
        nums = [sum(c * x for c, x in zip(row, basis)) for row in rows]
        den *= fixed * step
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
            got = split.normalise(nums, series._IDENTITY_ROWS,
                                  split.split(factors[0]), factors[1], den)
            want = FractionNormaliser.normalise(nums, series._IDENTITY_ROWS,
                                                *factors, ref_den)
            assert_same_reduced(got[2], want[2])
            nums_got, den, _ = got
            nums_want, ref_den, _ = want
            full, light, (e3,) = den
            assert (nums_got, full) == (nums_want, ref_den)
            assert full == light * 3 ** e3 and light % 3 != 0


def test_two_integer_reduction_matches_fraction_reference():
    # chained steps whose four numerators are small rows over a random big
    # pair, as the kernels pass them: zero rows, step factors of either
    # sign (the denominator's sign flips), entries divisible by 3**40 (3
    # fills its chunk, 3**18) and the light prime 65537 > 2**16
    split = series._SplitDenominator([3 * 5 * 65537])
    assert split.primes == (3, 5)
    rng = random.Random(26)
    pool = [2, 3, 5, 3 ** 7, 65537, 65537 ** 2]
    flips = deep = 0
    for _ in range(150):
        den, ref_den = split.one, FractionNormaliser.one
        for _ in range(4):
            factors = [rng.choice((1, -1)) * math.prod(rng.choices(pool, k=3))
                       for _ in range(2)]
            shared = rng.choice((1, 3 ** 40, 65537 ** 3))
            basis = [shared * rng.choice((1, -1))
                     * rng.getrandbits(rng.choice((8, 300, 3000)))
                     for _ in range(2)]
            rows = [[rng.choice((0, 1, -1, 5, 65537, rng.getrandbits(40)))
                     for _ in range(2)] for _ in range(4)]
            rows[rng.randrange(4)] = [0, 0]
            got = split.normalise(basis, rows, split.split(factors[0]),
                                  factors[1], den)
            want = FractionNormaliser.normalise(basis, rows, *factors,
                                                ref_den)
            assert_same_reduced(got[2], want[2])
            nums_got, (full, light, (e3, e5)), _ = got
            nums_want, ref_den, _ = want
            assert (nums_got, full) == (nums_want, ref_den)
            assert full == light * 3 ** e3 * 5 ** e5
            assert light % 3 and light % 5
            flips += math.prod(factors) < 0
            # a step that takes more than the chunk 3**18 from den took
            # 3's power a chunk at a time
            deep += den[2][0] + sum(split.split(f)[2][0] for f in factors) \
                - e3 > 18
            den = got[1]
    assert flips and deep


def test_perturbed_resolvent_is_an_internal_inconsistency(monkeypatch):
    honest = hgsystem.resolvent_numerator

    def perturbed(matrix, c, d):
        # N_0 with 1/10^6 added to its entry (0, 0)
        n0, *rest = honest(matrix, c, d).coeffs
        bump = RationalMatrix.from_integers([1] + [0] * 15, 10 ** 6)
        return PolyMatrix([n0 + bump, *rest])

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


def test_infinity_start_is_the_left_null_space_reference():
    """h(0), read off a column of the resolvent numerator N(-sigma), is the
    kernel vector of sigma I + A that left_null_space finds for the
    transpose, first nonzero entry 1, for every exponent at infinity."""
    rng = random.Random(23)
    systems = [okubo_from_chart(draw_chart(rng)) for _ in range(4)]
    systems += [build_okubo_system(draw_okubo_params(rng))[1]
                for _ in range(4)]
    for system in systems:
        for idx, sigma in enumerate(exponents_at(system, "inf")):
            shifted = system.coeff + RationalMatrix.identity(4).scale(sigma)
            transposed = RationalMatrix(zip(*shifted.rows))
            want, = transposed.left_null_space()
            got = local_series(system, "inf", idx, 1, "exact")[0].coeffs[0]
            assert list(got) == want


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
    low = local_series(system, "1", 0, 40, mode="float")[0].evaluate([x])
    high = local_series(system, "1", 0, 90, mode="float")[0].evaluate([x])
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
            (y,), (dy,) = sol.evaluate([x])
            assert reference_okubo_residual(product, dinv @ y, dinv @ dy,
                                            x) <= 1e-10


def test_series_json_round_trip_values():
    system = special_system()
    sol = local_series(system, "1", 1, 8, mode="float")[0]
    data = sol.to_json()
    assert data["base"] == "1" and data["exponent"] == str(system.b)
    assert len(data["coeffs"]) == 8
    report = EvalReport((0.5 + 0.25j,), 1e-12, 8)
    out = report.to_json()
    assert out["samples"] == [["0.5", "0.25"]]


COUNT_CALLS = {
    "hyp2f1": ("terms", lambda n: hyp2f1(F(1, 3), F(1, 5), F(1, 7), 0.5, n)),
    "product_vector_w": ("terms", lambda n: product_vector_w(POK, 0.3, n)),
    "contiguous_product_vector": (
        "terms", lambda n: contiguous_product_vector(POK, 0.3, n)),
    "local_series-terms": (
        "terms", lambda n: local_series(special_system(), "0", 0, n)),
    "local_series-index": (
        "exponent index", lambda n: local_series(special_system(), "0", n, 8)),
    "df_integral_solution": ("nodes", lambda n: df_integral_solution(
        DFParams(F(1, 3), F(1, 5), F(1, 7), F(1, 2)), 0.4, n)),
}


@pytest.mark.parametrize("value", [80.5, 80.0, True, "80"])
@pytest.mark.parametrize("entry", COUNT_CALLS)
def test_count_arguments_must_be_ints(entry, value):
    # a float, a bool or a string count is refused, not truncated, read
    # as 0 or 1, or left to fail as a bare TypeError
    name, call = COUNT_CALLS[entry]
    with pytest.raises(InputError, match=f"^{name} must be an integer$") \
            as err:
        call(value)
    assert err.value.context == {name: repr(value)}


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


# -- float requests against the exact rebuilds they replace ---------------------

def reference_gauss_coefficients(alpha, beta, gamma, terms):
    """The coefficient loop over numpy complex scalars."""
    a, b, c = (float(alpha), float(beta), float(gamma))
    coeffs = np.empty(terms, dtype=complex)
    coeffs[0] = 1.0
    for n in range(terms - 1):
        coeffs[n + 1] = coeffs[n] * (a + n) * (b + n) / ((c + n) * (n + 1))
    return coeffs


def test_gauss_coefficients_round_as_the_complex_loop():
    rng = random.Random(41)
    draw = lambda: F(rng.randint(-40, 40), rng.randint(1, 12))
    terminating = 0
    for terms in (1, 2, 3, 80, 160, 400):
        for k in range(12):
            # every third draw is a terminating series
            alpha = F(rng.choice([0, -3])) if k % 3 == 0 else draw()
            beta, gamma = draw(), draw()
            while gamma.denominator == 1 and gamma <= 0:
                gamma = draw()
            got = gauss_coefficients(alpha, beta, gamma, terms)
            want = reference_gauss_coefficients(alpha, beta, gamma, terms)
            assert got.dtype == np.float64 and got.shape == (terms,)
            assert not want.imag.any()
            assert (got == want.real).all()
            # an exact zero may carry either sign; every other bit agrees
            nonzero = want != 0
            terminating += not nonzero.all()
            assert (bits(got[nonzero]) == bits(want.real[nonzero])).all()
    assert terminating


def reference_v_via_transform(p, x, terms):
    """x^(gamma1 - 1) (R P^{-1}) w with R P^{-1} rebuilt and inverted
    exactly and converted entry by entry through complex()."""
    x = complex(x)
    w = product_vector_w(p, x, terms)
    rp = hgsystem.build_diagonalizer(p) * gauge_matrix(p).inverse()
    rp = np.array([[complex(v) for v in row] for row in rp.rows])
    return x ** float(p.gamma1 - 1) * (rp @ w)


def _outcome(f, *args):
    try:
        return bits(f(*args)).tolist()
    except OkuboError as exc:
        return type(exc)


def test_v_via_transform_is_the_exact_rebuild_bit_for_bit():
    rng = random.Random(43)
    draw = lambda: F(rng.randint(-9, 9), rng.randint(1, 9))
    answered = refused = 0
    for _ in range(200):
        p = HGParams.okubo(*(draw() for _ in range(4)))
        x = sample_disc(rng, 0.05, 0.95)
        want = _outcome(reference_v_via_transform, p, x, 80)
        assert _outcome(v_via_transform, p, x, 80) == want
        answered += isinstance(want, list)
        refused += not isinstance(want, list)
    assert answered >= 150 and refused


def reference_v_residual(p, x, terms):
    """v_residual with R rebuilt as an exact matrix by build_diagonalizer
    and converted by to_complex."""
    x = complex(x)
    v, dv = series._v_jet(p, x, terms)
    r = hgsystem.build_diagonalizer(p).to_complex()
    c, d = float(lam(p, "++--")), float(lam(p, "+--+"))
    diag_exp = np.diag([c, -c, d, -d]).astype(complex)
    xit = np.diag([1 / x, 1 / x, 1 / (x - 1), 1 / (x - 1)])
    rhs = r @ xit @ np.linalg.solve(r, diag_exp @ v)
    return float(np.max(np.abs(dv - rhs)))


def test_v_residual_is_the_exact_rebuild_byte_for_byte(monkeypatch):
    def refuse(self, rows):
        raise AssertionError("exact matrix in a float request")

    rng = random.Random(53)
    draw = lambda: F(rng.randint(-9, 9), rng.randint(1, 9))
    params = [VANISH, DET_R, DET_P, POK]
    params += [HGParams.okubo(*(draw() for _ in range(4)))
               for _ in range(300)]
    params += [HGParams.generic(*(draw() for _ in range(6)))
               for _ in range(100)]
    got, want = [], []
    for k, p in enumerate(params):
        x = (-0.5, 0.0)[k % 2] if k % 37 == 0 else sample_disc(rng, 0.05,
                                                                 0.95)
        args = (p, x, (1, 2, 80)[k % 3])
        want.append(_bytes_or_refusal(reference_v_residual, *args))
        with monkeypatch.context() as m:
            m.setattr(RationalMatrix, "__init__", refuse)
            got.append(_bytes_or_refusal(v_residual, *args))
    assert got == want
    kinds = {w[1] if isinstance(w, tuple) else "answered" for w in want}
    assert kinds >= {"answered", "a hypergeometric parameter vanishes",
                     "degenerate parameters: det R = 0",
                     "x must avoid the branch cut (-inf, 0]"}


def test_to_complex_is_complex_of_each_entry():
    rng = random.Random(47)
    for _ in range(50):
        rows = [[F(rng.randint(-10 ** 30, 10 ** 30),
                   rng.randint(1, 10 ** rng.randint(1, 40)))
                 for _ in range(4)] for _ in range(4)]
        rows[0][0] = F(0)
        m = RationalMatrix(rows)
        want = np.array([[complex(v) for v in row] for row in m.rows])
        assert m.to_complex().tobytes() == want.tobytes()


def test_v_via_transform_refuses_det_p_zero():
    # alpha1 + alpha2 = beta1 + beta2 makes lam(++--) = 0
    p = HGParams.okubo(F(1, 3), F(1, 5), F(1, 7), F(1, 3) + F(1, 5) - F(1, 7))
    assert lam(p, "++--") == 0 and hgsystem.det_gauge_formula(p) == 0
    with pytest.raises(SingularMatrixError, match="det P = 0"):
        v_via_transform(p, 0.3, 40)


def test_v_via_transform_refuses_det_r_zero_with_det_p_nonzero():
    p = HGParams.okubo(F(1, 3), F(1, 5), F(1, 3), F(1, 11))
    assert hgsystem.det_gauge_formula(p) != 0
    assert hgsystem.det_diagonalizer_formula(p) == 0
    with pytest.raises(SingularMatrixError, match="det R = 0"):
        v_via_transform(p, 0.3, 40)


def test_v_via_transform_inverts_nothing_exactly(monkeypatch):
    def refuse(self):
        raise AssertionError("exact inverse in a float request")

    monkeypatch.setattr(RationalMatrix, "inverse", refuse)
    v = v_via_transform(POK, 0.2 + 0.1j, 80)
    assert np.isfinite(v).all()


def test_w_residual_refuses_the_singular_point():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (0, 0.0, 0j, complex(-0.0, 0.0)):
            with pytest.raises(OutsideDisc):
                w_residual(PGEN, x, 60)


# -- the batched Gauss kernel against the per-triple composition --------------

def per_triple_coefficients(alpha, beta, gamma, terms):
    """The Gauss coefficients one triple at a time: one 1-D accumulate over
    the interleaved factors."""
    if gamma.denominator == 1 and gamma <= 0:
        raise InputError("gamma must not be a nonpositive integer",
                         {"gamma": gamma})
    if terms < 1:
        raise InputError("need at least one term")
    a, b, c = (float(alpha), float(beta), float(gamma))
    if c <= 0 and c.is_integer() and -c < terms - 1:
        raise InputError("gamma rounds to a nonpositive integer in doubles",
                         {"gamma": gamma, "terms": terms})
    n = np.arange(terms - 1, dtype=float)
    factors = np.empty(3 * terms - 2)
    factors[0] = 1.0
    factors[1::3] = a + n
    factors[2::3] = b + n
    factors[3::3] = 1.0 / ((c + n) * (n + 1))
    np.multiply.accumulate(factors, out=factors)
    return factors[::3].copy()


def per_triple_jet(alpha, beta, gamma, x, terms):
    """hyp2f1_jet as one triple's own coefficients, powers and sums."""
    x = complex(x)
    if not abs(x) < 1:
        raise OutsideDisc("outside disc: |x| >= 1", {"x": x})
    c = per_triple_coefficients(alpha, beta, gamma, terms)
    n = np.arange(terms)
    powers = x ** n
    value = complex(np.sum(c * powers))
    d1 = complex(np.sum(c[1:] * n[1:] * powers[:-1]))
    d2 = complex(np.sum(c[2:] * n[2:] * (n[2:] - 1) * powers[:-2]))
    return GaussJet(value, d1, d2, abs(c[-1] * powers[-1]))


def per_triple_w_jet(p, x, terms):
    x = complex(x)
    f1 = per_triple_jet(p.alpha1, p.beta1, p.gamma1, x, terms)
    f2 = per_triple_jet(p.alpha2, p.beta2, p.gamma2, x, terms)
    w = np.array([
        f1.value * f2.value,
        x * f1.d1 * f2.value,
        x * f1.value * f2.d1,
        x * x * f1.d1 * f2.d1])
    dw = np.array([
        f1.d1 * f2.value + f1.value * f2.d1,
        f1.d1 * f2.value + x * f1.d2 * f2.value + x * f1.d1 * f2.d1,
        f1.value * f2.d1 + x * f1.d1 * f2.d1 + x * f1.value * f2.d2,
        2 * x * f1.d1 * f2.d1 + x * x * (f1.d2 * f2.d1 + f1.d1 * f2.d2)])
    return w, dw


def per_triple_residues(p):
    """H0 and H1 of the product system, written out on their own."""
    a1, a2, b1, b2 = p.alpha1, p.alpha2, p.beta1, p.beta2
    g1, g2 = p.gamma1, p.gamma2
    h0 = RationalMatrix([
        [0, 1, 1, 0],
        [0, 1 - g1, 0, 1],
        [0, 0, 1 - g2, 1],
        [0, 0, 0, 2 - g1 - g2]])
    h1 = RationalMatrix([
        [0, 0, 0, 0],
        [-a1 * b1, g1 - 1 - a1 - b1, 0, 0],
        [-a2 * b2, 0, g2 - 1 - a2 - b2, 0],
        [0, -a2 * b2, -a1 * b1, g1 + g2 - 2 - a1 - a2 - b1 - b2]])
    return h0, h1


def per_triple_w_residual(p, x, terms):
    """w_residual with H0 and H1 built as exact matrices."""
    x = complex(x)
    if x == 0:
        raise OutsideDisc("w_residual is undefined at the singular point 0",
                          {"x": x})
    w, dw = per_triple_w_jet(p, x, terms)
    h0, h1 = (h.to_complex() for h in per_triple_residues(p))
    return float(np.max(np.abs(dw - (h0 / x + h1 / (x - 1)) @ w)))


def per_triple_v(p, x, terms):
    x = complex(x)
    if not abs(x) < 1:
        raise OutsideDisc("outside disc: |x| >= 1", {"x": x})
    series._check_off_cut(x)
    a1, a2, b1, b2 = p.alpha1, p.alpha2, p.beta1, p.beta2
    fa1 = per_triple_jet(a1 + 1, b1, p.gamma1, x, terms)
    fb1 = per_triple_jet(a1, b1 + 1, p.gamma1, x, terms)
    fa2 = per_triple_jet(a2 + 1, b2, p.gamma2, x, terms)
    fb2 = per_triple_jet(a2, b2 + 1, p.gamma2, x, terms)
    prods = np.array([u.value * v.value for u, v in
                      [(fa1, fa2), (fb1, fb2), (fa1, fb2), (fb1, fa2)]])
    return x ** float(p.gamma1 - 1) * prods


def per_triple_v_via_transform(p, x, terms):
    """v_via_transform with R P^-1 as an exact matrix, its closed form
    written out on its own, and the domain from the determinant
    formulas."""
    x = complex(x)
    series._check_off_cut(x)
    w, _ = per_triple_w_jet(p, x, terms)
    a1, a2, b1, b2 = p.alpha1, p.alpha2, p.beta1, p.beta2
    if a1 * a2 * b1 * b2 == 0:
        raise SingularMatrixError("a hypergeometric parameter vanishes")
    row = lambda u, v: [F(1), 1 / u, 1 / v, 1 / (u * v)]
    rp = RationalMatrix([row(a1, a2), row(b1, b2), row(a1, b2), row(b1, a2)])
    if hgsystem.det_gauge_formula(p) == 0:
        raise SingularMatrixError("degenerate parameters: det P = 0",
                                  {"det": "0"})
    if hgsystem.det_diagonalizer_formula(p) == 0:
        raise SingularMatrixError("degenerate parameters: det R = 0")
    return x ** float(p.gamma1 - 1) * (rp.to_complex() @ w)


def _bytes_or_refusal(f, *args):
    """The bytes of every number f returns, or its refusal."""
    try:
        out = f(*args)
    except OkuboError as exc:
        return type(exc), exc.message, exc.context
    if isinstance(out, GaussJet):
        return (bits([out.value, out.d1, out.d2]).tobytes(),
                np.float64(out.tail).tobytes())
    return np.asarray(out).tobytes()


#: the jet, product vector and contiguous vector requests, each beside its
#: per-triple composition and the kind of arguments it takes
BATCHED_AND_PER_TRIPLE = [
    ("jet", hyp2f1_jet, per_triple_jet),
    ("jet", hyp2f1, lambda *args: per_triple_jet(*args).value),
    ("w", product_vector_w,
     lambda p, x, terms: per_triple_w_jet(p, x, terms)[0]),
    ("w", w_residual, per_triple_w_residual),
    ("v", contiguous_product_vector, per_triple_v),
    ("v", v_via_transform, per_triple_v_via_transform),
]


def test_batched_gauss_kernel_is_the_per_triple_composition_byte_for_byte():
    rng = random.Random(59)
    draw = lambda: F(rng.randint(-40, 40), rng.randint(1, 12))
    outcomes = {f.__name__: set() for _, f, _ in BATCHED_AND_PER_TRIPLE}
    for k in range(600):
        terms = (1, 2, 3, 60, 80, 160)[k % 6]
        # up to |x| = 0.99, a quarter of the points beyond 0.9
        x = sample_disc(rng, *((0.9, 0.99) if k % 4 == 0 else (0.0, 0.99)),
                        max_angle=math.pi)
        triple = [draw(), draw(), draw()]
        generic = [draw() for _ in range(6)]
        okubo = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
        if k % 5 == 0:
            # terminating series
            triple[0] = generic[0] = okubo[0] = F(rng.choice([0, -3]))
        args = {"jet": (*triple, x, terms),
                "w": (HGParams.generic(*generic), x, terms),
                "v": (HGParams.okubo(*okubo), x, terms)}
        for kind, f, reference in BATCHED_AND_PER_TRIPLE:
            got = _bytes_or_refusal(f, *args[kind])
            assert got == _bytes_or_refusal(reference, *args[kind]), \
                (f.__name__, args[kind])
            outcomes[f.__name__].add(got[0] if isinstance(got, tuple)
                                     and isinstance(got[0], type)
                                     else "answered")
    for name, seen in outcomes.items():
        assert "answered" in seen and len(seen) > 1, (name, seen)


NEAR_MINUS_TWO = F(-2) + F(1, 10 ** 30)


def _with_gammas(g1, g2):
    return HGParams.generic(F(1, 3), F(1, 7), F(1, 5), F(1, 11), g1, g2)


BAD_G1 = _with_gammas(F(-2), F(5, 9))
BAD_G2 = _with_gammas(F(3, 7), F(-3))
BAD_BOTH = _with_gammas(F(-2), F(-3))
NEAR_G1 = _with_gammas(NEAR_MINUS_TWO, F(5, 9))
NEAR_G2 = _with_gammas(F(3, 7), NEAR_MINUS_TWO)
#: okubo parameters whose gamma is -2, and -2 + 10^-30
OK_BAD = HGParams.okubo(-3, -1, -1, -1)
OK_NEAR = HGParams.okubo(-3, -1, -1, F(-1) + F(2, 10 ** 30))
VANISH = HGParams.okubo(0, F(1, 7), F(1, 5), F(1, 11))
DET_P = HGParams.okubo(F(1, 3), F(1, 5), F(1, 7), F(1, 3) + F(1, 5) - F(1, 7))
DET_R = HGParams.okubo(F(1, 3), F(1, 5), F(1, 3), F(1, 11))
NEAR_CONTEXT = {"gamma": str(NEAR_MINUS_TWO), "terms": "10"}
DISC = ("OutsideDisc", "outside disc: |x| >= 1")
CUT = ("OutsideDisc", "x must avoid the branch cut (-inf, 0]")
NONPOSITIVE = ("InputError", "gamma must not be a nonpositive integer")
ROUNDS = ("InputError", "gamma rounds to a nonpositive integer in doubles")
NO_TERMS = ("InputError", "need at least one term", {})
SINGULAR_0 = ("OutsideDisc", "w_residual is undefined at the singular point 0")

#: (request, arguments, (class, message, context)) as the per-triple code
#: refused them: the disc first, then gamma, terms and the rounding test
#: triple by triple, then the parameter and determinant tests
REFUSALS = [
    (hyp2f1, (1, 1, -2, 1.0, 10), DISC + ({"x": "(1+0j)"},)),
    (hyp2f1_jet, (1, 1, NEAR_MINUS_TWO, 1.5 + 0.1j, 10),
     DISC + ({"x": "(1.5+0.1j)"},)),
    (hyp2f1, (1, 1, -2, complex(math.nan, 0.1), 10),
     DISC + ({"x": "(nan+0.1j)"},)),
    (hyp2f1_jet, (1, 1, 2, math.nan, 10), DISC + ({"x": "(nan+0j)"},)),
    (product_vector_w, (BAD_BOTH, 1.0, 0), DISC + ({"x": "(1+0j)"},)),
    (w_residual, (BAD_BOTH, -1.0, 10), DISC + ({"x": "(-1+0j)"},)),
    (w_residual, (BAD_BOTH, complex(0.1, math.nan), 10),
     DISC + ({"x": "(0.1+nanj)"},)),
    (contiguous_product_vector, (OK_BAD, -1.5, 10),
     DISC + ({"x": "(-1.5+0j)"},)),
    (contiguous_product_vector, (OK_BAD, math.nan, 10),
     DISC + ({"x": "(nan+0j)"},)),
    (v_via_transform, (OK_BAD, -1.5, 10), CUT + ({"x": "(-1.5+0j)"},)),
    (v_via_transform, (OK_BAD, 1.5j, 10), DISC + ({"x": "1.5j"},)),
    (v_via_transform, (VANISH, complex(0.1, math.nan), 10),
     DISC + ({"x": "(0.1+nanj)"},)),
    (product_vector_w, (BAD_G1, 0.3, 10), NONPOSITIVE + ({"gamma": "-2"},)),
    (product_vector_w, (BAD_G2, 0.3, 10), NONPOSITIVE + ({"gamma": "-3"},)),
    (w_residual, (BAD_BOTH, 0.3, 10), NONPOSITIVE + ({"gamma": "-2"},)),
    (w_residual, (BAD_G2, 0.3, 0), NO_TERMS),
    (w_residual, (BAD_G1, 0.3, 0), NONPOSITIVE + ({"gamma": "-2"},)),
    (product_vector_w, (NEAR_G1, 0.3, 10), ROUNDS + (NEAR_CONTEXT,)),
    (w_residual, (NEAR_G2, 0.3, 10), ROUNDS + (NEAR_CONTEXT,)),
    (product_vector_w, (NEAR_G2, 0.3, 0), NO_TERMS),
    (contiguous_product_vector, (OK_BAD, 0.3, 10),
     NONPOSITIVE + ({"gamma": "-2"},)),
    (v_via_transform, (OK_BAD, 0.3, 0), NONPOSITIVE + ({"gamma": "-2"},)),
    (contiguous_product_vector, (OK_NEAR, 0.3, 10), ROUNDS + (NEAR_CONTEXT,)),
    (v_via_transform, (OK_NEAR, 0.3, 10), ROUNDS + (NEAR_CONTEXT,)),
    (hyp2f1, (1, 1, NEAR_MINUS_TWO, 0.5, 10), ROUNDS + (NEAR_CONTEXT,)),
    (hyp2f1_jet, (1, 1, NEAR_MINUS_TWO, 0.5, 0), NO_TERMS),
    (hyp2f1, (1, 1, 2, 0.5, 0), NO_TERMS),
    (gauss_coefficients, (1, 1, 0, 10), NONPOSITIVE + ({"gamma": "0"},)),
    (gauss_coefficients, (1, 1, NEAR_MINUS_TWO, 10), ROUNDS + (NEAR_CONTEXT,)),
    (gauss_coefficients, (1, 1, -2, 0), NONPOSITIVE + ({"gamma": "-2"},)),
    (product_vector_w, (PGEN, 0.3, 0), NO_TERMS),
    (contiguous_product_vector, (POK, 0.3, 0), NO_TERMS),
    (w_residual, (PGEN, 0, 10), SINGULAR_0 + ({"x": "0j"},)),
    (w_residual, (BAD_BOTH, 0j, 0), SINGULAR_0 + ({"x": "0j"},)),
    (w_residual, (PGEN, complex(-0.0, 0.0), 10),
     SINGULAR_0 + ({"x": "(-0+0j)"},)),
    (contiguous_product_vector, (POK, -0.5, 10),
     CUT + ({"x": "(-0.5+0j)"},)),
    (v_via_transform, (POK, -0.5 + 0j, 10), CUT + ({"x": "(-0.5+0j)"},)),
    (v_via_transform, (VANISH, 0.0, 0), CUT + ({"x": "0j"},)),
    (contiguous_product_vector, (OK_BAD, -0.5, 10),
     CUT + ({"x": "(-0.5+0j)"},)),
    (v_via_transform, (VANISH, 0.3, 10),
     ("SingularMatrixError", "a hypergeometric parameter vanishes", {})),
    (v_via_transform, (VANISH, 0.3, 0), NO_TERMS),
    (v_via_transform, (DET_P, 0.3 + 0.1j, 10),
     ("SingularMatrixError", "degenerate parameters: det P = 0",
      {"det": "0"})),
    (v_via_transform, (DET_R, 0.3, 10),
     ("SingularMatrixError", "degenerate parameters: det R = 0", {})),
    (v_via_transform, (DET_P, 0.3, 0), NO_TERMS),
]


@pytest.mark.parametrize("request_, args, want", REFUSALS,
                         ids=[f"{f.__name__}-{k}" for k, (f, _, _)
                              in enumerate(REFUSALS)])
def test_every_refusal_keeps_its_class_message_and_order(request_, args,
                                                         want):
    with pytest.raises(OkuboError) as info:
        request_(*args)
    exc = info.value
    got = (type(exc).__name__, exc.message,
           {k: str(v) for k, v in exc.context.items()})
    assert got == want
