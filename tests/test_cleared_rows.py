"""Float requests and closed forms built from cleared integers.

The closed-form rows of H0/H1, R and R P^-1, the Okubo coefficient, the
inverse gauge, the Dotsenko-Fateev eigenvector matrix and the resolvent
numerator are built from the parameters' integer numerators over one
denominator, and the float requests round each rational once by int/int
true division.  The Fraction builders and conversions they replaced are
kept here as references: every float output, and every refusal, must be
theirs bit for bit, and every exact matrix theirs.
"""

import fractions
import json
import math
import random
import sys
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from okubo import cli, hgsystem, series, verify
from okubo.accessory import solve_accessory
from okubo.dotsenko_fateev import DFParams, df_eigenvector_matrix
from okubo.errors import (InputError, InternalInconsistency, OkuboError,
                          SingularMatrixError)
from okubo.exact import (PolyMatrix, RationalMatrix, ratio_to_double,
                         to_double)
from okubo.hgsystem import (DET_DIAGONALIZER_FACTORS, DET_GAUGE_FACTORS,
                            HGParams, OkuboSystem, build_okubo_system, lam,
                            resolvent_numerator)
from okubo.sampling import draw_okubo_params
from okubo.verify import run_criterion

POK = HGParams.okubo(F(1, 3), F(1, 7), F(1, 5), F(1, 11))
PGEN = HGParams.generic(F(1, 3), F(-2, 7), F(5, 11), F(3, 13), F(4, 9),
                        F(-5, 7))


# -- the Fraction conversions and builders, as references ---------------------

def ref_to_double(value) -> float:
    """float() of a rational, rounding the exact quotient once."""
    try:
        return float(value)
    except OverflowError as exc:
        raise InputError("rational outside the double range",
                         {"log2": value.numerator.bit_length()
                          - value.denominator.bit_length()}) from exc


def ref_complex_array(rows):
    return np.array([[ref_to_double(x) for x in row] for row in rows],
                    dtype=complex)


def ref_has_zero_factor(p, factors) -> bool:
    return any(lam(p, s) == 0 for s in factors)


def ref_product_residue_rows(p):
    a1, a2, b1, b2 = p.alpha1, p.alpha2, p.beta1, p.beta2
    g1, g2 = p.gamma1, p.gamma2
    h0 = [[0, 1, 1, 0],
          [0, 1 - g1, 0, 1],
          [0, 0, 1 - g2, 1],
          [0, 0, 0, 2 - g1 - g2]]
    h1 = [[0, 0, 0, 0],
          [-a1 * b1, g1 - 1 - a1 - b1, 0, 0],
          [-a2 * b2, 0, g2 - 1 - a2 - b2, 0],
          [0, -a2 * b2, -a1 * b1, g1 + g2 - 2 - a1 - a2 - b1 - b2]]
    return h0, h1


def ref_diagonalizer_rows(p):
    if ref_has_zero_factor(p, ("+000", "0+00", "00+0", "000+")):
        raise SingularMatrixError("a hypergeometric parameter vanishes")
    l = lambda s: lam(p, s)
    rows = [
        [1, l("-+++") * l("+-++") / (4 * l("+000") * l("0+00")),
         l("+-++") / (2 * l("+000")), l("-+++") / (2 * l("0+00"))],
        [1, l("++-+") * l("+++-") / (4 * l("00+0") * l("000+")),
         l("+++-") / (2 * l("00+0")), l("++-+") / (2 * l("000+"))],
        [1, l("-+++") * l("+++-") / (4 * l("+000") * l("000+")),
         l("+++-") / (2 * l("+000")), l("-+++") / (2 * l("000+"))],
        [1, l("+-++") * l("++-+") / (4 * l("0+00") * l("00+0")),
         l("+-++") / (2 * l("00+0")), l("++-+") / (2 * l("0+00"))]]
    if ref_has_zero_factor(p, DET_DIAGONALIZER_FACTORS):
        raise SingularMatrixError("degenerate parameters: det R = 0")
    return rows


def ref_contiguous_product_rows(p):
    a1, a2, b1, b2 = p.alpha1, p.alpha2, p.beta1, p.beta2
    if a1 * a2 * b1 * b2 == 0:
        raise SingularMatrixError("a hypergeometric parameter vanishes")
    ia1, ia2, ib1, ib2 = 1 / a1, 1 / a2, 1 / b1, 1 / b2
    row = lambda iu, iv: [1, iu, iv, iu * iv]
    return [row(ia1, ia2), row(ib1, ib2), row(ia1, ib2), row(ib1, ia2)]


def ref_okubo_coeff_half_sum_form(p):
    l = lambda s: lam(p, s)
    return RationalMatrix([
        [l("++++"), 0,
         l("+-++") * l("+++-") / l("++++"), l("-+++") * l("++-+") / l("++++")],
        [0, -l("++++"),
         4 * l("0+00") * l("000+") / l("----"),
         4 * l("+000") * l("00+0") / l("----")],
        [4 * l("+000") * l("00+0") / l("-+-+"),
         l("-+++") * l("++-+") / l("-+-+"), l("-+-+"), 0],
        [4 * l("0+00") * l("000+") / l("+-+-"),
         l("+-++") * l("+++-") / l("+-+-"), 0, -l("-+-+")]])


def ref_gauge_inverse_closed_form(p):
    l = lambda s: lam(p, s)
    pref = 1 / (l("++--") * l("+--+"))
    return RationalMatrix([
        [l("++--") * l("+--+"), 4 * l("0+00") * l("000+") / l("++++"),
         4 * l("+000") * l("00+0") / l("----"), l("+-+-") / l("----")],
        [0, 4 * l("0+00") * l("000+") / l("----"),
         4 * l("+000") * l("00+0") / l("++++"), l("-+-+") / l("----")],
        [0, l("-+++") * l("++-+") / l("-+-+"),
         4 * l("+000") * l("00+0") / l("+-+-"), 1],
        [0, 4 * l("0+00") * l("000+") / l("+-+-"),
         l("+-++") * l("+++-") / l("-+-+"), -1]]).scale(pref)


def ref_df_eigenvector_matrix(params):
    a, b, g = params.a, params.b, params.g
    for name, value in (("2a+2b+g", 2 * a + 2 * b + g), ("2a+g", 2 * a + g)):
        if value == 0:
            raise SingularMatrixError(f"denominator {name} vanishes",
                                      {"factor": name})
    q = -a * (a + b + g) / (2 * a + 2 * b + g)
    r = (a + b) / ((2 * a + g) * (2 * a + 2 * b + g))
    return RationalMatrix([
        [-b, q, -b * (2 * b + g) * r],
        [a, q, -a * (2 * a + g) * r],
        [a - b, 2 * q, (2 * a + g) * (2 * b + g) * r]])


def ref_resolvent_numerator(matrix, c, d):
    n = matrix.dim
    ident = RationalMatrix.identity(n)
    sq = matrix * matrix
    cu = sq * matrix
    s = c * c + d * d
    return PolyMatrix([cu - matrix.scale(s), sq - ident.scale(s), matrix,
                       ident])


# -- the float requests as they were, on the references -----------------------

def ref_gauss_jets(triples, x, terms, order):
    """The Gauss kernel with its parameters converted by float(); a row
    whose coefficients leave the double range is refused."""
    doubles = []
    for alpha, beta, gamma in triples:
        if gamma.denominator == 1 and gamma <= 0:
            raise InputError("gamma must not be a nonpositive integer",
                             {"gamma": gamma})
        if terms < 1:
            raise InputError("need at least one term")
        a, b, c = (ref_to_double(alpha), ref_to_double(beta),
                   ref_to_double(gamma))
        if c <= 0 and c.is_integer() and -c < terms - 1:
            raise InputError("gamma rounds to a nonpositive integer in "
                             "doubles", {"gamma": gamma, "terms": terms})
        doubles.append((a, b, c))
    n = np.arange(terms - 1, dtype=float)
    factors = np.empty((len(doubles), 3 * terms - 2))
    factors[:, 0] = 1.0
    steps = factors[:, 1:].reshape(len(doubles), terms - 1, 3)
    np.add(np.array(doubles)[:, None, :], n[:, None], out=steps)
    reciprocal = steps[:, :, 2]
    reciprocal *= n + 1
    np.divide(1.0, reciprocal, out=reciprocal)
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply.accumulate(factors, axis=1, out=factors)
    for (alpha, beta, gamma), last in zip(triples, factors[:, -1]):
        if not math.isfinite(last):
            raise InputError("Gauss coefficients leave the double range",
                             {"alpha": alpha, "beta": beta, "gamma": gamma,
                              "terms": terms})
    coeffs = factors[:, ::3]
    n = np.arange(terms)
    powers = x ** n
    sums = [np.add.reduce(coeffs * powers, axis=1).tolist()]
    if order >= 1:
        sums.append(np.add.reduce(coeffs[:, 1:] * n[1:] * powers[:-1],
                                  axis=1).tolist())
    if order >= 2:
        sums.append(np.add.reduce(coeffs[:, 2:] * n[2:] * (n[2:] - 1)
                                  * powers[:-2], axis=1).tolist())
    return sums, coeffs[:, -1] * powers[-1]


def ref_as_complex(x):
    return complex(float(x.real), float(x.imag)) if isinstance(x, complex) \
        else complex(ref_to_double(x))


def ref_hyp2f1_jet(alpha, beta, gamma, x, terms, order=2):
    x = ref_as_complex(x)
    series._require_unit_disc(x)
    sums, last = ref_gauss_jets([(alpha, beta, gamma)], x, terms, order)
    jet = [s[0] for s in sums] + [None] * (2 - order)
    return series.GaussJet(*jet, abs(last[0]))


def ref_w_jet(p, x, terms, derivative):
    x = ref_as_complex(x)
    series._require_unit_disc(x)
    (v1, v2), (d1, d2), *second = ref_gauss_jets(
        [(p.alpha1, p.beta1, p.gamma1), (p.alpha2, p.beta2, p.gamma2)],
        x, terms, 1 + derivative)[0]
    w = np.array([v1 * v2, x * d1 * v2, x * v1 * d2, x * x * d1 * d2])
    if not derivative:
        return w, None
    (s1, s2), = second
    dw = np.array([
        d1 * v2 + v1 * d2,
        d1 * v2 + x * s1 * v2 + x * d1 * d2,
        v1 * d2 + x * d1 * d2 + x * v1 * s2,
        2 * x * d1 * d2 + x * x * (s1 * d2 + d1 * s2)])
    return w, dw


def ref_w_residual(p, x, terms):
    x = ref_as_complex(x)
    if x == 0:
        raise series.OutsideDisc(
            "w_residual is undefined at the singular point 0", {"x": x})
    w, dw = ref_w_jet(p, x, terms, True)
    h0, h1 = (ref_complex_array(rows) for rows in ref_product_residue_rows(p))
    rhs = (h0 / x + h1 / (x - 1)) @ w
    return float(np.max(np.abs(dw - rhs)))


def ref_power(x, expo):
    """x ** expo, refused as OutsideDisc where it leaves the double range."""
    try:
        return x ** expo
    except OverflowError:
        raise series.OutsideDisc("a power of x leaves the double range",
                                 {"x": x, "exponent": expo}) from None


def ref_v_jet(p, x, terms, derivative=True):
    """The contiguous vector, its derivative formed if ``derivative``
    (both sums are always taken)."""
    x = ref_as_complex(x)
    series._require_unit_disc(x)
    series._check_off_cut(x)
    a1, a2, b1, b2 = p.alpha1, p.alpha2, p.beta1, p.beta2
    g1, g2 = p.gamma1, p.gamma2
    f, df = ref_gauss_jets([(a1 + 1, b1, g1), (a1, b1 + 1, g1),
                            (a2 + 1, b2, g2), (a2, b2 + 1, g2)],
                           x, terms, 1)[0]
    pairs = [(0, 2), (1, 3), (0, 3), (1, 2)]
    prods = np.array([f[i] * f[j] for i, j in pairs])
    dprods = np.array([df[i] * f[j] + f[i] * df[j] for i, j in pairs])
    expo = ref_to_double(g1 - 1)
    pref = ref_power(x, expo)
    if not derivative:
        return pref * prods, None
    return pref * prods, expo * ref_power(x, expo - 1) * prods + pref * dprods


def ref_v_via_transform(p, x, terms):
    x = ref_as_complex(x)
    series._check_off_cut(x)
    w, _ = ref_w_jet(p, x, terms, False)
    rows = ref_contiguous_product_rows(p)
    if ref_has_zero_factor(p, DET_GAUGE_FACTORS):
        raise SingularMatrixError("degenerate parameters: det P = 0",
                                  {"det": "0"})
    if ref_has_zero_factor(p, DET_DIAGONALIZER_FACTORS):
        raise SingularMatrixError("degenerate parameters: det R = 0")
    return (ref_power(x, ref_to_double(p.gamma1 - 1))
            * (ref_complex_array(rows) @ w))


def ref_v_residual(p, x, terms):
    x = ref_as_complex(x)
    v, dv = ref_v_jet(p, x, terms)
    r = ref_complex_array(ref_diagonalizer_rows(p))
    c = ref_to_double(lam(p, "++--"))
    d = ref_to_double(lam(p, "+--+"))
    diag_exp = np.diag([c, -c, d, -d]).astype(complex)
    xit = np.diag([1 / x, 1 / x, 1 / (x - 1), 1 / (x - 1)])
    try:
        rhs = r @ xit @ np.linalg.solve(r, diag_exp @ v)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("R is singular in doubles") from None
    return float(np.max(np.abs(dv - rhs)))


#: (request, its reference, the kind of parameters it takes)
REQUESTS = [
    (series.product_vector_w,
     lambda p, x, terms: ref_w_jet(p, x, terms, False)[0], "params"),
    (series.w_residual, ref_w_residual, "params"),
    (series.contiguous_product_vector,
     lambda p, x, terms: ref_v_jet(p, x, terms, False)[0], "params"),
    (series.v_via_transform, ref_v_via_transform, "params"),
    (series.v_residual, ref_v_residual, "params"),
    (series.hyp2f1, lambda a, b, c, x, terms:
     ref_hyp2f1_jet(a, b, c, x, terms, 0).value, "triple"),
    (series.hyp2f1_jet, ref_hyp2f1_jet, "triple"),
]


def outcome(f, *args):
    """The bytes of every number f returns, or its refusal as (class,
    message, context as strings), or any other error it raises (a
    RuntimeWarning, say) as (class, text)."""
    with warnings.catch_warnings():
        # as the test settings do for okubo's own modules, on both sides
        warnings.simplefilter("error", RuntimeWarning)
        try:
            out = f(*args)
        except OkuboError as exc:
            return (type(exc).__name__, exc.message,
                    {k: str(v) for k, v in exc.context.items()})
        except Exception as exc:  # noqa: BLE001 - compared, not hidden
            return type(exc).__name__, str(exc)
    if isinstance(out, series.GaussJet):
        return (np.array([out.value, out.d1, out.d2], dtype=complex).tobytes(),
                np.float64(out.tail).tobytes())
    return np.asarray(out).tobytes()


# -- strategies ---------------------------------------------------------------

NEAR_MINUS_TWO = F(-2) + F(1, 10 ** 30)
#: zeros, nonpositive integer gammas, gammas whose double is one, and
#: rationals whose reciprocal (a row entry) or own value (a parameter)
#: passes the double range
SPECIAL = [F(0), F(-2), F(-3), F(1), NEAR_MINUS_TWO, F(1, 10 ** 400),
           F(10 ** 400)]

rationals = st.one_of(
    st.builds(F, st.integers(-40, 40), st.integers(1, 12)),
    st.builds(F, st.integers(-10 ** 13, 10 ** 13), st.integers(1, 10 ** 12)),
    st.sampled_from(SPECIAL))


@st.composite
def points(draw):
    """Points of the disc up to |x| = 0.99, and the refused ones: 0, the
    branch cut, the unit circle and beyond, NaN."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([0.0, 0j, -0.5, -0.5 + 0j, 1.0, 1.5j,
                                     complex(math.nan, 0.1), math.nan]))
    radius = draw(st.floats(0.0, 0.99))
    angle = draw(st.floats(-math.pi, math.pi))
    return complex(radius * math.cos(angle), radius * math.sin(angle))


generic = st.builds(HGParams.generic, *[rationals] * 6)
okubo = st.builds(HGParams.okubo, *[rationals] * 4)
terms_counts = st.sampled_from([0, 1, 2, 3, 60, 80])


def copy_of(p):
    return HGParams(p.alpha1, p.alpha2, p.beta1, p.beta2, p.gamma1, p.gamma2)


def check_requests(p, x, terms):
    # a fresh copy per request: each one clears the parameters itself
    for request, reference, kind in REQUESTS:
        args = ((p.alpha1, p.beta1, p.gamma1) if kind == "triple"
                else (copy_of(p),)) + (x, terms)
        assert outcome(request, *args) == outcome(reference, *args), \
            request.__name__
    # then twice on one object, whose float plan every request before
    # has filled: each call answers or refuses as a fresh object does
    shared = copy_of(p)
    for request, reference, kind in REQUESTS:
        if kind == "params":
            want = outcome(reference, copy_of(p), x, terms)
            for call in ("first", "second"):
                assert outcome(request, shared, x, terms) == want, \
                    (request.__name__, call)


@settings(max_examples=150, deadline=None)
@given(okubo, points(), terms_counts)
@example(POK, 0.3 + 0.2j, 80)
@example(HGParams.okubo(F(1, 10 ** 400), F(1, 7), F(1, 5), F(1, 11)), 0.2, 60)
@example(HGParams.okubo(F(-3), F(-1), F(-1), F(-1) + F(2, 10 ** 30)), 0.3, 10)
@example(HGParams.okubo(F(1, 3), F(1, 5), F(1, 7), F(-71, 105)), 0.3 + 0.1j, 10)
def test_okubo_requests_are_the_fraction_references_bit_for_bit(p, x, terms):
    check_requests(p, x, terms)


@settings(max_examples=150, deadline=None)
@given(generic, points(), terms_counts)
@example(PGEN, 0.3 + 0.2j, 60)
@example(HGParams.generic(F(1, 3), F(1, 7), F(1, 5), F(1, 11),
                          NEAR_MINUS_TWO, F(5, 9)), 0.3, 10)
@example(HGParams.generic(F(10 ** 400), F(1, 7), F(1, 5), F(1, 11), F(1, 2),
                          F(5, 9)), 0.3, 10)
def test_generic_requests_are_the_fraction_references_bit_for_bit(p, x,
                                                                  terms):
    check_requests(p, x, terms)


def test_requests_cover_answers_and_every_refusal_kind():
    """The draws above reach answers and each refusal; counted here on a
    fixed sample so that the coverage itself is checked."""
    rng = random.Random(61)
    draw = lambda: (rng.choice(SPECIAL) if rng.random() < 0.1
                    else F(rng.randint(-40, 40), rng.randint(1, 12)))
    seen = set()
    # a vanishing parameter, lam(++--) = 0, lam(+0-0) = 0 and
    # lam(++++) = 0, the first factor of det P and of det R
    fixed = [HGParams.okubo(0, F(1, 7), F(1, 5), F(1, 11)),
             HGParams.okubo(F(1, 3), F(1, 5), F(1, 7),
                            F(1, 3) + F(1, 5) - F(1, 7)),
             HGParams.okubo(F(1, 3), F(1, 5), F(1, 3), F(1, 11)),
             HGParams.okubo(F(1, 3), F(1, 5), F(1, 7), F(-71, 105))]
    for k in range(400):
        p = (fixed[k] if k < len(fixed)
             else HGParams.okubo(*(draw() for _ in range(4))) if k % 2
             else HGParams.generic(*(draw() for _ in range(6))))
        x = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        terms = rng.choice([0, 10, 60])
        if k < len(fixed):
            x, terms = 0.3 + 0.1j, 10
        for request, reference, kind in REQUESTS[:5]:
            got = outcome(request, p, x, terms)
            assert got == outcome(reference, p, x, terms)
            seen.add(got[1] if isinstance(got, tuple) else "answered")
    assert seen >= {"answered", "need at least one term",
                    "gamma must not be a nonpositive integer",
                    "gamma rounds to a nonpositive integer in doubles",
                    "rational outside the double range",
                    "a hypergeometric parameter vanishes",
                    "degenerate parameters: det P = 0",
                    "degenerate parameters: det R = 0"}


# -- no Fraction in a float request -------------------------------------------

def fraction_constructions(fn, *args) -> int:
    """How many Fractions fn(*args) builds: calls of Fraction.__new__ and
    of the constructor its arithmetic uses on Python 3.12+."""
    count = 0
    source = fractions.__file__

    def profile(frame, event, arg):
        nonlocal count
        code = frame.f_code
        if (event == "call" and code.co_filename == source
                and code.co_name in ("__new__", "_from_coprime_ints")):
            count += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return count


def test_float_requests_build_no_fraction_cold_or_warm():
    assert fraction_constructions(lambda: F(1, 3) + F(1, 5)) > 0
    x = 0.3 + 0.2j
    values = [(F(1, 3), F(1, 7), F(1, 5), F(1, 11)),
              (F(-2, 7), F(5, 11), F(3, 13), F(10 ** 12 - 1, 10 ** 12))]
    for upper in values:
        for make in (lambda: HGParams.okubo(*upper),
                     lambda: HGParams.generic(*upper, F(4, 9), F(-5, 7))):
            requests = [(series.product_vector_w, 60),
                        (series.w_residual, 60),
                        (series.contiguous_product_vector, 80),
                        (series.v_via_transform, 80)]
            if make().is_okubo:
                requests.append((series.v_residual, 80))
            for request, terms in requests:
                p = make()
                for state in ("cold", "warm"):
                    assert fraction_constructions(request, p, x, terms) == 0, \
                        (request.__name__, state)
        for request in (series.hyp2f1, series.hyp2f1_jet):
            assert fraction_constructions(request, *upper[:3], x, 80) == 0


# -- the exact closed forms against their Fraction references ----------------

def exact_outcome(f, *args):
    try:
        return f(*args)
    except (OkuboError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=200, deadline=None)
@given(okubo)
@example(POK)
@example(HGParams.okubo(0, F(1, 7), F(1, 5), F(1, 11)))
@example(HGParams.okubo(F(1, 3), F(1, 5), F(1, 3), F(1, 11)))
@example(HGParams.okubo(F(1, 3), F(1, 5), F(1, 7),
                        F(1, 3) + F(1, 5) - F(1, 7)))
def test_closed_forms_are_the_fraction_references(p):
    h0, h1, den = hgsystem.product_residue_rows(p)
    assert den > 0
    system = hgsystem.build_product_system(p)
    assert (system.residue_at_0, system.residue_at_1) == tuple(
        RationalMatrix(rows) for rows in ref_product_residue_rows(p))
    for integer, matrix, reference in (
            (hgsystem.diagonalizer_rows, hgsystem.build_diagonalizer,
             ref_diagonalizer_rows),
            (hgsystem.contiguous_product_rows,
             hgsystem.contiguous_product_matrix,
             ref_contiguous_product_rows)):
        want = exact_outcome(lambda: RationalMatrix(reference(p)))
        assert exact_outcome(matrix, p) == want
        if isinstance(want, RationalMatrix):
            assert integer(p)[1] > 0
    for closed, reference in (
            (hgsystem._okubo_coeff_half_sum_form,
             ref_okubo_coeff_half_sum_form),
            (hgsystem.gauge_inverse_closed_form,
             ref_gauge_inverse_closed_form)):
        want = exact_outcome(reference, p)
        got = exact_outcome(closed, p)
        if isinstance(want, RationalMatrix):
            assert got == want
        else:
            assert got[0] == want[0] == "ZeroDivisionError"


@settings(max_examples=200, deadline=None)
@given(st.builds(DFParams, rationals, rationals, rationals, rationals))
@example(DFParams(F(1, 4), F(1, 5), F(1, 7), F(-1, 2)))
@example(DFParams(F(1, 4), F(-1, 4), F(1, 7), F(-1, 2)))
def test_df_eigenvector_matrix_is_the_fraction_reference(params):
    assert exact_outcome(df_eigenvector_matrix, params) == \
        exact_outcome(ref_df_eigenvector_matrix, params)


def test_is_okubo_on_cleared_numerators():
    rng = random.Random(67)
    for _ in range(300):
        upper = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
        g = sum(upper) / 2 + 1
        for gammas, want in (((g, g), True), ((g, g + F(1, 7)), False),
                             ((g - 1, g), False)):
            p = HGParams(*upper, *gammas)
            assert p.is_okubo is want


# -- the resolvent on integers -----------------------------------------------

def okubo_systems(count, seed):
    rng = random.Random(seed)
    systems = [build_okubo_system(draw_okubo_params(rng))[1]
               for _ in range(count)]
    systems.append(solve_accessory(F(1, 3), F(1, 5), F(1, 7), F(1, 11))[1])
    return systems


def test_resolvent_numerator_is_the_fraction_reference():
    for system in okubo_systems(30, 71):
        for c, d in ((system.c, system.d), (F(2, 3), F(-5, 7)), (0, 1)):
            assert resolvent_numerator(system.coeff, c, d) == \
                ref_resolvent_numerator(system.coeff, F(c), F(d))
        fresh = OkuboSystem(system.coeff, system.a, system.b, system.c,
                            system.d)
        assert fresh.resolvent == ref_resolvent_numerator(
            system.coeff, system.c, system.d)


def test_corrupt_coefficient_fails_the_resolvent_check():
    for system in okubo_systems(10, 73):
        coeff = system.coeff
        for k in (0, 3, 6, 9, 12, 15):
            nums = list(coeff.nums)
            nums[k] += coeff.den
            corrupt = OkuboSystem(RationalMatrix.from_integers(nums,
                                                               coeff.den),
                                  system.a, system.b, system.c, system.d)
            with pytest.raises(InternalInconsistency,
                               match="does not invert"):
                corrupt.resolvent


# -- the conversion ---------------------------------------------------------

def test_ratio_to_double_is_float_of_the_fraction():
    rng = random.Random(79)
    for _ in range(3000):
        num = rng.randint(-10 ** rng.randint(1, 400),
                          10 ** rng.randint(1, 400))
        den = rng.randint(1, 10 ** rng.randint(1, 400))
        scale = rng.randint(1, 10 ** rng.randint(0, 30))
        want = outcome(ref_to_double, F(num, den))
        assert outcome(ratio_to_double, num * scale, den * scale) == want
        assert outcome(to_double, F(num, den)) == want
    assert math.copysign(1.0, ratio_to_double(0, 7)) == 1.0


# -- mutants of the integer rows ---------------------------------------------

def _plus_one(nums, den, k):
    """Entry k of integer rows over den, plus one."""
    nums = list(nums)
    nums[k] += den
    return tuple(nums)


def test_corrupt_product_residue_rows_fail_2a(monkeypatch):
    honest = hgsystem.product_residue_rows

    def corrupt(p):
        h0, h1, den = honest(p)
        return h0, _plus_one(h1, den, 1 * 4 + 1), den

    monkeypatch.setattr(hgsystem, "product_residue_rows", corrupt)
    monkeypatch.setattr(series, "product_residue_rows", corrupt)
    result = run_criterion("2a-product-vector-residual",
                           verify.check_product_vector_residual, 7)
    assert not result.passed and "exceeds 1e-10" in result.detail


def test_corrupt_diagonalizer_rows_fail_1b_and_v_vector(monkeypatch, capsys,
                                                        tmp_path):
    honest = hgsystem.diagonalizer_rows

    def corrupt(p):
        nums, den = honest(p)
        return _plus_one(nums, den, 2 * 4 + 1), den

    path = tmp_path / "params.json"
    path.write_text(json.dumps({"alpha1": "1/3", "alpha2": "1/7",
                                "beta1": "1/5", "beta2": "1/11"}))
    argv = ["v-vector", "--params", str(path), "--x", "0.2", "--terms", "80"]
    assert cli.main(argv) == 0
    monkeypatch.setattr(hgsystem, "diagonalizer_rows", corrupt)
    monkeypatch.setattr(series, "diagonalizer_rows", corrupt)
    result = run_criterion("1b-gauge-and-diagonalizer",
                           verify.check_gauge_and_diagonalizer, 7)
    assert not result.passed
    assert result.detail in ("det R", "R A R^-1", "R G^-1")
    assert cli.main(argv) == 1
    capsys.readouterr()


def test_v_vector_refuses_a_row_entry_beyond_the_double_range(capsys,
                                                              tmp_path):
    # alpha1 = 1/10^400 is the double 0.0, but 1/alpha1 in R P^-1 is not
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"alpha1": f"1/{10 ** 400}", "alpha2": "1/7",
                                "beta1": "1/5", "beta2": "1/11"}))
    assert cli.main(["v-vector", "--params", str(path), "--x", "0.2"]) == \
        cli.EXIT_INPUT
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["message"] == "rational outside the double range"


# -- value-only contiguous vector --------------------------------------------

def test_contiguous_product_vector_sums_values_only(monkeypatch):
    honest = series._gauss_jets
    orders = []

    def spy(plan, x, order):
        orders.append(order)
        return honest(plan, x, order)

    monkeypatch.setattr(series, "_gauss_jets", spy)
    rng = random.Random(83)
    for k in range(50):
        p = HGParams.okubo(*(F(rng.randint(-9, 9), rng.randint(1, 9))
                             for _ in range(4)))
        x = complex(rng.uniform(0.05, 0.9), rng.uniform(-0.4, 0.4))
        terms = (1, 60, 80)[k % 3]
        want = outcome(lambda: ref_v_jet(p, x, terms, False)[0])
        orders.clear()
        assert outcome(series.contiguous_product_vector, p, x, terms) == want
        assert orders == [0]


# -- the float plan -----------------------------------------------------------

#: the float requests that take an HGParams, and so its float plan
PLANNED = [request for request, _, kind in REQUESTS if kind == "params"]


def test_warm_plans_answer_as_cold_ones_bit_for_bit():
    """One object per parameter set through every request at several
    points and term counts, each call made twice, against a fresh copy
    per call; hyp2f1, which has no parameter object, twice per point."""
    rng = random.Random(30)
    draw = lambda: (rng.choice(SPECIAL) if rng.random() < 0.1
                    else F(rng.randint(-40, 40), rng.randint(1, 12)))
    warm = 0
    for k in range(150):
        p = (POK if k == 0 else HGParams.okubo(*(draw() for _ in range(4)))
             if k % 2 else HGParams.generic(*(draw() for _ in range(6))))
        p = copy_of(p)
        for _ in range(4):
            x = rng.choice([complex(rng.uniform(-0.9, 0.9),
                                    rng.uniform(-0.9, 0.9)),
                            complex(rng.uniform(0.01, 0.5)), 1e-300j])
            terms = rng.choice([1, 2, 10, 60, 80])
            for request in PLANNED:
                want = outcome(request, copy_of(p), x, terms)
                assert outcome(request, p, x, terms) == want, request
                assert outcome(request, p, x, terms) == want, request
            for request in (series.hyp2f1, series.hyp2f1_jet):
                args = (p.alpha1, p.beta1, p.gamma1, x, terms)
                assert outcome(request, *args) == outcome(request, *args)
        warm += ("v", terms) in p._float_plan and "R" in p._float_plan
    # the draws reach full plans, not refusals only
    assert warm > 30


def test_a_populated_plan_leaves_equality_hash_and_repr():
    p, q = copy_of(POK), copy_of(POK)
    before = repr(p), hash(p), p.to_json()
    for request in PLANNED:
        for terms in (1, 60):
            request(p, 0.3 + 0.2j, terms)
    assert {("w", 1), ("w", 60), ("v", 1), ("v", 60), "residue",
            "gamma1 - 1", "R P^-1", "R P^-1 doubles", "R"} == \
        set(p._float_plan)
    assert not q._float_plan
    assert p == q and q == p and hash(p) == hash(q)
    assert (repr(p), hash(p), p.to_json()) == before == \
        (repr(q), hash(q), q.to_json())
    assert len({p, q}) == 1


def test_a_bool_terms_is_refused_after_one_terms_plan():
    p = copy_of(POK)
    for request in PLANNED:
        request(p, 0.3 + 0.2j, 1)
    # True == 1 and hash(True) == hash(1): the lookup must not answer it
    assert {("w", 1), ("v", 1)} <= set(p._float_plan)
    for request in PLANNED:
        want = outcome(request, copy_of(POK), 0.3 + 0.2j, True)
        assert want[:2] == ("InputError", "terms must be an integer")
        assert outcome(request, p, 0.3 + 0.2j, True) == want


def test_every_float_request_sums_through_one_kernel(monkeypatch):
    """hyp2f1, w and v all sum through _gauss_jets with a _GaussPlan;
    a parameter set's plan is reused by its next request, hyp2f1's is
    built per call (no cache keyed on parameter values)."""
    honest = series._gauss_jets
    plans = []

    def spy(plan, x, order):
        plans.append(plan)
        return honest(plan, x, order)

    monkeypatch.setattr(series, "_gauss_jets", spy)
    p, x = copy_of(POK), 0.3 + 0.2j
    triple = (F(1, 3), F(1, 5), F(1, 7))
    calls = [(request, (p, x, 60)) for request in PLANNED] + \
        [(request, (*triple, x, 60)) for request in (series.hyp2f1,
                                                     series.hyp2f1_jet)]
    seen = {}
    for state in ("cold", "warm"):
        for request, args in calls:
            plans.clear()
            request(*args)
            assert len(plans) == 1, (request.__name__, state)
            assert type(plans[0]) is series._GaussPlan
            seen.setdefault(request.__name__, []).append(plans[0])
    for name, (cold, warm) in seen.items():
        assert (cold is warm) == (not name.startswith("hyp2f1")), name
    # no second summing path beside the kernel
    monkeypatch.setattr(series, "_gauss_jets", None)
    for request, args in calls:
        with pytest.raises(TypeError):
            request(*args)
