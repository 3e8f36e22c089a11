"""Series evaluation: Gauss series, product vectors, and local solutions.

Every truncated Gauss series is summed by one kernel, _gauss_jets, which
evaluates the k parameter triples of a _GaussPlan at one point: one table
of powers x**n and one row-wise sum per derivative order asked for.  The
plan holds the parameter-only half: the coefficients, from one row-wise
np.multiply.accumulate over their factors (_gauss_table, which also gives
the Dotsenko-Fateev quadrature its rows), and the derivative weights
c_n n (n-1)..., each order's formed the first time it is asked for.  Its
triples enter as integer numerators over one positive denominator.
hyp2f1_jet clears its rational triple once, builds its plan per call and
is the kernel's one-triple case; hyp2f1 asks for the value only.
The product vector w = (f1*f2, x*f1'*f2, x*f1*f2', x^2*f1'*f2') is one
two-triple call, with second derivatives only for w_residual, and its
contiguous companion v one four-triple call, with first derivatives only
for v_residual.  Each row is the array a one-triple call gives.  v is
also reached from w by R P^{-1}, applied in its closed form, the rows of
hgsystem.contiguous_product_matrix (the Gauss contiguous relations), which
verify 1b checks exactly against R times the inverse of P; w_residual
takes H0 and H1 from hgsystem.product_residue_rows and v_residual R from
hgsystem.diagonalizer_rows.

Each HGParams keeps a float plan (HGParams._float_plan, beside _cleared
and outside the compared fields): the _GaussPlans of its triples by kind
("w" or "v") and terms, and the rounded rows of H0/H1, R P^{-1} and R
with the half-sum doubles of v_residual, each built by the first request
that needs it (_planned).  A later request on the same parameters does
only the work of its point x: the powers, the row sums and the small
complex algebra, with the same bits.  Only successes are kept: every
refusal runs again on every call, in the order it runs without a plan.

A float request builds no exact matrix, and none that answers builds a
Fraction (a refusal names its parameters as Fractions).  Every rational
it needs is an integer numerator over one positive denominator: the
parameters, cleared once per HGParams, for the Gauss triples (alpha + 1
and beta + 1 of v add the denominator) and the prefactor exponent
gamma1 - 1; the closed-form rows, which hgsystem returns as integers over
one denominator; and the half-sums whose vanishing refuses a request (a
parameter, det P or det R = 0), tested for zero as integers.  Each is
rounded once by int/int true division (exact.ratio_to_double), the double
float() of the Fraction gives.  A rational beyond the largest double, or
a Gauss coefficient that leaves the double range, is an InputError
wherever it would become one, and a power x ** (gamma1 - 1) that leaves
it is OutsideDisc.

Local solutions of the Okubo system (x I - T) y' = A y are built from the
coefficient recurrences they satisfy:

  at x = 1:   (r+rho+1)(T - I) g(r+1) = ((r+rho) I - A) g(r),
              rho(T - I) g(0) = 0,  rho in {0 (twice), b, -b};
  at x = 0:   (r+rho+1) T g(r+1) = ((r+rho) I - A) g(r),
              rho T g(0) = 0,  rho in {0 (twice), a, -a};
  at x = oo:  ((s+sigma+1) I + A) h(s+1) = (s+sigma)(T - I) h(s),
              (sigma I + A) h(0) = 0,  sigma in {c, -c, d, -d},

where the solutions at infinity are expanded in powers of 1/(x-1), not
1/x.  Because T - I = diag(-1,-1,0,0) (resp. T = diag(0,0,1,1)) is
singular, each step solves the two invertible rows for the next top
(resp. bottom) pair and then enforces the complementary two rows as a
constraint; the admissibility condition on (a, b, c, d) keeps every one
of those solves nonsingular.

One kernel per recurrence serves both modes.  It runs fraction-free:
each coefficient vector is four numerators over one shared denominator,
and a step is a handful of products with tables built once per series.
At the finite points only the two solved rows of ((r+rho) I - A) g(r)
are formed.  At infinity the step matrix is inverted in closed form,

  ((s+sigma+1) I + A)^{-1} = -N(-w) / ((w^2-c^2)(w^2-d^2)),
  w = s+sigma+1,

with N = OkuboSystem.resolvent, the resolvent numerator the sameness
verdict reduces, built and checked exactly once per system; h(0) is a
nonzero column of N(-sigma).  A step whose denominator vanishes is
refused, exactly, before the recurrence runs.
The modes differ only in how rationals enter and how a step's numerators
are normalised over its denominator and leave as coefficients.  Exact
mode enters integers over common denominators and keeps each denominator
split as light * prod p**e_p over the heavy primes p of the series' fixed
scales (their prime factors below 2**16), which carry most of its bits;
light holds the rest, so gcd(light, p) == 1.  Every gcd with the
denominator then runs against the small modulus
light * prod p**min(e_p, k_p), p**k_p < 2**30, and loops only for a prime
that fills its chunk.  A step's four numerators are small-integer
combinations of two big integers, the two solved rows at a finite point
and the previous top pair at infinity, so exact mode passes those two and
the small rows: each of the two is reduced modulo the small modulus once
and the four residues are formed from theirs, two big divisions per step
instead of four.  The constant step factors (D^2 at the finite points, L
at infinity) are split over the heavy primes once per series, and a step's
small factors are multiplied together before the one big product.  The
reduced entries are coprime by construction and leave as Fractions built
without a second gcd (the recurrence then holds with zero error).  Float
mode enters every table as doubles over 1, rounds each exact step factor
once to the nearest double (so nothing it handles grows with the height
of the exponents), forms the four numerators in the kernel, divides by
each step's denominator and returns complex coefficients.

Series are only summed well inside their convergence discs: |x| <= 0.6
and |x-1| <= 0.6 at the finite points, |x-1| >= 1.7 at infinity.  Powers
x^rho use the principal branch.  SeriesSolution.evaluate sums value and
derivative at many points in one Horner sweep over the coefficients,
converted to complex once, and applies each point's power u^rho as a
Python complex.  A residual report checks every sample (finite, inside
the disc, not the expansion point) before that sweep, and forms each
point's defect (xI - T) y' - A y on its own, since a batched product
would reorder the sums; worst_defect takes the maximum so that a NaN
defect is kept.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (AdmissibilityError, InputError, InternalInconsistency,
                     OutsideDisc, SingularMatrixError)
from .exact import (cleared_complex_array, common_denominator, complex_array,
                    describe, ratio_to_double, ratios_to_doubles,
                    rational_text, require_int, to_double)
from .hgsystem import (DET_DIAGONALIZER_FACTORS, DET_GAUGE_FACTORS, HGParams,
                       OkuboSystem, contiguous_product_rows,
                       diagonalizer_rows, half_sum_numerators,
                       has_zero_factor, product_residue_rows)
# callers read it as okubo.series.build_product_system
from .hgsystem import build_product_system  # noqa: F401
from .accessory import require_admissible

#: evaluation discs (see module docstring)
DISC_FINITE = 0.6
DISC_INFINITY = 1.7


def _as_complex(x) -> complex:
    return complex(float(x.real), float(x.imag)) if isinstance(x, complex) \
        else complex(to_double(x))


def _gauss_table(triples, terms: int, den: int) -> np.ndarray:
    """The first ``terms`` Taylor coefficients of 2F1(alpha, beta, gamma; .)
    for each triple, one real float64 row per triple (a strided view).

    The entries of the triples are the integer numerators of rationals over
    the one positive denominator ``den``.  Each enters as its double,
    rounded once by int/int true division (the double float() of the
    Fraction gives), and gamma's exact tests run on the integers.

    c_0 = 1 and c_{n+1} = c_n (alpha+n) (beta+n) (1/((gamma+n)(n+1))) in
    doubles, rounded after each product from left to right; the division
    is a product with the reciprocal, as numpy's complex division by a real
    number is.  One sequential np.multiply.accumulate runs along each row
    of the factors interleaved as [1, alpha+n, beta+n, 1/((gamma+n)(n+1)),
    ...] and every third partial product is kept.  The triples are checked
    in turn, each in full before the next: gamma must not be a nonpositive
    integer, terms must be an int of at least 1, and gamma's double must
    not be a nonpositive integer that the sum reaches.  A row whose last
    coefficient is not finite (a partial product that overflows stays inf
    or NaN) is refused after the pass.
    """
    doubles = []
    for alpha, beta, gamma in triples:
        if gamma <= 0 and not gamma % den:
            raise InputError("gamma must not be a nonpositive integer",
                             {"gamma": Fraction(gamma, den)})
        if require_int(terms, "terms") < 1:
            raise InputError("need at least one term")
        a, b, c = ratios_to_doubles((alpha, beta, gamma), den)
        if c <= 0 and c.is_integer() and -c < terms - 1:
            # gamma + n would be an exact zero in doubles within the sum
            raise InputError("gamma rounds to a nonpositive integer in "
                             "doubles",
                             {"gamma": Fraction(gamma, den), "terms": terms})
        doubles.append((a, b, c))
    n = np.arange(terms - 1, dtype=float)
    factors = np.empty((len(doubles), 3 * terms - 2))
    factors[:, 0] = 1.0
    # factors[:, 1:] seen as (triple, n, [alpha+n, beta+n, gamma+n])
    steps = factors[:, 1:].reshape(len(doubles), terms - 1, 3)
    np.add(np.array(doubles)[:, None, :], n[:, None], out=steps)
    reciprocal = steps[:, :, 2]
    reciprocal *= n + 1
    np.divide(1.0, reciprocal, out=reciprocal)
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply.accumulate(factors, axis=1, out=factors)
    for (alpha, beta, gamma), last in zip(triples, factors[:, -1].tolist()):
        if not math.isfinite(last):
            raise InputError("Gauss coefficients leave the double range",
                             {"alpha": Fraction(alpha, den),
                              "beta": Fraction(beta, den),
                              "gamma": Fraction(gamma, den), "terms": terms})
    return factors[:, ::3]


class _GaussPlan:
    """The parameter-only half of _gauss_jets for k triples at one number
    of terms: the _gauss_table rows copied into one compact array (the
    table is a strided view that would keep the accumulate buffer, three
    times its size), the exponents n, and the derivative weights
    c_n n (n-1)...(n-order+1) for n >= order, each order's formed the
    first time it is asked for."""

    __slots__ = ("n", "_weights")

    def __init__(self, triples, terms: int, den: int):
        self._weights = [_gauss_table(triples, terms, den).copy()]
        self.n = np.arange(terms)

    def weights(self, order: int) -> np.ndarray:
        """Order ``order``'s weights by row: order k multiplies order
        k - 1's, from n = k on, by n - k + 1, which forms the products of
        c_n n (n-1)... from the left, as one row-wise expression would."""
        weights = self._weights
        while len(weights) <= order:
            k = len(weights)
            weights.append(weights[-1][:, 1:] * (self.n[k:] - (k - 1)))
        return weights[order]


def _gauss_jets(plan: _GaussPlan, x: complex, order: int) -> tuple:
    """Truncated Gauss series of each triple of the plan and their
    derivatives up to ``order`` (at most 2) at one point x of the unit
    disc.

    Returns one list per order, of Python complexes by triple, and the
    powers x**n, built once; each order is one row-wise sum of its weights
    times x**(n-order), so that every row is the sum a single-triple array
    would give.
    """
    powers = x ** plan.n
    sums = []
    for k in range(order + 1):
        weights = plan.weights(k)
        # np.add.reduce is np.sum without its Python wrapper
        sums.append(np.add.reduce(weights * powers[:weights.shape[1]],
                                  axis=1).tolist())
    return sums, powers


def _planned(p: HGParams, key, build):
    """Entry ``key`` of p's float plan (HGParams._float_plan), build(p) on
    first use.  Only a success is kept: a refusal raises again on the next
    call, where it raised before."""
    plan = p._float_plan
    value = plan.get(key)
    if value is None:
        value = plan[key] = build(p)
    return value


def _params_plan(p: HGParams, kind: str, terms) -> _GaussPlan:
    """The _GaussPlan of a float request's triples: "w" the pair (alpha_j,
    beta_j, gamma_j), "v" their alpha- and beta-raised companions, alpha + 1
    and beta + 1 over den."""
    (a1, a2, b1, b2, g1, g2), den = p._cleared
    if kind == "w":
        triples = [(a1, b1, g1), (a2, b2, g2)]
    else:
        triples = [(a1 + den, b1, g1), (a1, b1 + den, g1),
                   (a2 + den, b2, g2), (a2, b2 + den, g2)]
    return _GaussPlan(triples, terms, den)


def _plan_jets(p: HGParams, kind: str, x: complex, terms,
               order: int) -> list:
    """_gauss_jets' sums for p's triples of ``kind`` (see _params_plan),
    their plan kept in p's float plan by kind and terms.  Only a plain int
    ``terms`` is looked up (True == 1 would find one term's plan); any
    other builds a plan, which refuses it as _gauss_table does."""
    if type(terms) is int:
        plan = _planned(p, (kind, terms),
                        lambda p: _params_plan(p, kind, terms))
    else:
        plan = _params_plan(p, kind, terms)
    return _gauss_jets(plan, x, order)[0]


def _require_unit_disc(x: complex):
    if not abs(x) < 1:  # a NaN x fails this test too
        raise OutsideDisc("outside disc: |x| >= 1", {"x": x})


class GaussJet(NamedTuple):
    """Value and first two derivatives of a truncated Gauss series,
    together with the magnitude of the last summed term."""

    value: complex
    d1: Optional[complex]
    d2: Optional[complex]
    tail: float


def hyp2f1_jet(alpha, beta, gamma, x, terms: int,
               order: int = 2) -> GaussJet:
    """The truncated Gauss series at x and its derivatives up to ``order``
    (0, 1 or 2); a derivative not asked for is None.  The parameters are
    rationals (ints or Fractions), cleared once over one denominator."""
    if order not in (0, 1, 2):
        raise InputError("derivative order must be 0, 1 or 2",
                         {"order": order})
    x = _as_complex(x)
    _require_unit_disc(x)
    params = (alpha, beta, gamma)
    try:
        nums, den = common_denominator(params)
    except AttributeError:  # no .denominator: not an int or a Fraction
        # repr(params), one parameter at a time
        raise InputError("Gauss parameters must be rationals",
                         {"parameters": "(" + ", ".join(map(describe, params))
                          + ")"}) from None
    plan = _GaussPlan([nums], terms, den)
    sums, powers = _gauss_jets(plan, x, order)
    jet = [s[0] for s in sums] + [None] * (2 - order)
    last = plan.weights(0)[:, -1] * powers[-1]
    # the scalar abs: numpy's array abs may round a hypot differently
    return GaussJet(*jet, abs(last[0]))


def hyp2f1(alpha, beta, gamma, x, terms: int = 80) -> complex:
    """Truncated Gauss hypergeometric series inside the unit disc, at
    rational parameters."""
    return hyp2f1_jet(alpha, beta, gamma, x, terms, 0).value


# --------------------------------------------------------------------------
# product vectors
# --------------------------------------------------------------------------

def product_vector_w(p: HGParams, x, terms: int = 60) -> np.ndarray:
    """w = (f1 f2, x f1' f2, x f1 f2', x^2 f1' f2')."""
    return _w_jet(p, x, terms, False)[0]


def _w_jet(p: HGParams, x, terms: int, derivative: bool) -> tuple:
    """w at x, and dw/dx if ``derivative`` (else None, and no second
    derivative is summed)."""
    x = _as_complex(x)
    _require_unit_disc(x)
    (v1, v2), (d1, d2), *second = _plan_jets(p, "w", x, terms,
                                             1 + derivative)
    w = np.array([
        v1 * v2,
        x * d1 * v2,
        x * v1 * d2,
        x * x * d1 * d2])
    if not derivative:
        return w, None
    (s1, s2), = second
    dw = np.array([
        d1 * v2 + v1 * d2,
        d1 * v2 + x * s1 * v2 + x * d1 * d2,
        v1 * d2 + x * d1 * d2 + x * v1 * s2,
        2 * x * d1 * d2 + x * x * (s1 * d2 + d1 * s2)])
    return w, dw


def w_residual(p: HGParams, x, terms: int = 60) -> float:
    """Max-norm defect of w in dw/dx = (H0/x + H1/(x-1)) w.

    H0 and H1 are the integer rows of build_product_system, each entry
    rounded once.  The singular point x = 0 is refused: H0/x has a pole
    there.
    """
    x = _as_complex(x)
    if x == 0:
        raise OutsideDisc("w_residual is undefined at the singular point 0",
                          {"x": x})
    w, dw = _w_jet(p, x, terms, True)
    h0, h1 = _planned(p, "residue", _residue_doubles)
    rhs = (h0 / x + h1 / (x - 1)) @ w
    return float(np.max(np.abs(dw - rhs)))


def _residue_doubles(p: HGParams) -> tuple:
    """H0 and H1 from product_residue_rows, each entry rounded once."""
    *rows, den = product_residue_rows(p)
    return tuple(cleared_complex_array(nums, den, 4) for nums in rows)


def _check_off_cut(x: complex):
    if x.imag == 0 and x.real <= 0:
        raise OutsideDisc("x must avoid the branch cut (-inf, 0]", {"x": x})


def _power(x: complex, expo: float) -> complex:
    """x ** expo on the principal branch; OutsideDisc where it leaves the
    double range (a negative exponent at tiny |x|)."""
    try:
        return x ** expo
    except OverflowError as exc:
        raise OutsideDisc("a power of x leaves the double range",
                          {"x": x, "exponent": expo}) from exc


def contiguous_product_vector(p: HGParams, x, terms: int = 60) -> np.ndarray:
    """x^(gamma1 - 1) times the four products of parameter-shifted Gauss
    functions (the alpha- and beta-raised contiguous companions)."""
    return _v_jet(p, x, terms, False)[0]


def _prefactor_exponent(p: HGParams) -> float:
    """gamma1 - 1 as a double, from the cleared parameters, kept in p's
    float plan."""
    return _planned(p, "gamma1 - 1", _gamma1_less_one)


def _gamma1_less_one(p: HGParams) -> float:
    (*_, g1, _), den = p._cleared
    return ratio_to_double(g1 - den, den)


def _v_jet(p: HGParams, x, terms: int, derivative: bool = True) -> tuple:
    """v at x, and dv/dx if ``derivative`` (else None, and no derivative
    is summed)."""
    x = _as_complex(x)
    _require_unit_disc(x)
    _check_off_cut(x)
    sums = _plan_jets(p, "v", x, terms, int(derivative))
    f = sums[0]
    # (alpha-raised, alpha-raised), (beta, beta), (alpha, beta), (beta, alpha)
    pairs = [(0, 2), (1, 3), (0, 3), (1, 2)]
    prods = np.array([f[i] * f[j] for i, j in pairs])
    expo = _prefactor_exponent(p)
    pref = _power(x, expo)
    v = pref * prods
    if not derivative:
        return v, None
    df = sums[1]
    dprods = np.array([df[i] * f[j] + f[i] * df[j] for i, j in pairs])
    dv = expo * _power(x, expo - 1) * prods + pref * dprods
    return v, dv


def v_via_transform(p: HGParams, x, terms: int = 60) -> np.ndarray:
    """x^(gamma1 - 1) (R P^{-1}) w, the contiguous vector by way of w.

    R P^{-1} is applied in its closed form, the integer rows of
    contiguous_product_matrix (the Gauss contiguous relations), which
    verify 1b checks exactly against R times the inverse of P, each entry
    rounded once.  Its domain is that of R and P^{-1}: where a parameter
    vanishes, det R = 0 or det P = 0 (a half-sum factor of the determinant
    formula vanishes) the product is undefined, and SingularMatrixError is
    raised.
    """
    x = _as_complex(x)
    _check_off_cut(x)
    w, _ = _w_jet(p, x, terms, False)
    nums, den = _planned(p, "R P^-1", _contiguous_rows)
    # the power before the rounding: where both refuse, the power does
    pref = _power(x, _prefactor_exponent(p))
    return pref * (_planned(p, "R P^-1 doubles",
                            lambda p: cleared_complex_array(nums, den, 4))
                   @ w)


def _contiguous_rows(p: HGParams) -> tuple:
    """contiguous_product_rows, refused where det P or det R = 0."""
    rows = contiguous_product_rows(p)
    if has_zero_factor(p, DET_GAUGE_FACTORS):
        raise SingularMatrixError("degenerate parameters: det P = 0",
                                  {"det": "0"})
    if has_zero_factor(p, DET_DIAGONALIZER_FACTORS):
        raise SingularMatrixError("degenerate parameters: det R = 0")
    return rows


def relative_gap(direct: np.ndarray, via: np.ndarray) -> float:
    """max|direct - via| / max(1, max|via|): how far the two computation
    paths of the contiguous product vector disagree."""
    scale = max(1.0, float(np.max(np.abs(via))))
    return float(np.max(np.abs(direct - via))) / scale


def v_residual(p: HGParams, x, terms: int = 60) -> float:
    """Max-norm defect of the contiguous vector in its diagonalized system
    dv/dx = R (xI - T)^{-1} R^{-1} diag(c, -c, d, -d) v, R rounded from
    the integer rows of hgsystem.diagonalizer_rows; refused, as
    build_diagonalizer is, where a parameter vanishes or det R = 0, and
    as SingularMatrixError where R is singular in doubles only.  v solves
    this system only at the Okubo gammas; elsewhere the number is no
    defect."""
    x = _as_complex(x)
    v, dv = _v_jet(p, x, terms)
    r, diag_exp = _planned(p, "R", _diagonalizer_doubles)
    xit = np.diag([1 / x, 1 / x, 1 / (x - 1), 1 / (x - 1)])
    try:
        solved = np.linalg.solve(r, diag_exp @ v)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("R is singular in doubles") from exc
    rhs = r @ xit @ solved
    return float(np.max(np.abs(dv - rhs)))


def _diagonalizer_doubles(p: HGParams) -> tuple:
    """R from diagonalizer_rows, each entry rounded once, and
    diag(c, -c, d, -d) from the half-sums c and d, each rounded once."""
    r = cleared_complex_array(*diagonalizer_rows(p), 4)
    (c, d), h = half_sum_numerators(p, ("++--", "+--+"))
    c, d = ratio_to_double(c, h), ratio_to_double(d, h)
    return r, np.diag([c, -c, d, -d]).astype(complex)


# --------------------------------------------------------------------------
# local series solutions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesSolution:
    """A truncated local solution sum coeffs[k] * u^(k + exponent).

    ``variable`` names u: 'x' at the origin, 'x-1' at one, '1/(x-1)' at
    infinity.  Exact solutions carry Fraction coefficient 4-tuples, float
    ones complex 4-tuples.
    """

    base: str
    exponent: Fraction
    coeffs: tuple
    variable: str
    exact: bool

    @property
    def terms(self) -> int:
        return len(self.coeffs)

    def _local(self, x) -> complex:
        x = _as_complex(x)
        if self.base == "0":
            return x
        if self.base == "1":
            return x - 1
        if x == 1:
            raise OutsideDisc("1/(x-1) has a pole at x = 1", {"x": x})
        return 1 / (x - 1)

    def _coeff_array(self) -> np.ndarray:
        if self.exact:
            return complex_array(self.coeffs)
        return np.array(self.coeffs, dtype=complex)

    def evaluate(self, points) -> np.ndarray:
        """Values and dy/dx of the truncated sum at every point, as an
        array of shape (2, len(points), 4), from one Horner sweep over the
        coefficients carried beside (rho + k) times them.

        The expansion point is refused: the derivative's factor u^(rho-1)
        is singular there; so is a point where a factor u^rho leaves the
        double range (OutsideDisc, see _power).
        """
        us = [self._local(x) for x in points]
        for x, u in zip(points, us):
            if u == 0:
                raise OutsideDisc("cannot evaluate at the expansion point",
                                  {"x": x})
        rho = to_double(self.exponent)
        coeffs = self._coeff_array()
        steps = np.stack(
            [coeffs, (rho + np.arange(len(coeffs)))[:, None] * coeffs], 1)
        acc = np.zeros((2, len(us), 4), dtype=complex)
        at = np.array(us, dtype=complex)[:, None]
        for step in steps[::-1]:
            acc *= at
            acc += step[:, None]
        for i, u in enumerate(us):
            # factor first: numpy's complex product need not commute
            acc[0, i] = _power(u, rho) * acc[0, i]
            # with u = 1/(x-1) at infinity, du/dx = -u^2
            acc[1, i] = (-_power(u, rho + 1) if self.base == "inf"
                         else _power(u, rho - 1)) * acc[1, i]
        return acc

    def to_json(self) -> dict:
        text = rational_text if self.exact else _format_complex
        return {"base": self.base, "exponent": rational_text(self.exponent),
                "variable": self.variable, "exact": self.exact,
                "coeffs": [[text(c) for c in vec] for vec in self.coeffs]}


def _format_complex(c) -> str:
    z = complex(c)
    return f"{format(z.real, '.17g')}{'+' if z.imag >= 0 else '-'}{format(abs(z.imag), '.17g')}j"


def exponents_at(system: OkuboSystem, base: str) -> list:
    if base == "1":
        return [Fraction(0), system.b, -system.b]
    if base == "0":
        return [Fraction(0), system.a, -system.a]
    if base == "inf":
        return [system.c, -system.c, system.d, -system.d]
    raise InputError(f"unknown base point {base!r}")


def local_series(system: OkuboSystem, base: str, exponent_index: int,
                 terms: int = 80, mode: str = "float") -> list:
    """Local solutions of (xI - T) y' = A y at a singular point.

    Returns a list of SeriesSolution: two independent solutions for the
    repeated exponent 0 at a finite base point, one otherwise.  terms and
    exponent_index must be ints; a bool is refused, not read as 0 or 1.
    """
    require_admissible(system.a, system.b, system.c, system.d)
    if mode not in _ARITHMETIC:
        raise InputError(f"unknown mode {mode!r}")
    if require_int(terms, "terms") < 1:
        raise InputError("need at least one term", {"terms": terms})
    expos = exponents_at(system, base)
    if not 0 <= require_int(exponent_index, "exponent index") < len(expos):
        raise InputError(f"exponent index {exponent_index} out of range "
                         f"0..{len(expos) - 1}")
    rho = expos[exponent_index]
    if base == "inf":
        coeffs = [_infinity_coeffs(system, rho, _infinity_start(system, rho),
                                   terms, mode)]
    else:
        coeffs = [_finite_coeffs(system, base, rho, g0, terms, mode)
                  for g0 in _finite_starts(system, base, rho)]
    variable = {"0": "x", "1": "x-1", "inf": "1/(x-1)"}[base]
    return [SeriesSolution(base=base, exponent=rho, coeffs=tuple(vecs),
                           variable=variable, exact=mode == "exact")
            for vecs in coeffs]


#: (solved, coupled) row pairs of the recurrence at a finite base point:
#: the solved pair is where T - I (at 1) or T (at 0) is invertible
_FINITE_ROWS = {"1": ((0, 1), (2, 3)), "0": ((2, 3), (0, 1))}


def _finite_starts(system: OkuboSystem, base: str, rho: Fraction) -> list:
    """Exact admissible initial vectors g(0) at x = 0 or x = 1.

    For rho = 0 the solved pair is free and the coupled rows of the r = 0
    equation give the coupled pair; otherwise the solved pair vanishes and
    the coupled pair must be annihilated by diag(rho - e, rho + e), with
    e = a at 0 and b at 1.
    """
    solved, coupled = _FINITE_ROWS[base]
    e = system.a if base == "0" else system.b
    if rho != 0:
        g = [Fraction(0)] * 4
        g[coupled[0] if rho == e else coupled[1]] = Fraction(1)
        return [g]
    rows = system.coeff.rows
    starts = []
    for j in solved:
        g = [Fraction(0)] * 4
        g[j] = Fraction(1)
        g[coupled[0]] = rows[coupled[0]][j] / -e
        g[coupled[1]] = rows[coupled[1]][j] / e
        starts.append(g)
    return starts


def _infinity_start(system: OkuboSystem, sigma: Fraction) -> list:
    """The exact initial vector h(0), spanning the kernel of sigma I + A,
    with its first nonzero entry 1.

    (-sigma I - A) N(-sigma) = P(-sigma) I = 0 and -sigma is a simple
    eigenvalue of A, so every nonzero column of N(-sigma) spans that
    kernel.  With sigma = p/q and N's coefficients cleared to N'_k,
    N(-sigma) is a multiple of sum_k N'_k (-p)^k q^(3-k), taken by
    homogeneous Horner on the integers.
    """
    coeffs, _ = system.resolvent.cleared
    p, q = -sigma.numerator, sigma.denominator
    value, qk = coeffs[-1], 1
    for m in reversed(coeffs[:-1]):
        qk *= q
        value = [x * p + y * qk for x, y in zip(value, m)]
    for j in range(4):
        col = value[j::4]
        first = next((x for x in col if x), 0)
        if first:
            return [Fraction(x, first) for x in col]
    raise InternalInconsistency(
        "resolvent numerator vanishes at -sigma "
        f"(sigma = {rational_text(sigma)})")


def _require_nonzero_steps(shifts, terms: int):
    """Step k (1 <= k < terms) divides by k + shift for every shift.

    A zero one means the exponents resonate at that step, which no
    admissible system reaches; it is caught here, exactly, in both modes.
    """
    steps = [-x for x in shifts if x.denominator == 1 and 1 <= -x < terms]
    if steps:
        raise AdmissibilityError(
            "series recurrence step has a zero denominator",
            {"step": int(min(steps))})


def _coprime_fraction(num: int, den: int) -> Fraction:
    """num/den for coprime num and den > 0, without a second gcd: a bare
    Fraction with its two slots set, as Python 3.12's own coprime
    constructor builds it, and as every supported version's slots admit."""
    obj = object.__new__(Fraction)
    obj._numerator = num
    obj._denominator = den
    return obj


#: heavy primes are the prime factors of a series' fixed scales below
#: this bound; a gcd against the denominator takes at most p**k < _CHUNK
#: of each at a time
_HEAVY_BOUND = 2 ** 16
_CHUNK = 2 ** 30


def _heavy_primes(scales) -> tuple:
    """The prime factors below _HEAVY_BOUND of the scales, by trial
    division; larger ones are left to light."""
    primes = set()
    for rest in scales:
        rest = abs(rest)
        f = 2
        while f < _HEAVY_BOUND and f * f <= rest:
            if rest % f == 0:
                primes.add(f)
                while rest % f == 0:
                    rest //= f
            f += 1 if f == 2 else 2
        if 1 < rest < _HEAVY_BOUND:
            primes.add(rest)
    return tuple(sorted(primes))


class _SplitDenominator:
    """Exact mode's normaliser: numerators over den = light * prod p**e_p.

    The p are the heavy primes of the series' fixed scales (D, q and q_e
    at finite points, L, K and q at infinity), which make up most of the
    bits of every denominator.  Every step factor is split by trial
    division by them (split; a constant one once per series), and all it
    leaves, big primes included, goes into light, so gcd(light, p) == 1
    whatever the split finds.  The gcd of each numerator with den then
    runs against the small modulus m = light * prod p**min(e_p, k_p),
    p**k_p < 2**30, and goes on only for a prime that fills its chunk; the
    gcd of the vector is the gcd of those.  A denominator is the triple
    (den, light, exponents).

    A step's numerators are given as integer rows over a basis of a few
    big integers, n_i = rows_i . basis: the two solved rows at a finite
    point, the top pair at infinity, and the start vector as a four-wide
    basis with identity rows.  Each basis entry is reduced modulo m once
    and the residues n_i % m are formed from those as small combinations,
    so a step divides two big integers by m, not four.  Where light is
    nearly all of den, those divisions were cheap and forming the
    residues costs a little more than it saves.
    """

    def __init__(self, scales):
        self.primes = _heavy_primes(scales)
        self.powers = []
        for p in self.primes:
            pw = [1]
            while pw[-1] * p < _CHUNK:
                pw.append(pw[-1] * p)
            self.powers.append(pw)
        self.one = (1, 1, (0,) * len(self.primes))

    def split(self, f: int) -> tuple:
        """The nonzero factor f as (f, light part, exponents of the heavy
        primes), the form of a denominator."""
        light, exps = abs(f), []
        for p in self.primes:
            e = 0
            while light % p == 0:
                light //= p
                e += 1
            exps.append(e)
        return f, light, exps

    def _gcd(self, n: int, r: int, m: int, deep: list) -> int:
        """gcd(den, n) for n != 0, from r = n % m for the small modulus m;
        ``deep`` holds (p**k_p, powers of p, e_p - k_p) for the primes
        whose exponent in den passes their chunk."""
        g = math.gcd(m, r)
        for chunk, pw, rest in deep:
            if g % chunk:
                continue
            # p fills its chunk: take the rest of p's power a chunk at a time
            q = n // g
            while rest:
                c = min(rest, len(pw) - 1)
                t = math.gcd(pw[c], q % pw[c])
                g *= t
                if t != pw[c]:
                    break
                q //= t
                rest -= c
        return g

    def normalise(self, basis, rows, fixed, step: int, den) -> tuple:
        """(nums, den) of nums / (den * fixed * step) in lowest terms, with
        nums[i] = rows[i] . basis, and its entries as reduced Fractions;
        the constant factor ``fixed`` comes split, the step's own is split
        here."""
        full, light, exps = den
        value, part, fixed_exps = fixed
        step, step_light, step_exps = self.split(step)
        # the small factors multiply together before the one big product
        full, light = full * (value * step), light * (part * step_light)
        exps = [e + j + k for e, j, k in zip(exps, fixed_exps, step_exps)]
        if full < 0:
            basis, full = [-x for x in basis], -full
        m, deep = light, []
        for e, pw in zip(exps, self.powers):
            top = len(pw) - 1
            m *= pw[min(e, top)]
            if e > top:
                deep.append((pw[top], pw, e - top))
        residues = [x % m for x in basis]
        nums, gs = [], []
        for row in rows:
            n = r = 0
            for c, x, y in zip(row, basis, residues):
                if c:
                    n += c * x
                    r += c * y
            nums.append(n)
            # gcd(0, x) == x: a zero entry drops out of the vector's gcd
            gs.append(self._gcd(n, r % m, m, deep) if n else 0)
        g = math.gcd(*gs)
        if not g:
            return nums, self.one, tuple(Fraction(0) for _ in nums)
        nums, full = [n // g for n in nums], full // g
        out = []
        for n, h in zip(nums, gs):
            # what the entry shares with den beyond the vector's gcd
            h //= g
            out.append(_coprime_fraction(n // h, full // h) if n
                       else Fraction(0))
        for i, p in enumerate(self.primes):
            while g % p == 0:
                g //= p
                exps[i] -= 1
        # what is left of g is light's share
        return nums, (full, light // g, tuple(exps)), tuple(out)


class _FloatDenominator:
    """Float mode's normaliser: divides by each step's denominator.  The
    float kernels form a step's numerators themselves (building rows as
    well would only slow them) and pass them as the basis, so rows is
    never read."""

    one = 1

    def __init__(self, scales):
        pass

    @staticmethod
    def split(f):
        return f

    @staticmethod
    def normalise(nums: list, rows, fixed, step, den) -> tuple:
        den = den * fixed * step
        nums = [n / den for n in nums]
        return nums, 1, tuple(complex(n) for n in nums)


#: the rows that give a four-wide basis as the numerators themselves
_IDENTITY_ROWS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

#: what the kernels do by mode: (enter integer numerators over one
#: positive denominator, carry a step factor num/scale, the normaliser
#: built from a series' fixed scales, which reduces a step's numerators
#: over its denominator and leaves a vector as output coefficients).
#: Exact mode keeps the integers, carries the integer num (the scales
#: cancel between a step's numerators and its denominator), passes a
#: step's numerators as small rows over the two big integers they combine,
#: keeps each denominator split over the heavy primes of the scales and
#: returns reduced Fractions, built without a second gcd; float mode
#: rounds every entry once to a double over 1, carries the double nearest
#: num/scale, so no number it handles grows with the height of the
#: exponents, and forms the numerators in the kernel.
_ARITHMETIC = {
    "exact": (lambda nums, den: (list(nums), den), lambda num, scale: num,
              _SplitDenominator),
    "float": (lambda nums, den: (ratios_to_doubles(nums, den), 1),
              lambda num, scale: num / scale, _FloatDenominator),
}


def _finite_coeffs(system: OkuboSystem, base: str, rho: Fraction,
                   start: list, terms: int, mode: str) -> list:
    """Coefficient vectors g(0..terms-1) at x = 0 or x = 1.

    Each g(r) is kept as four numerators over one denominator.  With
    A = A'/D, rho = p/q and the block exponent e = a (at 0) or b (at 1)
    = e'/q_e, one step reads, for s = (r+1)q + p
    (so step = r + rho + 1 = s/q) and t_-+ = s q_e -+ e' q:

      R_i  = (r q + p) D n_i - q (A' n)_i          for the two solved rows,
      n'_i = sign D t_- t_+ R_i                     (sign -1 at 1, +1 at 0),
      n'_k = q q_e t_+- (A'_blk (sign R))_k         for the coupled rows,
      den' = D^2 den s t_- t_+,

    where the coupled rows divide by step -+ e.  The mode then normalises
    the vector.  In float mode A' = A, D = 1 and every factor above is
    divided by its scale (q for r q + p, s and q; q q_e for t_-+ and q q_e).
    """
    e = system.a if base == "0" else system.b
    _require_nonzero_steps((rho, rho - e, rho + e), terms)
    enter, factor, normaliser = _ARITHMETIC[mode]
    exact = mode == "exact"
    flat, dmat = enter(system.coeff.nums, system.coeff.den)
    amat = [flat[4 * i:4 * i + 4] for i in range(4)]
    p, q = rho.numerator, rho.denominator
    ep, eq = e.numerator, e.denominator
    solved, coupled = _FINITE_ROWS[base]
    sign = -1 if base == "1" else 1
    solved_rows = [amat[i] for i in solved]
    blk = [[amat[k][j] for j in solved] for k in coupled]
    qe = q * eq
    qf, qef = factor(q, q), factor(qe, qe)
    norm = normaliser((dmat, qe))
    nums, den = enter(*common_denominator(start))
    nums, den, vec = norm.normalise(nums, _IDENTITY_ROWS, norm.one, den,
                                    norm.one)
    coeffs = [vec]
    dd = norm.split(dmat * dmat)
    for r in range(terms - 1):
        zq = r * q + p
        s = zq + q
        tm, tp = factor(s * eq - ep * q, qe), factor(s * eq + ep * q, qe)
        zq, s = factor(zq, q), factor(s, q)
        r0, r1 = (sign * (zq * dmat * nums[i]
                          - qf * sum(a * n for a, n in zip(row, nums)))
                  for i, row in zip(solved, solved_rows))
        scale = dmat * tm * tp
        cp, cm = qef * tp, qef * tm
        if exact:
            # the four numerators as rows over (r0, r1)
            basis, rows = (r0, r1), [None] * 4
            rows[solved[0]], rows[solved[1]] = (scale, 0), (0, scale)
            rows[coupled[0]] = (cp * blk[0][0], cp * blk[0][1])
            rows[coupled[1]] = (cm * blk[1][0], cm * blk[1][1])
        else:
            basis, rows = [0] * 4, None
            basis[solved[0]], basis[solved[1]] = scale * r0, scale * r1
            basis[coupled[0]] = cp * (blk[0][0] * r0 + blk[0][1] * r1)
            basis[coupled[1]] = cm * (blk[1][0] * r0 + blk[1][1] * r1)
        nums, den, vec = norm.normalise(basis, rows, dd, s * tm * tp, den)
        coeffs.append(vec)
    return coeffs


def _infinity_coeffs(system: OkuboSystem, sigma: Fraction, h0: list,
                     terms: int, mode: str) -> list:
    """Coefficient vectors h(0..terms-1) at x = infinity.

    The step matrix A + wI (w = s + sigma + 1) has the closed inverse
    -N(-w) / P(w), with N = system.resolvent and
    P(w) = (w^2-c^2)(w^2-d^2), and the right-hand side -z (h_1, h_2, 0, 0)
    (z = w - 1) meets only the first two columns of N.  With sigma = p/q,
    Z = qz, W = qw, those columns cleared to integers N'_k = L N_k and K
    clearing the coefficients of P, one step reads

      n'  = Z (sum_k K q^(3-k) N'_k (-W)^k) n_top,
      den' = L den K q^4 P(w),

    a Horner evaluation of cubics and a 4x2 product, followed by the mode's
    normalisation.  In float mode N' = N, L = K = 1 and Z, W and q are
    divided by q.
    """
    c, d = system.c, system.d
    _require_nonzero_steps((sigma - c, sigma + c, sigma - d, sigma + d),
                           terms)
    enter, factor, normaliser = _ARITHMETIC[mode]
    exact = mode == "exact"
    # the first two columns of N's four coefficients, cleared over one
    # denominator
    nums, lden = system.resolvent.cleared
    flat, lden = enter([m[i + j] for m in nums for i in range(0, 16, 4)
                        for j in (0, 1)], lden)
    p, q = sigma.numerator, sigma.denominator
    qf = factor(q, q)
    (k0, k1, k2), kden = enter(*common_denominator(
        [1, -(c * c + d * d), c * c * d * d]))
    quartic = (k0, k1 * qf * qf, k2 * qf ** 4)
    # mats[k][i][j] = K q^(3-k) N'_k[i][j]
    mats = [[[kden * qf ** (3 - k) * flat[8 * k + 2 * i + j]
              for j in (0, 1)] for i in range(4)] for k in range(4)]
    norm = normaliser((lden, kden, q))
    nums, den = enter(*common_denominator(h0))
    nums, den, vec = norm.normalise(nums, _IDENTITY_ROWS, norm.one, den,
                                    norm.one)
    coeffs = [vec]
    ll = norm.split(lden)
    for s in range(terms - 1):
        zq = s * q + p
        u = factor(-zq - q, q)
        zq = factor(zq, q)
        top0, top1 = nums[0], nums[1]
        nxt = []
        for i in range(4):
            col0 = ((mats[3][i][0] * u + mats[2][i][0]) * u
                    + mats[1][i][0]) * u + mats[0][i][0]
            col1 = ((mats[3][i][1] * u + mats[2][i][1]) * u
                    + mats[1][i][1]) * u + mats[0][i][1]
            # exact mode: the numerator as a row over (top0, top1)
            nxt.append((zq * col0, zq * col1) if exact
                       else zq * (col0 * top0 + col1 * top1))
        w2 = u * u
        quartic_w = (quartic[0] * w2 + quartic[1]) * w2 + quartic[2]
        basis, rows = ((top0, top1), nxt) if exact else (nxt, None)
        nums, den, vec = norm.normalise(basis, rows, ll, quartic_w, den)
        coeffs.append(vec)
    return coeffs


# --------------------------------------------------------------------------
# residual verification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalReport:
    sample_points: tuple
    max_residual: float
    terms_used: int

    def to_json(self) -> dict:
        return {"max_residual": format(self.max_residual, ".17g"),
                "terms_used": self.terms_used,
                "samples": [[format(z.real, ".17g"), format(z.imag, ".17g")]
                            for z in self.sample_points]}


def check_in_disc(base: str, x: complex) -> bool:
    """Whether x is a finite point of the disc where the series at base
    is summed (see DISC_FINITE and DISC_INFINITY)."""
    x = _as_complex(x)
    if not cmath.isfinite(x):
        return False
    if base == "0":
        return abs(x) <= DISC_FINITE
    if base == "1":
        return abs(x - 1) <= DISC_FINITE
    return abs(x - 1) >= DISC_INFINITY


def worst_defect(defects) -> float:
    """The largest of the defects, 0.0 for none, and NaN if any is NaN
    (max() keeps whichever of a NaN and a number comes first)."""
    return float(np.max([0.0, *defects]))


def _okubo_defect(a: np.ndarray, t: np.ndarray, ident: np.ndarray,
                  y: np.ndarray, dy: np.ndarray, x: complex) -> float:
    lhs = (x * ident - t) @ dy
    rhs = a @ y
    return float(np.max(np.abs(lhs - rhs)))


def residual_report(system: OkuboSystem, solution: SeriesSolution,
                    samples: Sequence[complex]) -> EvalReport:
    """Largest defect of a truncated local solution over sample points.

    There must be at least one sample, and every sample must be a finite
    point of the solution's declared disc other than its expansion point.
    All samples are checked before one sweep evaluates them together.
    """
    pts = tuple(_as_complex(s) for s in samples)
    if not pts:
        raise InputError("residual_report needs at least one sample point")
    for x in pts:
        if not check_in_disc(solution.base, x):
            raise OutsideDisc(f"sample outside declared disc for base "
                              f"{solution.base}", {"x": x})
    values, derivatives = solution.evaluate(pts)
    a = system.coeff.to_complex()
    t = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
    ident = np.eye(4)
    # point by point: one batched product would reorder the sums
    worst = worst_defect(_okubo_defect(a, t, ident, y, dy, x)
                         for y, dy, x in zip(values, derivatives, pts))
    return EvalReport(pts, worst, solution.terms)
