"""Accessory parameters of the size-four Okubo system.

The coefficient matrix A = [[a*J, A12], [A21, b*J]] that is similar to
diag(c*J, d*J) admits a normalization in which every off-diagonal entry is
a ratio of linear forms in four auxiliary quantities r1..r4 (obtained as
component ratios of the left eigenvectors for the eigenvalues -c and c).
Modulo a common scale of the r's, and one rational constraint fixing d^2,
two free parameters remain: the accessory parameters.

Series solutions at a finite singular point and at x = infinity have
coefficient vectors governed by first-order rational difference systems
that reduce to 2x2 systems built from one diagonal block of the resolvent
numerator of A: the top block for the points 1 and infinity, the bottom
block for 0 and infinity.  One construction serves both pairs; it reads
the block off with 2x2 products of the chart's A12 and A21.  Two such
systems are called "substantially the same" when one is carried into the
other by a single scalar gamma-like factor; this holds exactly when the
two obstructions

    epsilon = b(a+c) r1 + b(a-c) r2 - a(b+c) r3 - a(b-c) r4,
    delta   = r1 r2 - r3 r4

both vanish.  epsilon = delta = 0 alone leaves a one-parameter family of
ratios (a curve at r3 = 1); on it, (BC : AD : CD : AB), A..D as in
`special_factors`, is the one nondegenerate chart that also meets the
d-constraint, away from an exceptional set of exponents, and has a
closed-form coefficient matrix; for the half-sum exponents of the
hypergeometric product system, that special matrix is diagonally conjugate
to the coefficient matrix of the product system.

A chart computes its derived exact objects (checked state, d-constraint
value, A12, A21, the obstructions and the validated Okubo system) once
per chart object, as integer polynomials in its cleared exponents and
ratios.  Equal but distinct charts each build their own; nothing is
cached by value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (AdmissibilityError, DConditionError, DegenerateChart,
                     EigenvectorDegeneracy, InputError, InternalInconsistency)
from .exact import (Poly, PolyMatrix, RationalMatrix, _cross, _poly,
                    common_denominator, left_eigenvectors, poly_adjugate,
                    rational_text, to_fraction)
from .hgsystem import (OKUBO_EXPONENT_WORDS, HGParams, J2, OkuboSystem,
                       _even_quartic, build_okubo_system, lam,
                       okubo_shape_fault)


# --------------------------------------------------------------------------
# admissibility of the local exponents
# --------------------------------------------------------------------------

def base_condition_failures(a, b, c, d) -> list:
    """Which of the excluded integer conditions hold for (a, b, c, d).

    The excluded set is: any of a, b, c, d, 2a, 2b, 2c, 2d and all the
    pairwise sums/differences being an integer.  Integrality is detected
    exactly, never by a floating-point epsilon: see `cleared_failures`.
    """
    return cleared_failures(*common_denominator(
        [to_fraction(x) for x in (a, b, c, d)]))


def cleared_failures(nums, den: int) -> list:
    """base_condition_failures of (a, b, c, d) = nums / den, for integer
    numerators over one positive denominator: a combination of them is an
    integer exactly when den divides its numerator."""
    a, b, c, d = nums
    named = {"a": a, "b": b, "c": c, "d": d,
             "2a": 2 * a, "2b": 2 * b, "2c": 2 * c, "2d": 2 * d}
    for (n1, x), (n2, y) in (
            (("a", a), ("b", b)), (("a", a), ("c", c)), (("a", a), ("d", d)),
            (("b", b), ("c", c)), (("b", b), ("d", d)), (("c", c), ("d", d))):
        named[f"{n1}+{n2}"] = x + y
        named[f"{n1}-{n2}"] = x - y
    return [name for name, value in named.items() if value % den == 0]


def is_admissible(a, b, c, d) -> bool:
    return not base_condition_failures(a, b, c, d)


def require_admissible(a, b, c, d) -> None:
    bad = base_condition_failures(a, b, c, d)
    if bad:
        raise AdmissibilityError(
            "local exponents hit an excluded integer configuration",
            {"integers": ", ".join(bad)})


# --------------------------------------------------------------------------
# charts
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AccessoryChart:
    """Local exponents (a, b, c, d) together with the ratio vector r.

    The r's matter only up to a common nonzero scale.  A chart is valid
    when r1 r2 r3 r4 != 0, r1 != r2, r3 != r4, and the quadratic-over-
    bilinear expression in the r's equals d^2 exactly.

    A chart builds its derived exact objects once: the checked state, the
    d-constraint value, the blocks A12 and A21, the obstructions and the
    validated Okubo system are cached properties, kept outside the fields
    the chart is compared and hashed by (like `OkuboSystem.resolvent`).
    Only success is kept, so an invalid chart raises on every call.  The
    closed forms are integer polynomials in (a, b, c, d) cleared over one
    denominator and r cleared over another; a matrix is built from its
    integer numerators (`RationalMatrix.from_integers`), a scalar as one
    Fraction.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    r: tuple

    def __post_init__(self):
        # exactness is a contract: floats are rejected, not approximated
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, to_fraction(getattr(self, name)))
        if isinstance(self.r, (str, bytes)):
            raise InputError("chart ratios must be four rationals, "
                             "not a string", {"r": repr(self.r)})
        object.__setattr__(self, "r", tuple(to_fraction(x) for x in self.r))
        if len(self.r) != 4:
            raise InputError("chart needs exactly four ratio entries")

    @property
    def r1(self):
        return self.r[0]

    @property
    def r2(self):
        return self.r[1]

    @property
    def r3(self):
        return self.r[2]

    def d_constraint_value(self) -> Fraction:
        """The rational expression that must equal d^2."""
        return self._d_constraint

    def check(self) -> None:
        """Raise DegenerateChart, then DConditionError, unless the chart
        is valid."""
        self._checked  # runs the tests, or reads their remembered success

    def _degenerate(self) -> DegenerateChart:
        return DegenerateChart("degenerate chart",
                               {"r": [rational_text(x) for x in self.r]})

    @cached_property
    def _cleared(self) -> tuple:
        """((A, B, C, Dd), D, (R1, R2, R3, R4), E) with (a, b, c, d) =
        (A, B, C, Dd)/D and r = R/E, the denominators D and E positive."""
        abcd, den_abcd = common_denominator((self.a, self.b, self.c, self.d))
        r, den_r = common_denominator(self.r)
        return abcd, den_abcd, r, den_r

    def _nondegenerate(self) -> tuple:
        """``_cleared``, or the DegenerateChart of ``_degenerate`` unless
        r1 r2 r3 r4 != 0, r1 != r2 and r3 != r4: the one test every
        derived object runs first."""
        r1, r2, r3, r4 = self._cleared[2]
        if not r1 * r2 * r3 * r4 or r1 == r2 or r3 == r4:
            raise self._degenerate()
        return self._cleared

    @cached_property
    def _d_constraint(self) -> Fraction:
        (a, b, c, _), da, (r1, r2, r3, r4), _ = self._nondegenerate()
        ab4 = 4 * a * b
        num = ((a + b + c) ** 2 * r1 * r3 - (a - b + c) ** 2 * r1 * r4
               - (a - b - c) ** 2 * r2 * r3 + (a + b - c) ** 2 * r2 * r4
               - ab4 * r1 * r2 - ab4 * r3 * r4)
        return Fraction(num, da * da * (r1 - r2) * (r3 - r4))

    @cached_property
    def _checked(self) -> bool:
        # the d-constraint runs the degeneracy test first
        if self.d_constraint_value() != self.d ** 2:
            raise DConditionError("d-condition fails",
                                  {"value": self.d_constraint_value(),
                                   "d^2": self.d ** 2})
        return True

    @cached_property
    def _a12(self) -> RationalMatrix:
        (_, b, c, _), da, (r1, r2, r3, r4), _ = self._nondegenerate()
        bm, bp = b - c, b + c
        return _signed_quotients(
            [bm * r2 - bp * r3, bp * r2 - bm * r4,
             bm * r1 - bp * r3, bp * r1 - bm * r4], da * (r1 - r2))

    @cached_property
    def _a21(self) -> RationalMatrix:
        (a, _, c, _), da, (r1, r2, r3, r4), _ = self._nondegenerate()
        am, ap = a - c, a + c
        return _signed_quotients(
            [ap * r1 - am * r4, am * r2 - ap * r4,
             ap * r1 - am * r3, am * r2 - ap * r3], da * (r4 - r3))

    @cached_property
    def _obstruction_nums(self) -> tuple:
        """(eps, dlt, den): with the chart cleared as in ``_cleared``,
        epsilon = eps / (D^2 E), delta = dlt / E^2 and
        (r1 - r2)(r3 - r4) = den / E^2."""
        (a, b, c, _), _, (r1, r2, r3, r4), _ = self._nondegenerate()
        eps = (b * (a + c) * r1 + b * (a - c) * r2
               - a * (b + c) * r3 - a * (b - c) * r4)
        return eps, r1 * r2 - r3 * r4, (r1 - r2) * (r3 - r4)

    @cached_property
    def _obstructions(self) -> "Obstructions":
        eps, dlt, den = self._obstruction_nums
        _, da, _, dr = self._cleared
        da2 = da * da
        return Obstructions(Fraction(eps, da2 * dr), Fraction(dlt, dr * dr),
                            Fraction(2 * dr * eps, da2 * den),
                            Fraction(2 * dlt, den))

    @cached_property
    def _system(self) -> OkuboSystem:
        self.check()
        coeff = RationalMatrix.from_blocks(
            [[J2.scale(self.a), self._a12], [self._a21, J2.scale(self.b)]])
        system = OkuboSystem(coeff, self.a, self.b, self.c, self.d)
        system.validate()
        return system

    @classmethod
    def from_json(cls, data: dict) -> "AccessoryChart":
        try:
            r = data["r"]
            if not isinstance(r, list):
                raise InputError("chart field 'r' must be a list",
                                 {"r": repr(r)})
            return cls(data["a"], data["b"], data["c"], data["d"], tuple(r))
        except KeyError as exc:
            raise InputError(f"missing chart field {exc}") from exc

    def to_json(self) -> dict:
        return dict({k: rational_text(getattr(self, k)) for k in "abcd"},
                    r=[rational_text(x) for x in self.r])


def solve_r4(a, b, c, d, r1, r2, r3) -> Fraction:
    """The unique r4 making the d-constraint hold, in `special_factors`
    (A r1 r3 - B r2 r3 - 4ab r1 r2) / (D r1 - C r2 + 4ab r3).

    With (a, b, c, d) cleared over one denominator and (r1, r2, r3) over
    E, the factors and 4ab share the denominator, which cancels, and E
    cancels but once.
    """
    a, b, (fa, fb, fc, fd), _ = _cleared_factors(a, b, c, d)
    (r1, r2, r3), den_r = common_denominator(
        [to_fraction(x) for x in (r1, r2, r3)])
    ab4 = 4 * a * b
    coef = fc * r2 - fd * r1 - ab4 * r3
    if coef == 0:
        raise DegenerateChart("r4 is not determined by (r1, r2, r3)")
    const = fa * r1 * r3 - fb * r2 * r3 - ab4 * r1 * r2
    return Fraction(-const, den_r * coef)


# --------------------------------------------------------------------------
# the parametrized coefficient matrix
# --------------------------------------------------------------------------

def _signed_quotients(nums: list, den: int) -> RationalMatrix:
    """[[n1, -n2], [-n3, n4]] / den, the shape of both off-diagonal blocks;
    a zero den raises ZeroDivisionError, as Fraction(n1, 0) does."""
    n1, n2, n3, n4 = nums
    return RationalMatrix.from_integers([n1, -n2, -n3, n4], den)


def upper_block(chart: AccessoryChart) -> RationalMatrix:
    """The block A12; built once per chart, DegenerateChart on a
    degenerate chart."""
    return chart._a12


def lower_block(chart: AccessoryChart) -> RationalMatrix:
    """The block A21; built once per chart, DegenerateChart on a
    degenerate chart."""
    return chart._a21


def okubo_from_chart(chart: AccessoryChart) -> OkuboSystem:
    """The Okubo coefficient matrix determined by a chart.

    Raises DegenerateChart / DConditionError when the chart invariants
    fail; the result always has characteristic polynomial
    (t^2 - c^2)(t^2 - d^2).  It is built and validated once per chart.
    """
    return chart._system


def special_matrix(a, b, c, d) -> OkuboSystem:
    """The closed-form coefficient matrix at the special accessory values,
    validated."""
    a, b, c, d = (to_fraction(x) for x in (a, b, c, d))
    system = OkuboSystem(_special_coeff(a, b, c, d), a, b, c, d)
    system.validate()
    return system


def _special_coeff(a, b, c, d) -> RationalMatrix:
    """The closed-form special coefficient matrix, with A..D the factors
    of `special_factors`:

        [[a J, [[D, A], [-C, -B]] / (4a)], [[[B, A], [-C, -D]] / (4b), b J]],

    built over the one denominator 4ab from (a, b, c, d) cleared.  A zero
    a or b raises ZeroDivisionError."""
    a, b, (fa, fb, fc, fd), den = _cleared_factors(a, b, c, d)
    ja, jb = 4 * a * a * b, 4 * a * b * b
    return RationalMatrix.from_integers(
        [ja, 0, b * fd, b * fa,
         0, -ja, -b * fc, -b * fb,
         a * fb, a * fa, jb, 0,
         -a * fc, -a * fd, 0, -jb], 4 * a * b * den)


# --------------------------------------------------------------------------
# chart recovery from a concrete coefficient matrix
# --------------------------------------------------------------------------

def recover_chart(matrix: RationalMatrix, a, b, c, d) -> tuple:
    """Normalize a block-form coefficient matrix into chart form.

    Returns (D, chart) with D diagonal, D A D^{-1} equal to the chart's
    parametrized matrix, and r_k the component ratios of the left
    eigenvectors for -c and c.  The eigenvalue labels c and d are taken
    from the caller; swapping them is the caller's choice.
    """
    a, b, c, d = (to_fraction(x) for x in (a, b, c, d))
    fault = okubo_shape_fault(matrix, a, b, c, d)
    if fault in ("upper", "lower"):
        raise InputError("matrix does not have the required diagonal blocks",
                         {"a": a, "b": b})
    if fault:
        raise InputError("matrix is not similar to diag(c*J, d*J)",
                         {"char_poly": matrix.char_poly().to_strings()})
    plus = left_eigenvectors(matrix, c)
    minus = left_eigenvectors(matrix, -c)
    if len(plus) != 1 or len(minus) != 1:
        raise EigenvectorDegeneracy(
            "eigenvalue c or -c has a repeated eigenspace",
            {"failures": "eigenspace-dimension"})
    v_plus, v_minus = plus[0], minus[0]
    failures = []
    for k in range(4):
        if v_plus[k] == 0:
            failures.append(f"v_c[{k + 1}] = 0")
        if v_minus[k] == 0:
            failures.append(f"v_-c[{k + 1}] = 0")
    for l in (0, 2):
        det2 = v_minus[l] * v_plus[l + 1] - v_minus[l + 1] * v_plus[l]
        if det2 == 0:
            failures.append(f"det of columns {l + 1},{l + 2} = 0")
    if failures:
        raise EigenvectorDegeneracy("eigenvector degeneracy",
                                    {"failures": "; ".join(failures)})
    diag = RationalMatrix.diagonal(v_plus)
    ratios = tuple(v_minus[k] / v_plus[k] for k in range(4))
    chart = AccessoryChart(a, b, c, d, ratios)
    chart.check()
    conjugated = diag * matrix * diag.inverse()
    if conjugated != okubo_from_chart(chart).coeff:
        raise InternalInconsistency(
            "normalized matrix disagrees with chart parametrization")
    return diag, chart


# --------------------------------------------------------------------------
# obstructions and cubic blocks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Obstructions:
    """The two polynomial obstructions and their scaled companions."""

    epsilon: Fraction
    delta: Fraction
    epsilon_prime: Fraction
    delta_prime: Fraction

    @property
    def vanish(self) -> bool:
        return self.epsilon == 0 and self.delta == 0


def epsilon_delta(chart: AccessoryChart) -> Obstructions:
    """Evaluate the obstructions; purely algebraic in (a, b, c, r), and
    evaluated once per chart."""
    return chart._obstructions


@dataclass(frozen=True)
class CubicBlockDecomposition:
    """Coefficients of the top block of the resolvent numerator of A.

    The top 2x2 block of (z^2-c^2)(z^2-d^2) (zI - A)^{-1} is the cubic
    z^3 I + z^2 quadratic + z linear + constant.
    """

    quadratic: RationalMatrix
    linear: RationalMatrix
    constant: RationalMatrix

    def top_block(self) -> PolyMatrix:
        return PolyMatrix([self.constant, self.linear, self.quadratic, _I2])


def cubic_blocks(chart: AccessoryChart) -> CubicBlockDecomposition:
    """Closed forms for the cubic block coefficients.

    The closed forms use the obstructions: with E = [[0, r2], [r1, 0]] and
    C = [[c, a+c], [a-c, -c]],

        quadratic = a J
        linear    = (a^2-b^2-c^2-d^2)/2 I + eps' E - b delta' C
        constant  = b A12 J A21 - a b^2 J - 2abc delta' I.

    Each block is built from integer numerators over one denominator: in
    the chart's cleared integers (see `AccessoryChart._obstruction_nums`)
    eps' r_k = 2 eps R_k / (D^2 den) and delta' = 2 dlt / den.
    """
    chart.check()
    (a, b, c, d), da, (r1, r2, _, _), _ = chart._cleared
    eps, dlt, den = chart._obstruction_nums
    da2 = da * da
    half = (a * a - b * b - c * c - d * d) * den
    bc4 = 4 * b * c * dlt
    linear = RationalMatrix.from_integers(
        [half - bc4, 4 * (eps * r2 - b * (a + c) * dlt),
         4 * (eps * r1 - b * (a - c) * dlt), half + bc4], 2 * da2 * den)
    # over D^3 pd den, with U J L = Q / pd: b U J L, a b^2 J, 2abc delta' I
    _, q, pd = _off_block_products(upper_block(chart), lower_block(chart))
    bq = b * da2 * den
    jt = a * b * b * pd * den
    it = 4 * a * b * c * dlt * pd
    constant = RationalMatrix.from_integers(
        [bq * q[0] - jt - it, bq * q[1], bq * q[2], bq * q[3] + jt - it],
        da2 * da * pd * den)
    return CubicBlockDecomposition(
        quadratic=RationalMatrix.from_integers([a, 0, 0, -a], da),
        linear=linear, constant=constant)


def _off_block_products(upper: RationalMatrix, lower: RationalMatrix) -> tuple:
    """(P, Q, den) with U L = P / den and U J L = Q / den, P and Q the
    integer products of the numerators of U and L, row by row."""
    u0, u1, u2, u3 = upper.nums
    l0, l1, l2, l3 = lower.nums
    return ([u0 * l0 + u1 * l2, u0 * l1 + u1 * l3,
             u2 * l0 + u3 * l2, u2 * l1 + u3 * l3],
            [u0 * l0 - u1 * l2, u0 * l1 - u1 * l3,
             u2 * l0 - u3 * l2, u2 * l1 - u3 * l3], upper.den * lower.den)


_I2 = RationalMatrix.identity(2)


# --------------------------------------------------------------------------
# the reduced difference systems
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DifferenceSystem:
    """A 2x2 first-order rational difference system
    f(z+1) = (scalar_numerator(z) / scalar_denominator(z)) matrix(z) f(z).

    ``matrix`` entries have degree <= 3.  The stored form is always
    forward: coefficient systems at a finite point run backward in z and
    are stored after inverting the step.
    """

    matrix: PolyMatrix
    scalar_numerator: Poly
    scalar_denominator: Poly
    label: str


#: per point pair: the sign of both scalar numerators; whether the pair
#: reads the bottom diagonal block b J of A, with (e, f, U, L) = (b, a, A21,
#: A12), rather than the top one, with (a, b, A12, A21): e J the block, U in
#: its rows, L in its columns; the labels of the systems at the finite
#: point and at infinity
_POINT_PAIRS = {
    "1-inf": (-1, False, "g-at-1", "h-at-inf"),
    "0-inf": (1, True, "g-at-0", "h-at-inf-dual"),
}


def difference_systems(chart: AccessoryChart, point_pair: str = "1-inf") -> tuple:
    """The pair of reduced 2x2 difference systems for a chart.

    ``point_pair`` selects which two singular points the underlying series
    live at: "1-inf" gives the systems for the top coefficient blocks of
    the series at x = 1 and x = infinity; "0-inf" the bottom-block systems
    for the series at x = 0 and at infinity (powers of x).

    Both reduce to a diagonal block B(z) = z^3 I + z^2 B2 + z B1 + B0 of the
    resolvent numerator z^3 I + z^2 A + z (A^2 - sI) + A^3 - sA, s = c^2 +
    d^2, read off with 2x2 products: B2 = e J, B1 = (e^2 - s) I + UL and
    B0 = e (ULJ + JUL) + f UJL + (e^3 - se) J.  The finite point steps
    forward by sign adj B(z) / ((z+1)(z^2 - f^2)), infinity by
    sign (z-1) (-B(-z)) / ((z^2 - c^2)(z^2 - d^2)).
    """
    chart.check()
    if point_pair not in _POINT_PAIRS:
        raise InputError(f"unknown point pair {point_pair!r}")
    sign, bottom, g_label, h_label = _POINT_PAIRS[point_pair]
    (e, f, c, d), da, _, _ = chart._cleared
    upper, lower = upper_block(chart), lower_block(chart)
    if bottom:
        e, f, upper, lower = f, e, lower, upper
    # k = D^2 (e^2 - s); UL = P / pd and U J L = Q / pd; UL J + J UL is
    # 2 diag(UL_11, -UL_22)
    k = e * e - c * c - d * d
    p, q, pd = _off_block_products(upper, lower)
    da2 = da * da
    kp = k * pd
    b2 = RationalMatrix.from_integers([e, 0, 0, -e], da)
    b1 = RationalMatrix.from_integers(
        [kp + da2 * p[0], da2 * p[1], da2 * p[2], kp + da2 * p[3]], da2 * pd)
    fd2 = f * da2
    b0 = RationalMatrix.from_integers(
        [e * (2 * da2 * p[0] + kp) + fd2 * q[0], fd2 * q[1], fd2 * q[2],
         fd2 * q[3] - e * (2 * da2 * p[3] + kp)], da2 * da * pd)
    g_sys = DifferenceSystem(
        matrix=poly_adjugate(PolyMatrix([b0, b1, b2, _I2])),
        scalar_numerator=Poly.constant(sign),
        scalar_denominator=_poly([-f * f, -f * f, da2, da2], da2),
        label=g_label)
    h_sys = DifferenceSystem(
        matrix=PolyMatrix([-b0, b1, -b2, _I2]),
        scalar_numerator=Poly([-sign, sign]),
        scalar_denominator=_even_quartic(chart.c, chart.d),
        label=h_label)
    return g_sys, h_sys


# --------------------------------------------------------------------------
# the substantially-same decision
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SamenessVerdict:
    """Outcome of the substantially-same test with its full witness.

    ``nonzero_minors`` lists the cross products
    c_jk(z) b_lm(z) - b_jk(z) c_lm(z) that fail to vanish, keyed by the
    index word 'jklm' (1-based).  The verdict is equivalent to all of them
    vanishing, and independently to epsilon = delta = 0; the constructor
    of this object has already checked that the two criteria agree.
    """

    verdict: bool
    epsilon: Fraction
    delta: Fraction
    nonzero_minors: tuple
    point_pair: str

    def to_json(self) -> dict:
        return {"verdict": self.verdict,
                "epsilon": rational_text(self.epsilon),
                "delta": rational_text(self.delta),
                "point_pair": self.point_pair,
                "nonzero_minors": [
                    {"indices": key, "coeffs": poly.to_strings()}
                    for key, poly in self.nonzero_minors]}


def cross_products(b_matrix: PolyMatrix, c_matrix: PolyMatrix) -> dict:
    """All 2x2-entry cross products c_jk b_lm - b_jk c_lm as polynomials.

    Only the 6 with jk before lm are multiplied out: swapping jk and lm
    negates a cross product, and jk == lm gives zero.  Each matrix is read
    cleared over one denominator, so a cross product is an integer
    convolution over the product of the two.
    """
    bs, db = b_matrix.cleared
    cs, dc = c_matrix.cleared
    bs, cs = list(zip(*bs)), list(zip(*cs))
    keys = ("11", "12", "21", "22")
    out = {}
    for x, jk in enumerate(keys):
        out[jk * 2] = Poly()
        for y in range(x + 1, 4):
            minor = _poly(_cross(cs[x], bs[y], bs[x], cs[y]), db * dc)
            out[jk + keys[y]] = minor
            out[keys[y] + jk] = -minor
    return out


def substantially_same(chart: AccessoryChart,
                       point_pair: str = "1-inf") -> SamenessVerdict:
    """Decide whether the two reduced difference systems of a chart are
    carried into each other by one common scalar factor.

    Both criteria are evaluated: the vanishing of the obstruction pair
    (epsilon, delta) and the vanishing of every cross product of the two
    cubic numerators.  They must agree; disagreement raises, since it
    would mean an implementation bug rather than a property of the input.
    """
    obs = epsilon_delta(chart)
    g_sys, h_sys = difference_systems(chart, point_pair)
    minors = cross_products(g_sys.matrix, h_sys.matrix)
    nonzero = tuple((key, poly) for key, poly in sorted(minors.items())
                    if not poly.is_zero())
    by_minors = not nonzero
    by_obstructions = obs.vanish
    if by_minors != by_obstructions:
        raise InternalInconsistency(
            f"criteria disagree on {point_pair}: obstructions say "
            f"{by_obstructions}, cross products say {by_minors}")
    return SamenessVerdict(by_obstructions, obs.epsilon, obs.delta,
                           nonzero, point_pair)


# --------------------------------------------------------------------------
# solving for the special accessory values
# --------------------------------------------------------------------------

def special_factors(a, b, c, d) -> tuple:
    """(A, B, C, D): the factors (a+b+c)^2, (a-b-c)^2, (a+b-c)^2 and
    (a-b+c)^2, each minus d^2, of the special ratios."""
    _, _, factors, den = _cleared_factors(a, b, c, d)
    den2 = den * den
    return tuple(Fraction(x, den2) for x in factors)


def special_ratios(a, b, c, d) -> tuple:
    """(BC, AD, CD, AB): up to scale, the one nondegenerate solution of
    epsilon = delta = 0 that meets the d-constraint (away from an
    exceptional set of exponents); a chart unless a coordinate is zero,
    r1 = r2 or r3 = r4."""
    _, _, (fa, fb, fc, fd), den = _cleared_factors(a, b, c, d)
    den4 = den ** 4
    return (Fraction(fb * fc, den4), Fraction(fa * fd, den4),
            Fraction(fc * fd, den4), Fraction(fa * fb, den4))


def _cleared_factors(a, b, c, d) -> tuple:
    """(A, B, (FA, FB, FC, FD), D): (a, b, c, d) cleared over one positive
    denominator D, with a = A/D, b = B/D and the factors of
    `special_factors` FA/D^2 .. FD/D^2."""
    (a, b, c, d), den = common_denominator(
        [to_fraction(x) for x in (a, b, c, d)])
    d2 = d * d
    return a, b, ((a + b + c) ** 2 - d2, (a - b - c) ** 2 - d2,
                  (a + b - c) ** 2 - d2, (a - b + c) ** 2 - d2), den


def solve_accessory(a, b, c, d, branch: str = "via-r4",
                    scale=Fraction(1)) -> tuple:
    """Solve epsilon = delta = 0 for the accessory parameters.

    Returns (chart, system): `special_ratios` scaled to r4 = scale for
    branch "via-r4" and r3 = scale for "via-r3", and the chart's validated
    system, checked to be the closed-form special matrix.  A zero
    normalising ratio raises AdmissibilityError, any other zero, r1 = r2
    or r3 = r4 DegenerateChart.
    """
    a, b, c, d = (to_fraction(x) for x in (a, b, c, d))
    require_admissible(a, b, c, d)
    if branch not in ("via-r4", "via-r3"):
        raise InputError(f"unknown branch {branch!r}")
    index = 2 if branch == "via-r3" else 3  # the ratio set to the scale
    ratios = special_ratios(a, b, c, d)
    if ratios[index] == 0:
        fa, fb, fc, fd = special_factors(a, b, c, d)
        raise AdmissibilityError(
            f"branch via r{index + 1} has a vanishing denominator",
            {"(a+b+c)^2-d^2": fa, "(a-b-c)^2-d^2": fb} if index == 3
            else {"(a-b+c)^2-d^2": fd, "(a+b-c)^2-d^2": fc})
    scale = to_fraction(scale) / ratios[index]
    chart = AccessoryChart(a, b, c, d, tuple(x * scale for x in ratios))
    system = okubo_from_chart(chart)
    if system.coeff != _special_coeff(a, b, c, d):
        raise InternalInconsistency(
            "solved chart does not reproduce the special matrix")
    if not epsilon_delta(chart).vanish:
        raise InternalInconsistency("solved chart leaves an obstruction")
    return chart, system


# --------------------------------------------------------------------------
# realization by the hypergeometric product system
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RealizationReport:
    """Exact diagonal conjugation between the special coefficient matrix at
    half-sum exponents and the product-system Okubo coefficient."""

    diag: RationalMatrix
    verdict: bool
    special: OkuboSystem
    product: OkuboSystem
    identity_values: dict

    def to_json(self) -> dict:
        return {"verdict": self.verdict,
                "diag": self.diag.to_strings(),
                "special": self.special.coeff.to_strings(),
                "product": self.product.coeff.to_strings(),
                "identities": {k: rational_text(v) for k, v in
                               self.identity_values.items()}}


def realize_product_system(p: HGParams) -> RealizationReport:
    """Check that the special accessory values realize the product system.

    With exponents a, b, c, d taken as the half-sums lam(++++), lam(-+-+),
    lam(++--), lam(+--+), the special matrix is conjugated by an explicit
    diagonal matrix onto the Okubo coefficient of the product system.
    Both quartic products ((a+-b+-c)^2-d^2) are validated against their
    factorizations into half-sums; a vanishing factor is reported by name.
    """
    if not p.is_okubo:
        raise InputError("parameters are not gamma-constrained for Okubo form")
    l = lambda s: lam(p, s)
    a, b, c, d = (l(s) for s in OKUBO_EXPONENT_WORDS)
    require_admissible(a, b, c, d)
    needed = ["0+00", "00+0", "+-++", "++-+", "+000", "000+", "-+++", "+++-"]
    for signs in needed:
        if l(signs) == 0:
            raise AdmissibilityError(
                f"half-sum lam({signs}) vanishes", {"signs": signs})
    fa, fb, fc, fd = special_factors(a, b, c, d)
    prod_a, prod_b = fa * fb, fc * fd
    ident_a = 64 * l("0+00") * l("00+0") * l("+-++") * l("++-+")
    ident_b = 64 * l("+000") * l("000+") * l("-+++") * l("+++-")
    if prod_a != ident_a or prod_b != ident_b:
        raise InternalInconsistency(
            "quartic products disagree with their half-sum factorizations")
    special = special_matrix(a, b, c, d)
    if special.coeff != _special_half_sum_form(p):
        raise InternalInconsistency(
            "special matrix disagrees with its half-sum form")
    _, product = build_okubo_system(p)
    diag = RationalMatrix.diagonal([
        Fraction(1),
        l("-+++") * l("+-++") / (4 * l("+000") * l("0+00")),
        l("+-++") / (2 * l("+000")),
        l("-+++") / (2 * l("0+00"))])
    conjugated = diag.inverse() * special.coeff * diag
    verdict = conjugated == product.coeff
    return RealizationReport(
        diag=diag, verdict=verdict, special=special, product=product,
        identity_values={"((a+b+c)^2-d^2)((a-b-c)^2-d^2)": prod_a,
                         "((a+b-c)^2-d^2)((a-b+c)^2-d^2)": prod_b})


def _special_half_sum_form(p: HGParams) -> RationalMatrix:
    l = lambda s: lam(p, s)
    return RationalMatrix([
        [l("++++"), 0,
         2 * l("+000") * l("+++-") / l("++++"),
         2 * l("0+00") * l("++-+") / l("++++")],
        [0, -l("++++"),
         2 * l("000+") * l("-+++") / l("----"),
         2 * l("00+0") * l("+-++") / l("----")],
        [2 * l("00+0") * l("+-++") / l("-+-+"),
         2 * l("0+00") * l("++-+") / l("-+-+"), l("-+-+"), 0],
        [2 * l("000+") * l("-+++") / l("+-+-"),
         2 * l("+000") * l("+++-") / l("+-+-"), 0, -l("-+-+")]])
