"""The Fuchsian system satisfied by a product of Gauss hypergeometric
functions and its reduction to Okubo normal form.

With f_j = 2F1(alpha_j, beta_j, gamma_j; x), the vector

    w = (f1*f2, x*f1'*f2, x*f1*f2', x^2*f1'*f2')

satisfies dw/dx = (H0/x + H1/(x-1)) w with constant 4x4 residue matrices.
The local exponents are

    x = 0:   0, 1-gamma_1, 1-gamma_2, 2-gamma_1-gamma_2
    x = 1:   0, gamma_1-1-alpha_1-beta_1, gamma_2-1-alpha_2-beta_2,
             gamma_1+gamma_2-2-alpha_1-alpha_2-beta_1-beta_2
    x = oo:  alpha_1+alpha_2, beta_1+beta_2, alpha_1+beta_2, beta_1+alpha_2.

When both gammas equal half the sum of the four upper parameters plus one,
the exponent 1-gamma is repeated at x = 0 and the exponent sum vanishes at
x = 1, and the system can be gauged into Okubo normal form

    (x I - T) du/dx = A u,      T = diag(0, 0, 1, 1),

whose coefficient A has diagonal blocks a*J and b*J (J = diag(1, -1)) and is
similar to diag(c*J, d*J).  All four exponents a, b, c, d are signed
half-sums of the hypergeometric parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import InputError, InternalInconsistency, SingularMatrixError
from .exact import (Poly, PolyMatrix, RationalMatrix, _poly,
                    common_denominator, to_fraction)

_SIGN = {"+": 1, "-": -1, "0": 0}

#: J = diag(1, -1), the 2x2 sign involution.
J2 = RationalMatrix.diagonal([1, -1])


@dataclass(frozen=True)
class HGParams:
    """Parameters of a pair of Gauss hypergeometric functions."""

    alpha1: Fraction
    alpha2: Fraction
    beta1: Fraction
    beta2: Fraction
    gamma1: Fraction
    gamma2: Fraction

    def __post_init__(self):
        # floats are rejected: the structural layer is exact
        for name in ("alpha1", "alpha2", "beta1", "beta2",
                     "gamma1", "gamma2"):
            object.__setattr__(self, name, to_fraction(getattr(self, name)))

    @classmethod
    def okubo(cls, alpha1, alpha2, beta1, beta2) -> "HGParams":
        """Constrain both gammas so the product system admits an Okubo form."""
        a1, a2, b1, b2 = (to_fraction(x) for x in (alpha1, alpha2, beta1, beta2))
        g = (a1 + a2 + b1 + b2) / 2 + 1
        return cls(a1, a2, b1, b2, g, g)

    @classmethod
    def generic(cls, alpha1, alpha2, beta1, beta2, gamma1, gamma2) -> "HGParams":
        return cls(*(to_fraction(x) for x in
                     (alpha1, alpha2, beta1, beta2, gamma1, gamma2)))

    @property
    def is_okubo(self) -> bool:
        g = (self.alpha1 + self.alpha2 + self.beta1 + self.beta2) / 2 + 1
        return self.gamma1 == g and self.gamma2 == g

    @classmethod
    def from_json(cls, data: dict) -> "HGParams":
        try:
            a1 = to_fraction(data["alpha1"])
            a2 = to_fraction(data["alpha2"])
            b1 = to_fraction(data["beta1"])
            b2 = to_fraction(data["beta2"])
            mode = data.get("gamma_mode", "okubo")
        except KeyError as exc:
            raise InputError(f"missing parameter {exc}") from exc
        if mode == "okubo":
            return cls.okubo(a1, a2, b1, b2)
        if isinstance(mode, (list, tuple)) and len(mode) == 2:
            return cls(a1, a2, b1, b2, to_fraction(mode[0]), to_fraction(mode[1]))
        raise InputError("gamma_mode must be 'okubo' or a pair of rationals",
                         {"gamma_mode": mode})

    def to_json(self) -> dict:
        return {"alpha1": str(self.alpha1), "alpha2": str(self.alpha2),
                "beta1": str(self.beta1), "beta2": str(self.beta2),
                "gamma_mode": "okubo" if self.is_okubo
                else [str(self.gamma1), str(self.gamma2)]}

    @cached_property
    def _half_sums(self) -> dict:
        """Signed half-sums by sign word, filled by ``lam`` on first use
        and kept outside the fields the parameters are compared and
        hashed by."""
        return {}

    @cached_property
    def _upper_cleared(self) -> tuple:
        """(alpha1, alpha2, beta1, beta2) as integer numerators over one
        positive denominator, cleared once and kept outside the compared
        fields like ``_half_sums``."""
        return common_denominator((self.alpha1, self.alpha2,
                                   self.beta1, self.beta2))


def lam(p: HGParams, signs: str) -> Fraction:
    """Signed half-sum of the upper parameters.

    ``signs`` is a word over {+, -, 0} selecting the contribution of
    (alpha1, alpha2, beta1, beta2) in this order; e.g. lam(p, "+0+0") is
    (alpha1 + beta1)/2 and lam(p, "++++") is half the total sum.
    """
    table = p._half_sums
    value = table.get(signs)
    if value is None:
        nums, den = p._upper_cleared
        value = table[signs] = Fraction(_signed_sum(signs, nums), 2 * den)
    return value


def half_sum_numerators(p: HGParams, words) -> tuple:
    """([lam(p, w) * den for w in words], den): the half-sums as integer
    numerators over one positive denominator, the upper parameters cleared
    once; no Fraction is built."""
    nums, den = p._upper_cleared
    return [_signed_sum(w, nums) for w in words], 2 * den


def _signed_sum(signs: str, nums) -> int:
    """The signed sum of four integers selected by a sign word."""
    if len(signs) != 4 or any(s not in _SIGN for s in signs):
        raise InputError(f"invalid sign index {signs!r}")
    return sum(_SIGN[c] * x for c, x in zip(signs, nums))


@dataclass(frozen=True)
class FuchsianSystem:
    """dw/dx = (residue_at_0 / x + residue_at_1 / (x-1)) w."""

    residue_at_0: RationalMatrix
    residue_at_1: RationalMatrix

    @property
    def residue_at_inf(self) -> RationalMatrix:
        return -(self.residue_at_0 + self.residue_at_1)


@dataclass(frozen=True)
class OkuboSystem:
    """(x I - T) du/dx = A u with T = diag(0,0,1,1).

    ``coeff`` is the 4x4 coefficient A; a, b are the diagonal-block
    exponents (blocks a*J and b*J), c, d those of the diagonal form at
    infinity (A similar to diag(c*J, d*J)).
    """

    coeff: RationalMatrix
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def validate(self) -> None:
        """Check diagonal blocks and the characteristic polynomial."""
        if self.coeff.block(0, 2, 0, 2) != J2.scale(self.a):
            raise InternalInconsistency("upper diagonal block is not a*J")
        if self.coeff.block(2, 4, 2, 4) != J2.scale(self.b):
            raise InternalInconsistency("lower diagonal block is not b*J")
        cp = self.coeff.char_poly()
        want = _even_quartic(self.c, self.d)
        if cp != want:
            raise InternalInconsistency(
                "characteristic polynomial is not (t^2-c^2)(t^2-d^2)")

    @cached_property
    def resolvent(self) -> PolyMatrix:
        """N(z) with (zI - A) N(z) = (z^2-c^2)(z^2-d^2) I, checked exactly.

        Built and checked once per system object and kept outside the
        fields the system is compared and hashed by.  The identity is
        compared column by column and power by power: the z^k coefficient
        of column j of (zI - A) N(z) is N_{k-1} e_j - A N_k e_j.
        """
        numer = resolvent_numerator(self.coeff, self.c, self.d)
        char = _even_quartic(self.c, self.d)
        dim = self.coeff.dim
        for j in range(dim):
            prev = [0] * dim
            for k in range(5):
                col = [numer[i, j].coeff(k) for i in range(dim)]
                got = [x - y for x, y in zip(prev, self.coeff.apply(col))]
                if got != [char.coeff(k) if i == j else 0
                           for i in range(dim)]:
                    raise InternalInconsistency(
                        "resolvent numerator does not invert zI - A "
                        f"(c = {self.c}, d = {self.d})")
                prev = col
        return numer

    @cached_property
    def infinity_starts(self) -> dict:
        """Initial vectors h(0) of the local solutions at infinity by
        exponent, filled by ``series`` on first use, once per system object
        and exponent, and kept outside the fields like ``resolvent``."""
        return {}


def _even_quartic(c: Fraction, d: Fraction) -> Poly:
    """(z^2 - c^2)(z^2 - d^2), built from c and d cleared over one
    denominator."""
    (c, d), den = common_denominator((c, d))
    c2, d2, den2 = c * c, d * d, den * den
    return _poly([c2 * d2, 0, -(c2 + d2) * den2, 0, den2 * den2], den2 * den2)


def resolvent_numerator(matrix: RationalMatrix, c, d) -> PolyMatrix:
    """The polynomial numerator N(z) with
    (zI - A)^{-1} = N(z) / ((z^2-c^2)(z^2-d^2)):

        N(z) = z^3 I + z^2 A + z (A^2 - (c^2+d^2) I) + A^3 - (c^2+d^2) A.
    """
    c, d = to_fraction(c), to_fraction(d)
    n = matrix.dim
    ident = RationalMatrix.identity(n)
    sq = matrix * matrix
    cu = sq * matrix
    s = c * c + d * d
    return PolyMatrix.from_matrix_coeffs(
        [cu - matrix.scale(s), sq - ident.scale(s), matrix, ident])


def product_residue_rows(p: HGParams) -> tuple:
    """The rows of the residue matrices H0 and H1 of the product system,
    as exact rationals: build_product_system's matrices, and the float
    ones of series.w_residual."""
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


def build_product_system(p: HGParams) -> FuchsianSystem:
    """Residue matrices of the system satisfied by the product vector w."""
    h0, h1 = product_residue_rows(p)
    return FuchsianSystem(RationalMatrix(h0), RationalMatrix(h1))


def infinity_exponents(p: HGParams) -> list:
    """Roots of det(tI + H0 + H1): the four exponents at infinity."""
    return [p.alpha1 + p.alpha2, p.beta1 + p.beta2,
            p.alpha1 + p.beta2, p.beta1 + p.alpha2]


def _residues_half_sum_form(p: HGParams) -> tuple:
    """The gamma-constrained residue matrices written in half-sums."""
    l = lambda s: lam(p, s)
    h0 = RationalMatrix.identity(4).scale(l("----")) + RationalMatrix([
        [l("++++"), 1, 1, 0],
        [0, 0, 0, 1],
        [0, 0, 0, 1],
        [0, 0, 0, l("----")]])
    h1 = RationalMatrix([
        [0, 0, 0, 0],
        [-4 * l("+000") * l("00+0"), l("-+-+"), 0, 0],
        [-4 * l("0+00") * l("000+"), 0, l("+-+-"), 0],
        [0, -4 * l("0+00") * l("000+"), -4 * l("+000") * l("00+0"), 0]])
    return h0, h1


def gauge_matrix(p: HGParams) -> RationalMatrix:
    """The constant matrix P of the gauge w = x^e P u into Okubo form,
    where e = lam(p, '----')."""
    l = lambda s: lam(p, s)
    return RationalMatrix([
        [1, 1, 0, 0],
        [0, l("----"), l("+-+-"), 0],
        [0, l("----"), 0, l("-+-+")],
        [0, l("----") ** 2, 4 * l("0+00") * l("000+"), 4 * l("+000") * l("00+0")]])


#: the half-sums whose product is det_gauge_formula
DET_GAUGE_FACTORS = ("----", "++--", "+-+-", "+--+")
#: the half-sums whose product, the last two squared, is the numerator of
#: det_diagonalizer_formula; its denominator is nonzero wherever R is
#: defined (no parameter vanishes)
DET_DIAGONALIZER_FACTORS = ("++++", "++--", "+-+-", "+--+", "+0-0", "0+0-")


def det_gauge_formula(p: HGParams) -> Fraction:
    """Closed form of det(gauge_matrix): a product of four half-sums."""
    return math.prod(lam(p, s) for s in DET_GAUGE_FACTORS)


def has_zero_factor(p: HGParams, factors) -> bool:
    """Whether one of the half-sums ``factors`` vanishes: the zero test
    of a determinant formula (DET_GAUGE_FACTORS, DET_DIAGONALIZER_FACTORS)
    without forming the product."""
    return any(lam(p, s) == 0 for s in factors)


def build_okubo_system(p: HGParams) -> tuple:
    """Gauge the product system into Okubo normal form.

    Returns (P, system) where P is the gauge matrix and system the
    resulting Okubo form; its exponents are

        a = lam(++++), b = lam(-+-+), c = lam(++--), d = lam(+--+).

    Raises on non-constrained gammas or when det P vanishes.
    """
    if not p.is_okubo:
        raise InputError("parameters are not gamma-constrained for Okubo form")
    if has_zero_factor(p, DET_GAUGE_FACTORS):
        raise SingularMatrixError("degenerate parameters: det P = 0",
                                  {"det": "0"})
    l = lambda s: lam(p, s)
    # substitute the constrained gammas via the generic builder, then check
    # against the half-sum representation
    sys_generic = build_product_system(p)
    hs0, hs1 = _residues_half_sum_form(p)
    if sys_generic.residue_at_0 != hs0 or sys_generic.residue_at_1 != hs1:
        raise InternalInconsistency(
            "half-sum residue form disagrees with direct substitution")
    gauge = gauge_matrix(p)
    ginv = gauge.inverse()
    shift = RationalMatrix.identity(4).scale(l("----"))
    part0 = ginv * (hs0 - shift) * gauge
    part1 = ginv * hs1 * gauge
    # rows 3, 4 and rows 1, 2 of a 4x4 matrix: its numerators 8..15 and 0..7
    if any(part0.nums[8:]):
        raise InternalInconsistency("rows 3,4 of the x=0 part are not zero")
    if any(part1.nums[:8]):
        raise InternalInconsistency("rows 1,2 of the x=1 part are not zero")
    coeff = part0 + part1
    if coeff != _okubo_coeff_half_sum_form(p):
        raise InternalInconsistency(
            "gauged coefficient disagrees with its half-sum block form")
    system = OkuboSystem(coeff, a=l("++++"), b=l("-+-+"),
                         c=l("++--"), d=l("+--+"))
    system.validate()
    return gauge, system


def _okubo_coeff_half_sum_form(p: HGParams) -> RationalMatrix:
    l = lambda s: lam(p, s)
    return RationalMatrix([
        [l("++++"), 0,
         l("+-++") * l("+++-") / l("++++"), l("-+++") * l("++-+") / l("++++")],
        [0, -l("++++"),
         4 * l("0+00") * l("000+") / l("----"), 4 * l("+000") * l("00+0") / l("----")],
        [4 * l("+000") * l("00+0") / l("-+-+"),
         l("-+++") * l("++-+") / l("-+-+"), l("-+-+"), 0],
        [4 * l("0+00") * l("000+") / l("+-+-"),
         l("+-++") * l("+++-") / l("+-+-"), 0, -l("-+-+")]])


def diagonalizer_rows(p: HGParams) -> list:
    """The rows of build_diagonalizer as exact rationals: its matrix, and
    the float one of series.v_residual."""
    if has_zero_factor(p, ("+000", "0+00", "00+0", "000+")):
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
    if has_zero_factor(p, DET_DIAGONALIZER_FACTORS):
        raise SingularMatrixError("degenerate parameters: det R = 0")
    return rows


def build_diagonalizer(p: HGParams) -> RationalMatrix:
    """The matrix R of left eigenvectors of the Okubo coefficient, so that
    R A R^{-1} = diag(c*J, d*J).

    Requires the four single-parameter half-sums (i.e. the parameters
    themselves) nonzero and det R nonzero.
    """
    return RationalMatrix(diagonalizer_rows(p))


def det_diagonalizer_formula(p: HGParams) -> Fraction:
    """Closed form of det(build_diagonalizer)."""
    l = lambda s: lam(p, s)
    return (l("++++") * l("++--") * l("+-+-") * l("+--+")
            * l("+0-0") ** 2 * l("0+0-") ** 2
            / (16 * l("+000") ** 2 * l("0+00") ** 2
               * l("00+0") ** 2 * l("000+") ** 2))


def gauge_inverse_closed_form(p: HGParams) -> RationalMatrix:
    """The inverse gauge matrix written in half-sums (rows are left
    eigenvectors of the two residue parts for the eigenvalue 0)."""
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


def contiguous_product_rows(p: HGParams) -> list:
    """The rows of contiguous_product_matrix as exact rationals, the
    product 1/(u v) taken as (1/u)(1/v)."""
    a1, a2, b1, b2 = p.alpha1, p.alpha2, p.beta1, p.beta2
    if a1 * a2 * b1 * b2 == 0:
        raise SingularMatrixError("a hypergeometric parameter vanishes")
    ia1, ia2, ib1, ib2 = 1 / a1, 1 / a2, 1 / b1, 1 / b2
    row = lambda iu, iv: [1, iu, iv, iu * iv]
    return [row(ia1, ia2), row(ib1, ib2), row(ia1, ib2), row(ib1, ia2)]


def contiguous_product_matrix(p: HGParams) -> RationalMatrix:
    """Closed form of R P^{-1}: rows (1, 1/u, 1/v, 1/(u v)) with (u, v)
    running over (alpha1, alpha2), (beta1, beta2), (alpha1, beta2),
    (beta1, alpha2).  Applied to w it produces products of contiguous
    hypergeometric functions."""
    return RationalMatrix(contiguous_product_rows(p))
