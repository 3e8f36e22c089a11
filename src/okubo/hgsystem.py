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
from itertools import product
from operator import mul
from typing import Optional

from .errors import InputError, InternalInconsistency, SingularMatrixError
from .exact import (Poly, PolyMatrix, RationalMatrix, _poly,
                    common_denominator, int_char_poly, int_mat_mul,
                    rational_text, to_fraction)

_SIGN = {"+": 1, "-": -1, "0": 0}
#: the sign vector of every word of length four over {+, -, 0}
_WORDS = {"".join(w): tuple(_SIGN[c] for c in w)
          for w in product(_SIGN, repeat=4)}

#: J = diag(1, -1), the 2x2 sign involution.
J2 = RationalMatrix.diagonal([1, -1])


@dataclass(frozen=True)
class HGParams:
    """Parameters of a pair of Gauss hypergeometric functions.

    Beside the fields it is compared, hashed and printed by, an instance
    keeps what is derived from them once: ``_cleared`` (the parameters
    over one denominator), ``_half_sums`` and ``_float_plan`` (the
    parameter-only work of series' float requests)."""

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
        """Whether 2 gamma_j = alpha1 + alpha2 + beta1 + beta2 + 2 for both
        j, tested on the cleared numerators."""
        nums, den = self._cleared
        g = sum(nums[:4]) + 2 * den
        return 2 * nums[4] == g and 2 * nums[5] == g

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
        out = {k: rational_text(getattr(self, k))
               for k in ("alpha1", "alpha2", "beta1", "beta2")}
        gammas = [rational_text(self.gamma1), rational_text(self.gamma2)]
        return dict(out, gamma_mode="okubo" if self.is_okubo else gammas)

    @cached_property
    def _half_sums(self) -> dict:
        """Signed half-sums by sign word, filled by ``lam`` on first use
        and kept outside the fields the parameters are compared and
        hashed by."""
        return {}

    @cached_property
    def _float_plan(self) -> dict:
        """The parameter-only work of series' float requests (Gauss
        tables by triple kind and terms, rounded closed-form rows), filled
        by series on first use, with successes only, and kept outside the
        compared fields like ``_half_sums``."""
        return {}

    @cached_property
    def _cleared(self) -> tuple:
        """(alpha1, alpha2, beta1, beta2, gamma1, gamma2) as integer
        numerators over one positive denominator, cleared once and kept
        outside the compared fields like ``_half_sums``.  The half-sums,
        the closed-form rows and the float requests of series are built
        from them."""
        return common_denominator((self.alpha1, self.alpha2, self.beta1,
                                   self.beta2, self.gamma1, self.gamma2))


def lam(p: HGParams, signs: str) -> Fraction:
    """Signed half-sum of the upper parameters.

    ``signs`` is a word over {+, -, 0} selecting the contribution of
    (alpha1, alpha2, beta1, beta2) in this order; e.g. lam(p, "+0+0") is
    (alpha1 + beta1)/2 and lam(p, "++++") is half the total sum.
    """
    table = p._half_sums
    value = table.get(signs)
    if value is None:
        nums, den = p._cleared
        value = table[signs] = Fraction(_signed_sum(signs, nums), 2 * den)
    return value


def half_sum_numerators(p: HGParams, words) -> tuple:
    """([lam(p, w) * den for w in words], den): the half-sums as integer
    numerators over one positive denominator, the parameters cleared
    once; no Fraction is built."""
    nums, den = p._cleared
    return [_signed_sum(w, nums) for w in words], 2 * den


def _signed_sum(signs: str, nums) -> int:
    """The signed sum of the first four integers selected by a sign
    word."""
    try:
        vector = _WORDS[signs]
    except (KeyError, TypeError):
        raise InputError(f"invalid sign index {signs!r}") from None
    return sum(map(mul, vector, nums))


def _positive(nums, den: int) -> tuple:
    """(nums, den) with den made positive, so that a zero entry rounds to
    0.0 and not -0.0."""
    if den < 0:
        return tuple(-x for x in nums), -den
    return tuple(nums), den


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
        fault = okubo_shape_fault(self.coeff, self.a, self.b, self.c, self.d)
        if fault:
            raise InternalInconsistency(_SHAPE_MESSAGES[fault])

    @cached_property
    def resolvent(self) -> PolyMatrix:
        """N(z) with (zI - A) N(z) = (z^2-c^2)(z^2-d^2) I, checked exactly.

        Built and checked once per system object and kept outside the
        fields the system is compared and hashed by.  The identity is
        compared power by power on the coefficients: with A = B/D, N's
        coefficients cleared to M_k / L and the quartic to P_k / E, the z^k
        coefficient of (zI - A) N(z) is N_{k-1} - A N_k, and the check is
        E (D M_{k-1} - B M_k) = D L P_k I.
        """
        numer = resolvent_numerator(self.coeff, self.c, self.d)
        char = _even_quartic(self.c, self.d)
        n, b, den = self.coeff.dim, self.coeff.nums, self.coeff.den
        coeffs, lden = numer.cleared
        prev = zero = (0,) * (n * n)
        for k in range(max(5, len(coeffs) + 1)):
            cur = coeffs[k] if k < len(coeffs) else zero
            want = den * lden * (char.nums[k] if k < len(char.nums) else 0)
            got = [char.den * (den * x - y)
                   for x, y in zip(prev, int_mat_mul(b, cur, n))]
            if got != [want if i % (n + 1) == 0 else 0
                       for i in range(n * n)]:
                raise InternalInconsistency(
                    "resolvent numerator does not invert zI - A "
                    f"(c = {rational_text(self.c)}, "
                    f"d = {rational_text(self.d)})")
            prev = cur
        return numer


def _even_quartic(c: Fraction, d: Fraction) -> Poly:
    """(z^2 - c^2)(z^2 - d^2), built from c and d cleared over one
    denominator."""
    (c, d), den = common_denominator((c, d))
    c2, d2, den2 = c * c, d * d, den * den
    return _poly([c2 * d2, 0, -(c2 + d2) * den2, 0, den2 * den2], den2 * den2)


#: what OkuboSystem.validate says of each fault of okubo_shape_fault
_SHAPE_MESSAGES = {
    "upper": "upper diagonal block is not a*J",
    "lower": "lower diagonal block is not b*J",
    "char_poly": "characteristic polynomial is not (t^2-c^2)(t^2-d^2)"}


def okubo_shape_fault(matrix: RationalMatrix, a, b, c, d) -> Optional[str]:
    """The first condition of the Okubo shape that ``matrix`` fails, or
    None: "upper" when its upper 2x2 diagonal block is not a*J, "lower"
    when its lower one is not b*J, and "char_poly" when its characteristic
    polynomial is not (t^2-c^2)(t^2-d^2).  a, b, c, d are rationals.

    Tested on the integers, with no matrix built: each block entry against
    a or b by cross-multiplication over ``matrix.den``, and the
    coefficients of det(tI - B) for the numerator matrix B, the one of
    t^(4-k) over den^k, against the quartic's.
    """
    n, nums, den = matrix.dim, matrix.nums, matrix.den
    for fault, k, x in (("upper", 0, a), ("lower", 2, b)):
        i = k * (n + 1)  # entry (k, k), the block's top left
        if (n < k + 2 or nums[i + 1] or nums[i + n]
                or nums[i] * x.denominator != x.numerator * den
                or nums[i + n + 1] * x.denominator != -x.numerator * den):
            return fault
    if n != 4:
        return "char_poly"
    # det(tI - B) = t^4 + t2 t^2 + t1 t + t0, with no t^3 as the blocks
    # give trace 0; t2 / den^2 and t0 / den^4 must be the quartic's
    _, _, t2, t1, t0 = int_char_poly(nums, n)
    want = _even_quartic(c, d)
    q0, _, q2 = want.nums[:3]
    if (t1 or t2 * want.den != q2 * den ** 2
            or t0 * want.den != q0 * den ** 4):
        return "char_poly"
    return None


def resolvent_numerator(matrix: RationalMatrix, c, d) -> PolyMatrix:
    """The polynomial numerator N(z) with
    (zI - A)^{-1} = N(z) / ((z^2-c^2)(z^2-d^2)):

        N(z) = z^3 I + z^2 A + z (A^2 - s I) + A^3 - s A,  s = c^2 + d^2,

    as its four coefficient matrices.  With A = B/D and s = S/E they are
    built from integer products: A^3 - sA = (E B^3 - D^2 S B) / (D^3 E)
    and A^2 - sI = (E B^2 - D^2 S I) / (D^2 E).
    """
    (c, d), cden = common_denominator((to_fraction(c), to_fraction(d)))
    s, e = c * c + d * d, cden * cden
    n, b, den = matrix.dim, matrix.nums, matrix.den
    sq = int_mat_mul(b, b, n)
    cu = int_mat_mul(sq, b, n)
    ident = RationalMatrix.identity(n)
    d2s = den * den * s
    return PolyMatrix([
        RationalMatrix.from_integers(
            [e * x - d2s * y for x, y in zip(cu, b)], den * den * den * e),
        RationalMatrix.from_integers(
            [e * x - d2s * y for x, y in zip(sq, ident.nums)], den * den * e),
        matrix, ident])


def product_residue_rows(p: HGParams) -> tuple:
    """The residue matrices H0 and H1 of the product system as (h0, h1,
    den): integer numerators row by row over one positive denominator,
    D^2 for the parameters' common denominator D.  build_product_system
    builds its matrices from them, and series.w_residual rounds them."""
    (a1, a2, b1, b2, g1, g2), d = p._cleared
    dd = d * d
    h0 = (0, dd, dd, 0,
          0, d * (d - g1), 0, dd,
          0, 0, d * (d - g2), dd,
          0, 0, 0, d * (2 * d - g1 - g2))
    h1 = (0, 0, 0, 0,
          -a1 * b1, d * (g1 - d - a1 - b1), 0, 0,
          -a2 * b2, 0, d * (g2 - d - a2 - b2), 0,
          0, -a2 * b2, -a1 * b1, d * (g1 + g2 - 2 * d - a1 - a2 - b1 - b2))
    return h0, h1, dd


def build_product_system(p: HGParams) -> FuchsianSystem:
    """Residue matrices of the system satisfied by the product vector w."""
    h0, h1, den = product_residue_rows(p)
    return FuchsianSystem(RationalMatrix.from_integers(h0, den),
                          RationalMatrix.from_integers(h1, den))


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


#: the half-sums a, b, c, d of the Okubo form (build_okubo_system)
OKUBO_EXPONENT_WORDS = ("++++", "-+-+", "++--", "+--+")
#: the half-sums whose product is det_gauge_formula
DET_GAUGE_FACTORS = ("----", "++--", "+-+-", "+--+")
#: the half-sums whose product, a squared one listed twice, is the
#: numerator of det_diagonalizer_formula; its denominator is nonzero
#: wherever R is defined (no parameter vanishes)
DET_DIAGONALIZER_FACTORS = ("++++", "++--", "+-+-", "+--+",
                            "+0-0", "+0-0", "0+0-", "0+0-")


def det_gauge_formula(p: HGParams) -> Fraction:
    """Closed form of det(gauge_matrix): a product of four half-sums."""
    return math.prod(lam(p, s) for s in DET_GAUGE_FACTORS)


def has_zero_factor(p: HGParams, factors) -> bool:
    """Whether one of the half-sums ``factors`` vanishes: the zero test
    of a determinant formula (DET_GAUGE_FACTORS, DET_DIAGONALIZER_FACTORS)
    without forming the product, on the half-sums' numerators."""
    return not all(half_sum_numerators(p, factors)[0])


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
    system = OkuboSystem(coeff, *(l(s) for s in OKUBO_EXPONENT_WORDS))
    system.validate()
    return gauge, system


def _okubo_coeff_half_sum_form(p: HGParams) -> RationalMatrix:
    """The Okubo coefficient in half-sums,

        [[a, 0, u/a, v/a], [0, -a, -y/a, -z/a],
         [z/b, v/b, b, 0], [-y/b, -u/b, 0, -b]]

    with a = lam(++++), b = lam(-+-+), u = lam(+-++) lam(+++-),
    v = lam(-+++) lam(++-+), y = 4 lam(0+00) lam(000+) and
    z = 4 lam(+000) lam(00+0), built from the half-sums' integer
    numerators over h a b."""
    (a, b, u1, u2, v1, v2, y1, y2, z1, z2), h = half_sum_numerators(
        p, ("++++", "-+-+", "+-++", "+++-", "-+++", "++-+",
            "0+00", "000+", "+000", "00+0"))
    u, v, y, z = u1 * u2, v1 * v2, 4 * y1 * y2, 4 * z1 * z2
    ab = a * b
    return RationalMatrix.from_integers([
        a * ab, 0, u * b, v * b,
        0, -a * ab, -y * b, -z * b,
        z * a, v * a, b * ab, 0,
        -y * a, -u * a, 0, -b * ab], h * ab)


#: the parameter pairs (u, v) of the rows of R, as the half-sum words of
#: (alpha1, alpha2), (beta1, beta2), (alpha1, beta2) and (beta1, alpha2),
#: and the half-sums s, t of its rows (1, s t / (4 u v), s/(2u), t/(2v))
_DIAGONALIZER_ROWS = (("+000", "0+00", "+-++", "-+++"),
                      ("00+0", "000+", "+++-", "++-+"),
                      ("+000", "000+", "+++-", "-+++"),
                      ("00+0", "0+00", "+-++", "++-+"))


def diagonalizer_rows(p: HGParams) -> tuple:
    """The matrix of build_diagonalizer as (nums, den): integer numerators
    row by row over one positive denominator, 4 times the product of the
    four parameters' half-sum numerators (see _DIAGONALIZER_ROWS).
    series.v_residual rounds them."""
    words = ("+000", "0+00", "00+0", "000+", "+-++", "-+++", "+++-", "++-+")
    n = dict(zip(words, half_sum_numerators(p, words)[0]))
    prod = n["+000"] * n["0+00"] * n["00+0"] * n["000+"]
    if not prod:
        raise SingularMatrixError("a hypergeometric parameter vanishes")
    nums = []
    for u, v, s, t in _DIAGONALIZER_ROWS:
        u, v, s, t = n[u], n[v], n[s], n[t]
        k = prod // (u * v)
        nums += [4 * prod, k * s * t, 2 * k * v * s, 2 * k * u * t]
    if has_zero_factor(p, DET_DIAGONALIZER_FACTORS):
        raise SingularMatrixError("degenerate parameters: det R = 0")
    return _positive(nums, 4 * prod)


def build_diagonalizer(p: HGParams) -> RationalMatrix:
    """The matrix R of left eigenvectors of the Okubo coefficient, so that
    R A R^{-1} = diag(c*J, d*J).

    Requires the four single-parameter half-sums (i.e. the parameters
    themselves) nonzero and det R nonzero.
    """
    return RationalMatrix.from_integers(*diagonalizer_rows(p))


def det_diagonalizer_formula(p: HGParams) -> Fraction:
    """Closed form of det(build_diagonalizer)."""
    return (math.prod(lam(p, s) for s in DET_DIAGONALIZER_FACTORS)
            / (p.alpha1 * p.alpha2 * p.beta1 * p.beta2 / 4) ** 2)


def gauge_inverse_closed_form(p: HGParams) -> RationalMatrix:
    """The inverse gauge matrix written in half-sums (rows are left
    eigenvectors of the two residue parts for the eigenvalue 0):

        [[c e, y/a, -z/a, b/a], [0, -y/a, z/a, -b/a],
         [0, v/b, -z/b, 1], [0, -y/b, u/b, -1]] / (c e)

    with c = lam(++--), e = lam(+--+) and a, b, u, v, y, z as in
    _okubo_coeff_half_sum_form, built from the half-sums' integer
    numerators over a b c e."""
    (a, b, c, e, u1, u2, v1, v2, y1, y2, z1, z2), h = half_sum_numerators(
        p, ("++++", "-+-+", "++--", "+--+", "+-++", "+++-", "-+++", "++-+",
            "0+00", "000+", "+000", "00+0"))
    u, v, y, z = u1 * u2, v1 * v2, 4 * y1 * y2, 4 * z1 * z2
    hb, ha, hh = h * b, h * a, h * h
    return RationalMatrix.from_integers([
        c * e * a * b, y * hb, -z * hb, hh * b * b,
        0, -y * hb, z * hb, -hh * b * b,
        0, v * ha, -z * ha, hh * a * b,
        0, -y * ha, u * ha, -hh * a * b], a * b * c * e)


def contiguous_product_rows(p: HGParams) -> tuple:
    """The matrix of contiguous_product_matrix as (nums, den): integer
    numerators row by row over one positive denominator, the product of
    the four parameters' numerators.  series.v_via_transform rounds
    them."""
    (a1, a2, b1, b2, *_), d = p._cleared
    prod = a1 * a2 * b1 * b2
    if not prod:
        raise SingularMatrixError("a hypergeometric parameter vanishes")
    nums = []
    for u, v in ((a1, a2), (b1, b2), (a1, b2), (b1, a2)):
        # (1, 1/u, 1/v, 1/(u v)) of the parameters u/d, v/d, times prod
        k = prod // (u * v)
        nums += [prod, k * d * v, k * d * u, k * d * d]
    return _positive(nums, prod)


def contiguous_product_matrix(p: HGParams) -> RationalMatrix:
    """Closed form of R P^{-1}: rows (1, 1/u, 1/v, 1/(u v)) with (u, v)
    running over (alpha1, alpha2), (beta1, beta2), (alpha1, beta2),
    (beta1, alpha2).  Applied to w it produces products of contiguous
    hypergeometric functions."""
    return RationalMatrix.from_integers(*contiguous_product_rows(p))
