"""Series evaluation: Gauss series, product vectors, and local solutions.

The product vector w = (f1*f2, x*f1'*f2, x*f1*f2', x^2*f1'*f2') and its
contiguous companion are summed directly from truncated Gauss series.
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

Exact mode runs the recurrences fraction-free: each coefficient vector is
four integer numerators over one shared positive denominator, every step
is a handful of integer products, and one gcd per step keeps the vector
in lowest terms (the recurrence then holds with zero error).  At the
finite points only the two solved rows of ((r+rho) I - A) g(r) are
formed.  At infinity the step matrix is inverted in closed form,

  ((s+sigma+1) I + A)^{-1} = -N(-w) / ((w^2-c^2)(w^2-d^2)),
  w = s+sigma+1,

with N the resolvent numerator of accessory.resolvent_numerator, the same
cubic the sameness verdict reduces; the identity
(zI - A) N(z) = (z^2-c^2)(z^2-d^2) I is checked exactly once per series.
The output coefficients are reduced Fractions.  Float mode runs the
recurrences in complex double precision.  Series are only summed well
inside their convergence discs:
|x| <= 0.6 and |x-1| <= 0.6 at the finite points, |x-1| >= 1.7 at
infinity.  Powers x^rho use the principal branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (AdmissibilityError, InputError, InternalInconsistency,
                     OutsideDisc)
from .exact import PolyMatrix, RationalMatrix
from .hgsystem import (HGParams, OkuboSystem, _even_quartic,
                       build_diagonalizer, build_product_system,
                       gauge_matrix, lam)
from .accessory import require_admissible, resolvent_numerator

#: evaluation discs (see module docstring)
DISC_FINITE = 0.6
DISC_INFINITY = 1.7


def _as_complex(x) -> complex:
    return complex(float(x.real), float(x.imag)) if isinstance(x, complex) \
        else complex(float(x))


def _is_nonpositive_integer(value) -> bool:
    if isinstance(value, Fraction):
        return value.denominator == 1 and value <= 0
    if isinstance(value, int):
        return value <= 0
    if isinstance(value, float):
        return value <= 0 and value == int(value)
    return False


def gauss_coefficients(alpha, beta, gamma, terms: int) -> np.ndarray:
    """The first ``terms`` Taylor coefficients of 2F1(alpha, beta, gamma; .).

    c_0 = 1 and c_{n+1} = c_n (alpha+n)(beta+n) / ((gamma+n)(n+1)).
    """
    if _is_nonpositive_integer(gamma):
        raise InputError("gamma must not be a nonpositive integer",
                         {"gamma": gamma})
    if terms < 1:
        raise InputError("need at least one term")
    a, b, c = (float(alpha), float(beta), float(gamma))
    coeffs = np.empty(terms, dtype=complex)
    coeffs[0] = 1.0
    for n in range(terms - 1):
        coeffs[n + 1] = coeffs[n] * (a + n) * (b + n) / ((c + n) * (n + 1))
    return coeffs


class GaussJet(NamedTuple):
    """Value and first two derivatives of a truncated Gauss series,
    together with the magnitude of the last summed term."""

    value: complex
    d1: complex
    d2: complex
    tail: float


def hyp2f1_jet(alpha, beta, gamma, x, terms: int) -> GaussJet:
    x = _as_complex(x)
    if abs(x) >= 1:
        raise OutsideDisc("outside disc: |x| >= 1", {"x": x})
    c = gauss_coefficients(alpha, beta, gamma, terms)
    n = np.arange(terms)
    powers = x ** n
    value = complex(np.sum(c * powers))
    d1 = complex(np.sum(c[1:] * n[1:] * x ** (n[1:] - 1)))
    d2 = complex(np.sum(c[2:] * n[2:] * (n[2:] - 1) * x ** (n[2:] - 2)))
    return GaussJet(value, d1, d2, abs(c[-1] * powers[-1]))


def hyp2f1(alpha, beta, gamma, x, terms: int = 80) -> complex:
    """Truncated Gauss hypergeometric series inside the unit disc."""
    return hyp2f1_jet(alpha, beta, gamma, x, terms).value


# --------------------------------------------------------------------------
# product vectors
# --------------------------------------------------------------------------

def product_vector_w(p: HGParams, x, terms: int = 60) -> np.ndarray:
    """w = (f1 f2, x f1' f2, x f1 f2', x^2 f1' f2')."""
    return _w_jet(p, x, terms)[0]


def _w_jet(p: HGParams, x, terms: int) -> tuple:
    x = _as_complex(x)
    f1 = hyp2f1_jet(p.alpha1, p.beta1, p.gamma1, x, terms)
    f2 = hyp2f1_jet(p.alpha2, p.beta2, p.gamma2, x, terms)
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


def w_residual(p: HGParams, x, terms: int = 60) -> float:
    """Max-norm defect of w in dw/dx = (H0/x + H1/(x-1)) w."""
    x = _as_complex(x)
    w, dw = _w_jet(p, x, terms)
    sys = build_product_system(p)
    h0 = sys.residue_at_0.to_complex()
    h1 = sys.residue_at_1.to_complex()
    rhs = (h0 / x + h1 / (x - 1)) @ w
    return float(np.max(np.abs(dw - rhs)))


def _check_off_cut(x: complex):
    if x.imag == 0 and x.real <= 0:
        raise OutsideDisc("x must avoid the branch cut (-inf, 0]", {"x": x})


def contiguous_product_vector(p: HGParams, x, terms: int = 60) -> np.ndarray:
    """x^(gamma1 - 1) times the four products of parameter-shifted Gauss
    functions (the alpha- and beta-raised contiguous companions)."""
    return _v_jet(p, x, terms)[0]


def _v_jet(p: HGParams, x, terms: int) -> tuple:
    x = _as_complex(x)
    if abs(x) >= 1:
        raise OutsideDisc("outside disc: |x| >= 1", {"x": x})
    _check_off_cut(x)
    a1, a2, b1, b2 = p.alpha1, p.alpha2, p.beta1, p.beta2
    g1, g2 = p.gamma1, p.gamma2
    fa1 = hyp2f1_jet(a1 + 1, b1, g1, x, terms)
    fb1 = hyp2f1_jet(a1, b1 + 1, g1, x, terms)
    fa2 = hyp2f1_jet(a2 + 1, b2, g2, x, terms)
    fb2 = hyp2f1_jet(a2, b2 + 1, g2, x, terms)
    pairs = [(fa1, fa2), (fb1, fb2), (fa1, fb2), (fb1, fa2)]
    prods = np.array([u.value * v.value for u, v in pairs])
    dprods = np.array([u.d1 * v.value + u.value * v.d1 for u, v in pairs])
    expo = float(g1 - 1)
    pref = x ** expo
    v = pref * prods
    dv = expo * x ** (expo - 1) * prods + pref * dprods
    return v, dv


def v_via_transform(p: HGParams, x, terms: int = 60) -> np.ndarray:
    """x^(gamma1 - 1) (R P^{-1}) w computed through the gauge matrices."""
    x = _as_complex(x)
    _check_off_cut(x)
    w, _ = _w_jet(p, x, terms)
    rp = (build_diagonalizer(p) * gauge_matrix(p).inverse()).to_complex()
    return x ** float(p.gamma1 - 1) * (rp @ w)


def v_residual(p: HGParams, x, terms: int = 60) -> float:
    """Max-norm defect of the contiguous vector in its diagonalized system
    dv/dx = R (xI - T)^{-1} R^{-1} diag(c, -c, d, -d) v."""
    x = _as_complex(x)
    v, dv = _v_jet(p, x, terms)
    r = build_diagonalizer(p).to_complex()
    c = float(lam(p, "++--"))
    d = float(lam(p, "+--+"))
    diag_exp = np.diag([c, -c, d, -d]).astype(complex)
    xit = np.diag([1 / x, 1 / x, 1 / (x - 1), 1 / (x - 1)])
    rhs = r @ xit @ np.linalg.solve(r, diag_exp @ v)
    return float(np.max(np.abs(dv - rhs)))


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
        return 1 / (x - 1)

    def _coeff_array(self) -> np.ndarray:
        return np.array([[complex(c) for c in vec] for vec in self.coeffs],
                        dtype=complex)

    def value(self, x) -> np.ndarray:
        u = self._local(x)
        acc = np.zeros(4, dtype=complex)
        for vec in self._coeff_array()[::-1]:
            acc = acc * u + vec
        return u ** float(self.exponent) * acc

    def derivative(self, x) -> np.ndarray:
        """dy/dx of the truncated sum."""
        u = self._local(x)
        rho = float(self.exponent)
        coeffs = self._coeff_array()
        acc = np.zeros(4, dtype=complex)
        for k in range(len(coeffs) - 1, -1, -1):
            acc = acc * u + (rho + k) * coeffs[k]
        if self.base == "inf":
            # with u = 1/(x-1), du/dx = -u^2
            return -(u ** (rho + 1)) * acc
        return u ** (rho - 1) * acc

    def to_json(self) -> dict:
        return {"base": self.base, "exponent": str(self.exponent),
                "variable": self.variable, "exact": self.exact,
                "coeffs": [[_format_number(c) for c in vec]
                           for vec in self.coeffs]}


def _format_number(c) -> str:
    if isinstance(c, Fraction):
        return str(c)
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
    repeated exponent 0 at a finite base point, one otherwise.
    """
    require_admissible(system.a, system.b, system.c, system.d)
    if mode not in ("exact", "float"):
        raise InputError(f"unknown mode {mode!r}")
    expos = exponents_at(system, base)
    if not 0 <= exponent_index < len(expos):
        raise InputError(f"exponent index {exponent_index} out of range "
                         f"0..{len(expos) - 1}")
    rho = expos[exponent_index]
    if base == "inf":
        return [_series_at_infinity(system, rho, terms, mode)]
    if base in ("0", "1"):
        starts = _finite_starts(system, base, rho)
        return [_series_at_finite(system, base, rho, g0, terms, mode)
                for g0 in starts]
    raise InputError(f"unknown base point {base!r}")


def _finite_starts(system: OkuboSystem, base: str, rho: Fraction) -> list:
    """Exact admissible initial vectors g(0)."""
    a, b = system.a, system.b
    if base == "1":
        a21 = system.lower_left()
        if rho == 0:
            # top pair free; rows 3,4 of the r = 0 constraint give the bottom
            starts = []
            for e in ([Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]):
                rhs = a21.apply(e)
                bottom = [rhs[0] / (0 - b), rhs[1] / (0 + b)]
                starts.append(e + bottom)
            return starts
        # (T - I) g(0) = 0 forces the top pair to vanish; the bottom pair
        # must be annihilated by diag(rho - b, rho + b)
        if rho == b:
            return [[Fraction(0), Fraction(0), Fraction(1), Fraction(0)]]
        return [[Fraction(0), Fraction(0), Fraction(0), Fraction(1)]]
    # base "0"
    a12 = system.upper_right()
    if rho == 0:
        starts = []
        for e in ([Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]):
            rhs = a12.apply(e)
            top = [rhs[0] / (0 - a), rhs[1] / (0 + a)]
            starts.append(top + e)
        return starts
    if rho == a:
        return [[Fraction(1), Fraction(0), Fraction(0), Fraction(0)]]
    return [[Fraction(0), Fraction(1), Fraction(0), Fraction(0)]]


def _series_at_finite(system: OkuboSystem, base: str, rho: Fraction,
                      start: list, terms: int, mode: str) -> SeriesSolution:
    exact = mode == "exact"
    if exact:
        coeffs = _finite_coeffs_exact(system, base, Fraction(rho), start,
                                      terms)
    else:
        a, b = system.a, system.b
        amat = system.coeff.to_complex()
        g = np.array([complex(x) for x in start])
        coeffs = [tuple(g)]
        for r in range(terms - 1):
            zf = float(r + rho)
            rhs = zf * g - amat @ g
            step = zf + 1.0
            if base == "1":
                top = -rhs[:2] / step
                mixed = amat[2:, :2] @ top
                bottom = mixed / np.array([step - float(b), step + float(b)])
                g = np.concatenate([top, bottom])
            else:
                bottom = rhs[2:] / step
                mixed = amat[:2, 2:] @ bottom
                top = mixed / np.array([step - float(a), step + float(a)])
                g = np.concatenate([top, bottom])
            coeffs.append(tuple(g))
    return SeriesSolution(base=base, exponent=Fraction(rho),
                          coeffs=tuple(coeffs),
                          variable="x" if base == "0" else "x-1",
                          exact=exact)


def _integer_rows(rows) -> tuple:
    """(integer rows, positive common denominator) of rational rows."""
    den = math.lcm(*(Fraction(x).denominator for row in rows for x in row))
    return [[int(x * den) for x in row] for row in rows], den


def _reduced(nums: list, den: int, index: int) -> tuple:
    """nums / den with a positive denominator and no common factor.

    ``den`` is the step's denominator; zero means the exponents resonate
    at this step, which no admissible system reaches.
    """
    if den == 0:
        raise AdmissibilityError(
            "series recurrence step has a zero denominator",
            {"step": index})
    if den < 0:
        nums, den = [-n for n in nums], -den
    g = math.gcd(den, *nums)
    return [n // g for n in nums], den // g


def _finite_coeffs_exact(system: OkuboSystem, base: str, rho: Fraction,
                         start: list, terms: int) -> list:
    """Exact coefficient vectors g(0..terms-1) at x = 0 or x = 1.

    Each g(r) is kept as four integers over one positive denominator.
    With A = A'/D (A' integer), rho = p/q and the block exponent
    e = a (at 0) or b (at 1) = e'/q_e, one step reads, for s = (r+1)q + p
    (so step = r + rho + 1 = s/q) and t_-+ = s q_e -+ e' q:

      R_i  = (r q + p) D n_i - q (A' n)_i          for the two solved rows,
      n'_i = sign D t_- t_+ R_i                     (sign -1 at 1, +1 at 0),
      n'_k = q q_e t_+- (A'_blk (sign R))_k         for the coupled rows,
      den' = D^2 den s t_- t_+,

    where the coupled rows divide by step -+ e.  One gcd then reduces the
    vector.
    """
    amat, dmat = _integer_rows(system.coeff.rows)
    p, q = rho.numerator, rho.denominator
    e = system.a if base == "0" else system.b
    ep, eq = e.numerator, e.denominator
    if base == "1":
        solved, coupled, sign = (0, 1), (2, 3), -1
    else:
        solved, coupled, sign = (2, 3), (0, 1), 1
    rows = [amat[i] for i in solved]
    blk = [[amat[k][j] for j in solved] for k in coupled]
    qe = q * eq
    (nums,), den = _integer_rows([start])
    coeffs = [tuple(Fraction(x) for x in start)]
    for r in range(terms - 1):
        zq = r * q + p
        s = zq + q
        tm, tp = s * eq - ep * q, s * eq + ep * q
        r0, r1 = (sign * (zq * dmat * nums[i]
                          - q * sum(a * n for a, n in zip(row, nums)))
                  for i, row in zip(solved, rows))
        m0 = blk[0][0] * r0 + blk[0][1] * r1
        m1 = blk[1][0] * r0 + blk[1][1] * r1
        scale = dmat * tm * tp
        nxt = [0] * 4
        nxt[solved[0]], nxt[solved[1]] = scale * r0, scale * r1
        nxt[coupled[0]], nxt[coupled[1]] = qe * tp * m0, qe * tm * m1
        nums, den = _reduced(nxt, dmat * dmat * den * s * tm * tp, r + 1)
        coeffs.append(tuple(Fraction(n, den) for n in nums))
    return coeffs


def _series_at_infinity(system: OkuboSystem, sigma: Fraction,
                        terms: int, mode: str) -> SeriesSolution:
    shifted = system.coeff + RationalMatrix.identity(4).scale(sigma)
    null = shifted.transpose().left_null_space()
    if len(null) != 1:
        raise InputError("initial vector at infinity is not unique",
                         {"dimension": len(null)})
    h0 = null[0]
    exact = mode == "exact"
    if exact:
        coeffs = _infinity_coeffs_exact(system, Fraction(sigma), h0, terms)
    else:
        amat = system.coeff.to_complex()
        h = np.array([complex(x) for x in h0])
        coeffs = [tuple(h)]
        eye = np.eye(4, dtype=complex)
        for s in range(terms - 1):
            z = float(s + sigma)
            rhs = np.array([-z * h[0], -z * h[1], 0.0, 0.0])
            h = np.linalg.solve(amat + (z + 1) * eye, rhs)
            coeffs.append(tuple(h))
    return SeriesSolution(base="inf", exponent=Fraction(sigma),
                          coeffs=tuple(coeffs), variable="1/(x-1)",
                          exact=exact)


def _checked_resolvent(system: OkuboSystem) -> PolyMatrix:
    """N(z) with (zI - A) N(z) = (z^2-c^2)(z^2-d^2) I, checked exactly."""
    numer = resolvent_numerator(system.coeff, system.c, system.d)
    coeff = system.coeff
    shifted = PolyMatrix.from_matrix_coeffs(
        [-coeff, RationalMatrix.identity(coeff.dim)])
    char = _even_quartic(system.c, system.d)
    if shifted * numer != PolyMatrix.from_constant(
            RationalMatrix.identity(coeff.dim)) * char:
        raise InternalInconsistency(
            "resolvent numerator does not invert zI - A "
            f"(c = {system.c}, d = {system.d})")
    return numer


def _infinity_coeffs_exact(system: OkuboSystem, sigma: Fraction, h0: list,
                           terms: int) -> list:
    """Exact coefficient vectors h(0..terms-1) at x = infinity.

    The step matrix A + wI (w = s + sigma + 1) has the closed inverse
    -N(-w) / P(w), with N the resolvent numerator and
    P(w) = (w^2-c^2)(w^2-d^2), and the right-hand side -z (h_1, h_2, 0, 0)
    (z = w - 1) meets only the first two columns of N.  With sigma = p/q,
    Z = qz, W = qw, those columns cleared to integers N'_k = L N_k and K
    clearing the coefficients of P, one step reads

      n'  = Z (sum_k K q^(3-k) N'_k (-W)^k) n_top,
      den' = L den K q^4 P(w),

    a Horner evaluation of integer cubics and a 4x2 integer product,
    followed by one gcd.
    """
    numer = _checked_resolvent(system)
    p, q = sigma.numerator, sigma.denominator
    (flat,), lden = _integer_rows([[numer[i, j].coeff(k) for k in range(4)
                                    for i in range(4) for j in (0, 1)]])
    c2, d2 = system.c * system.c, system.d * system.d
    kden = math.lcm((c2 + d2).denominator, (c2 * d2).denominator)
    quartic = (kden, -int((c2 + d2) * kden) * q * q,
               int(c2 * d2 * kden) * q ** 4)
    # mats[k][i][j] = K q^(3-k) N'_k[i][j]
    mats = [[[kden * q ** (3 - k) * flat[8 * k + 2 * i + j] for j in (0, 1)]
             for i in range(4)] for k in range(4)]
    (nums,), den = _integer_rows([h0])
    coeffs = [tuple(Fraction(x) for x in h0)]
    for s in range(terms - 1):
        zq = s * q + p
        wq = zq + q
        u = -wq
        top0, top1 = nums[0], nums[1]
        nxt = []
        for i in range(4):
            col0 = ((mats[3][i][0] * u + mats[2][i][0]) * u
                    + mats[1][i][0]) * u + mats[0][i][0]
            col1 = ((mats[3][i][1] * u + mats[2][i][1]) * u
                    + mats[1][i][1]) * u + mats[0][i][1]
            nxt.append(zq * (col0 * top0 + col1 * top1))
        w2 = wq * wq
        quartic_w = (quartic[0] * w2 + quartic[1]) * w2 + quartic[2]
        nums, den = _reduced(nxt, lden * den * quartic_w, s + 1)
        coeffs.append(tuple(Fraction(n, den) for n in nums))
    return coeffs


def recurrence_defects(system: OkuboSystem, sol: SeriesSolution) -> list:
    """Defect vectors of the defining recurrence, index by index.

    For exact solutions every entry is a Fraction and must be zero; for
    float solutions the entries are complex round-off residue.
    """
    t_diag = [0, 0, 1, 1]
    rho = sol.exponent
    if sol.exact:
        amat = system.coeff
        vecs = [[Fraction(c) for c in v] for v in sol.coeffs]
        mul = lambda m, v: m.apply(v)
    else:
        amat = system.coeff.to_complex()
        vecs = [np.array([complex(c) for c in v]) for v in sol.coeffs]
        mul = lambda m, v: m @ v
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
            rhs_vec = mul(amat, vecs[r])
            rhs = [z * vecs[r][i] - rhs_vec[i] for i in range(4)]
            defects.append([lhs[i] - rhs[i] for i in range(4)])
    else:
        sigma = rho
        first = mul(amat, vecs[0])
        defects.append([sigma * vecs[0][i] + first[i] for i in range(4)])
        for s in range(len(vecs) - 1):
            z = s + sigma
            step = mul(amat, vecs[s + 1])
            lhs = [(z + 1) * vecs[s + 1][i] + step[i] for i in range(4)]
            rhs = [z * (t_diag[i] - 1) * vecs[s][i] for i in range(4)]
            defects.append([lhs[i] - rhs[i] for i in range(4)])
    return defects


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
    x = _as_complex(x)
    if base == "0":
        return abs(x) <= DISC_FINITE
    if base == "1":
        return abs(x - 1) <= DISC_FINITE
    return abs(x - 1) >= DISC_INFINITY


def okubo_residual(system: OkuboSystem, y: np.ndarray, dy: np.ndarray,
                   x: complex) -> float:
    """Max-norm of (xI - T) y' - A y."""
    t = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
    lhs = (x * np.eye(4) - t) @ dy
    rhs = system.coeff.to_complex() @ y
    return float(np.max(np.abs(lhs - rhs)))


def residual_report(system: OkuboSystem, solution: SeriesSolution,
                    samples: Sequence[complex]) -> EvalReport:
    """Largest defect of a truncated local solution over sample points.

    Every sample must lie inside the solution's declared disc.
    """
    pts = tuple(_as_complex(s) for s in samples)
    worst = 0.0
    for x in pts:
        if not check_in_disc(solution.base, x):
            raise OutsideDisc(f"sample outside declared disc for base "
                              f"{solution.base}", {"x": x})
        y = solution.value(x)
        dy = solution.derivative(x)
        worst = max(worst, okubo_residual(system, y, dy, x))
    return EvalReport(pts, worst, solution.terms)
