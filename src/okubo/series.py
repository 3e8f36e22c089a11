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

One kernel per recurrence serves both modes.  It runs fraction-free:
each coefficient vector is four numerators over one shared denominator,
and a step is a handful of products with tables built once per series.
At the finite points only the two solved rows of ((r+rho) I - A) g(r)
are formed.  At infinity the step matrix is inverted in closed form,

  ((s+sigma+1) I + A)^{-1} = -N(-w) / ((w^2-c^2)(w^2-d^2)),
  w = s+sigma+1,

with N = OkuboSystem.resolvent, the resolvent numerator the sameness
verdict reduces, built and checked exactly once per system.  A step whose
denominator vanishes is refused, exactly, before the recurrence runs.
The modes differ only in how rationals enter and how a step's numerators
are normalised over its denominator and leave as coefficients.  Exact
mode enters integers over common denominators and keeps each denominator
split as light * prod p**e_p over the heavy primes p of the series' fixed
scales (their prime factors below 2**16), which carry most of its bits;
light holds the rest, so gcd(light, p) == 1.  Every gcd with the
denominator then runs against the small modulus
light * prod p**min(e_p, k_p), p**k_p < 2**30, and loops only for a prime
that fills its chunk.  The reduced entries are coprime by construction and
leave as Fractions built without a second gcd (the recurrence then holds
with zero error).  Float mode enters every table as doubles over 1, rounds
each exact step factor once to the nearest double (so nothing it handles
grows with the height of the exponents), divides by each step's
denominator and returns complex coefficients.

Series are only summed well inside their convergence discs: |x| <= 0.6
and |x-1| <= 0.6 at the finite points, |x-1| >= 1.7 at infinity.  Powers
x^rho use the principal branch.  SeriesSolution.evaluate sums value and
derivative at many points in one Horner sweep over the coefficients,
converted to complex once, and applies each point's power u^rho as a
Python complex, so every number is the one the per-point loop gave.  A
residual report checks every sample (finite, inside the disc, not the
expansion point) before that sweep, and forms each point's defect
(xI - T) y' - A y on its own, since a batched product would reorder the
sums; worst_defect takes the maximum so that a NaN defect is kept.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import AdmissibilityError, InputError, OutsideDisc
from .exact import RationalMatrix, common_denominator
from .hgsystem import (HGParams, OkuboSystem, build_diagonalizer,
                       build_product_system, gauge_matrix, lam)
from .accessory import require_admissible

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
    d1 = complex(np.sum(c[1:] * n[1:] * powers[:-1]))
    d2 = complex(np.sum(c[2:] * n[2:] * (n[2:] - 1) * powers[:-2]))
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
        if x == 1:
            raise OutsideDisc("1/(x-1) has a pole at x = 1", {"x": x})
        return 1 / (x - 1)

    def _coeff_array(self) -> np.ndarray:
        if self.exact:
            return np.array([[complex(c) for c in vec]
                             for vec in self.coeffs], dtype=complex)
        return np.array(self.coeffs, dtype=complex)

    def evaluate(self, points) -> np.ndarray:
        """Values and dy/dx of the truncated sum at every point, as an
        array of shape (2, len(points), 4), from one Horner sweep over the
        coefficients carried beside (rho + k) times them.

        The expansion point is refused: the derivative's factor u^(rho-1)
        is singular there.
        """
        us = [self._local(x) for x in points]
        for x, u in zip(points, us):
            if u == 0:
                raise OutsideDisc("cannot evaluate at the expansion point",
                                  {"x": x})
        rho = float(self.exponent)
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
            acc[0, i] = u ** rho * acc[0, i]
            # with u = 1/(x-1) at infinity, du/dx = -u^2
            acc[1, i] = (-(u ** (rho + 1)) if self.base == "inf"
                         else u ** (rho - 1)) * acc[1, i]
        return acc

    def value(self, x) -> np.ndarray:
        return self.evaluate([x])[0, 0]

    def derivative(self, x) -> np.ndarray:
        """dy/dx of the truncated sum."""
        return self.evaluate([x])[1, 0]

    def to_json(self) -> dict:
        return {"base": self.base, "exponent": str(self.exponent),
                "variable": self.variable, "exact": self.exact,
                "coeffs": [[_format_number(c) for c in vec]
                           for vec in self.coeffs]}


def _format_number(c) -> str:
    if isinstance(c, Fraction):
        # str(Fraction) stops at sys.get_int_max_str_digits() digits (4300
        # by default), which long exact series pass; Decimal prints an int
        # of any length, with the same digits
        num = str(Decimal(c.numerator))
        return num if c.denominator == 1 else f"{num}/{Decimal(c.denominator)}"
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
    if mode not in _ARITHMETIC:
        raise InputError(f"unknown mode {mode!r}")
    expos = exponents_at(system, base)
    if not 0 <= exponent_index < len(expos):
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


def _infinity_start(system: OkuboSystem, sigma: Fraction) -> tuple:
    """The exact initial vector h(0), spanning the kernel of sigma I + A,
    found once per system object and exponent."""
    starts = system.infinity_starts
    if sigma not in starts:
        shifted = system.coeff + RationalMatrix.identity(4).scale(sigma)
        null = shifted.transpose().left_null_space()
        if len(null) != 1:
            raise InputError("initial vector at infinity is not unique",
                             {"dimension": len(null)})
        starts[sigma] = tuple(null[0])
    return starts[sigma]


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


if hasattr(Fraction, "_from_coprime_ints"):          # Python 3.12+
    _coprime_fraction = Fraction._from_coprime_ints
else:
    def _coprime_fraction(num: int, den: int) -> Fraction:
        """num/den for coprime num and den > 0, without a second gcd."""
        return Fraction(num, den, _normalize=False)


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
    division by them, and all it leaves, big primes included, goes into
    light, so gcd(light, p) == 1 whatever the split finds.  The gcd of
    each numerator with den then runs against the small modulus
    m = light * prod p**min(e_p, k_p), p**k_p < 2**30, and goes on only
    for a prime that fills its chunk; the gcd of the vector is the gcd of
    those.  A denominator is the triple (den, light, exponents).
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

    def _gcd(self, n: int, m: int, deep: list) -> int:
        """gcd(den, n) for n != 0, from the small modulus m; ``deep`` holds
        (p**k_p, powers of p, e_p - k_p) for the primes whose exponent in
        den passes their chunk."""
        g = math.gcd(m, n % m)
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

    def normalise(self, nums: list, factors, den) -> tuple:
        """(nums, den) of nums / (den * prod(factors)) in lowest terms, and
        its entries as reduced Fractions; factors are ints."""
        full, light, exps = den
        exps = list(exps)
        for f in factors:
            full *= f
            f = abs(f)
            for i, p in enumerate(self.primes):
                while f % p == 0:
                    f //= p
                    exps[i] += 1
            light *= f
        if full < 0:
            nums, full = [-n for n in nums], -full
        m, deep = light, []
        for e, pw in zip(exps, self.powers):
            top = len(pw) - 1
            m *= pw[min(e, top)]
            if e > top:
                deep.append((pw[top], pw, e - top))
        # gcd(0, x) == x: a zero entry drops out of the vector's gcd
        gs = [self._gcd(n, m, deep) if n else 0 for n in nums]
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
    """Float mode's normaliser: divides by each step's denominator."""

    one = 1

    def __init__(self, scales):
        pass

    @staticmethod
    def normalise(nums: list, factors, den) -> tuple:
        for f in factors:
            den = den * f
        nums = [n / den for n in nums]
        return nums, 1, tuple(complex(n) for n in nums)


#: what the kernels do by mode: (enter rationals as numerators over one
#: denominator, carry a step factor num/scale, the normaliser built from a
#: series' fixed scales, which reduces a step's numerators over its
#: denominator and leaves a vector as output coefficients).  Exact mode
#: carries the integer num (the scales cancel between a step's numerators
#: and its denominator), keeps each denominator split over the heavy
#: primes of the scales and returns reduced Fractions, built without a
#: second gcd; float mode enters every table as doubles over 1 and carries
#: the double nearest num/scale, so no number it handles grows with the
#: height of the exponents.
_ARITHMETIC = {
    "exact": (common_denominator, lambda num, scale: num, _SplitDenominator),
    "float": (lambda values: ([float(x) for x in values], 1),
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
    flat, dmat = enter([x for row in system.coeff.rows for x in row])
    amat = [flat[4 * i:4 * i + 4] for i in range(4)]
    p, q = rho.numerator, rho.denominator
    ep, eq = e.numerator, e.denominator
    solved, coupled = _FINITE_ROWS[base]
    sign = -1 if base == "1" else 1
    rows = [amat[i] for i in solved]
    blk = [[amat[k][j] for j in solved] for k in coupled]
    qe = q * eq
    qf, qef = factor(q, q), factor(qe, qe)
    norm = normaliser((dmat, qe))
    nums, den = enter(start)
    nums, den, vec = norm.normalise(nums, (den,), norm.one)
    coeffs = [vec]
    for r in range(terms - 1):
        zq = r * q + p
        s = zq + q
        tm, tp = factor(s * eq - ep * q, qe), factor(s * eq + ep * q, qe)
        zq, s = factor(zq, q), factor(s, q)
        r0, r1 = (sign * (zq * dmat * nums[i]
                          - qf * sum(a * n for a, n in zip(row, nums)))
                  for i, row in zip(solved, rows))
        m0 = blk[0][0] * r0 + blk[0][1] * r1
        m1 = blk[1][0] * r0 + blk[1][1] * r1
        scale = dmat * tm * tp
        nxt = [0] * 4
        nxt[solved[0]], nxt[solved[1]] = scale * r0, scale * r1
        nxt[coupled[0]], nxt[coupled[1]] = qef * tp * m0, qef * tm * m1
        nums, den, vec = norm.normalise(nxt, (dmat, dmat, s, tm, tp), den)
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
    numer = system.resolvent
    flat, lden = enter([numer[i, j].coeff(k) for k in range(4)
                        for i in range(4) for j in (0, 1)])
    p, q = sigma.numerator, sigma.denominator
    qf = factor(q, q)
    (k0, k1, k2), kden = enter([1, -(c * c + d * d), c * c * d * d])
    quartic = (k0, k1 * qf * qf, k2 * qf ** 4)
    # mats[k][i][j] = K q^(3-k) N'_k[i][j]
    mats = [[[kden * qf ** (3 - k) * flat[8 * k + 2 * i + j]
              for j in (0, 1)] for i in range(4)] for k in range(4)]
    norm = normaliser((lden, kden, q))
    nums, den = enter(h0)
    nums, den, vec = norm.normalise(nums, (den,), norm.one)
    coeffs = [vec]
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
            nxt.append(zq * (col0 * top0 + col1 * top1))
        w2 = u * u
        quartic_w = (quartic[0] * w2 + quartic[1]) * w2 + quartic[2]
        nums, den, vec = norm.normalise(nxt, (lden, quartic_w), den)
        coeffs.append(vec)
    return coeffs


def recurrence_defects(system: OkuboSystem, sol: SeriesSolution) -> list:
    """Defect vectors of the defining recurrence, index by index.

    A's rows are Fractions, which multiply Fraction and complex entries
    alike, so one path serves both modes: for exact solutions every entry
    is a Fraction and must be zero; for float solutions the entries are
    complex round-off residue.
    """
    apply = system.coeff.apply
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


def okubo_residual(system: OkuboSystem, y: np.ndarray, dy: np.ndarray,
                   x: complex) -> float:
    """Max-norm of (xI - T) y' - A y."""
    return _okubo_defect(system.coeff.to_complex(),
                         np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex),
                         np.eye(4), y, dy, x)


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
