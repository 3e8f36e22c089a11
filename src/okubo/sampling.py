"""Seeded random draws for the property and verification suites.

Rationals are drawn with numerators and denominators bounded by 50, and
draws violating the needed nondegeneracy conditions are rejected and
retried, capped at 10^4 attempts.  Everything takes an explicit
random.Random so identical seeds give identical suites.
"""

from __future__ import annotations

import cmath
import random
from fractions import Fraction

from .accessory import (AccessoryChart, cleared_failures, epsilon_delta,
                        is_admissible, solve_accessory, solve_r4,
                        special_ratios)
from .dotsenko_fateev import DFParams
from .errors import DegenerateChart, DConditionError, OkuboError
from .hgsystem import (DET_DIAGONALIZER_FACTORS, DET_GAUGE_FACTORS,
                       OKUBO_EXPONENT_WORDS, HGParams, half_sum_numerators)

MAX_ATTEMPTS = 10_000


def rng_for(seed: int) -> random.Random:
    return random.Random(seed)


def _give_up(what: str):
    raise RuntimeError(f"sampling cap exceeded while drawing {what}")


def rand_fraction(rng: random.Random, max_num: int = 50,
                  max_den: int = 50) -> Fraction:
    while True:
        q = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        if q != 0:
            return q


def draw_exponents(rng: random.Random) -> tuple:
    """Admissible (a, b, c, d): none of the excluded combinations integral."""
    for _ in range(MAX_ATTEMPTS):
        vals = tuple(rand_fraction(rng) for _ in range(4))
        if is_admissible(*vals):
            return vals
    _give_up("admissible exponents")


def draw_special_exponents(rng: random.Random) -> tuple:
    """Admissible (a, b, c, d) whose special ratios (BC, AD, CD, AB) are a
    chart: no zero, and r1 - r2 = -8ac(a^2 - b^2 + c^2 - d^2) and
    r3 - r4 = 8bc(a^2 - b^2 - c^2 + d^2) nonzero."""
    for _ in range(MAX_ATTEMPTS):
        vals = draw_exponents(rng)
        r1, r2, r3, r4 = special_ratios(*vals)
        if r1 * r2 * r3 * r4 != 0 and r1 != r2 and r3 != r4:
            return vals
    _give_up("exponents with a special chart")


def draw_generic_params(rng: random.Random) -> HGParams:
    """Unconstrained hypergeometric parameters."""
    return HGParams.generic(*(rand_fraction(rng) for _ in range(6)))


def draw_w_params(rng: random.Random) -> HGParams:
    """Unconstrained parameters whose gammas are no nonpositive integer,
    so that both Gauss series of the product vector w are defined."""
    for _ in range(MAX_ATTEMPTS):
        p = draw_generic_params(rng)
        if not any(g.denominator == 1 and g <= 0
                   for g in (p.gamma1, p.gamma2)):
            return p
    _give_up("parameters with defined Gauss series")


def _passes(p: HGParams, needed: tuple) -> bool:
    """Whether the Okubo exponents of gamma-constrained parameters are
    admissible and no half-sum of det P, of the numerator of det R or of
    ``needed`` is zero (det R's denominator is a product of parameters,
    which ``needed`` holds), tested on the half-sums' integer numerators."""
    nums, den = half_sum_numerators(
        p, OKUBO_EXPONENT_WORDS + DET_GAUGE_FACTORS + DET_DIAGONALIZER_FACTORS
        + needed)
    return all(nums[4:]) and not cleared_failures(nums[:4], den)


def draw_okubo_params(rng: random.Random) -> HGParams:
    """Gamma-constrained parameters passing every nondegeneracy condition
    used by the gauge, the diagonalizer and the realization check."""
    needed = ("+000", "0+00", "00+0", "000+", "+-++", "++-+", "-+++", "+++-",
              "+0-0", "0+0-", "--++", "0-0+", "-0+0")
    for _ in range(MAX_ATTEMPTS):
        p = HGParams.okubo(*(rand_fraction(rng) for _ in range(4)))
        if _passes(p, needed):
            return p
    _give_up("gamma-constrained parameters")


def draw_chart(rng: random.Random) -> AccessoryChart:
    """A valid chart: random exponents and ratios, with the last ratio
    solved from the d-constraint (which is linear in it)."""
    for _ in range(MAX_ATTEMPTS):
        a, b, c, d = draw_exponents(rng)
        r1, r2, r3 = (rand_fraction(rng) for _ in range(3))
        if r1 == r2 or r1 * r2 * r3 == 0:
            continue
        try:
            r4 = solve_r4(a, b, c, d, r1, r2, r3)
            chart = AccessoryChart(a, b, c, d, (r1, r2, r3, r4))
            chart.check()
        except (DegenerateChart, DConditionError):
            continue
        return chart
    _give_up("chart")


def draw_special_chart(rng: random.Random) -> AccessoryChart:
    """A chart at the special accessory values, with a random scale."""
    for _ in range(MAX_ATTEMPTS):
        a, b, c, d = draw_exponents(rng)
        try:
            chart, _ = solve_accessory(a, b, c, d, scale=rand_fraction(rng))
        except OkuboError:
            continue
        return chart
    _give_up("special chart")


def draw_perturbed_chart(rng: random.Random) -> AccessoryChart:
    """A valid chart close to a special one but with a nonzero
    obstruction (the last ratio is re-solved, so the d-constraint holds)."""
    for _ in range(MAX_ATTEMPTS):
        base = draw_special_chart(rng)
        r1 = base.r1 + rand_fraction(rng)
        r2 = base.r2 + rand_fraction(rng)
        if r1 == r2 or r1 * r2 == 0:
            continue
        try:
            r4 = solve_r4(base.a, base.b, base.c, base.d, r1, r2, base.r3)
            chart = AccessoryChart(base.a, base.b, base.c, base.d,
                                   (r1, r2, base.r3, r4))
            chart.check()
        except (DegenerateChart, DConditionError):
            continue
        if epsilon_delta(chart).vanish:
            continue
        return chart
    _give_up("perturbed chart")


def draw_df_params(rng: random.Random) -> DFParams:
    """Parameters (a, b, c, g) whose matched hypergeometric parameters
    pass the same nondegeneracy conditions as draw_okubo_params."""
    for _ in range(MAX_ATTEMPTS):
        params = DFParams(*(rand_fraction(rng) for _ in range(4)))
        a, b, g = params.a, params.b, params.g
        if (2 * a + g) == 0 or (2 * a + 2 * b + g) == 0:
            continue
        needed = ("+000", "0+00", "00+0", "000+", "+--+", "+-++", "+0-0",
                  "0+0-", "+++-", "--++", "0-0+", "-0+0", "+0+0", "++00",
                  "0+-0")
        if _passes(params.induced_hg(), needed):
            return params
    _give_up("size-three system parameters")


def sample_disc(rng: random.Random, rmin: float, rmax: float,
                max_angle: float = 2.9) -> complex:
    """A complex point with modulus in [rmin, rmax], off the cut."""
    radius = rng.uniform(rmin, rmax)
    angle = rng.uniform(-max_angle, max_angle)
    return radius * cmath.exp(1j * angle)


def series_sample(rng: random.Random, base: str) -> complex:
    """A point where the local series at ``base`` ("0", "1" or "inf") is
    trusted: 0.1 <= |x| <= 0.55, 0.1 <= |x-1| <= 0.55 or 1.8 <= |x-1| <= 3,
    at most 2.4 radians off the positive real direction.  The angle is
    drawn before the radius."""
    angle = rng.uniform(-2.4, 2.4)
    rmin, rmax = (1.8, 3.0) if base == "inf" else (0.1, 0.55)
    point = rng.uniform(rmin, rmax) * cmath.exp(1j * angle)
    return point if base == "0" else 1 + point
