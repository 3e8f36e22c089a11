"""End-to-end verification suites.

Exact criteria re-derive every closed-form identity the package relies on
(determinant formulas, block decompositions, the special-value branches,
the size-three reduction) with rational arithmetic on seeded random
draws; the trivariate polynomial identity behind the branch denominators
is certified on an integer grid large enough to pin a polynomial of its
degree, which is a finite proof, not a sample.  Numeric criteria check
truncated-series defects against stated tolerances.

Each check returns its pass detail or raises CriterionFailed with its
failure detail (an explicit raise, so that `python -O` cannot strip it);
`run_criterion` turns that into a CriterionResult and `verify_all` bundles
the results into one deterministic report for a given seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import accessory, dotsenko_fateev as df, hgsystem, sampling, series
from .errors import InternalInconsistency
from .exact import Poly, PolyMatrix, RationalMatrix


class CriterionFailed(Exception):
    """A verification check did not hold; the message is its detail."""


def _require(condition, detail: str):
    if not condition:
        raise CriterionFailed(detail)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    time_limit: float = 0.0  # 0 means no limit

    def to_json(self) -> dict:
        # wall time is deliberately left out: reports for a given seed are
        # byte-identical across runs
        return {"name": self.name, "passed": self.passed,
                "detail": self.detail,
                "time_limit": self.time_limit or None}


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}:{tag}")


# --------------------------------------------------------------------------
# exact suite
# --------------------------------------------------------------------------

def check_infinity_factorization(seed: int, draws: int = 50) -> str:
    rng = _rng(seed, "phi")
    for _ in range(draws):
        p = sampling.draw_generic_params(rng)
        sys = hgsystem.build_product_system(p)
        phi = sys.residue_at_inf.char_poly()
        want = Poly.constant(1)
        for e in hgsystem.infinity_exponents(p):
            want = want * Poly([-e, 1])
        _require(phi == want, f"factorization fails for {p}")
    return f"{draws} generic parameter draws"


def check_gauge_and_diagonalizer(seed: int, draws: int = 50) -> str:
    rng = _rng(seed, "gauge")
    for _ in range(draws):
        p = sampling.draw_okubo_params(rng)
        gauge, system = hgsystem.build_okubo_system(p)
        _require(gauge.det() == hgsystem.det_gauge_formula(p), "det gauge")
        ginv = gauge.inverse()
        _require(gauge * ginv == RationalMatrix.identity(4), "gauge inverse")
        _require(ginv == hgsystem.gauge_inverse_closed_form(p), "inverse form")
        r = hgsystem.build_diagonalizer(p)
        _require(r.det() == hgsystem.det_diagonalizer_formula(p), "det R")
        c, d = system.c, system.d
        diag = RationalMatrix.from_blocks(
            [[hgsystem.J2.scale(c), RationalMatrix.zero(2)],
             [RationalMatrix.zero(2), hgsystem.J2.scale(d)]])
        _require(r * system.coeff * r.inverse() == diag, "R A R^-1")
        _require(r * ginv == hgsystem.contiguous_product_matrix(p), "R G^-1")
    return f"{draws} gamma-constrained draws"


def check_cubic_blocks(seed: int, draws: int = 100) -> str:
    rng = _rng(seed, "cubic")
    ident2 = PolyMatrix.from_constant(RationalMatrix.identity(2))
    for _ in range(draws):
        chart = sampling.draw_chart(rng)
        a, b, c, d = chart.a, chart.b, chart.c, chart.d
        blocks = accessory.cubic_blocks(chart)
        system = accessory.okubo_from_chart(chart)
        numer = accessory.resolvent_numerator(system.coeff, c, d)
        top = numer.block(0, 2, 0, 2)
        _require(top == blocks.top_block(), "top block mismatch")
        det_want = (Poly([-b * b, 0, 1]) * Poly([-c * c, 0, 1])
                    * Poly([-d * d, 0, 1]))
        _require(top.det() == det_want, "determinant of the top block")
        _require(blocks.top_block() * blocks.adjugate_block()
                 == ident2 * det_want, "adjugate identity")
        _require(blocks.quadratic == hgsystem.J2.scale(a), "quadratic block")
        obs = accessory.epsilon_delta(chart)
        cross = RationalMatrix([[0, chart.r2], [chart.r1, 0]])
        skew = RationalMatrix([[c, a + c], [a - c, -c]])
        want_mixed = (RationalMatrix.identity(2)
                      .scale((c * c + d * d - a * a - b * b) / 2)
                      + cross.scale(obs.epsilon_prime)
                      - skew.scale(b * obs.delta_prime))
        _require(accessory.upper_block(chart) * accessory.lower_block(chart)
                 == want_mixed, "off-block product identity")
        _require(blocks.constant.trace() == -2 * a * b * c * obs.delta_prime,
                 "trace of the constant block")
    return f"{draws} chart draws"


def check_sameness_biconditional(seed: int, draws: int = 50) -> str:
    rng = _rng(seed, "same")
    for _ in range(draws):
        special = sampling.draw_special_chart(rng)
        verdict = accessory.substantially_same(special)
        _require(verdict.verdict and not verdict.nonzero_minors, "special")
        perturbed = sampling.draw_perturbed_chart(rng)
        verdict = accessory.substantially_same(perturbed)
        _require(not verdict.verdict and verdict.nonzero_minors, "perturbed")
    return f"{draws} special + {draws} perturbed charts"


_GRID = (-3, -2, -1, 1, 2, 3)


def _certify_trivariate_zero(fn) -> bool:
    """fn(a, b, c) is polynomial of degree <= 5 in each variable, with
    integer coefficients; vanishing on a 6x6x6 integer grid then proves it
    is identically zero."""
    return all(fn(a, b, c) == 0
               for a in _GRID for b in _GRID for c in _GRID)


def conditional_denominator_identity(sign1: int, sign2: int) -> bool:
    """With d^2 = (a + s1 b + s2 c)^2 substituted,
    ((a + s1 b - s2 c)^2 - d^2)((a - s1 b + s2 c)^2 - d^2)
          = s1 s2 16 b c (a + s1 b)(a + s2 c)
    identically in (a, b, c)."""
    def diff(a, b, c):
        dsq = (a + sign1 * b + sign2 * c) ** 2
        lhs = (((a + sign1 * b - sign2 * c) ** 2 - dsq)
               * ((a - sign1 * b + sign2 * c) ** 2 - dsq))
        rhs = sign1 * sign2 * 16 * b * c * (a + sign1 * b) * (a + sign2 * c)
        return lhs - rhs
    return _certify_trivariate_zero(diff)


def check_special_value_branches(seed: int, draws: int = 20) -> str:
    rng = _rng(seed, "branches")
    for s1 in (1, -1):
        for s2 in (1, -1):
            _require(conditional_denominator_identity(s1, s2),
                     f"conditional identity fails for signs ({s1}, {s2})")
    for _ in range(draws):
        a, b, c, d = sampling.draw_exponents(rng)
        charts = []
        for branch in ("via-r4", "via-r3"):
            chart, system = accessory.solve_accessory(a, b, c, d, branch)
            _require(system.coeff
                     == accessory.special_matrix(a, b, c, d).coeff,
                     f"{branch} branch is not the special matrix")
            _require(accessory.epsilon_delta(chart).vanish,
                     f"{branch} obstructions do not vanish")
            _require(chart.d_constraint_value() == d * d,
                     f"{branch} chart breaks the d-constraint")
            charts.append(chart)
        _require(accessory.okubo_from_chart(charts[0]).coeff
                 == accessory.okubo_from_chart(charts[1]).coeff,
                 "the two branches give different matrices")
    return f"both branches on {draws} exponent draws; 4 certified identities"


def check_realization(seed: int, draws: int = 30) -> str:
    rng = _rng(seed, "realize")
    for _ in range(draws):
        p = sampling.draw_okubo_params(rng)
        report = accessory.realize_product_system(p)
        _require(report.verdict, f"realization fails for {p}")
    return f"{draws} gamma-constrained draws"


def check_dual_verdict(seed: int, draws: int = 50) -> str:
    rng = _rng(seed, "dual")
    agree = 0
    for k in range(draws):
        if k % 3 == 0:
            chart = sampling.draw_special_chart(rng)
        elif k % 3 == 1:
            chart = sampling.draw_perturbed_chart(rng)
        else:
            chart = sampling.draw_chart(rng)
        primary = accessory.substantially_same(chart, "1-inf")
        dual = accessory.substantially_same(chart, "0-inf")
        _require(primary.verdict == dual.verdict, "the pairs disagree")
        agree += 1
    return f"{agree} charts, both singular-point pairs"


def check_df_reduction(seed: int, draws: int = 30) -> str:
    rng = _rng(seed, "df")
    for _ in range(draws):
        params = sampling.draw_df_params(rng)
        report = df.check_df_transformation(params)
        _require(report.verdict, f"transformation fails for {params}")
        c0, c1 = df.df_residues(params)
        shifts = df.shifted_eigenvalues(params)
        a, b, c = params.a, params.b, params.c
        ident = RationalMatrix.identity(3)
        for matrix, roots in (
                (c0 - ident.scale(a + c), shifts["at-0"]),
                (c1 - ident.scale(b + c), shifts["at-1"]),
                (c0 + c1 - ident.scale(a + b + 2 * c), shifts["sum"])):
            want = Poly.constant(1)
            for root in roots:
                want = want * Poly([-root, 1])
            _require(matrix.char_poly() == want, "shifted eigenvalues")
        hg = params.induced_hg()
        k0, k1 = df.euler_reduce(hg)
        for matrix, roots in (
                (k0, (hg.beta1 + hg.beta2, -hg.alpha1 - hg.alpha2,
                      Fraction(0))),
                (k1, (hg.beta2 - hg.alpha1, hg.beta1 - hg.alpha2,
                      Fraction(0)))):
            want = Poly.constant(1)
            for root in roots:
                want = want * Poly([-root, 1])
            _require(matrix.char_poly() == want, "reduced eigenvalues")
    return f"{draws} parameter draws"


# --------------------------------------------------------------------------
# numeric suite
# --------------------------------------------------------------------------

def _draw_w_params(rng: random.Random) -> hgsystem.HGParams:
    while True:
        p = sampling.draw_generic_params(rng)
        if not any(series._is_nonpositive_integer(g)
                   for g in (p.gamma1, p.gamma2)):
            return p


def check_product_vector_residual(seed: int, points: int = 20) -> str:
    rng = _rng(seed, "wres")
    p = _draw_w_params(rng)
    worst = series.worst_defect(
        series.w_residual(p, sampling.sample_disc(rng, 0.05, 0.4), terms=60)
        for _ in range(points))
    _require(worst <= 1e-10, f"residual {worst:.3e} exceeds 1e-10")
    return f"{points} points, max residual {worst:.2e}"


def check_contiguous_dual_path(seed: int, points: int = 20) -> str:
    rng = _rng(seed, "vdual")
    p = sampling.draw_okubo_params(rng)
    gaps = []
    for _ in range(points):
        x = sampling.sample_disc(rng, 0.05, 0.4, max_angle=1.2)
        direct = series.contiguous_product_vector(p, x, terms=80)
        via = series.v_via_transform(p, x, terms=80)
        scale = max(1.0, float(np.max(np.abs(via))))
        gaps.append(float(np.max(np.abs(direct - via))) / scale)
    worst = series.worst_defect(gaps)
    _require(worst <= 1e-9, f"relative gap {worst:.3e} exceeds 1e-9")
    return f"{points} points, max relative gap {worst:.2e}"


def check_local_series_residuals(seed: int, terms: int = 80) -> str:
    rng = _rng(seed, "series")
    _, special = accessory.solve_accessory(
        Fraction(1, 3), Fraction(1, 5), Fraction(1, 7), Fraction(1, 11))
    _, product = hgsystem.build_okubo_system(hgsystem.HGParams.okubo(
        Fraction(1, 3), Fraction(1, 7), Fraction(1, 5), Fraction(1, 11)))
    residuals = []
    for system in (special, product):
        for base in ("0", "1", "inf"):
            n_expo = len(series.exponents_at(system, base))
            for index in range(n_expo):
                sols = series.local_series(system, base, index, terms,
                                           mode="float")
                for sol in sols:
                    samples = [sampling.series_sample(rng, base)
                               for _ in range(5)]
                    report = series.residual_report(system, sol, samples)
                    residuals.append(report.max_residual)
    worst = series.worst_defect(residuals)
    _require(worst <= 1e-9, f"residual {worst:.3e} exceeds 1e-9")
    return (f"{len(residuals)} solutions across 2 systems, "
            f"max residual {worst:.2e}")


def check_df_integral_residual(seed: int = 0) -> str:
    params = df.DFParams(Fraction(1, 3), Fraction(1, 5), Fraction(1, 7),
                         Fraction(1, 2))
    worst = series.worst_defect(df.df_integral_solution(params, x).residual
                                for x in (0.3, 0.4, 0.5))
    _require(worst <= 1e-6, f"residual {worst:.3e} exceeds 1e-6")
    return f"3 evaluation points, max residual {worst:.2e}"


# --------------------------------------------------------------------------
# suite assembly
# --------------------------------------------------------------------------

EXACT_CRITERIA = (
    ("1a-infinity-factorization", check_infinity_factorization, 0.0),
    ("1b-gauge-and-diagonalizer", check_gauge_and_diagonalizer, 5.0),
    ("1c-cubic-blocks", check_cubic_blocks, 30.0),
    ("1d-sameness-biconditional", check_sameness_biconditional, 0.0),
    ("1e-special-value-branches", check_special_value_branches, 0.0),
    ("1f-realization", check_realization, 0.0),
    ("1g-dual-verdict", check_dual_verdict, 0.0),
    ("1h-size-three-reduction", check_df_reduction, 0.0),
)

NUMERIC_CRITERIA = (
    ("2a-product-vector-residual", check_product_vector_residual, 10.0),
    ("2b-contiguous-dual-path", check_contiguous_dual_path, 0.0),
    ("2c-local-series-residuals", check_local_series_residuals, 0.0),
    ("2d-integral-solution-residual", check_df_integral_residual, 60.0),
)


def run_criterion(name: str, fn, seed: int,
                  time_limit: float = 0.0) -> CriterionResult:
    start = time.perf_counter()
    try:
        detail = fn(seed)
        passed = True
    except CriterionFailed as exc:
        detail, passed = str(exc), False
    except InternalInconsistency:
        raise  # a bug, not a verdict
    except Exception as exc:  # noqa: BLE001 - a crashed criterion is a failure
        detail, passed = f"{type(exc).__name__}: {exc}", False
    elapsed = time.perf_counter() - start
    if passed and time_limit and elapsed > time_limit:
        passed = False
        detail += f" (exceeded {time_limit:.0f}s time limit)"
    return CriterionResult(name, passed, detail, elapsed, time_limit)


def exact_suite(seed: int) -> list:
    return [run_criterion(name, fn, seed, limit)
            for name, fn, limit in EXACT_CRITERIA]


def numeric_suite(seed: int) -> list:
    return [run_criterion(name, fn, seed, limit)
            for name, fn, limit in NUMERIC_CRITERIA]


def verify_all(seed: int) -> tuple:
    """(deterministic report dict, measured wall times by criterion)."""
    start = time.perf_counter()
    results = exact_suite(seed) + numeric_suite(seed)
    report = {"seed": seed,
              "criteria": [r.to_json() for r in results],
              "all_passed": all(r.passed for r in results)}
    times = {r.name: r.seconds for r in results}
    times["total"] = time.perf_counter() - start
    return report, times
