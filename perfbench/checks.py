"""Output checks for every benchmark operation.

Each checker returns one of three statuses:

* OK - the output is right;
* BASELINE - the output is wrong in one of the ways recorded as this
  package's baseline defects:
  (D1) a Gauss series summed in floats to a fixed number of terms is
  returned although its error can explain the miss: the bound on the
  omitted tail (`gauss_tail_bound`) plus the bound on the rounding of
  the terms it sums (`gauss_rounding_bound`, large where they cancel)
  exceeds half the tolerance;
  (D2) verify's absolute 1e-10 gate on the 60-term w residual fails
  (criterion 2a fails it for the generic parameters up to +-50 that 51 of
  the seeds 0..299 draw; seed 7 passes; at 300 terms 13 of them still
  fail, so the gate's blindness to the scale of w is part of it);
  (D3) verify criterion 1e draws exponents that the library rightly
  rejects with an AdmissibilityError or a DegenerateChart (seed 40658:
  the via-r4 branch has a vanishing denominator; seed 280328: the via-r4
  chart is degenerate and the via-r3 branch inadmissible);
  (D4) `df_integral_solution` sums its integrals at a fixed 128 nodes
  and, for some parameters inside the domain it documents, raises a
  QuadratureError because 128 and 256 nodes disagree by more than 1e-8
  (benchmark seed 812: about 1 in 50 drawn parameter sets);
* FAILED - any other wrong output, exception or exit code.

BASELINE and FAILED both count against `pass_ratio`; only FAILED makes a
run incorrect.  The checkers are pure functions so that the tests can
feed them deliberately wrong outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from fractions import Fraction

OK, BASELINE, FAILED = "ok", "baseline", "failed"

#: tolerances, as `okubo.verify` states them or as this benchmark fixes them
REFERENCE_REL_TOL = 1e-10      # hyp2f1 and w against mpmath
W_RESIDUAL_TOL = 1e-10         # verify 2a
V_GAP_TOL = 1e-9               # verify 2b
SERIES_RESIDUAL_TOL = 1e-9     # verify 2c
FLOAT_EXACT_TOL = 1e-12        # float against exact series, row-scaled

#: a 61-bit prime for the modular recurrence check
PRIME = (1 << 61) - 1


def report_digest(report: dict) -> str:
    """sha256 of the report exactly as `okubo verify-all --out` writes it."""
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: the recorded baseline failures of verify criteria (D2, D3): criterion
#: name and the start of its failure detail; any other failure is FAILED
BASELINE_CRITERIA = (
    ("2a-product-vector-residual", "residual "),
    ("1e-special-value-branches", "AdmissibilityError: "),
    ("1e-special-value-branches", "DegenerateChart: degenerate chart"),
)


def _criterion_status(crit: dict) -> str:
    if crit["passed"]:
        return OK
    if any(crit["name"] == name and crit["detail"].startswith(start)
           for name, start in BASELINE_CRITERIA):
        return BASELINE
    return FAILED


def check_certify(report: dict, seed: int, digest7: str) -> list:
    """One status per criterion: PASS is OK; for seed 7 the report bytes
    must also hash to the stored digest, or every criterion fails."""
    if seed == 7 and report_digest(report) != digest7:
        return [FAILED] * len(report["criteria"])
    return [_criterion_status(crit) for crit in report["criteria"]]


# --------------------------------------------------------------------------
# series-numeric: deep local series
# --------------------------------------------------------------------------

def _mod(q) -> int:
    q = Fraction(q)
    return q.numerator % PRIME * pow(q.denominator, -1, PRIME) % PRIME


def recurrence_violation(coeff_rows, base: str, exponent, coeffs) -> int:
    """Index of the first coefficient recurrence violated modulo PRIME, or
    -1 if every equation holds.  The recurrences (T = diag(0, 0, 1, 1)):

      x = 1:   (r+rho+1)(T - I) g(r+1) = ((r+rho) I - A) g(r),
               rho (T - I) g(0) = 0;
      x = 0:   (r+rho+1) T g(r+1) = ((r+rho) I - A) g(r),  rho T g(0) = 0;
      x = oo:  ((s+sigma+1) I + A) h(s+1) = (s+sigma)(T - I) h(s),
               (sigma I + A) h(0) = 0.

    Reduction modulo a prime is a ring map, so exact equations hold
    modulo PRIME; a wrong exact coefficient survives only if its error
    happens to be divisible by PRIME.
    """
    amat = [[_mod(x) for x in row] for row in coeff_rows]
    rho = _mod(exponent)
    vecs = [[_mod(c) for c in vec] for vec in coeffs]

    def apply(v):
        return [sum(amat[i][j] * v[j] for j in range(4)) % PRIME
                for i in range(4)]

    if base in ("0", "1"):
        diag = (0, 0, 1, 1) if base == "0" else (-1, -1, 0, 0)
        if any(rho * t * g % PRIME for t, g in zip(diag, vecs[0])):
            return 0
        for r in range(len(vecs) - 1):
            z = (r + rho) % PRIME
            av = apply(vecs[r])
            for i in range(4):
                lhs = (z + 1) * diag[i] * vecs[r + 1][i]
                if (lhs - z * vecs[r][i] + av[i]) % PRIME:
                    return r + 1
        return -1
    av = apply(vecs[0])
    if any((rho * vecs[0][i] + av[i]) % PRIME for i in range(4)):
        return 0
    for s in range(len(vecs) - 1):
        z = (s + rho) % PRIME
        av = apply(vecs[s + 1])
        for i in range(4):
            lhs = (z + 1) * vecs[s + 1][i] + av[i]
            rhs = z * (-1 if i < 2 else 0) * vecs[s][i]
            if (lhs - rhs) % PRIME:
                return s + 1
    return -1


def float_exact_gap(float_coeffs, exact_coeffs) -> float:
    """Largest row-scaled distance between float and exact coefficients."""
    if len(float_coeffs) != len(exact_coeffs):
        return math.inf
    worst = 0.0
    for fvec, evec in zip(float_coeffs, exact_coeffs):
        exact = [complex(Fraction(c)) for c in evec]
        scale = max(abs(c) for c in exact) or 1.0
        gap = max(abs(complex(f) - e) for f, e in zip(fvec, exact)) / scale
        if math.isnan(gap):
            return math.inf
        worst = max(worst, gap)
    return worst


def check_exact_series(system, sols, base: str, index: int,
                       prefix=None) -> str:
    """Exact solutions: right count and exponent, nonzero start, every
    recurrence equation exact, and (if given) the shorter solutions of the
    same index as exact prefixes."""
    from okubo import series
    want = 2 if base in ("0", "1") and index == 0 else 1
    rho = series.exponents_at(system, base)[index]
    if len(sols) != want:
        return FAILED
    rows = system.coeff.rows
    for k, sol in enumerate(sols):
        if not sol.exact or sol.base != base or sol.exponent != rho:
            return FAILED
        if not any(Fraction(c) != 0 for c in sol.coeffs[0]):
            return FAILED
        if recurrence_violation(rows, base, rho, sol.coeffs) != -1:
            return FAILED
        if prefix is not None and (
                tuple(sol.coeffs[:len(prefix[k].coeffs)])
                != tuple(prefix[k].coeffs)):
            return FAILED
    return OK


def check_float_series(float_sols, exact_sols, residuals) -> str:
    """Float solutions agree with the exact ones within FLOAT_EXACT_TOL,
    row-scaled, and their residuals at in-disc points stay within
    SERIES_RESIDUAL_TOL."""
    if len(float_sols) != len(exact_sols) or len(residuals) != len(
            float_sols):
        return FAILED
    for fsol, esol in zip(float_sols, exact_sols):
        if fsol.exact or fsol.exponent != esol.exponent:
            return FAILED
        if not float_exact_gap(fsol.coeffs, esol.coeffs) <= FLOAT_EXACT_TOL:
            return FAILED
    if not all(r <= SERIES_RESIDUAL_TOL for r in residuals):
        return FAILED
    return OK


# --------------------------------------------------------------------------
# series-numeric: float evaluation requests
# --------------------------------------------------------------------------

def rel_error(got, ref) -> float:
    """max |got - ref| / max |ref| over the components."""
    got = [complex(g) for g in (got if hasattr(got, "__len__") else [got])]
    ref = [complex(r) for r in (ref if hasattr(ref, "__len__") else [ref])]
    if len(got) != len(ref):
        return math.inf
    scale = max(abs(r) for r in ref)
    gap = max(abs(g - r) for g, r in zip(got, ref))
    if math.isnan(gap):
        return math.inf
    return gap / scale if scale else (0.0 if gap == 0 else math.inf)


def gauss_tail_bound(alpha, beta, gamma, x: complex, terms: int,
                     derivative: int = 0) -> float:
    """Upper bound on what summing 2F1(alpha, beta, gamma; x) (or its
    first derivative) to ``terms`` terms leaves out.

    With t_n = c_n x^n, |t_(n+1) / t_n| = |x| (a+n)(b+n) / ((c+n)(n+1))
    for real parameters; once past the parameters its supremum over
    n >= N is the larger of its value at N and its limit |x|, so the tail
    is at most |t_N| / (1 - rho) (infinite if rho >= 1).  The derivative
    series has terms n c_n x^(n-1), one factor (n+1)/n larger per step.
    """
    a, b, c = float(alpha), float(beta), float(gamma)
    r = abs(complex(x))
    if r == 0:
        return 0.0
    if min(a, b, c) + terms <= 0:
        return math.inf
    log_term = terms * math.log(r)
    for n in range(terms):
        ratio = abs((a + n) * (b + n) / ((c + n) * (n + 1)))
        if ratio == 0:
            return 0.0
        log_term += math.log(ratio)
    steps = [abs((a + n) * (b + n) / ((c + n) * (n + 1)))
             for n in range(terms, terms + 400)]
    rho = r * max(max(steps), 1.0)
    if derivative:
        log_term += math.log(terms) - math.log(r)
        rho *= (terms + 1) / terms
    if rho >= 1:
        return math.inf
    return math.exp(log_term) / (1 - rho)


def gauss_rounding_bound(alpha, beta, gamma, x: complex, terms: int,
                         derivative: int = 0) -> float:
    """Upper bound on the rounding error of summing ``terms`` terms of
    2F1(alpha, beta, gamma; x) (or of its first derivative) in double
    precision: each term is built from the last by a few multiplications
    and the sum adds ``terms`` of them, so the error is at most
    2 terms eps sum |t_n|, to first order.  Where the terms cancel (a
    polynomial (1 - x)^5 near x = 1, say) this is far larger than the
    tolerance relative to the value."""
    a, b, c = float(alpha), float(beta), float(gamma)
    r = abs(complex(x))
    magnitude, total = 1.0, 0.0
    for n in range(terms):
        total += magnitude * (n / r if derivative and r else
                              0.0 if derivative else 1.0)
        magnitude *= abs((a + n) * (b + n) / ((c + n) * (n + 1))) * r
    return 2 * terms * sys.float_info.epsilon * total


def w_tail_bound(jets, bounds, x: complex) -> float:
    """Bound on the error of w = (f1 f2, x f1' f2, x f1 f2', x^2 f1' f2')
    relative to max |w|, given the true (f, f') of both functions and
    bounds on the error of their truncated sums."""
    (f1, d1), (f2, d2) = jets
    (e1, g1), (e2, g2) = bounds
    x = abs(complex(x))

    def prod(u, du, v, dv):
        return abs(u) * dv + du * abs(v) + du * dv

    errs = [prod(f1, e1, f2, e2), x * prod(d1, g1, f2, e2),
            x * prod(f1, e1, d2, g2), x * x * prod(d1, g1, d2, g2)]
    w = [f1 * f2, x * d1 * f2, x * f1 * d2, x * x * d1 * d2]
    scale = max(abs(v) for v in w)
    return max(errs) / scale if scale else math.inf


def _material(bound: float) -> bool:
    """Can the error of the fixed-term float sum use up half the
    tolerance (D1)?"""
    return not bound <= REFERENCE_REL_TOL / 2


def check_hyp2f1(value, error, reference, bound: float) -> str:
    """``bound`` bounds the error of the 80-term float sum (truncation
    plus rounding) relative to the value."""
    if error is None and rel_error(value, reference) <= REFERENCE_REL_TOL:
        return OK
    return BASELINE if error is None and _material(bound) else FAILED


def check_w(output, error, reference, bound: float) -> str:
    """output = (w, residual): w against mpmath and verify 2a's gate;
    ``bound`` bounds the error of the float sums relative to max |w|."""
    if error is not None:
        return FAILED
    w, residual = output
    right = rel_error(w, reference) <= REFERENCE_REL_TOL
    if right and residual <= W_RESIDUAL_TOL:
        return OK
    return BASELINE if right or _material(bound) else FAILED


def v_gap(direct, via) -> float:
    """Relative gap between the two paths, as verify 2b measures it."""
    scale = max(1.0, max(abs(complex(v)) for v in via))
    return max(abs(complex(d) - complex(v))
               for d, v in zip(direct, via)) / scale


def check_v(output, error) -> str:
    if error is not None:
        return FAILED
    direct, via = output
    return OK if len(direct) == len(via) == 4 and \
        v_gap(direct, via) <= V_GAP_TOL else FAILED


def check_series_residual(max_residual, error) -> str:
    if error is not None:
        return FAILED
    return OK if max_residual <= SERIES_RESIDUAL_TOL else FAILED


def check_df(report, error) -> str:
    """The integral solution is finite; a QuadratureError that says the
    two refinements disagree is the recorded baseline miss D4."""
    if error is not None:
        from okubo.errors import QuadratureError
        if isinstance(error, QuadratureError) and str(error).startswith(
                "quadrature refinements disagree"):
            return BASELINE
        return FAILED
    values = list(report.z) + list(report.integrals)
    return OK if all(math.isfinite(abs(v)) for v in values) else FAILED
