"""The Dotsenko-Fateev system and its derivation by an Euler transform.

The size-three Fuchsian system dz/dx = (C0/x + C1/(x-1)) z with

    C0 = [[2a+2c+g, 0, b], [0, 0, 0], [0, 2b+g, a+c]],
    C1 = [[0, 0, 0], [0, 2b+2c+g, a], [2a+g, 0, b+c]]

arises from the diagonalized hypergeometric-product system: applying the
Euler transform v -> integral of (t-x)^(mu-1) v(t) dt with the shift mu
chosen as the half-sum lam(--++) makes one diagonal entry of the shifted
exponent matrix vanish, so the transformed 4x4 system drops to a 3x3
system with residues K0, K1.  Under the parameter matching

    alpha1 = a,  alpha2 = c,  beta1 = -b,  beta2 = a+b+c+g,

an explicit eigenvector matrix conjugates (K0, K1) into
(C0 - (a+c) I, C1 - (b+c) I), which is the scalar-gauge content of the
transformation z = x^(a+c) (x-1)^(b+c) Q v~.

The solution built along the way is a vector of three integrals

    int_0^x (t-x)^(g/2-1) t^(a+c+g/2) 2F1(..) 2F1(..) dt

with shifted-parameter Gauss factors; it is evaluated here by
Gauss-Jacobi quadrature adapted to the endpoint singularities (after
t = x s the weight is s^(a+c+g/2) (1-s)^(g/2-1) on [0, 1]), and verified
by differentiating numerically and substituting into the system.  One
evaluation, at one point or at a tuple of points, builds one rule per
node count and sums the four distinct Gauss factors of the three
integrands in one Horner pass over the nodes of every point it needs (at
each x, two refinements and a four-point stencil), in real arithmetic,
since the parameters are rational and the nodes real.
The branch factors (t-x)^(g/2-1) and (x-1)^(b+c) for 0 < x < 1 are taken as
e^(i pi (g/2-1)) (x-t)^(g/2-1) and e^(i pi (b+c)) (1-x)^(b+c) with real
positive bases; both are constant phases, which a linear system cannot
see, so the residual check is branch-independent.

The exact half of this module loads no numpy; the quadrature imports
numpy, series (whose batched kernel _gauss_table gives the coefficient
rows of all four factors at once) and scipy.special when called.  It
builds no exact matrix and, unless it refuses, no Fraction: the residues
(df_residue_rows), the eigenvector matrix (df_eigenvector_rows) and the
Gauss parameters of the integrands are integer rows over one positive
denominator, each entry rounded once, and its domain is tested on the
cleared parameters.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (InputError, InternalInconsistency, OutsideDisc,
                     QuadratureError, SingularMatrixError)
from .exact import (RationalMatrix, cleared_complex_array,
                    common_denominator, rational_text, require_int,
                    to_double, to_fraction)
from .hgsystem import HGParams, build_okubo_system, build_diagonalizer, lam


@dataclass(frozen=True)
class DFParams:
    """Parameters (a, b, c, g) of the size-three system."""

    a: Fraction
    b: Fraction
    c: Fraction
    g: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c", "g"):
            object.__setattr__(self, name, to_fraction(getattr(self, name)))

    @cached_property
    def _cleared(self) -> tuple:
        """(a, b, c, g) as integer numerators over one positive
        denominator, cleared once and kept outside the fields the
        parameters are compared and hashed by."""
        return common_denominator((self.a, self.b, self.c, self.g))

    def induced_hg(self) -> HGParams:
        """The gamma-constrained hypergeometric parameters matched to
        (a, b, c, g): alpha1 = a, alpha2 = c, beta1 = -b, beta2 = a+b+c+g."""
        return HGParams.okubo(self.a, self.c, -self.b,
                              self.a + self.b + self.c + self.g)

    @classmethod
    def from_json(cls, data: dict) -> "DFParams":
        try:
            return cls(data["a"], data["b"], data["c"], data["g"])
        except KeyError as exc:
            raise InputError(f"missing parameter {exc}") from exc

    def to_json(self) -> dict:
        return {k: rational_text(getattr(self, k)) for k in "abcg"}


def df_residue_rows(params: DFParams) -> tuple:
    """The residue matrices (C0, C1) as (nums0, nums1, den): integer
    numerators row by row over the one positive denominator of the
    cleared parameters.  df_integral_solution rounds them."""
    (a, b, c, g), den = params._cleared
    return ([2 * a + 2 * c + g, 0, b,
             0, 0, 0,
             0, 2 * b + g, a + c],
            [0, 0, 0,
             0, 2 * b + 2 * c + g, a,
             2 * a + g, 0, b + c], den)


def df_residues(params: DFParams) -> tuple:
    """The residue matrices (C0, C1)."""
    *rows, den = df_residue_rows(params)
    return tuple(RationalMatrix.from_integers(nums, den) for nums in rows)


def shifted_eigenvalues(params: DFParams) -> dict:
    """Eigenvalue triples of the shifted residues and of their sum:
    C0-(a+c)I ~ diag(a+c+g, -a-c, 0), C1-(b+c)I ~ diag(b+c+g, -b-c, 0),
    C0+C1-(a+b+2c)I ~ diag(g, a+b+g, -a-b)."""
    a, b, c, g = params.a, params.b, params.c, params.g
    return {"at-0": (a + c + g, -a - c, Fraction(0)),
            "at-1": (b + c + g, -b - c, Fraction(0)),
            "sum": (g, a + b + g, -a - b)}


def euler_reduce(p: HGParams) -> tuple:
    """Reduce the Euler-shifted diagonalized system to size three.

    With mu = lam(--++) the shifted exponent matrix has a zero first
    diagonal entry, and both partial-fraction parts of the transformed
    system have an identically zero first column; the returned (K0, K1)
    are their lower-right 3x3 blocks.  They satisfy, exactly,

        K0 + K1 = diag(2 lam(--++), 2 lam(0-0+), 2 lam(-0+0)),

    with K0 ~ diag(beta1+beta2, -alpha1-alpha2, 0) and
    K1 ~ diag(beta2-alpha1, beta1-alpha2, 0).
    """
    _, system = build_okubo_system(p)
    r = build_diagonalizer(p)
    rinv = r.inverse()
    mu = lam(p, "--++")
    shifted = system.coeff + RationalMatrix.identity(4).scale(mu)
    top = RationalMatrix.diagonal([1, 1, 0, 0])
    bottom = RationalMatrix.diagonal([0, 0, 1, 1])
    part0 = r * top * shifted * rinv
    part1 = r * bottom * shifted * rinv
    for m, tag in ((part0, "x"), (part1, "x-1")):
        if any(m[i, 0] != 0 for i in range(4)):
            raise InternalInconsistency(
                f"first column of the {tag} part did not vanish")
    k0 = part0.block(1, 4, 1, 4)
    k1 = part1.block(1, 4, 1, 4)
    want = RationalMatrix.diagonal(
        [2 * lam(p, "--++"), 2 * lam(p, "0-0+"), 2 * lam(p, "-0+0")])
    if k0 + k1 != want:
        raise InternalInconsistency("K0 + K1 is not the shifted exponent "
                                    "diagonal")
    return k0, k1


def df_eigenvector_rows(params: DFParams) -> tuple:
    """The matrix of df_eigenvector_matrix as (nums, den): integer
    numerators row by row over one positive denominator.  A vanishing
    2a+2b+g or 2a+g is a SingularMatrixError.  df_integral_solution
    rounds them."""
    (a, b, _, g), den = params._cleared
    s, t, u = 2 * a + 2 * b + g, 2 * a + g, 2 * b + g
    for name, value in (("2a+2b+g", s), ("2a+g", t)):
        if value == 0:
            raise SingularMatrixError(f"denominator {name} vanishes",
                                      {"factor": name})
    # every entry times den t s, with 2a+2b+g = s/den, 2a+g = t/den and
    # 2b+g = u/den; q becomes -a(a+b+g) t
    q = -a * (a + b + g) * t
    nums = [-b * t * s, q, -b * u * (a + b),
            a * t * s, q, -a * t * (a + b),
            (a - b) * t * s, 2 * q, t * u * (a + b)]
    if t * s < 0:
        # a positive denominator, so that a zero entry rounds to 0.0
        return [-x for x in nums], -den * t * s
    return nums, den * t * s


def df_eigenvector_matrix(params: DFParams) -> RationalMatrix:
    """The right-eigenvector matrix Q of C0 + C1 - (a+b+2c) I, the constant
    3x3 factor in front of the integral vector.

    Columns are scaled by (1, q, r) with q = -a(a+b+g)/(2a+2b+g) and
    r = (a+b) / ((2a+g)(2a+2b+g)), which makes the conjugation split
    over the two residues separately.
    """
    return RationalMatrix.from_integers(*df_eigenvector_rows(params))


def transition_half_sum_form(p: HGParams) -> RationalMatrix:
    """The same eigenvector matrix written in half-sums of the matched
    hypergeometric parameters."""
    l = lambda s: lam(p, s)
    return RationalMatrix([
        [2 * l("00+0"), 2 * l("+000") * l("0+0-") / l("+--+"),
         -2 * l("00+0") * l("+0-0") * l("+++-") / (l("+--+") * l("+-++"))],
        [2 * l("+000"), 2 * l("+000") * l("0+0-") / l("+--+"),
         -2 * l("+000") * l("+0-0") / l("+--+")],
        [2 * l("+0+0"), 4 * l("+000") * l("0+0-") / l("+--+"),
         -2 * l("+0-0") * l("+++-") / l("+--+")]])


@dataclass(frozen=True)
class DFTransformReport:
    """The verdict, the mismatching entries, and the reduced residues
    (K0, K1) the conjugation was checked on (not part of the JSON)."""

    verdict: bool
    mismatches: tuple
    reduced: tuple

    def to_json(self) -> dict:
        return {"verdict": self.verdict,
                "mismatches": [{"part": part, "entry": [i, j],
                                "got": rational_text(got),
                                "want": rational_text(want)}
                               for part, i, j, got, want in self.mismatches]}


def check_df_transformation(params: DFParams) -> DFTransformReport:
    """Verify that the scalar-gauged conjugation carries (K0, K1) into
    (C0, C1): Q K0 Q^{-1} + (a+c) I = C0 and Q K1 Q^{-1} + (b+c) I = C1,
    with the gauge exponents a+c = 2 lam(++00), b+c = 2 lam(0+-0).
    """
    a, b, c = params.a, params.b, params.c
    hg = params.induced_hg()
    if 2 * lam(hg, "++00") != a + c or 2 * lam(hg, "0+-0") != b + c:
        raise InternalInconsistency("gauge exponents do not reduce to "
                                    "a+c and b+c")
    q = df_eigenvector_matrix(params)
    if q != transition_half_sum_form(hg):
        raise InternalInconsistency("half-sum form of the eigenvector "
                                    "matrix disagrees")
    qinv = q.inverse()
    k0, k1 = euler_reduce(hg)
    c0, c1 = df_residues(params)
    ident = RationalMatrix.identity(3)
    mismatches = []
    for part, k, shift, target in (("at-0", k0, a + c, c0),
                                   ("at-1", k1, b + c, c1)):
        got = q * k * qinv + ident.scale(shift)
        if got != target:
            for i in range(3):
                for j in range(3):
                    if got[i, j] != target[i, j]:
                        mismatches.append((part, i, j, got[i, j],
                                           target[i, j]))
    return DFTransformReport(not mismatches, tuple(mismatches), (k0, k1))


# --------------------------------------------------------------------------
# the integral solution
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DFSolutionReport:
    integrals: tuple
    z: tuple
    residual: float
    nodes: int
    refinement_difference: float

    def to_json(self) -> dict:
        cf = lambda z: [format(z.real, ".17g"), format(z.imag, ".17g")]
        return {"integrals": [cf(v) for v in self.integrals],
                "z": [cf(v) for v in self.z],
                "residual": format(self.residual, ".17g"),
                "nodes": self.nodes,
                "refinement_difference":
                    format(self.refinement_difference, ".17g")}


def _integrand_factors(params: DFParams) -> tuple:
    """Gauss-series parameter pairs of the three integrands, with
    gamma = a+c+g/2+1:

        (a, 1-b, gamma) (c, a+b+c+g+1, gamma),
        (a+1, -b, gamma) (c, a+b+c+g+1, gamma),
        (a, 1-b, gamma) (c+1, a+b+c+g, gamma),

    as (pairs, den): integer triples over the one positive denominator
    twice that of the cleared parameters."""
    (a, b, c, g), den = params._cleared
    # over 2 den: a -> 2a, g/2 -> g and 1 -> 2 den
    a, b, c, one = 2 * a, 2 * b, 2 * c, 2 * den
    gamma = a + c + g + one
    upper = a + b + c + 2 * g
    return [((a, one - b, gamma), (c, upper + one, gamma)),
            ((a + one, -b, gamma), (c, upper + one, gamma)),
            ((a, one - b, gamma), (c + one, upper, gamma))], one


def _jacobi_rule(params: DFParams, nodes: int) -> tuple:
    """Nodes s on [0, 1] and weights w of the Gauss-Jacobi rule for the
    weight (1-s)^(g/2-1) s^(a+c+g/2), before its factor 2^(-alpha-beta-1)."""
    import numpy as np
    from scipy.special import roots_jacobi

    a, c, g = to_double(params.a), to_double(params.c), to_double(params.g)
    # at alpha + beta = -1 (a + c + g = 0) scipy evaluates both branches
    # of an np.where, one of them 0/0, and warns for a finite rule
    with np.errstate(divide="ignore", invalid="ignore"):
        u, w = roots_jacobi(nodes, g / 2 - 1, a + c + g / 2)
    if not (np.isfinite(u).all() and np.isfinite(w).all()):
        raise QuadratureError("Gauss-Jacobi rule is not finite",
                              {"nodes": nodes, "alpha": g / 2 - 1,
                               "beta": a + c + g / 2})
    return (1 + u) / 2, w


def _integrals(params: DFParams, points: list):
    """The three Euler integrals over [0, x] by Gauss-Jacobi quadrature,
    one row per ``(x, s, w)`` of ``points`` (a point and its rule), with
    the Gauss factors summed to 160 terms.

    After t = x s the weight is (1-s)^(g/2-1) s^(a+c+g/2); the constant
    phase of (t-x)^(g/2-1) on the segment is kept explicitly.  Each
    distinct Gauss factor is summed once over the nodes of every point.
    """
    import numpy as np
    from .series import _power

    a, c, g = to_double(params.a), to_double(params.c), to_double(params.g)
    alpha = g / 2 - 1        # exponent at s = 1
    beta = a + c + g / 2     # exponent at s = 0
    scale = 2.0 ** (-alpha - beta - 1)
    phase = np.exp(1j * np.pi * (g / 2 - 1))
    pairs, den = _integrand_factors(params)
    distinct = list(dict.fromkeys(par for pair in pairs for par in pair))
    gauss = _gauss_on_nodes(distinct,
                            np.concatenate([x * s for x, s, _ in points]),
                            160, den)
    rows = [(distinct.index(par1), distinct.index(par2))
            for par1, par2 in pairs]
    out = np.empty((len(points), 3), dtype=complex)
    start = 0
    for j, (x, s, w) in enumerate(points):
        at = slice(start, start + len(s))
        start = at.stop
        power = _power(x, a + c + g)
        for k, (i1, i2) in enumerate(rows):
            out[j, k] = phase * power * scale * np.sum(
                w * gauss[i1, at] * gauss[i2, at])
    return out


def _gauss_on_nodes(pars: list, t, terms: int, den: int):
    """Truncated Gauss series of each parameter triple (integer numerators
    over the positive ``den``) at the real nodes t, one row per triple:
    one series._gauss_table call for the coefficients, then one Horner
    pass updated in place.

    The triples are rational, so the coefficients are real float64: the
    pass runs in float64, which rounds as a complex pass would, and its
    result is returned as complex, so that the sums over the nodes are
    complex sums (a real and a complex sum can differ in the last bit).
    """
    import numpy as np
    from .series import _gauss_table

    coeffs = _gauss_table(pars, terms, den)
    acc = np.zeros((len(pars), len(t)))
    for ck in coeffs[:, ::-1].T:
        acc *= t
        acc += ck[:, None]
    return acc.astype(complex)


def _prefactor(params: DFParams, x: float) -> complex:
    """x^(a+c) (x-1)^(b+c), the factor of z = x^(a+c) (x-1)^(b+c) M I at
    one point; OutsideDisc where a power leaves the double range."""
    import numpy as np
    from .series import _power

    b, c = to_double(params.b), to_double(params.c)
    return (_power(x, to_double(params.a) + c)
            * np.exp(1j * np.pi * (b + c)) * _power(1 - x, b + c))


def df_integral_solution(params: DFParams, x: float,
                         nodes: int = 128) -> DFSolutionReport:
    """Evaluate the integral solution at 0 < x < 1 and report its defect
    in dz/dx = (C0/x + C1/(x-1)) z: `df_integral_solutions` at the one
    point x."""
    return df_integral_solutions(params, (x,), nodes)[0]


def df_integral_solutions(params: DFParams, xs: tuple,
                          nodes: int = 128) -> tuple:
    """Evaluate the integral solution at each 0 < x < 1 of ``xs`` and
    report its defect in dz/dx = (C0/x + C1/(x-1)) z, one DFSolutionReport
    per point, in order.

    The integrals run over the segment from 0 to x with the Euler shift
    g/2, by Gauss-Jacobi quadrature on ``nodes`` (at least 4) and on twice
    as many nodes.  Requires g/2 > 0 and a+c+g/2+1 > 0 (endpoint
    integrability).  The quadrature is accepted when doubling the node
    count moves the integrals by less than 1e-8 relative; the derivative
    is a five-point central difference with step 1e-4 x(1-x), its four
    points on the finer rule.  The two rules depend on the parameters and
    the node count alone, so each is built once for all the points, and
    one Horner pass sums the Gauss factors over the nodes of all six
    evaluations of every point; each point's numbers are those it gets
    alone.

    A power of x or 1-x that overflows, and a solution whose size
    |x^(a+c) (1-x)^(b+c)| max|I| falls below the smallest normal double
    (where z would read as zero), are OutsideDisc.  The inputs, every x
    included, are checked first; then each point in order is checked for
    refinement and size before any solution is formed, so a refusal
    there is the first failing point's.
    """
    import numpy as np

    if require_int(nodes, "nodes") < 4:
        raise InputError("need at least 4 quadrature nodes", {"nodes": nodes})
    for x in xs:
        if not 0 < x < 1:
            raise InputError("x must lie in (0, 1)", {"x": x})
    # the domain tests on the cleared parameters (a, c, g over den > 0)
    (a, _, c, g), den = params._cleared
    if not g > 0:
        raise InputError("need g/2 > 0", {"g/2": params.g / 2})
    if not 2 * (a + c + den) + g > 0:
        raise InputError("need a+c+g/2+1 > 0",
                         {"a+c+g/2+1": params.a + params.c + params.g / 2 + 1})
    coarse_rule = _jacobi_rule(params, nodes)
    fine_rule = _jacobi_rule(params, 2 * nodes)
    steps = [1e-4 * x * (1 - x) for x in xs]
    stencils = [[x - 2 * h, x - h, x + h, x + 2 * h]
                for x, h in zip(xs, steps)]
    rows = _integrals(params, [
        point for x, stencil in zip(xs, stencils)
        for point in [(x, *coarse_rule), (x, *fine_rule)]
        + [(xx, *fine_rule) for xx in stencil]])
    # each point's six rows: coarse and fine at x, then its stencil
    per_point = [rows[j:j + 6] for j in range(0, len(rows), 6)]
    checked = []
    for x, (coarse, fine, *_) in zip(xs, per_point):
        denom = max(1.0, float(np.max(np.abs(fine))))
        diff = float(np.max(np.abs(fine - coarse))) / denom
        if diff > 1e-8:
            raise QuadratureError(
                "quadrature refinements disagree", {"difference": diff})
        prefactor = _prefactor(params, x)
        magnitude = abs(prefactor) * float(np.max(np.abs(fine)))
        if magnitude < sys.float_info.min:
            raise OutsideDisc("the integral solution underflows the double "
                              "range", {"x": x, "magnitude": magnitude})
        checked.append((diff, prefactor))

    m = cleared_complex_array(*df_eigenvector_rows(params), 3)
    *residues, den = df_residue_rows(params)
    c0, c1 = (cleared_complex_array(nums, den, 3) for nums in residues)
    reports = []
    for x, h, stencil, (_, fine, *at_stencil), (diff, prefactor) in zip(
            xs, steps, stencils, per_point, checked):
        zs = [_prefactor(params, xx) * (m @ v)
              for xx, v in zip(stencil, at_stencil)]
        dz = (zs[0] - 8 * zs[1] + 8 * zs[2] - zs[3]) / (12 * h)
        z0 = prefactor * (m @ fine)
        rhs = (c0 / x + c1 / (x - 1)) @ z0
        residual = float(np.max(np.abs(dz - rhs)))
        reports.append(DFSolutionReport(tuple(fine), tuple(z0), residual,
                                        2 * nodes, diff))
    return tuple(reports)
