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
evaluation builds one rule per node count and sums the four distinct
Gauss factors of the three integrands in one Horner pass over the nodes
of every point it needs (two refinements and a four-point stencil), in
real arithmetic, since the parameters are rational and the nodes real.
The branch factors (t-x)^(g/2-1) and (x-1)^(b+c) for 0 < x < 1 are taken as
e^(i pi (g/2-1)) (x-t)^(g/2-1) and e^(i pi (b+c)) (1-x)^(b+c) with real
positive bases; both are constant phases, which a linear system cannot
see, so the residual check is branch-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (InputError, InternalInconsistency, QuadratureError,
                     SingularMatrixError)
from .exact import RationalMatrix, to_fraction
from .hgsystem import HGParams, build_okubo_system, build_diagonalizer, lam
from .series import gauss_coefficients


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
        return {"a": str(self.a), "b": str(self.b),
                "c": str(self.c), "g": str(self.g)}


def df_residues(params: DFParams) -> tuple:
    """The residue matrices (C0, C1)."""
    a, b, c, g = params.a, params.b, params.c, params.g
    c0 = RationalMatrix([
        [2 * a + 2 * c + g, 0, b],
        [0, 0, 0],
        [0, 2 * b + g, a + c]])
    c1 = RationalMatrix([
        [0, 0, 0],
        [0, 2 * b + 2 * c + g, a],
        [2 * a + g, 0, b + c]])
    return c0, c1


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


def df_eigenvector_matrix(params: DFParams, p_scale=Fraction(1)) -> RationalMatrix:
    """The right-eigenvector matrix Q of C0 + C1 - (a+b+2c) I.

    Columns are scaled by (p, q, r) with q = -a(a+b+g)/(2a+2b+g) p and
    r = (a+b) / ((2a+g)(2a+2b+g)) p, which makes the conjugation split
    over the two residues separately.
    """
    a, b, g = params.a, params.b, params.g
    p_scale = to_fraction(p_scale)
    if p_scale == 0:
        raise InputError("p_scale must be nonzero")
    for name, value in (("2a+2b+g", 2 * a + 2 * b + g), ("2a+g", 2 * a + g)):
        if value == 0:
            raise SingularMatrixError(f"denominator {name} vanishes",
                                      {"factor": name})
    q = -a * (a + b + g) / (2 * a + 2 * b + g) * p_scale
    r = (a + b) / ((2 * a + g) * (2 * a + 2 * b + g)) * p_scale
    return RationalMatrix([
        [-b * p_scale, q, -b * (2 * b + g) * r],
        [a * p_scale, q, -a * (2 * a + g) * r],
        [(a - b) * p_scale, 2 * q, (2 * a + g) * (2 * b + g) * r]])


def transition_half_sum_form(p: HGParams) -> RationalMatrix:
    """The same eigenvector matrix written in half-sums of the matched
    hypergeometric parameters (p_scale = 1)."""
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
    verdict: bool
    mismatches: tuple

    def to_json(self) -> dict:
        return {"verdict": self.verdict,
                "mismatches": [{"part": part, "entry": [i, j],
                                "got": str(got), "want": str(want)}
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
    return DFTransformReport(not mismatches, tuple(mismatches))


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


def solution_matrix(params: DFParams) -> RationalMatrix:
    """The constant 3x3 factor in front of the integral vector (the
    eigenvector matrix with unit scale)."""
    return df_eigenvector_matrix(params, Fraction(1))


def _integrand_factors(params: DFParams) -> list:
    """Gauss-series parameter pairs of the three integrands."""
    a, b, c, g = params.a, params.b, params.c, params.g
    gamma = a + c + g / 2 + 1
    return [((a, -b + 1, gamma), (c, a + b + c + g + 1, gamma)),
            ((a + 1, -b, gamma), (c, a + b + c + g + 1, gamma)),
            ((a, -b + 1, gamma), (c + 1, a + b + c + g, gamma))]


def _jacobi_rule(params: DFParams, nodes: int) -> tuple:
    """Nodes s on [0, 1] and weights w of the Gauss-Jacobi rule for the
    weight (1-s)^(g/2-1) s^(a+c+g/2), before its factor 2^(-alpha-beta-1)."""
    # scipy.special costs more to import than the rest of the package;
    # only the quadrature needs it
    from scipy.special import roots_jacobi

    a, c, g = float(params.a), float(params.c), float(params.g)
    u, w = roots_jacobi(nodes, g / 2 - 1, a + c + g / 2)
    return (1 + u) / 2, w


def _integrals(params: DFParams, points: list, terms: int = 160) -> np.ndarray:
    """The three Euler integrals over [0, x] by Gauss-Jacobi quadrature,
    one row per ``(x, s, w)`` of ``points`` (a point and its rule).

    After t = x s the weight is (1-s)^(g/2-1) s^(a+c+g/2); the constant
    phase of (t-x)^(g/2-1) on the segment is kept explicitly.  Each
    distinct Gauss factor is summed once over the nodes of every point.
    """
    a, c, g = float(params.a), float(params.c), float(params.g)
    alpha = g / 2 - 1        # exponent at s = 1
    beta = a + c + g / 2     # exponent at s = 0
    scale = 2.0 ** (-alpha - beta - 1)
    phase = np.exp(1j * np.pi * (g / 2 - 1))
    pairs = _integrand_factors(params)
    distinct = list(dict.fromkeys(par for pair in pairs for par in pair))
    gauss = _gauss_on_nodes(distinct,
                            np.concatenate([x * s for x, s, _ in points]),
                            terms)
    rows = [(distinct.index(par1), distinct.index(par2))
            for par1, par2 in pairs]
    out = np.empty((len(points), 3), dtype=complex)
    start = 0
    for j, (x, s, w) in enumerate(points):
        at = slice(start, start + len(s))
        start = at.stop
        power = x ** (a + c + g)
        for k, (i1, i2) in enumerate(rows):
            out[j, k] = phase * power * scale * np.sum(
                w * gauss[i1, at] * gauss[i2, at])
    return out


def _gauss_on_nodes(pars: list, t: np.ndarray, terms: int) -> np.ndarray:
    """Truncated Gauss series of each parameter triple at the real nodes
    t, one row per triple, by one Horner pass updated in place.

    The triples are rational, so the coefficients are real: the pass runs
    in float64 on their real parts, which rounds as the complex pass did,
    and its result is returned as complex, so that the sums over the nodes
    round as they did too (a real and a complex sum can differ in the last
    bit).
    """
    coeffs = np.array([gauss_coefficients(*par, terms).real for par in pars])
    acc = np.zeros((len(pars), len(t)))
    for ck in coeffs[:, ::-1].T:
        acc *= t
        acc += ck[:, None]
    return acc.astype(complex)


def _assemble(params: DFParams, m: np.ndarray, x: float,
              integrals: np.ndarray) -> np.ndarray:
    """z = x^(a+c) (x-1)^(b+c) M I at one point."""
    b, c = float(params.b), float(params.c)
    prefactor = (x ** (float(params.a) + c)
                 * np.exp(1j * np.pi * (b + c)) * (1 - x) ** (b + c))
    return prefactor * (m @ integrals)


def df_solution_at(params: DFParams, x: float, nodes: int,
                   terms: int = 160) -> tuple:
    """(z, integrals) of the assembled solution at one point 0 < x < 1."""
    if not 0 < x < 1:
        raise InputError("x must lie in (0, 1)", {"x": x})
    s, w = _jacobi_rule(params, nodes)
    integrals = _integrals(params, [(x, s, w)], terms)[0]
    m = solution_matrix(params).to_complex()
    return _assemble(params, m, x, integrals), integrals


def df_integral_solution(params: DFParams, x: float,
                         nodes: int = 128) -> DFSolutionReport:
    """Evaluate the integral solution at 0 < x < 1 and report its defect
    in dz/dx = (C0/x + C1/(x-1)) z.

    The integrals run over the segment from 0 to x with the Euler shift
    g/2, by Gauss-Jacobi quadrature on ``nodes`` (at least 4) and on twice
    as many nodes.  Requires g/2 > 0 and a+c+g/2+1 > 0 (endpoint
    integrability).  The quadrature is accepted when doubling the node
    count moves the integrals by less than 1e-8 relative; the derivative
    is a five-point central difference with step 1e-4 x(1-x), its four
    points on the finer rule.  Each rule is built once, and one Horner
    pass sums the Gauss factors over the nodes of all six points.
    """
    if nodes < 4:
        raise InputError("need at least 4 quadrature nodes", {"nodes": nodes})
    if not 0 < x < 1:
        raise InputError("x must lie in (0, 1)", {"x": x})
    if not params.g / 2 > 0:
        raise InputError("need g/2 > 0", {"g/2": params.g / 2})
    if not params.a + params.c + params.g / 2 + 1 > 0:
        raise InputError("need a+c+g/2+1 > 0",
                         {"a+c+g/2+1": params.a + params.c + params.g / 2 + 1})
    coarse_rule = _jacobi_rule(params, nodes)
    fine_rule = _jacobi_rule(params, 2 * nodes)
    h = 1e-4 * x * (1 - x)
    stencil = [x - 2 * h, x - h, x + h, x + 2 * h]
    coarse, fine, *at_stencil = _integrals(
        params, [(x, *coarse_rule), (x, *fine_rule)]
        + [(xx, *fine_rule) for xx in stencil])
    denom = max(1.0, float(np.max(np.abs(fine))))
    diff = float(np.max(np.abs(fine - coarse))) / denom
    if diff > 1e-8:
        raise QuadratureError(
            "quadrature refinements disagree", {"difference": diff})

    m = solution_matrix(params).to_complex()
    zs = [_assemble(params, m, xx, v) for xx, v in zip(stencil, at_stencil)]
    dz = (zs[0] - 8 * zs[1] + 8 * zs[2] - zs[3]) / (12 * h)
    z0 = _assemble(params, m, x, fine)
    c0, c1 = df_residues(params)
    rhs = (c0.to_complex() / x + c1.to_complex() / (x - 1)) @ z0
    residual = float(np.max(np.abs(dz - rhs)))
    return DFSolutionReport(tuple(fine), tuple(z0), residual,
                            2 * nodes, diff)
