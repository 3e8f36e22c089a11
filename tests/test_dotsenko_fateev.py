"""Size-three reduction and the integral solution.

The quadrature is cross-checked with scipy's adaptive algebraic-weight
integrator, an implementation entirely independent of the Gauss-Jacobi
rule used by the package, and against a per-point reference that builds
a rule for every integral and sums every Gauss factor on its own: the
batched evaluation must reproduce it bit for bit.
"""

import random
from fractions import Fraction as F

import numpy as np
import pytest
import scipy.special
from scipy import integrate
from scipy.special import roots_jacobi

from okubo import dotsenko_fateev as df
from okubo.dotsenko_fateev import (DFParams, DFTransformReport,
                                   DFSolutionReport, _gauss_on_nodes,
                                   _integrand_factors,
                                   check_df_transformation,
                                   df_eigenvector_matrix, df_integral_solution,
                                   df_residues, df_solution_at, euler_reduce,
                                   shifted_eigenvalues, solution_matrix,
                                   transition_half_sum_form)
from okubo.errors import InputError, QuadratureError, SingularMatrixError
from okubo.exact import Poly, RationalMatrix
from okubo.hgsystem import lam
from okubo.sampling import draw_df_params
from okubo.series import gauss_coefficients
from okubo.verify import CriterionFailed, check_df_integral_residual

PARAMS = DFParams(F(1, 3), F(1, 5), F(1, 7), F(1, 11))
QUAD_PARAMS = DFParams(F(1, 3), F(1, 5), F(1, 7), F(1, 2))


def charpoly_of_roots(roots):
    poly = Poly.constant(1)
    for r in roots:
        poly = poly * Poly([-r, 1])
    return poly


def test_residue_entries():
    c0, c1 = df_residues(PARAMS)
    a, b, c, g = PARAMS.a, PARAMS.b, PARAMS.c, PARAMS.g
    assert c0[0, 0] == 2 * a + 2 * c + g
    assert all(c1[0, j] == 0 for j in range(3))
    ident = RationalMatrix.identity(3)
    shifts = shifted_eigenvalues(PARAMS)
    assert (c0 + c1 - ident.scale(a + b + 2 * c)).char_poly() == \
        charpoly_of_roots(shifts["sum"])
    assert (c0 - ident.scale(a + c)).char_poly() == \
        charpoly_of_roots(shifts["at-0"])
    assert (c1 - ident.scale(b + c)).char_poly() == \
        charpoly_of_roots(shifts["at-1"])


def test_parameter_matching_identities():
    hg = PARAMS.induced_hg()
    a, c, g = PARAMS.a, PARAMS.c, PARAMS.g
    assert hg.alpha1 == a and hg.beta1 == -PARAMS.b
    assert hg.gamma1 == a + c + g / 2 + 1
    assert lam(hg, "--++") == g / 2
    assert -lam(hg, "++--") == g / 2
    assert 2 * lam(hg, "++00") == a + c
    assert 2 * lam(hg, "0+-0") == PARAMS.b + c


def test_euler_reduction_blocks():
    hg = PARAMS.induced_hg()
    k0, k1 = euler_reduce(hg)
    want = RationalMatrix.diagonal([2 * lam(hg, "--++"),
                                    2 * lam(hg, "0-0+"),
                                    2 * lam(hg, "-0+0")])
    assert k0 + k1 == want
    assert k0.char_poly() == charpoly_of_roots(
        [hg.beta1 + hg.beta2, -hg.alpha1 - hg.alpha2, F(0)])
    assert k1.char_poly() == charpoly_of_roots(
        [hg.beta2 - hg.alpha1, hg.beta1 - hg.alpha2, F(0)])


def test_eigenvector_matrix():
    a, b, g = PARAMS.a, PARAMS.b, PARAMS.g
    q = df_eigenvector_matrix(PARAMS, F(3))
    assert [q[i, 0] for i in range(3)] == [-b * 3, a * 3, (a - b) * 3]
    # scaling the free constant scales the whole matrix
    assert q == df_eigenvector_matrix(PARAMS).scale(3)
    c0, c1 = df_residues(PARAMS)
    ident = RationalMatrix.identity(3)
    shifted = c0 + c1 - ident.scale(a + b + 2 * PARAMS.c)
    conj = q.inverse() * shifted * q
    assert conj == RationalMatrix.diagonal([g, a + b + g, -(a + b)])
    assert df_eigenvector_matrix(PARAMS) == \
        transition_half_sum_form(PARAMS.induced_hg())


def test_eigenvector_matrix_denominator_errors():
    with pytest.raises(SingularMatrixError) as err:
        df_eigenvector_matrix(DFParams(F(1, 4), F(1, 5), F(1, 7), F(-1, 2)))
    assert "2a+g" in str(err.value)
    with pytest.raises(InputError):
        df_eigenvector_matrix(PARAMS, 0)


def test_transformation_check():
    report = check_df_transformation(PARAMS)
    assert isinstance(report, DFTransformReport)
    assert report.verdict and not report.mismatches
    assert report.to_json()["verdict"] is True


def test_transformation_check_on_draws():
    rng = random.Random(17)
    for _ in range(5):
        assert check_df_transformation(draw_df_params(rng)).verdict


def test_solution_matrix_and_integrand_parameters():
    m = solution_matrix(QUAD_PARAMS)
    assert m[1, 0] == QUAD_PARAMS.a
    a, b, c, g = (QUAD_PARAMS.a, QUAD_PARAMS.b, QUAD_PARAMS.c, QUAD_PARAMS.g)
    gamma = a + c + g / 2 + 1
    factors = _integrand_factors(QUAD_PARAMS)
    assert factors[0] == ((a, -b + 1, gamma), (c, a + b + c + g + 1, gamma))
    assert factors[1] == ((a + 1, -b, gamma), (c, a + b + c + g + 1, gamma))
    assert factors[2] == ((a, -b + 1, gamma), (c + 1, a + b + c + g, gamma))


def test_integral_solution_residual():
    report = df_integral_solution(QUAD_PARAMS, 0.4)
    assert report.residual <= 1e-6
    assert report.refinement_difference <= 1e-8


def test_integral_against_adaptive_quadrature():
    # independent oracle: quadpack with algebraic endpoint weights
    params = QUAD_PARAMS
    x = 0.35
    a, c, g = float(params.a), float(params.c), float(params.g)
    grid_z, integrals = df_solution_at(params, x, 128)
    weight = (a + c + g / 2, g / 2 - 1)  # (s^beta at 0, (1-s)^alpha at 1)
    for k, (par1, par2) in enumerate(_integrand_factors(params)):
        c1s = gauss_coefficients(*par1, 200)
        c2s = gauss_coefficients(*par2, 200)

        def smooth(s):
            t = x * s
            f1 = sum(ck.real * t ** n for n, ck in enumerate(c1s))
            f2 = sum(ck.real * t ** n for n, ck in enumerate(c2s))
            return f1 * f2

        val, _ = integrate.quad(smooth, 0, 1, weight="alg",
                                wvar=weight, limit=200)
        phase = np.exp(1j * np.pi * (g / 2 - 1))
        want = phase * x ** (a + c + g) * val
        assert abs(integrals[k] - want) < 1e-10 * max(1.0, abs(want))


def test_node_insensitivity_of_assembled_solution():
    params = QUAD_PARAMS
    x = 0.45
    z1, _ = df_solution_at(params, x, 96)
    z2, _ = df_solution_at(params, x, 192)
    assert np.max(np.abs(z1 - z2)) < 1e-10


def test_contour_reparametrization_invariance():
    # same segment, different parametrization: t = x u^2 instead of t = x s.
    # The weight becomes (1-u)^(g/2-1) u^(2(a+c+g/2)+1) with the smooth
    # factor 2 (1+u)^(g/2-1) F(x u^2); branch and prefactor conventions
    # must make the assembled integrals agree.
    params = QUAD_PARAMS
    x = 0.4
    a, c, g = float(params.a), float(params.c), float(params.g)
    alpha = g / 2 - 1
    beta = a + c + g / 2
    nodes, weights = roots_jacobi(160, alpha, 2 * beta + 1)
    u = (1 + nodes) / 2
    scale = 2.0 ** (-alpha - (2 * beta + 1) - 1)
    phase = np.exp(1j * np.pi * (g / 2 - 1))
    power = x ** (a + c + g)
    _, direct = df_solution_at(params, x, 160)
    for k, (par1, par2) in enumerate(_integrand_factors(params)):
        f1, f2 = _gauss_on_nodes([par1, par2], x * u * u, 200)
        smooth = 2 * (1 + u) ** alpha * f1 * f2
        reparam = phase * power * scale * np.sum(weights * smooth)
        assert abs(reparam - direct[k]) < 1e-10 * max(1.0, abs(direct[k]))


def test_integral_solution_input_errors():
    with pytest.raises(InputError):
        df_integral_solution(QUAD_PARAMS, 1.2)
    bad = DFParams(F(1, 3), F(1, 5), F(1, 7), F(-1, 2))
    with pytest.raises(InputError):
        df_integral_solution(bad, 0.4)
    deep = DFParams(F(-3), F(1, 5), F(1, 7), F(1, 2))
    with pytest.raises(InputError):
        df_integral_solution(deep, 0.4)  # a+c+g/2+1 < 0
    with pytest.raises(InputError):
        df_integral_solution(QUAD_PARAMS, 0.4, nodes=2)


def test_report_serialization():
    report = df_integral_solution(QUAD_PARAMS, 0.3)
    data = report.to_json()
    assert len(data["integrals"]) == 3 and len(data["z"]) == 3
    assert float(data["residual"]) <= 1e-6


# --------------------------------------------------------------------------
# the per-point reference: a rule for every integral, every factor alone
# --------------------------------------------------------------------------

def reference_gauss(par, t, terms):
    coeffs = gauss_coefficients(*par, terms)
    acc = np.zeros_like(t, dtype=complex)
    for ck in coeffs[::-1]:
        acc = acc * t + ck
    return acc


def reference_integrals(params, x, nodes, terms=160):
    a, c, g = float(params.a), float(params.c), float(params.g)
    alpha = g / 2 - 1
    beta = a + c + g / 2
    u, w = roots_jacobi(nodes, alpha, beta)
    s = (1 + u) / 2
    t = x * s
    scale = 2.0 ** (-alpha - beta - 1)
    phase = np.exp(1j * np.pi * (g / 2 - 1))
    power = x ** (a + c + g)
    out = np.empty(3, dtype=complex)
    for k, (par1, par2) in enumerate(_integrand_factors(params)):
        f1 = reference_gauss(par1, t, terms)
        f2 = reference_gauss(par2, t, terms)
        out[k] = phase * power * scale * np.sum(w * f1 * f2)
    return out


def reference_solution_at(params, x, nodes):
    b, c = float(params.b), float(params.c)
    integrals = reference_integrals(params, x, nodes)
    prefactor = (x ** (float(params.a) + c)
                 * np.exp(1j * np.pi * (b + c)) * (1 - x) ** (b + c))
    m = solution_matrix(params).to_complex()
    return prefactor * (m @ integrals), integrals


def reference_integral_solution(params, x, nodes=128):
    if nodes < 4:
        raise InputError("need at least 4 quadrature nodes", {"nodes": nodes})
    if not 0 < x < 1:
        raise InputError("x must lie in (0, 1)", {"x": x})
    if not params.g / 2 > 0:
        raise InputError("need g/2 > 0", {"g/2": params.g / 2})
    if not params.a + params.c + params.g / 2 + 1 > 0:
        raise InputError("need a+c+g/2+1 > 0",
                         {"a+c+g/2+1": params.a + params.c + params.g / 2 + 1})
    coarse = reference_integrals(params, x, nodes)
    fine = reference_integrals(params, x, 2 * nodes)
    denom = max(1.0, float(np.max(np.abs(fine))))
    diff = float(np.max(np.abs(fine - coarse))) / denom
    if diff > 1e-8:
        raise QuadratureError(
            "quadrature refinements disagree", {"difference": diff})
    h = 1e-4 * x * (1 - x)
    stencil = [x - 2 * h, x - h, x + h, x + 2 * h]
    zs = [reference_solution_at(params, xx, 2 * nodes)[0] for xx in stencil]
    dz = (zs[0] - 8 * zs[1] + 8 * zs[2] - zs[3]) / (12 * h)
    z0, integrals = reference_solution_at(params, x, 2 * nodes)
    c0, c1 = df_residues(params)
    rhs = (c0.to_complex() / x + c1.to_complex() / (x - 1)) @ z0
    residual = float(np.max(np.abs(dz - rhs)))
    return DFSolutionReport(tuple(integrals), tuple(z0), residual,
                            2 * nodes, diff)


def outcome(fn, params, x):
    """The report, or the type, message and context of the error."""
    try:
        return fn(params, x)
    except (InputError, QuadratureError) as exc:
        return type(exc), exc.message, exc.context


def assert_same_report(got, want):
    assert isinstance(got, DFSolutionReport)
    for field in ("integrals", "z", "residual", "nodes",
                  "refinement_difference"):
        assert getattr(got, field) == getattr(want, field), field


@pytest.mark.parametrize("x", [0.3, 0.4, 0.5])
def test_batched_quadrature_is_bit_identical_to_per_point(x):
    assert_same_report(df_integral_solution(QUAD_PARAMS, x),
                       reference_integral_solution(QUAD_PARAMS, x))


def test_batched_quadrature_is_bit_identical_on_draws():
    # |g| keeps most draws inside the domain; draw 10 of this seed is a
    # recorded D4 miss, where the two refinements disagree
    rng = random.Random(8)
    kinds = []
    for _ in range(20):
        params = draw_df_params(rng)
        params = DFParams(params.a, params.b, params.c, abs(params.g))
        x = rng.uniform(0.01, 0.99)
        got = outcome(df_integral_solution, params, x)
        want = outcome(reference_integral_solution, params, x)
        if isinstance(want, DFSolutionReport):
            assert_same_report(got, want)
        else:
            assert got == want
        kinds.append(want[0] if isinstance(want, tuple) else DFSolutionReport)
    assert kinds.count(QuadratureError) == 1
    assert kinds.count(DFSolutionReport) >= 12


# --------------------------------------------------------------------------
# the real Horner pass against the complex one
# --------------------------------------------------------------------------

def reference_gauss_on_nodes(pars, t, terms):
    """The one-pass Horner sweep in complex arithmetic."""
    coeffs = np.array([gauss_coefficients(*par, terms) for par in pars])
    acc = np.zeros((len(pars), len(t)), dtype=complex)
    for ck in coeffs[:, ::-1].T:
        acc *= t
        acc += ck[:, None]
    return acc


def bits(values):
    """Bit patterns of complex values, signed zeros included."""
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64).tolist()


def outcome_bits(result):
    """An outcome (see ``outcome``) with every float as its bit pattern."""
    if isinstance(result, DFSolutionReport):
        return (bits(result.integrals), bits(result.z), result.residual.hex(),
                result.nodes, result.refinement_difference.hex())
    kind, message, context = result
    return kind, message, {key: value.hex() if isinstance(value, float)
                           else value for key, value in context.items()}


#: parameters with terminating Gauss factors: 1 - b = 0 and -b = -1
#: (b = 1), 1 - b = -1 (b = 2), a = -1, c = -1 and a + b + c + g = -1
TERMINATING = [DFParams(F(1, 3), F(1), F(1, 7), F(1, 2)),
               DFParams(F(1, 3), F(2), F(1, 7), F(1, 2)),
               DFParams(F(-1), F(1, 5), F(1, 7), F(1, 2)),
               DFParams(F(1, 3), F(1, 5), F(-1), F(5, 2)),
               DFParams(F(1, 3), F(-1) - F(1, 3) - F(1, 7) - F(1, 2),
                        F(1, 7), F(1, 2))]


def test_terminating_parameters_have_terminating_factors():
    for params in TERMINATING:
        coeffs = [gauss_coefficients(*par, 8)
                  for pair in _integrand_factors(params) for par in pair]
        assert any(c[-1] == 0 for c in coeffs)


def test_real_gauss_pass_is_bit_identical_to_complex_pass():
    rng = random.Random(5)
    nodes = [np.array([1e-300, 0.5, 1 - 2 ** -53]),
             np.linspace(0.0, 0.99, 33)]
    for params in TERMINATING + [PARAMS, QUAD_PARAMS]:
        pars = list(dict.fromkeys(par for pair in _integrand_factors(params)
                                  for par in pair))
        for t in nodes + [np.array([rng.uniform(0, 1) for _ in range(50)])]:
            for terms in (1, 2, 160):
                got = _gauss_on_nodes(pars, t, terms)
                assert got.dtype == complex
                assert bits(got) == bits(reference_gauss_on_nodes(pars, t,
                                                                  terms))


def test_real_gauss_pass_gives_bit_identical_reports(monkeypatch):
    # |g| keeps most draws inside the domain; draw 10 of this seed is a
    # recorded D4 miss, where the two refinements disagree
    rng = random.Random(8)
    cases = []
    for _ in range(120):
        params = draw_df_params(rng)
        cases.append((DFParams(params.a, params.b, params.c, abs(params.g)),
                      rng.uniform(0.01, 0.99)))
    cases += [(params, x) for params in TERMINATING for x in (0.2, 0.5, 0.9)]
    got = [outcome(df_integral_solution, *case) for case in cases]
    monkeypatch.setattr(df, "_gauss_on_nodes", reference_gauss_on_nodes)
    want = [outcome(df_integral_solution, *case) for case in cases]
    assert [outcome_bits(r) for r in got] == [outcome_bits(r) for r in want]
    kinds = [r[0] if isinstance(r, tuple) else DFSolutionReport for r in want]
    assert kinds.count(QuadratureError) >= 1
    assert kinds.count(DFSolutionReport) >= 80
    assert all(isinstance(r, DFSolutionReport) for r in want[120:])


def test_solution_at_needs_x_in_the_unit_interval():
    for x in (0.0, 1.0, 1.2, -0.3):
        with pytest.raises(InputError):
            df_solution_at(QUAD_PARAMS, x, 32)


def test_integral_residual_detail_at_seed_7():
    assert (check_df_integral_residual(7)
            == "3 evaluation points, max residual 2.11e-11")


def test_one_rule_per_node_count_and_one_series_per_factor(monkeypatch):
    rules, coefficient_runs = [], []
    real_roots, real_coeffs = scipy.special.roots_jacobi, df.gauss_coefficients

    def counting_roots(nodes, alpha, beta):
        rules.append(nodes)
        return real_roots(nodes, alpha, beta)

    def counting_coeffs(*args):
        coefficient_runs.append(args)
        return real_coeffs(*args)

    monkeypatch.setattr(scipy.special, "roots_jacobi", counting_roots)
    monkeypatch.setattr(df, "gauss_coefficients", counting_coeffs)
    df_integral_solution(QUAD_PARAMS, 0.4)
    assert sorted(rules) == [128, 256]
    assert len(coefficient_runs) == 4


def _scale_column_1(params):
    m = solution_matrix(params)
    return RationalMatrix([[m[i, j] * (2 if j == 1 else 1)
                            for j in range(3)] for i in range(3)])


def _swap_columns_0_1(params):
    m = solution_matrix(params)
    return RationalMatrix([[m[i, 1], m[i, 0], m[i, 2]] for i in range(3)])


def _shift_a_gamma(params):
    pairs = [list(pair) for pair in _integrand_factors(params)]
    alpha, beta, gamma = pairs[1][0]
    pairs[1][0] = (alpha, beta, gamma + 1)
    return [tuple(pair) for pair in pairs]


@pytest.mark.parametrize("name, mutant", [
    ("solution_matrix", _scale_column_1),
    ("solution_matrix", _swap_columns_0_1),
    ("_integrand_factors", _shift_a_gamma)])
def test_integral_residual_check_fails_on_mutants(monkeypatch, name, mutant):
    # residuals on the mutants: 1.31, 0.83 and 0.084, against 1e-6
    monkeypatch.setattr(df, name, mutant)
    with pytest.raises(CriterionFailed, match="exceeds 1e-6"):
        check_df_integral_residual(7)
