"""Size-three reduction and the integral solution.

The quadrature is cross-checked with scipy's adaptive algebraic-weight
integrator, an implementation entirely independent of the Gauss-Jacobi
rule used by the package.
"""

import random
from fractions import Fraction as F

import numpy as np
import pytest
from scipy import integrate

from okubo.dotsenko_fateev import (DFParams, DFTransformReport,
                                   _integrand_factors,
                                   check_df_transformation,
                                   df_eigenvector_matrix, df_integral_solution,
                                   df_residues, df_solution_at, euler_reduce,
                                   shifted_eigenvalues, solution_matrix,
                                   transition_half_sum_form)
from okubo.errors import InputError, SingularMatrixError
from okubo.exact import Poly, RationalMatrix
from okubo.hgsystem import lam
from okubo.sampling import draw_df_params
from okubo.series import gauss_coefficients

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
    from scipy.special import roots_jacobi
    from okubo.dotsenko_fateev import _gauss_on_array

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
        smooth = (2 * (1 + u) ** alpha
                  * _gauss_on_array(par1, x * u * u, 200)
                  * _gauss_on_array(par2, x * u * u, 200))
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
