"""Product system, half-sum calculus, gauge and diagonalizer."""

import random
from fractions import Fraction as F
from itertools import product as iproduct

import pytest

from okubo.errors import InputError, SingularMatrixError
from okubo.exact import Poly, RationalMatrix
from okubo.hgsystem import (HGParams, J2, build_diagonalizer,
                            build_okubo_system, build_product_system,
                            contiguous_product_matrix,
                            det_diagonalizer_formula, det_gauge_formula,
                            gauge_inverse_closed_form,
                            gauge_matrix, infinity_exponents, lam)
from okubo.sampling import draw_generic_params, draw_okubo_params

P0 = HGParams.generic(F(1, 3), F(1, 7), F(1, 5), F(1, 11), F(3, 7), F(5, 9))
POK = HGParams.okubo(F(1, 3), F(1, 7), F(1, 5), F(1, 11))


def test_half_sum_values():
    assert lam(P0, "+000") == F(1, 6)
    assert lam(P0, "+0+0") == (F(1, 3) + F(1, 5)) / 2
    assert lam(P0, "++++") == (F(1, 3) + F(1, 7) + F(1, 5) + F(1, 11)) / 2
    with pytest.raises(InputError):
        lam(P0, "+*00")
    with pytest.raises(InputError):
        lam(P0, "+++")


def test_half_sum_sign_flip_all_indices():
    for signs in iproduct("+-0", repeat=4):
        word = "".join(signs)
        flipped = word.translate(str.maketrans("+-", "-+"))
        assert lam(P0, flipped) == -lam(P0, word)


def test_half_sum_table_matches_formula_and_stays_out_of_equality():
    p = HGParams.generic(F(2, 3), F(-5, 7), F(1, 9), F(4, 11), F(1, 2), 3)
    weight = {"+": 1, "-": -1, "0": 0}
    for _ in range(2):  # filling the table, then reading it
        for signs in iproduct("+-0", repeat=4):
            s = [weight[c] for c in signs]
            want = (s[0] * p.alpha1 + s[1] * p.alpha2
                    + s[2] * p.beta1 + s[3] * p.beta2) / 2
            assert lam(p, "".join(signs)) == want
    for bad in ("+*00", "+++", "+++++", ""):
        with pytest.raises(InputError):
            lam(p, bad)
    fresh = HGParams.generic(F(2, 3), F(-5, 7), F(1, 9), F(4, 11), F(1, 2), 3)
    assert p == fresh and hash(p) == hash(fresh)
    assert repr(p) == repr(fresh) and p.to_json() == fresh.to_json()


def test_half_sums_from_cleared_parameters_on_draws():
    """lam's single Fraction over the parameters' common denominator
    equals the sum of four Fraction products halved, on fresh parameters
    of both kinds; the cleared form stays out of equality."""
    rng = random.Random(2024)
    weight = {"+": 1, "-": -1, "0": 0}
    words = ["".join(s) for s in iproduct("+-0", repeat=4)]
    for k in range(300):
        p = (draw_okubo_params if k % 2 else draw_generic_params)(rng)
        twin = HGParams(p.alpha1, p.alpha2, p.beta1, p.beta2,
                        p.gamma1, p.gamma2)
        for word in rng.sample(words, 20):
            s = [weight[c] for c in word]
            want = (s[0] * p.alpha1 + s[1] * p.alpha2
                    + s[2] * p.beta1 + s[3] * p.beta2) / 2
            got = lam(p, word)
            assert type(got) is F
            assert (got.numerator, got.denominator) == \
                (want.numerator, want.denominator)
        assert p == twin and hash(p) == hash(twin)


def test_okubo_constraint():
    assert POK.is_okubo
    assert POK.gamma1 == lam(POK, "++++") + 1
    assert not P0.is_okubo


def test_params_json_round_trip():
    for p in (P0, POK):
        assert HGParams.from_json(p.to_json()) == p
    with pytest.raises(InputError):
        HGParams.from_json({"alpha1": "1/3"})
    with pytest.raises(InputError):
        HGParams.from_json({"alpha1": "abc", "alpha2": "1", "beta1": "1",
                            "beta2": "1"})


def test_product_system_entries_and_trace():
    sys = build_product_system(P0)
    assert sys.residue_at_0[0, 1] == 1
    a1, a2, b1, b2 = P0.alpha1, P0.alpha2, P0.beta1, P0.beta2
    g1, g2 = P0.gamma1, P0.gamma2
    want_trace = ((g1 + g2 - 2 - a1 - a2 - b1 - b2)
                  + (g1 - 1 - a1 - b1) + (g2 - 1 - a2 - b2))
    assert sys.residue_at_1.trace() == want_trace


def test_infinity_factorization_and_riemann_scheme():
    rng = random.Random(3)
    for _ in range(10):
        p = draw_generic_params(rng)
        sys = build_product_system(p)
        phi = sys.residue_at_inf.char_poly()
        want = Poly.constant(1)
        for e in infinity_exponents(p):
            want = want * Poly([-e, 1])
        assert phi == want
        # local exponents at the finite points
        h0_want = Poly.constant(1)
        for e in (0, 1 - p.gamma1, 1 - p.gamma2, 2 - p.gamma1 - p.gamma2):
            h0_want = h0_want * Poly([-e, 1])
        assert sys.residue_at_0.char_poly() == h0_want
        h1_want = Poly.constant(1)
        total = p.alpha1 + p.alpha2 + p.beta1 + p.beta2
        for e in (0, p.gamma1 - 1 - p.alpha1 - p.beta1,
                  p.gamma2 - 1 - p.alpha2 - p.beta2,
                  p.gamma1 + p.gamma2 - 2 - total):
            h1_want = h1_want * Poly([-e, 1])
        assert sys.residue_at_1.char_poly() == h1_want


def test_okubo_gauge():
    gauge, system = build_okubo_system(POK)
    assert gauge.det() == det_gauge_formula(POK)
    assert gauge * gauge.inverse() == RationalMatrix.identity(4)
    assert gauge.inverse() == gauge_inverse_closed_form(POK)
    # the x = 0 part has two zero rows after the gauge
    l = lambda s: lam(POK, s)
    assert (system.a, system.b, system.c, system.d) == \
        (l("++++"), l("-+-+"), l("++--"), l("+--+"))
    cp = system.coeff.char_poly()
    want = (Poly([-l("++--"), 1]) * Poly([l("++--"), 1])
            * Poly([-l("+--+"), 1]) * Poly([l("+--+"), 1]))
    assert cp == want


def test_okubo_gauge_rejects_bad_inputs():
    with pytest.raises(InputError):
        build_okubo_system(P0)  # gammas not constrained
    degenerate = HGParams.okubo(F(1, 3), F(1, 3), F(1, 3), F(1, 3))
    with pytest.raises(SingularMatrixError):
        build_okubo_system(degenerate)


def test_okubo_eigenvalues_on_random_draws():
    rng = random.Random(17)
    for _ in range(50):
        p = draw_okubo_params(rng)
        _, system = build_okubo_system(p)
        cp = system.coeff.char_poly()
        want = Poly.constant(1)
        for e in (lam(p, "++--"), -lam(p, "++--"),
                  lam(p, "+--+"), -lam(p, "+--+")):
            want = want * Poly([-e, 1])
        assert cp == want


def test_squared_coefficient_char_poly():
    _, system = build_okubo_system(POK)
    sq = system.coeff * system.coeff
    c2 = lam(POK, "++--") ** 2
    d2 = lam(POK, "+--+") ** 2
    root_free = Poly([-c2, 1]) * Poly([-d2, 1])
    want = root_free * root_free
    assert sq.char_poly() == want


def test_okubo_left_eigenspaces_are_lines():
    from okubo.exact import left_eigenvectors
    _, system = build_okubo_system(POK)
    for signs in ("++--", "+--+"):
        for sign in (1, -1):
            vs = left_eigenvectors(system.coeff, sign * lam(POK, signs))
            assert len(vs) == 1


def test_diagonalizer():
    _, system = build_okubo_system(POK)
    r = build_diagonalizer(POK)
    assert r.det() == det_diagonalizer_formula(POK)
    c, d = system.c, system.d
    diag = RationalMatrix.from_blocks(
        [[J2.scale(c), RationalMatrix.zero(2)],
         [RationalMatrix.zero(2), J2.scale(d)]])
    assert r * system.coeff * r.inverse() == diag


def test_diagonalizer_rejects_zero_parameter():
    p = HGParams.okubo(F(0), F(1, 7), F(1, 5), F(1, 11))
    with pytest.raises(SingularMatrixError):
        build_diagonalizer(p)


def test_contiguous_product_matrix():
    r = build_diagonalizer(POK)
    ginv = gauge_matrix(POK).inverse()
    rp = r * ginv
    assert rp == contiguous_product_matrix(POK)
    assert rp[0, 1] == 1 / POK.alpha1
    assert list(rp.rows[1]) == [F(1), 1 / POK.beta1, 1 / POK.beta2,
                                1 / (POK.beta1 * POK.beta2)]
