"""Exact algebra: rationals, polynomials, matrices.

Characteristic polynomials are cross-checked against sympy, which shares
no code with the Leverrier-Faddeev implementation under test.  The
integer kernels (common denominators, Bareiss elimination) are compared,
numerator and denominator, with textbook Fraction algorithms that live
only in this file.
"""

import functools
import math
import random
from fractions import Fraction as F
from itertools import zip_longest

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from okubo.errors import (DimensionMismatch, InputError, NotAnEigenvalue,
                          SingularMatrixError)
from okubo import exact, series
from okubo.exact import (MAX_DIGITS, Poly, PolyMatrix, RationalMatrix,
                         left_eigenvectors, mat_mul, matrix_from_json,
                         poly_adjugate, rational_text, to_double, to_fraction)


def rand_matrix(rng, n, lo=-9, hi=9):
    return RationalMatrix([[F(rng.randint(lo, hi), rng.randint(1, 9))
                            for _ in range(n)] for _ in range(n)])


# -- scalars ----------------------------------------------------------------

@given(st.integers(-10**6, 10**6), st.integers(1, 10**6),
       st.integers(-50, 50).filter(lambda k: k != 0))
def test_fraction_reduction(p, q, k):
    assert F(p, q) == F(k * p, k * q)
    reduced = F(p, q)
    assert reduced.denominator > 0
    from math import gcd
    assert gcd(reduced.numerator, reduced.denominator) == 1


def test_fraction_parsing():
    assert to_fraction("-3/7") == F(-3, 7)
    assert to_fraction("5") == F(5)
    assert str(F(-3, 7)) == "-3/7"
    assert str(F(5)) == "5"
    with pytest.raises(InputError):
        to_fraction("abc")
    with pytest.raises(InputError):
        to_fraction("1/0")
    # a JSON true or false is not read as 1 or 0
    for flag in (True, False):
        with pytest.raises(InputError, match="bool"):
            to_fraction(flag)


@pytest.mark.parametrize("text", [
    "1" * 4301, "3/" + "1" * 4301, "0." + "1" * 4301, "1e4301", "2.5E-4301",
    "1e+0_4301", "1e" + "9" * 40])
def test_read_bound_refuses_before_building_the_integer(monkeypatch, text):
    class Unbuilt(F):
        def __new__(cls, *args):
            raise AssertionError("the integer was built")

    monkeypatch.setattr(exact, "Fraction", Unbuilt)
    with pytest.raises(InputError, match=f"read bound.* {MAX_DIGITS} "):
        to_fraction(text)


def test_read_bound_admits_its_limit():
    assert to_fraction("1e4300") == 10 ** 4300
    assert to_fraction("1E-4_300") == F(1, 10 ** 4300)
    nines = "9" * 4300
    assert to_fraction(f" -{nines}/{nines[:-1]}7 ") == F(-int(nines),
                                                        int(nines[:-1] + "7"))


def test_rational_text_is_str_below_the_limit_and_has_none():
    for x in (F(-3, 7), F(5), 0, -12, F(10 ** 4299, 3)):
        assert rational_text(x) == str(x)
    # built by pow, so no string conversion bounds it
    assert rational_text(F(-10 ** 5000 - 1, 3)) == "-1" + "0" * 4999 + "1/3"


#: a Fraction whose repr passes the digit limit of str()
HUGE_Q = F(10 ** 5000, 3)


@pytest.mark.parametrize("refuse, message", [
    (lambda: series.hyp2f1_jet(HUGE_Q, 0.5, 1, 0.1, 10), "must be rationals"),
    (lambda: exact.require_int(HUGE_Q, "terms"), "terms must be an integer"),
    (lambda: series.hyp2f1(F(1, 3), F(1, 5), F(1, 7), 0.1, terms=HUGE_Q),
     "terms must be an integer"),
    (lambda: to_fraction([HUGE_Q]), "cannot convert list")],
    ids=["hyp2f1_jet", "require_int", "hyp2f1-terms", "to_fraction"])
def test_refusal_describes_a_value_past_the_digit_limit(refuse, message):
    with pytest.raises(InputError, match=message) as err:
        refuse()
    context = err.value.as_json()["error"]["context"]
    assert context and all(isinstance(v, str) for v in context.values())


def test_to_double_rounds_once_and_refuses_out_of_range():
    rng = random.Random(17)
    for _ in range(200):
        q = F(rng.randint(-10 ** 40, 10 ** 40), rng.randint(1, 10 ** 40))
        assert to_double(q) == q.numerator / q.denominator == float(q)
    assert to_double(7) == 7.0 and to_double(-0.5) == -0.5
    # below the smallest double rounds to zero; above the largest refuses
    assert to_double(F(1, 10 ** 400)) == 0.0
    for value in (10 ** 400, -10 ** 400, F(10 ** 400, 3), F(-10 ** 401, 7)):
        with pytest.raises(InputError, match="outside the double range"):
            to_double(value)
    assert RationalMatrix([[1, 2], [3, 4]]).to_complex().dtype == complex
    with pytest.raises(InputError):
        RationalMatrix([[10 ** 400, 0], [0, 1]]).to_complex()


def test_float_entries_are_rejected():
    # the structural layer is exact: 0.1 must not become 3602879701896397/2^55
    with pytest.raises(InputError):
        RationalMatrix([[0.1, 0], [0, 1]])
    with pytest.raises(InputError):
        Poly([0.1])
    with pytest.raises(InputError):
        Poly([1, 2]) * Poly([0.5])
    assert RationalMatrix([["1/3", 2], [F(1, 5), True]]).rows == \
        ((F(1, 3), F(2)), (F(1, 5), F(1)))


# -- polynomials ------------------------------------------------------------

fractions_st = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@given(st.lists(fractions_st, min_size=1, max_size=5),
       st.lists(fractions_st, min_size=1, max_size=5))
def test_poly_product_degree(cs1, cs2):
    p, q = Poly(cs1), Poly(cs2)
    if p.is_zero() or q.is_zero():
        assert (p * q).is_zero()
    else:
        assert len((p * q).nums) == len(p.nums) + len(q.nums) - 1


def poly_sum(*terms) -> Poly:
    """The sum of polynomials, on their Fraction coefficients (src/ has no
    use for Poly addition)."""
    return Poly([sum(cs, F(0)) for cs in
                 zip_longest(*(p.coeffs for p in terms), fillvalue=F(0))])


def lagrange_interpolate(points) -> Poly:
    """The polynomial of least degree through exact (x, y) pairs, by
    Lagrange's formula (an oracle for tests; src/ has no use for it)."""
    result = Poly()
    for i, (xi, yi) in enumerate(points):
        num = Poly.constant(yi)
        den = F(1)
        for j, (xj, _) in enumerate(points):
            if j != i:
                num = num * Poly([-xj, 1])
                den *= F(xi) - F(xj)
        result = poly_sum(result, num * Poly.constant(1 / den))
    return result


def poly_at(p: Poly, x) -> F:
    """p's exact value at a rational x (src/ has no use for it)."""
    return sum((c * F(x) ** k for k, c in enumerate(p.coeffs)), F(0))


def entry(m: PolyMatrix, i: int, j: int) -> Poly:
    """Entry (i, j) of m as a Poly, read from its cleared coefficients."""
    (nums, den), span = m.cleared, range(m.dim)
    return Poly([F(c[span[i] * m.dim + span[j]], den) for c in nums])


def test_poly_eval_and_interpolate():
    p = Poly([F(1), F(-2), F(3)])  # 1 - 2z + 3z^2
    assert poly_at(p, F(2)) == 1 - 4 + 12
    pts = [(F(k), poly_at(p, F(k))) for k in range(4)]
    assert lagrange_interpolate(pts) == p


def at(m: PolyMatrix, z0) -> RationalMatrix:
    """m evaluated at a rational z0, by Horner's rule on its coefficients."""
    return functools.reduce(lambda acc, c: acc.scale(z0) + c, m.coeffs[::-1])


def rand_polymatrix(rng, degree, n=2):
    return PolyMatrix([rand_matrix(rng, n, -4, 4) for _ in range(degree + 1)])


def test_polymatrix_eval_commutes_with_product():
    rng = random.Random(11)
    for _ in range(10):
        m, n = rand_polymatrix(rng, 2), rand_polymatrix(rng, 3)
        prod = m * n
        for _ in range(5):
            z0 = F(rng.randint(-20, 20), rng.randint(1, 7))
            assert at(prod, z0) == at(m, z0) * at(n, z0)
    m = rand_polymatrix(rng, 2, 3)
    assert at(m * m, F(2, 3)) == at(m, F(2, 3)) * at(m, F(2, 3))


def test_polymatrix_strips_trailing_zero_coefficients():
    a = RationalMatrix([[1, F(2, 3)], [0, 5]])
    zero = RationalMatrix.zero(2)
    assert PolyMatrix([a, zero]) == PolyMatrix([a])
    assert hash(PolyMatrix([a, zero, zero])) == hash(PolyMatrix([a]))
    assert PolyMatrix([a, zero]).coeffs == (a,)
    # the zero matrix polynomial keeps its constant coefficient and size
    assert PolyMatrix([zero, zero]).coeffs == (zero,)
    assert PolyMatrix([zero]).dim == 2
    assert PolyMatrix([zero]) != PolyMatrix([RationalMatrix.zero(3)])
    assert PolyMatrix([zero, a]) != PolyMatrix([a])


def test_polymatrix_entries_are_the_fraction_reference():
    rng = random.Random(13)
    for n in (1, 2, 3, 4):
        coeffs = [rand_matrix(rng, n) for _ in range(rng.randint(1, 4))]
        m = PolyMatrix(coeffs)
        for i in range(n):
            for j in range(n):
                want = Poly([c.rows[i][j] for c in coeffs])
                assert entry(m, i, j) == want
                assert entry(m, i - n, j - n) == want
        with pytest.raises(IndexError):
            entry(m, n, 0)


def test_polymatrix_dimension_errors():
    i2, i3 = RationalMatrix.identity(2), RationalMatrix.identity(3)
    for coeffs in ([i2, i3], [i3, i2, i2], []):
        with pytest.raises(DimensionMismatch):
            PolyMatrix(coeffs)
    with pytest.raises(DimensionMismatch):
        PolyMatrix([i2]) * PolyMatrix([i3])
    # a product takes a PolyMatrix only
    for other in (Poly([0, 1]), F(1, 2), 2, i2):
        with pytest.raises(TypeError):
            PolyMatrix([i2]) * other


# -- matrices ---------------------------------------------------------------

def test_mat_mul_involution_and_errors():
    j = RationalMatrix.diagonal([1, -1])
    assert mat_mul(j, j) == RationalMatrix.identity(2)
    with pytest.raises(DimensionMismatch):
        mat_mul(j, RationalMatrix.identity(3))
    with pytest.raises(DimensionMismatch):
        RationalMatrix([[1, 2], [3, 4], [5, 6]])


def test_det_is_multiplicative():
    rng = random.Random(5)
    for n in (2, 3, 4):
        for _ in range(8):
            m, n_ = rand_matrix(rng, n), rand_matrix(rng, n)
            assert (m * n_).det() == m.det() * n_.det()


def test_inverse_and_adjugate_consistency():
    rng = random.Random(7)
    checked = 0
    while checked < 100:
        n = rng.choice([2, 3, 4])
        m = rand_matrix(rng, n)
        det = m.det()
        if n == 2:
            pm = PolyMatrix([m])
            assert pm.det() == Poly.constant(det)
            assert pm * poly_adjugate(pm) == PolyMatrix(
                [RationalMatrix.identity(n).scale(det)])
        if det != 0:
            assert m * m.inverse() == RationalMatrix.identity(n)
            # adjugate = det * inverse for invertible matrices
            assert m * m.inverse().scale(det) == \
                RationalMatrix.identity(n).scale(det)
        else:
            with pytest.raises(SingularMatrixError):
                m.inverse()
        checked += 1


def test_poly_adjugate_examples():
    # [[z, 1], [0, z]] and its adjugate [[z, -1], [0, z]]
    ident = PolyMatrix([RationalMatrix.identity(2)])
    m = PolyMatrix([RationalMatrix([[0, 1], [0, 0]]),
                    RationalMatrix.identity(2)])
    assert poly_adjugate(m) == PolyMatrix([RationalMatrix([[0, -1], [0, 0]]),
                                           RationalMatrix.identity(2)])
    assert m.det() == Poly([0, 0, 1])
    assert poly_adjugate(ident) == ident and ident.det() == Poly.constant(1)
    for n in (1, 3, 4):
        with pytest.raises(DimensionMismatch):
            poly_adjugate(PolyMatrix([RationalMatrix.identity(n)]))
        with pytest.raises(DimensionMismatch):
            PolyMatrix([RationalMatrix.identity(n)]).det()


def test_poly_adjugate_singular_input_is_legal():
    # [[z, z], [z, z]]
    m = PolyMatrix([RationalMatrix.zero(2), RationalMatrix([[1, 1], [1, 1]])])
    assert m.det().is_zero()
    assert m * poly_adjugate(m) == PolyMatrix([RationalMatrix.zero(2)])


def test_poly_adjugate_gives_the_determinant_times_identity():
    rng = random.Random(17)
    ident = RationalMatrix.identity(2)
    for k in range(40):
        m = rand_polymatrix(rng, rng.randint(0, 3))
        if k % 4 == 0:
            # the second column twice the first: det(M) = 0 identically
            m = PolyMatrix(RationalMatrix([[x, 2 * x], [y, 2 * y]])
                           for x, y in (c.rows[0][:1] + c.rows[1][:1]
                                        for c in m.coeffs))
            assert m.det().is_zero()
        det = m.det()
        want = PolyMatrix([ident.scale(x) for x in det.coeffs]
                          or [ident.scale(0)])
        assert m * poly_adjugate(m) == want
        assert poly_adjugate(m) * m == want
        for z0 in (F(0), F(-3, 2), F(5, 7)):
            assert at(m, z0).det() == poly_at(det, z0)


def test_char_poly_against_sympy():
    rng = random.Random(13)
    for n in (2, 3, 4):
        for _ in range(5):
            m = rand_matrix(rng, n)
            ours = m.char_poly()
            t = sympy.symbols("t")
            theirs = sympy.Matrix(
                [[sympy.Rational(x) for x in row] for row in m.rows]
            ).charpoly(t).as_expr()
            want = sympy.Poly(theirs, t).all_coeffs()[::-1]
            assert [sympy.Rational(c) for c in ours.coeffs] == want


def test_left_eigenvectors():
    j = RationalMatrix.diagonal([1, -1])
    assert left_eigenvectors(j, 1) == [[F(1), F(0)]]
    assert left_eigenvectors(j, -1) == [[F(0), F(1)]]
    with pytest.raises(NotAnEigenvalue):
        left_eigenvectors(RationalMatrix.identity(2), 2)
    # normalization: first nonzero entry is 1
    m = RationalMatrix([[2, 0], [0, 2]])
    vs = left_eigenvectors(m, 2)
    assert vs == [[F(1), F(0)], [F(0), F(1)]]
    for v in vs:
        first = next(x for x in v if x != 0)
        assert first == 1


def test_matrix_serialization_round_trip():
    m = RationalMatrix([[F(1, 3), F(-2)], [F(0), F(7, 11)]])
    data = m.to_strings()
    assert data == [["1/3", "-2"], ["0", "7/11"]]
    assert RationalMatrix(data) == m
    assert matrix_from_json(data) == m


# -- integer kernels against textbook Fraction algorithms -------------------

def ref_mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), F(0)) for col in cols]
            for row in a]


def ref_det(a):
    n = len(a)
    m = [list(row) for row in a]
    det = F(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return F(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def ref_rref(m):
    """Gauss-Jordan with unit pivots; returns the pivot columns."""
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    pivots = []
    for col in range(min(n_rows, n_cols)):
        top = len(pivots)
        piv = next((r for r in range(top, n_rows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[top], m[piv] = m[piv], m[top]
        inv = 1 / m[top][col]
        m[top] = [x * inv for x in m[top]]
        for r in range(n_rows):
            if r != top and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[top])]
        pivots.append(col)
    return pivots


def ref_inverse(a):
    n = len(a)
    m = [list(row) + [F(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    if len(ref_rref(m)) < n:
        raise SingularMatrixError("singular")
    return [row[n:] for row in m]


def ref_char_poly(a):
    n = len(a)
    ident = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    coeffs, acc = [F(1)], ident
    for k in range(1, n + 1):
        acc = ref_mat_mul(a, acc)
        ck = -sum(acc[i][i] for i in range(n)) / k
        coeffs.append(ck)
        acc = [[x + (ck if i == j else 0) for j, x in enumerate(row)]
               for i, row in enumerate(acc)]
    return coeffs[::-1]


def ref_left_null_space(a):
    n = len(a)
    m = [[a[j][i] for j in range(n)] for i in range(n)]
    pivots = ref_rref(m)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [F(0)] * n
        v[free] = F(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][free]
        first = next(x for x in v if x != 0)
        basis.append([x / first for x in v])
    return basis


def ref_poly_mul(p, q):
    if not p or not q:
        return []
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def exact_form(value):
    """Nested lists of (numerator, denominator); fails on non-Fractions."""
    if isinstance(value, (list, tuple)):
        return [exact_form(x) for x in value]
    assert type(value) is F, type(value)
    return (value.numerator, value.denominator)


HUGE = 10**30
entry_kinds = {
    "small": st.fractions(min_value=-40, max_value=40, max_denominator=30),
    "integer": st.integers(-10**6, 10**6).map(F),
    "huge": st.builds(F, st.integers(-HUGE, HUGE),
                      st.integers(HUGE - 10**6, HUGE + 10**6)),
    "sparse": st.one_of(st.just(F(0)), st.integers(-3, 3).map(F)),
}
entry_kinds["mixed"] = st.one_of(*entry_kinds.values())


@st.composite
def square_rows(draw, n=None):
    """Rows of an n x n matrix (n in 1..8), possibly with a zero row, a
    zero column or a row that is a combination of two others."""
    if n is None:
        n = draw(st.integers(1, 8))
    entry = entry_kinds[draw(st.sampled_from(sorted(entry_kinds)))]
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["full", "zero-row", "zero-col",
                                  "dependent"]))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if shape == "zero-row":
        rows[i] = [F(0)] * n
    elif shape == "zero-col":
        for row in rows:
            row[j] = F(0)
    elif shape == "dependent" and n > 1:
        # row i+1 becomes s row i + t row i+2 (indices mod n; 0 for n = 2)
        s, t = draw(entry_kinds["small"]), draw(entry_kinds["small"])
        other = rows[(i + 2) % n] if n > 2 else [F(0)] * n
        rows[(i + 1) % n] = [s * x + t * y for x, y in zip(rows[i], other)]
    return rows


kernel_settings = settings(max_examples=80, deadline=None)


@kernel_settings
@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(square_rows(n), square_rows(n))))
def test_mat_mul_matches_reference(pair):
    a, b = pair
    got = mat_mul(RationalMatrix(a), RationalMatrix(b)).rows
    assert exact_form(got) == exact_form(ref_mat_mul(a, b))


@kernel_settings
@given(square_rows())
def test_char_poly_matches_reference(a):
    got = RationalMatrix(a).char_poly().coeffs
    assert exact_form(got) == exact_form(ref_char_poly(a))


@kernel_settings
@given(square_rows())
def test_det_matches_reference(a):
    assert exact_form(RationalMatrix(a).det()) == exact_form(ref_det(a))


@kernel_settings
@given(square_rows())
@example([[F(1, 3), F(2, 3)], [F(1, 2), F(1)]])
@example([[F(1), F(0), F(2)], [F(3), F(0), F(5, 7)], [F(-1), F(0), F(4)]])
def test_inverse_matches_reference(a):
    try:
        want = ref_inverse(a)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            RationalMatrix(a).inverse()
        return
    assert exact_form(RationalMatrix(a).inverse().rows) == exact_form(want)


@kernel_settings
@given(square_rows())
def test_left_null_space_matches_reference(a):
    assert exact_form(RationalMatrix(a).left_null_space()) == \
        exact_form(ref_left_null_space(a))


@kernel_settings
@given(st.sampled_from(sorted(entry_kinds)).flatmap(
    lambda kind: st.tuples(*[st.lists(entry_kinds[kind], max_size=9)] * 2)))
def test_poly_mul_matches_reference(pair):
    p, q = (Poly(cs) for cs in pair)
    assert exact_form((p * q).coeffs) == \
        exact_form(ref_poly_mul(p.coeffs, q.coeffs))


# -- the remaining container ops against textbook Fraction forms -----------

def ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_poly_call(cs, x):
    acc = F(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def assert_canonical(m):
    """One positive denominator sharing no factor with the numerators
    (1 for the zero matrix or polynomial), and Fraction entries."""
    from math import gcd
    assert m.den > 0 and gcd(m.den, *m.nums) == 1
    if not any(m.nums):
        assert m.den == 1
    entries = ([m[i, j] for i in range(m.dim) for j in range(m.dim)]
               if isinstance(m, RationalMatrix)
               else m.coeffs)
    assert all(type(x) is F for x in entries)


same_size_pair = st.integers(1, 6).flatmap(
    lambda n: st.tuples(square_rows(n), square_rows(n)))


@kernel_settings
@given(same_size_pair)
def test_add_sub_neg_match_reference(pair):
    a, b = pair
    ma, mb = RationalMatrix(a), RationalMatrix(b)
    for got, want in (
            (ma + mb, [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]),
            (ma - mb, [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]),
            (-ma, [[-x for x in r] for r in a])):
        assert_canonical(got)
        assert exact_form(got.rows) == exact_form(want)
    assert ma - ma == RationalMatrix.zero(len(a))


@kernel_settings
@given(square_rows(), entry_kinds["mixed"])
def test_scale_and_trace_match_reference(a, s):
    got = RationalMatrix(a).scale(s)
    assert_canonical(got)
    assert exact_form(got.rows) == exact_form([[x * s for x in r] for r in a])
    assert exact_form(RationalMatrix(a).trace()) == \
        exact_form(sum((a[i][i] for i in range(len(a))), F(0)))


@kernel_settings
@given(square_rows(), st.data())
def test_block_matches_reference(a, data):
    n = len(a)
    m = RationalMatrix(a)
    k = data.draw(st.integers(1, n))
    i0, j0 = data.draw(st.integers(0, n - k)), data.draw(st.integers(0, n - k))
    got = m.block(i0, i0 + k, j0, j0 + k)
    assert_canonical(got)
    assert exact_form(got.rows) == \
        exact_form([row[j0:j0 + k] for row in a[i0:i0 + k]])


@kernel_settings
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(*[square_rows(k)] * 4)))
def test_from_blocks_matches_reference(blocks):
    tl, tr, bl, br = blocks
    got = RationalMatrix.from_blocks(
        [[RationalMatrix(tl), RationalMatrix(tr)],
         [RationalMatrix(bl), RationalMatrix(br)]])
    assert_canonical(got)
    want = ([r + s for r, s in zip(tl, tr)] + [r + s for r, s in zip(bl, br)])
    assert exact_form(got.rows) == exact_form(want)
    assert got == RationalMatrix(want)


def outcome(fn):
    """The exact form of the value, or the class and args of the error."""
    try:
        return "value", exact_form(fn())
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return "raised", type(exc), exc.args


@kernel_settings
@given(square_rows(), st.data())
def test_getitem_matches_rows(a, data):
    """m[i, j] builds the one entry it reads, as .rows[i][j] gives it, for
    negative and out-of-range indices as well."""
    n = len(a)
    index = st.integers(-n - 2, n + 1)
    for _ in range(6):
        i, j = data.draw(index), data.draw(index)
        m = RationalMatrix(a)
        got = outcome(lambda: m[i, j])
        assert got == outcome(lambda: m.rows[i][j])
        if -n <= i < n and -n <= j < n:
            assert got == ("value", exact_form(a[i][j]))
        else:
            assert got[:2] == ("raised", IndexError)


@kernel_settings
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.integers(-HUGE, HUGE), min_size=n * n, max_size=n * n)),
    st.integers(-HUGE, HUGE).filter(bool))
def test_from_integers_matches_the_fraction_constructor(nums, den):
    n = math.isqrt(len(nums))
    got = RationalMatrix.from_integers(nums, den)
    assert_canonical(got)
    assert got == RationalMatrix([[F(x, den) for x in nums[i:i + n]]
                                  for i in range(0, n * n, n)])


def test_from_integers_errors():
    with pytest.raises(DimensionMismatch, match="square"):
        RationalMatrix.from_integers([1, 2, 3], 1)
    # a zero denominator raises what Fraction(nums[0], 0) raises
    for nums in ([7, 1, 2, 3], [0, 1, 2, 3], [-5]):
        with pytest.raises(ZeroDivisionError) as got:
            RationalMatrix.from_integers(nums, 0)
        with pytest.raises(ZeroDivisionError) as want:
            F(nums[0], 0)
        assert got.value.args == want.value.args


poly_pair = st.sampled_from(sorted(entry_kinds)).flatmap(
    lambda kind: st.tuples(*[st.lists(entry_kinds[kind], max_size=9)] * 2))


@kernel_settings
@given(poly_pair, entry_kinds["mixed"])
def test_poly_neg_call_match_reference(pair, x):
    cs, ds = pair
    p, q = Poly(cs), Poly(ds)
    got = -p
    assert_canonical(got)
    assert exact_form(got.coeffs) == exact_form(ref_trim([-u for u in cs]))
    assert exact_form(poly_at(p, x)) == exact_form(ref_poly_call(cs, x))
    assert_canonical(p * q)
    assert p * Poly() == Poly() and (p * Poly()).den == 1


def test_canonical_form_and_fraction_boundary():
    half = RationalMatrix([[F(2, 4)]])
    assert half == RationalMatrix([["1/2"]])
    assert hash(half) == hash(RationalMatrix([["1/2"]]))
    assert (half.nums, half.den) == ((1,), 2)
    zero = RationalMatrix([[F(0, 7), 0], [F(0), "0/3"]])
    assert zero == RationalMatrix.zero(2) and (zero.den, zero.nums) == \
        (1, (0, 0, 0, 0))
    assert Poly([F(2, 4), F(0, 5)]) == Poly(["1/2"])
    assert hash(Poly([F(2, 4)])) == hash(Poly.constant(F(1, 2)))
    # the canonical form survives a negative pivot and a scale to zero
    m = RationalMatrix([[0, F(1, 3)], [F(-2, 5), 0]])
    for out in (m.inverse(), m.scale(F(-6, 4)), m.scale(0), m * m, m - m,
                m.block(0, 1, 1, 2), m.char_poly(), m.char_poly() * Poly()):
        assert_canonical(out)
    assert m.inverse() == RationalMatrix([[0, F(-5, 2)], [3, 0]])
    assert all(type(x) is F for row in RationalMatrix.identity(3).rows
               for x in row)
    assert RationalMatrix.identity(2).scale(F(4, 6)).den == 3


# -- the 0x0 matrix -----------------------------------------------------------

#: every way to build a 0x0 matrix
EMPTY_CONSTRUCTORS = {
    "rows": lambda: RationalMatrix([]),
    "from_integers": lambda: RationalMatrix.from_integers((), 1),
    "identity": lambda: RationalMatrix.identity(0),
    "zero": lambda: RationalMatrix.zero(0),
    "diagonal": lambda: RationalMatrix.diagonal([]),
    "from_blocks": lambda: RationalMatrix.from_blocks(
        [[RationalMatrix([])] * 2] * 2),
    "block": lambda: RationalMatrix.identity(3).block(1, 1, 2, 2),
    "json": lambda: matrix_from_json([]),
}

#: what each reader of a 0x0 matrix answers
EMPTY_READERS = {
    "rows": (lambda m: m.rows, ()),
    "det": (lambda m: m.det(), F(1)),
    "inverse": (lambda m: m.inverse().dim, 0),
    "to_strings": (lambda m: m.to_strings(), []),
    "block": (lambda m: m.block(0, 0, 0, 0).dim, 0),
    "repr": (repr, "RationalMatrix([])"),
    "trace": (lambda m: m.trace(), F(0)),
    "char_poly": (lambda m: m.char_poly(), Poly([1])),
    "left_null_space": (lambda m: m.left_null_space(), []),
    "to_complex": (lambda m: m.to_complex().shape, (0, 0)),
    "mat_mul": (lambda m: (m * m).dim, 0),
    "add": (lambda m: (m + m - m).dim, 0),
    "neg": (lambda m: (-m).dim, 0),
    "scale": (lambda m: m.scale(F(2, 3)).nums, ()),
}


@pytest.mark.parametrize("make", EMPTY_CONSTRUCTORS.values(),
                         ids=EMPTY_CONSTRUCTORS)
@pytest.mark.parametrize("reader", EMPTY_READERS.values(), ids=EMPTY_READERS)
def test_empty_matrix_answers_every_reader(make, reader):
    m = make()
    assert (m.dim, m.nums, m.den) == (0, (), 1)
    assert m == RationalMatrix.identity(0)
    read, want = reader
    got = read(m)
    assert got == want and type(got) is type(want)
