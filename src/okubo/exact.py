"""Exact rational scalars, dense univariate polynomials, and small matrices.

Every structural identity verified by this package is an equality between
rationals.  A `RationalMatrix` stores its entries as one tuple of integer
numerators, row by row, over one positive denominator; a `Poly` stores its
coefficients, by degree, the same way.  The form is canonical: the
denominator and the numerators have no common factor (one multi-argument
``math.gcd`` after each operation), and the zero matrix or polynomial has
denominator 1.  So equality and hashing compare integers, and every kernel
runs on Python ints with no per-entry gcd:

* `mat_mul` and `Poly.__mul__` are integer dot products and
  convolutions over the product of two denominators, and matrix
  sums and differences are taken over the lcm of two denominators;
* `RationalMatrix.char_poly` runs Newton's identities on the power
  sums of the integer numerator matrix B (`int_char_poly`), where the
  divisions by k are exact, and scales coefficient k by den^-k;
* `det`, `inverse` and `left_null_space` use fraction-free (Bareiss)
  elimination of B, whose divisions by the previous pivot are exact.

A `PolyMatrix` stores a matrix polynomial as its `RationalMatrix`
coefficients by degree, and its products, determinant and adjugate run on
those coefficients cleared over one denominator.

Fractions appear only at the boundary: `RationalMatrix.rows` and
`Poly.coeffs` build the reduced `fractions.Fraction`s of the entries on
each read, and ``m[i, j]`` builds the one matrix entry it reads.  The
outputs are the same Fractions the textbook Fraction algorithms give.
The way in without Fractions is
`RationalMatrix.from_integers(nums, den)`: n*n integer numerators, row by
row, over one nonzero denominator, reduced by the same one gcd; every
kernel builds its result through it.  The way out to doubles without
Fractions is `ratio_to_double(num, den)`, int/int true division, which
rounds once as float() of the Fraction does: `to_double`,
`RationalMatrix.to_complex` and the float requests of `series` go through
it.

Serialization convention: a rational is the string ``"p/q"`` (``"p"`` when
the denominator is 1), sign on the numerator; a matrix is a JSON array of
arrays of such strings.  `rational_text` writes every such string, at any
length; `to_fraction` reads one, up to MAX_DIGITS digits a part.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from operator import add, mul
from typing import Iterable, Sequence, Union

from .errors import (DimensionMismatch, InputError, NotAnEigenvalue,
                     SingularMatrixError)

Scalar = Union[Fraction, int]

#: the read bound of to_fraction: the most digits in the numerator or the
#: denominator of a rational string, and the largest decimal exponent
#: magnitude; Python's default int-string conversion limit
MAX_DIGITS = 4300


def rational_text(x: Scalar) -> str:
    """A rational (Fraction or int) as str(Fraction) writes it, "p/q" or
    "p", at any length: Decimal prints an int past the digit limit of str()
    (sys.get_int_max_str_digits(), 4300 by default)."""
    num = str(Decimal(x.numerator))
    return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


def describe(value) -> str:
    """repr(value), for the context of a refusal.  Where repr would write
    an int past the digit limit of str() and raise ValueError, an int or
    Fraction is written by rational_text and any other value is named by
    its type, so that describing a refused value cannot itself fail."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, (int, Fraction)):
            return rational_text(value)
        return f"<{type(value).__name__}>"


def _past_read_bound(text: str) -> bool:
    """Whether a rational string has more than MAX_DIGITS digits in its
    numerator or denominator, or a decimal exponent beyond MAX_DIGITS in
    magnitude, judged from the string before any integer is built."""
    mantissa, _, exponent = text.lower().partition("e")
    if any(sum(map(str.isdecimal, part)) > MAX_DIGITS
           for part in mantissa.split("/")):
        return True
    exponent = exponent.lstrip("+-").replace("_", "").lstrip("0")
    # with no leading zeros, nine digits decide against a bound below 10^8
    return exponent.isdecimal() and int(exponent[:9]) > MAX_DIGITS


def to_fraction(value) -> Fraction:
    """Parse a rational from a string like '-3/7' (or int/Fraction); a
    bool is refused, not read as 0 or 1, and so is a string past the read
    bound MAX_DIGITS."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if _past_read_bound(value):
            raise InputError(
                f"rational past the read bound: more than {MAX_DIGITS} "
                f"digits in its numerator or denominator, or a decimal "
                f"exponent beyond {MAX_DIGITS}", {"length": len(value)})
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational number: {value!r}",
                             {"value": value}) from exc
    raise InputError(f"cannot convert {type(value).__name__} to a rational",
                     {"value": describe(value)})


def require_int(value, name: str) -> int:
    """``value`` if it is an int; any other type, a bool included (as
    to_fraction refuses one), is an InputError naming ``name``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InputError(f"{name} must be an integer", {name: describe(value)})


def to_double(value) -> float:
    """The double nearest a rational (Fraction or int; a float passes
    through), rounded once as ratio_to_double rounds it.  A value beyond
    the largest double is an InputError, not an OverflowError."""
    if isinstance(value, (int, Fraction)):
        return ratio_to_double(value.numerator, value.denominator)
    return float(value)


def ratio_to_double(num: int, den: int) -> float:
    """The double nearest num/den for integers num and den > 0: int/int
    true division, which rounds the exact quotient once, so it is the
    double float(Fraction(num, den)) gives whether or not num/den is
    reduced (and 0.0, never -0.0, for a zero num).  A quotient beyond the
    largest double is an InputError carrying the binary magnitude of the
    reduced fraction."""
    try:
        return num / den
    except OverflowError as exc:
        g = math.gcd(num, den)
        raise InputError("rational outside the double range",
                         {"log2": (num // g).bit_length()
                          - (den // g).bit_length()}) from exc


def complex_array(rows):
    """Rationals row by row as a complex numpy array.  Each entry is the
    double to_double gives, the one complex(x) would take, without the
    detour through numbers.Real.__complex__."""
    import numpy as np
    return np.array([[to_double(x) for x in row] for row in rows],
                    dtype=complex)


def ratios_to_doubles(nums, den: int) -> list:
    """[ratio_to_double(x, den) for x in nums], divided in one pass; if an
    entry passes the double range, the first such is refused as
    ratio_to_double refuses it."""
    try:
        return [x / den for x in nums]
    except OverflowError:
        return [ratio_to_double(x, den) for x in nums]


def cleared_complex_array(nums, den: int, n: int):
    """n*n integer numerators, row by row, over one positive denominator as
    an n x n complex numpy array, each entry rounded once by
    ratio_to_double: the array complex_array gives for the rationals, with
    no Fraction built."""
    import numpy as np
    return np.array(ratios_to_doubles(nums, den),
                    dtype=complex).reshape(n, n)


def common_denominator(values) -> tuple:
    """(integer numerators, positive common denominator) of rationals.

    ``values`` are Fractions or ints; the denominator is the lcm of theirs.
    """
    den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _cleared(values) -> tuple:
    """common_denominator of rationals given as Fractions, ints or strings
    (see to_fraction)."""
    return common_denominator([x if isinstance(x, (int, Fraction))
                               else to_fraction(x) for x in values])


def _reduced(nums, den: int) -> tuple:
    """(nums, den) divided by their gcd, the denominator made positive;
    a zero numerator tuple gets denominator 1."""
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(nums), den
    return tuple(x // g for x in nums), den // g


def _dot(xs, ys) -> int:
    return sum(map(mul, xs, ys))


def _split_rows(flat: Sequence, n: int) -> list:
    """The n rows, as slices, of n x n entries stored row by row; none for
    n = 0."""
    return [flat[i:i + n] for i in range(0, n * n, n or 1)]


def int_mat_mul(xs: Sequence[int], ys: Sequence[int], n: int) -> list:
    """The product of two n x n integer matrices given as numerators row
    by row: mat_mul's kernel, for callers that keep their own
    denominators."""
    cols = [ys[j::n] for j in range(n)]
    return [_dot(row, col) for row in _split_rows(xs, n) for col in cols]


def _trace_of_product(xs: Sequence[int], ys: Sequence[int], n: int) -> int:
    """tr(X Y) = sum X_ij Y_ji of two n x n integer matrices row by row:
    n^2 products, where the product X Y takes n^3."""
    return sum(_dot(row, ys[i::n])
               for i, row in enumerate(_split_rows(xs, n)))


def int_char_poly(nums: Sequence[int], n: int) -> list:
    """[1, c_1, ..., c_n] with det(tI - B) = sum c_k t^(n-k), for the n x n
    integer matrix B given as numerators row by row.

    Newton's identities k c_k = -(c_(k-1) p_1 + ... + c_0 p_k) on the
    power sums p_k = tr B^k, each division by k exact.  Only B^2, ...,
    B^h with h = ceil(n/2) are formed, and p_k for k > h is the trace of
    the product B^h B^(k-h), read without forming it: a 4x4 matrix takes
    the one product B^2, where Leverrier-Faddeev's M_(k+1) = B M_k + c_k I
    takes four.  The c_k are the coefficients of one polynomial, so they
    are the same integers by either recurrence.
    """
    h = (n + 1) // 2
    powers = [None, nums]
    for _ in range(2, h + 1):
        powers.append(int_mat_mul(powers[-1], nums, n))
    sums = [None] + [sum(powers[k][::n + 1]) for k in range(1, h + 1)] + \
        [_trace_of_product(powers[h], powers[k - h], n)
         for k in range(h + 1, n + 1)]
    coeffs = [1]
    for k in range(1, n + 1):
        coeffs.append(-sum(map(mul, coeffs[::-1], sums[1:k + 1])) // k)
    return coeffs


class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    ``nums`` holds the integer numerators by degree over the positive
    denominator ``den``; trailing zeros are stripped, so the leading
    coefficient is nonzero unless the polynomial is zero (empty tuple,
    degree -1, denominator 1).
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        self._set(*_cleared(list(coeffs)))

    def _set(self, nums: list, den: int) -> "Poly":
        """Store integer numerators over a nonzero denominator, trailing
        zeros stripped, in canonical form."""
        while nums and nums[-1] == 0:
            nums.pop()
        self.nums, self.den = _reduced(nums, den)
        return self

    @classmethod
    def constant(cls, c: Scalar) -> "Poly":
        return cls([c])

    @property
    def coeffs(self) -> tuple:
        """The coefficients as reduced Fractions, by degree."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def __neg__(self) -> "Poly":
        return _poly([-x for x in self.nums], self.den)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        xs, ys = self.nums, other.nums
        if not xs or not ys:
            return Poly()
        out = [0] * (len(xs) + len(ys) - 1)
        for i, a in enumerate(xs):
            if a:
                for j, b in enumerate(ys, i):
                    out[j] += a * b
        return _poly(out, self.den * other.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.den, self.nums))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{k}")
        return "Poly(" + " + ".join(terms) + ")"

    def to_strings(self) -> list:
        return [rational_text(c) for c in self.coeffs]


def _poly(nums: list, den: int) -> Poly:
    """A Poly from integer numerators by degree over a nonzero
    denominator."""
    return object.__new__(Poly)._set(nums, den)


class RationalMatrix:
    """Dense square matrix over exact rationals.

    ``nums`` holds the dim x dim integer numerators row by row over the
    positive denominator ``den``, in canonical form.
    """

    __slots__ = ("dim", "nums", "den")

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        rs = [list(row) for row in rows]
        self._set(_square(rs), *_cleared([x for row in rs for x in row]))

    def _set(self, n: int, nums: list, den: int) -> "RationalMatrix":
        """Store n*n integer numerators, row by row, over a nonzero
        denominator, in canonical form."""
        self.dim = n
        self.nums, self.den = _reduced(nums, den)
        return self

    # -- constructors ------------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls.diagonal([1] * n)

    @classmethod
    def from_integers(cls, nums: Sequence[int], den: int) -> "RationalMatrix":
        """The matrix of the n*n integer numerators ``nums``, row by row,
        over the nonzero integer ``den``, brought to canonical form by one
        gcd; nothing is cleared.  A zero ``den`` raises the
        ZeroDivisionError that Fraction(nums[0], 0) raises."""
        nums = tuple(nums)
        n = math.isqrt(len(nums))
        if n * n != len(nums):
            raise DimensionMismatch("matrix must be square",
                                    {"entries": len(nums)})
        if not den:
            raise ZeroDivisionError(f"Fraction({nums[0] if nums else 0}, 0)")
        return object.__new__(cls)._set(n, nums, den)

    @classmethod
    def zero(cls, n: int) -> "RationalMatrix":
        return cls.from_integers([0] * (n * n), 1)

    @classmethod
    def diagonal(cls, entries: Sequence[Scalar]) -> "RationalMatrix":
        n = len(entries)
        diag, den = _cleared(entries)
        nums = [0] * (n * n)
        nums[::n + 1] = diag
        return cls.from_integers(nums, den)

    @classmethod
    def from_blocks(cls, blocks) -> "RationalMatrix":
        """Assemble from a 2x2 grid of equally sized square blocks."""
        (tl, tr), (bl, br) = blocks
        k = tl.dim
        if any(b.dim != k for b in (tr, bl, br)):
            raise DimensionMismatch("matrix must be square",
                                    {"blocks": [b.dim for b in
                                                (tl, tr, bl, br)]})
        den = math.lcm(tl.den, tr.den, bl.den, br.den)
        nums = []
        for left, right in ((tl, tr), (bl, br)):
            fl, fr = den // left.den, den // right.den
            for lrow, rrow in zip(_split_rows(left.nums, k),
                                  _split_rows(right.nums, k)):
                nums += [x * fl for x in lrow]
                nums += [x * fr for x in rrow]
        return cls.from_integers(nums, den)

    # -- basic structure ---------------------------------------------------
    @property
    def rows(self) -> tuple:
        """The entries as reduced Fractions, a tuple of row tuples."""
        den = self.den
        return tuple(_split_rows(tuple(Fraction(x, den) for x in self.nums),
                                 self.dim))

    def _int_rows(self) -> list:
        """The numerator rows, as tuples."""
        return _split_rows(self.nums, self.dim)

    def __getitem__(self, idx):
        """Entry (i, j) as a reduced Fraction, built alone; the indices
        behave as in ``.rows[i][j]`` (negative ones count from the end)."""
        i, j = idx
        span = range(self.dim)
        try:
            k = span[i] * self.dim + span[j]
        except IndexError:
            raise IndexError("tuple index out of range") from None
        return Fraction(self.nums[k], self.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalMatrix) and self.dim == other.dim
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.dim, self.den, self.nums))

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in row) for row in self.rows)
        return f"RationalMatrix([{body}])"

    def to_strings(self) -> list:
        return [[rational_text(x) for x in row] for row in self.rows]

    def block(self, i0: int, i1: int, j0: int, j1: int) -> "RationalMatrix":
        rows = [row[j0:j1] for row in self._int_rows()[i0:i1]]
        _square(rows)
        return RationalMatrix.from_integers([x for row in rows for x in row],
                                            self.den)

    def trace(self) -> Fraction:
        return Fraction(sum(self.nums[::self.dim + 1]), self.den)

    def to_complex(self):
        return cleared_complex_array(self.nums, self.den, self.dim)

    # -- arithmetic --------------------------------------------------------
    def _check_dim(self, other: "RationalMatrix"):
        if self.dim != other.dim:
            raise DimensionMismatch(
                f"dimension mismatch: {self.dim} vs {other.dim}")

    def _combine(self, other, sign: int) -> "RationalMatrix":
        self._check_dim(other)
        da, db = self.den, other.den
        g = math.gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        return RationalMatrix.from_integers(
            [x * fa + y * fb for x, y in zip(self.nums, other.nums)], da * fa)

    def __add__(self, other) -> "RationalMatrix":
        return self._combine(other, 1)

    def __sub__(self, other) -> "RationalMatrix":
        return self._combine(other, -1)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix.from_integers([-x for x in self.nums], self.den)

    def __mul__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return mat_mul(self, other)

    def scale(self, s: Scalar) -> "RationalMatrix":
        s = s if isinstance(s, (int, Fraction)) else to_fraction(s)
        return RationalMatrix.from_integers(
            [x * s.numerator for x in self.nums], self.den * s.denominator)

    # -- elimination-based operations --------------------------------------
    def det(self) -> Fraction:
        """det M = det B / den^n for the numerator matrix B."""
        n = self.dim
        pivots, pivot, sign = _eliminate(self._int_rows(), n)
        if len(pivots) < n:
            return Fraction(0)
        return Fraction(sign * pivot, self.den ** n)

    def inverse(self) -> "RationalMatrix":
        """M^-1 = den B^-1 for the numerator matrix B; the elimination of
        [B | I] leaves [p I | p B^-1]."""
        n = self.dim
        m = [[*row, *(int(i == j) for j in range(n))]
             for i, row in enumerate(self._int_rows())]
        pivots, pivot, _ = _eliminate(m, n)
        if len(pivots) < n:
            raise SingularMatrixError("matrix is singular")
        den = self.den
        return RationalMatrix.from_integers(
            [x * den for row in m for x in row[n:]], pivot)

    def char_poly(self) -> Poly:
        """Monic characteristic polynomial det(tI - M).

        Run on the numerator matrix B = den M: the coefficient of t^(n-k)
        of det(tI - B) is the integer c_k of `int_char_poly`, and that of
        det(tI - M) is c_k / den^k, c_k den^(n-k) over den^n.
        """
        n, den = self.dim, self.den
        coeffs = int_char_poly(self.nums, n)
        return _poly([c * den ** (n - k) for k, c in enumerate(coeffs)][::-1],
                     den ** n)

    def left_null_space(self) -> list:
        """Exact basis of {v : v M = 0}, rows normalized so the first
        nonzero entry is 1.

        The columns of the numerator matrix are eliminated as the rows of
        its transpose; with pivot p, v[free] = p and v[pivot column i] =
        -m_i[free] is p times the textbook vector, and the normalization
        removes p.
        """
        n, nums = self.dim, self.nums
        m = [list(nums[j::n]) for j in range(n)]
        pivots, pivot, _ = _eliminate(m, n)
        basis = []
        for free in (c for c in range(n) if c not in pivots):
            v = [0] * n
            v[free] = pivot
            for row, col in zip(m, pivots):
                v[col] = -row[free]
            first = next(x for x in v if x)
            basis.append([Fraction(x, first) for x in v])
        return basis


def _square(rows: list) -> int:
    """The size of a list of rows; DimensionMismatch unless square."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionMismatch("matrix must be square",
                                {"rows": n, "cols": [len(r) for r in rows]})
    return n


def _eliminate(m: list, ncols: int) -> tuple:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Pivots are taken in the first ``ncols`` columns, left to right, each on
    the first row at or below the current one with a nonzero entry there.
    The step on pivot p replaces every other row r by
    (p m_r - m_r[col] m_pivot) / prev, prev being the previous pivot; by
    Sylvester's identity every entry is then a minor of the input, so the
    division is exact (Bareiss 1968).  Returns the pivot columns, the last
    pivot and the sign of the row permutation.  At the end pivot row i
    holds the last pivot in pivot column i and 0 in the other pivot
    columns: the reduced row echelon form is m / pivot.
    """
    pivots = []
    prev, sign = 1, 1
    for col in range(ncols):
        top = len(pivots)
        piv = next((r for r in range(top, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        if piv != top:
            m[top], m[piv] = m[piv], m[top]
            sign = -sign
        prow = m[top]
        p = prow[col]
        for r, row in enumerate(m):
            if r != top:
                f = row[col]
                m[r] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
        pivots.append(col)
        prev = p
    return pivots, prev, sign


def mat_mul(lhs: RationalMatrix, rhs: RationalMatrix) -> RationalMatrix:
    """Exact matrix product of equally sized square matrices: integer dot
    products of numerator rows and columns over the product of the two
    denominators, reduced once."""
    if lhs.dim != rhs.dim:
        raise DimensionMismatch(
            f"dimension mismatch: {lhs.dim} vs {rhs.dim}")
    return RationalMatrix.from_integers(
        int_mat_mul(lhs.nums, rhs.nums, lhs.dim), lhs.den * rhs.den)


def left_eigenvectors(matrix: RationalMatrix, eigenvalue: Scalar) -> list:
    """Exact basis of left eigenvectors v with v M = xi v.

    The eigenvalue must be an exact root of the characteristic polynomial:
    an empty left null space of M - xi I is rejected with an error.
    """
    xi = to_fraction(eigenvalue)
    shifted = matrix - RationalMatrix.identity(matrix.dim).scale(xi)
    basis = shifted.left_null_space()
    if not basis:
        raise NotAnEigenvalue(f"{rational_text(xi)} is not an eigenvalue")
    return basis


class PolyMatrix:
    """Dense square matrix polynomial sum_k z^k M_k with exact rational
    coefficients; its determinant and `poly_adjugate` are for 2x2 matrices
    only.

    ``coeffs`` holds the square `RationalMatrix` coefficients M_0, M_1, ...
    by degree, trailing zero matrices stripped (the zero matrix polynomial
    keeps M_0 = 0), so equality and hashing are canonical.
    """

    __slots__ = ("coeffs", "_cleared")

    def __init__(self, coeffs: Iterable[RationalMatrix]):
        cs = list(coeffs)
        if len({m.dim for m in cs}) != 1:
            raise DimensionMismatch("coefficients must be square matrices "
                                    "of one size",
                                    {"dims": [m.dim for m in cs]})
        while len(cs) > 1 and not any(cs[-1].nums):
            cs.pop()
        self.coeffs = tuple(cs)
        self._cleared = None

    @property
    def dim(self) -> int:
        return self.coeffs[0].dim

    @property
    def cleared(self) -> tuple:
        """(nums, den): the numerators of every coefficient, row by row
        and by degree, over the lcm of their denominators; built on first
        read and kept."""
        if self._cleared is None:
            den = math.lcm(*(m.den for m in self.coeffs))
            self._cleared = (tuple(tuple(x * (den // m.den) for x in m.nums)
                                   for m in self.coeffs), den)
        return self._cleared

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyMatrix) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"PolyMatrix({list(self.coeffs)!r})"

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """The product, convolved coefficient by coefficient on the
        numerators over the product of the two denominators."""
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        n = self.dim
        if n != other.dim:
            raise DimensionMismatch(f"dimension mismatch: {n} vs {other.dim}")
        (xs, dx), (ys, dy) = self.cleared, other.cleared
        out = [[0] * (n * n) for _ in range(len(xs) + len(ys) - 1)]
        for i, x in enumerate(xs):
            for k, y in enumerate(ys, i):
                out[k] = list(map(add, out[k], int_mat_mul(x, y, n)))
        return PolyMatrix(RationalMatrix.from_integers(c, dx * dy)
                          for c in out)

    def block(self, i0: int, i1: int, j0: int, j1: int) -> "PolyMatrix":
        return PolyMatrix(m.block(i0, i1, j0, j1) for m in self.coeffs)

    def det(self) -> Poly:
        """Determinant of a 2x2 polynomial matrix, a d - b c on the
        numerators' coefficient lists."""
        if self.dim != 2:
            raise DimensionMismatch("determinant implemented for dimension 2",
                                    {"dim": self.dim})
        nums, den = self.cleared
        a, b, c, d = zip(*nums)
        return _poly(_cross(a, d, b, c), den * den)


def _cross(p, q, r, s) -> list:
    """The integer coefficients of p q - r s, for coefficient lists by
    degree; the result may end in zeros."""
    out = [0] * max(len(p) + len(q), len(r) + len(s))
    for i, x in enumerate(p):
        for j, y in enumerate(q, i):
            out[j] += x * y
    for i, x in enumerate(r):
        for j, y in enumerate(s, i):
            out[j] -= x * y
    return out


def poly_adjugate(m: PolyMatrix) -> PolyMatrix:
    """Adjugate of a 2x2 polynomial matrix: M adj = det(M) I as an exact
    polynomial identity, a zero determinant included.

    A 2x2 adjugate is the trace complement tr(M) I - M, linear in M, so it
    is taken coefficient by coefficient, on the numerators.
    """
    if m.dim != 2:
        raise DimensionMismatch("adjugate implemented for dimension 2",
                                {"dim": m.dim})
    return PolyMatrix(RationalMatrix.from_integers([d, -b, -c, a], x.den)
                      for x in m.coeffs for a, b, c, d in [x.nums])


def matrix_from_json(data) -> RationalMatrix:
    if not (isinstance(data, list)
            and all(isinstance(row, list) for row in data)):
        raise InputError("matrix JSON must be an array of arrays")
    return RationalMatrix([to_fraction(x) for x in row] for row in data)
