"""Exact rational scalars, dense univariate polynomials, and small matrices.

Every structural identity verified by this package is an equality between
rationals, so entries are `fractions.Fraction`: in lowest terms with a
positive denominator, hence unique.  The kernels do not add and multiply
Fractions one by one (each such step is a gcd); they clear a row, a column
or a whole matrix to integer numerators over one positive common
denominator (`common_denominator`), run on Python ints, and reduce each
output entry once:

* `mat_mul`, `RationalMatrix.apply` and `Poly.__mul__` are integer dot
  products and convolutions over the product of two denominators;
* `RationalMatrix.char_poly` runs Leverrier-Faddeev on the integer matrix
  D M, where the divisions by k are exact, and scales coefficient k by
  D^-k;
* `det`, `inverse` and `left_null_space` use fraction-free (Bareiss)
  elimination, whose divisions by the previous pivot are exact.

The outputs are the same Fractions the textbook Fraction algorithms give.

Serialization convention: a rational is the string ``"p/q"`` (``"p"`` when
the denominator is 1), sign on the numerator; a matrix is a JSON array of
arrays of such strings.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, Union

from .errors import (DimensionMismatch, InputError, NotAnEigenvalue,
                     SingularMatrixError)

Scalar = Union[Fraction, int]


def to_fraction(value) -> Fraction:
    """Parse a rational from a string like '-3/7' (or int/Fraction)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational number: {value!r}",
                             {"value": value}) from exc
    raise InputError(f"cannot convert {type(value).__name__} to a rational",
                     {"value": repr(value)})


def to_double(value) -> float:
    """The double nearest a rational (Fraction or int; a float passes
    through): float() of it, which rounds the exact quotient once.  A value
    beyond the largest double is an InputError, not an OverflowError."""
    try:
        return float(value)
    except OverflowError as exc:
        raise InputError("rational outside the double range",
                         {"log2": value.numerator.bit_length()
                          - value.denominator.bit_length()}) from exc


def complex_array(rows):
    """Rationals row by row as a complex numpy array.  Each entry is the
    double to_double gives, the one complex(x) would take, without the
    detour through numbers.Real.__complex__."""
    import numpy as np
    return np.array([[to_double(x) for x in row] for row in rows],
                    dtype=complex)


def _fractions(values) -> tuple:
    """Entries as Fractions: existing ones kept, others via to_fraction."""
    return tuple(x if isinstance(x, Fraction) else to_fraction(x)
                 for x in values)


def common_denominator(values) -> tuple:
    """(integer numerators, positive common denominator) of rationals.

    ``values`` are Fractions or ints; the denominator is the lcm of theirs.
    """
    den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _dot(xs, ys) -> int:
    return sum(map(mul, xs, ys))


class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are indexed by degree; trailing zeros are stripped so the
    leading coefficient is nonzero unless the polynomial is zero (empty
    coefficient tuple, degree -1).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = list(_fractions(coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c: Scalar) -> "Poly":
        return cls([c])

    @classmethod
    def variable(cls) -> "Poly":
        """The polynomial z."""
        return cls([0, 1])

    @classmethod
    def interpolate(cls, points: Sequence[tuple]) -> "Poly":
        """Lagrange interpolation through exact (x, y) pairs."""
        result = cls()
        for i, (xi, yi) in enumerate(points):
            num = cls.constant(yi)
            den = Fraction(1)
            for j, (xj, _) in enumerate(points):
                if j == i:
                    continue
                num = num * cls([-xj, 1])
                den *= Fraction(xi) - Fraction(xj)
            result = result + num * (Fraction(1) / den)
        return result

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(k) + other.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) - self

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        xs, dx = common_denominator(self.coeffs)
        ys, dy = common_denominator(other.coeffs)
        out = [0] * (len(xs) + len(ys) - 1)
        for i, a in enumerate(xs):
            if a:
                for j, b in enumerate(ys):
                    out[i + j] += a * b
        den = dx * dy
        return Poly([Fraction(n, den) for n in out])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        out = Poly.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for Fraction/int arguments."""
        if isinstance(x, (int, Fraction)):
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + complex(c)
        return acc

    def reflected(self) -> "Poly":
        """The polynomial p(-z)."""
        return Poly([c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)])

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
        return [str(c) for c in self.coeffs]


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.constant(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Poly")


class RationalMatrix:
    """Dense square matrix over exact rationals."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        rs = tuple(_fractions(row) for row in rows)
        n = len(rs)
        if any(len(row) != n for row in rs):
            raise DimensionMismatch("matrix must be square",
                                    {"rows": n, "cols": [len(r) for r in rs]})
        self.rows = rs

    # -- constructors ------------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n: int) -> "RationalMatrix":
        return cls([[0] * n for _ in range(n)])

    @classmethod
    def diagonal(cls, entries: Sequence[Scalar]) -> "RationalMatrix":
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)]
                    for i in range(n)])

    @classmethod
    def from_blocks(cls, blocks) -> "RationalMatrix":
        """Assemble from a 2x2 grid of equally sized square blocks."""
        top, bottom = blocks
        rows = []
        for left, right in ((top[0], top[1]), (bottom[0], bottom[1])):
            for rl, rr in zip(left.rows, right.rows):
                rows.append(rl + rr)
        return cls(rows)

    @classmethod
    def from_strings(cls, rows) -> "RationalMatrix":
        return cls([[to_fraction(x) for x in row] for row in rows])

    # -- basic structure ---------------------------------------------------
    @property
    def dim(self) -> int:
        return len(self.rows)

    def __getitem__(self, idx):
        i, j = idx
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in row) for row in self.rows)
        return f"RationalMatrix([{body}])"

    def to_strings(self) -> list:
        return [[str(x) for x in row] for row in self.rows]

    def block(self, i0: int, i1: int, j0: int, j1: int) -> "RationalMatrix":
        return RationalMatrix([row[j0:j1] for row in self.rows[i0:i1]])

    def transpose(self) -> "RationalMatrix":
        n = self.dim
        return RationalMatrix([[self.rows[j][i] for j in range(n)]
                               for i in range(n)])

    def trace(self) -> Fraction:
        return sum((self.rows[i][i] for i in range(self.dim)), Fraction(0))

    def to_complex(self):
        return complex_array(self.rows)

    # -- arithmetic --------------------------------------------------------
    def _check_dim(self, other: "RationalMatrix"):
        if self.dim != other.dim:
            raise DimensionMismatch(
                f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other) -> "RationalMatrix":
        self._check_dim(other)
        return RationalMatrix([[a + b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other) -> "RationalMatrix":
        self._check_dim(other)
        return RationalMatrix([[a - b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix([[-x for x in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return mat_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, s: Scalar) -> "RationalMatrix":
        return RationalMatrix([[x * s for x in row] for row in self.rows])

    def apply(self, vector: Sequence) -> list:
        """M v: exact Fractions for a rational v, entry by entry otherwise
        (a complex v gives complex entries)."""
        if len(vector) != self.dim:
            raise DimensionMismatch("vector length does not match matrix")
        if all(isinstance(v, (int, Fraction)) for v in vector):
            ys, dy = common_denominator(vector)
            return [Fraction(_dot(xs, ys), dx * dy)
                    for xs, dx in map(common_denominator, self.rows)]
        return [sum((a * v for a, v in zip(row, vector)), Fraction(0))
                for row in self.rows]

    # -- elimination-based operations --------------------------------------
    def det(self) -> Fraction:
        """det M = det B / prod(d_i) for the rows B_i = d_i M_i cleared."""
        cleared = [common_denominator(row) for row in self.rows]
        pivots, pivot, sign = _eliminate([xs for xs, _ in cleared], self.dim)
        if len(pivots) < self.dim:
            return Fraction(0)
        return Fraction(sign * pivot, math.prod(d for _, d in cleared))

    def inverse(self) -> "RationalMatrix":
        """M^-1 = B^-1 diag(d) for the rows B_i = d_i M_i cleared; the
        elimination of [B | I] leaves [p I | p B^-1]."""
        n = self.dim
        cleared = [common_denominator(row) for row in self.rows]
        m = [xs + [int(i == j) for j in range(n)]
             for i, (xs, _) in enumerate(cleared)]
        pivots, pivot, _ = _eliminate(m, n)
        if len(pivots) < n:
            raise SingularMatrixError("matrix is singular")
        return RationalMatrix([[Fraction(x * d, pivot)
                                for x, (_, d) in zip(row[n:], cleared)]
                               for row in m])

    def char_poly(self) -> Poly:
        """Monic characteristic polynomial det(tI - M), Leverrier-Faddeev.

        Run on the integer matrix B = D M: with M_1 = I and
        M_(k+1) = B M_k + c_k I, the coefficient of t^(n-k) of det(tI - B)
        is the integer c_k = -tr(B M_k) / k (an exact division), and that
        of det(tI - M) is c_k / D^k.
        """
        n = self.dim
        flat, den = common_denominator([x for row in self.rows for x in row])
        b = [flat[i * n:(i + 1) * n] for i in range(n)]
        coeffs = [1]
        acc = [[int(i == j) for j in range(n)] for i in range(n)]
        for k in range(1, n + 1):
            acc = [[_dot(row, col) for col in zip(*acc)] for row in b]
            ck = -sum(acc[i][i] for i in range(n)) // k
            coeffs.append(ck)
            for i in range(n):
                acc[i][i] += ck
        return Poly([Fraction(c, den ** k)
                     for k, c in enumerate(coeffs)][::-1])

    def left_null_space(self) -> list:
        """Exact basis of {v : v M = 0}, rows normalized so the first
        nonzero entry is 1.

        The columns of M, cleared to integers, are eliminated as the rows of
        M^T; with pivot p, v[free] = p and v[pivot column i] = -m_i[free]
        is p times the textbook vector, and the normalization removes p.
        """
        n = self.dim
        m = [common_denominator(col)[0] for col in zip(*self.rows)]
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
    products of cleared rows and columns, one reduction per entry."""
    if lhs.dim != rhs.dim:
        raise DimensionMismatch(
            f"dimension mismatch: {lhs.dim} vs {rhs.dim}")
    cols = [common_denominator(col) for col in zip(*rhs.rows)]
    return RationalMatrix([[Fraction(_dot(xs, ys), dx * dy)
                            for ys, dy in cols]
                           for xs, dx in map(common_denominator, lhs.rows)])


def left_eigenvectors(matrix: RationalMatrix, eigenvalue: Scalar) -> list:
    """Exact basis of left eigenvectors v with v M = xi v.

    The eigenvalue must be an exact root of the characteristic polynomial;
    otherwise the (empty) null space is rejected with an error.
    """
    xi = to_fraction(eigenvalue)
    if matrix.char_poly()(xi) != 0:
        raise NotAnEigenvalue(f"{xi} is not an eigenvalue")
    shifted = matrix - RationalMatrix.identity(matrix.dim).scale(xi)
    return shifted.left_null_space()


class PolyMatrix:
    """Dense square matrix whose entries are exact polynomials in z; its
    determinant and `poly_adjugate` are for 2x2 matrices only."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Iterable]):
        rs = tuple(tuple(_as_poly(e) for e in row) for row in entries)
        n = len(rs)
        if any(len(row) != n for row in rs):
            raise DimensionMismatch("polynomial matrix must be square")
        self.entries = rs

    @classmethod
    def from_matrix_coeffs(cls, coeff_matrices: Sequence[RationalMatrix]) -> "PolyMatrix":
        """Build sum_k z^k M_k from constant matrices M_0, M_1, ..."""
        n = coeff_matrices[0].dim
        return cls([[Poly([m[i, j] for m in coeff_matrices])
                     for j in range(n)] for i in range(n)])

    @classmethod
    def from_constant(cls, m: RationalMatrix) -> "PolyMatrix":
        return cls.from_matrix_coeffs([m])

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, idx) -> Poly:
        i, j = idx
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"PolyMatrix({[[repr(e) for e in row] for row in self.entries]})"

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.dim != other.dim:
            raise DimensionMismatch("dimension mismatch")
        return PolyMatrix([[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.dim != other.dim:
            raise DimensionMismatch("dimension mismatch")
        return PolyMatrix([[a - b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix([[-e for e in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return PolyMatrix([[e * other for e in row] for row in self.entries])
        if self.dim != other.dim:
            raise DimensionMismatch("dimension mismatch")
        cols = list(zip(*other.entries))
        return PolyMatrix([[sum((a * b for a, b in zip(row, col)), Poly())
                            for col in cols]
                           for row in self.entries])

    __rmul__ = __mul__

    def block(self, i0: int, i1: int, j0: int, j1: int) -> "PolyMatrix":
        return PolyMatrix([row[j0:j1] for row in self.entries[i0:i1]])

    def eval(self, z0: Scalar) -> RationalMatrix:
        """Exact evaluation at a rational point."""
        x = to_fraction(z0)
        return RationalMatrix([[e(x) for e in row] for row in self.entries])

    def reflected(self) -> "PolyMatrix":
        """Entrywise substitution z -> -z."""
        return PolyMatrix([[e.reflected() for e in row] for row in self.entries])

    def det(self) -> Poly:
        """Determinant of a 2x2 polynomial matrix."""
        if self.dim != 2:
            raise DimensionMismatch("determinant implemented for dimension 2",
                                    {"dim": self.dim})
        (a, b), (c, d) = self.entries
        return a * d - b * c


def poly_adjugate(m: PolyMatrix) -> tuple:
    """Adjugate and determinant of a 2x2 polynomial matrix.

    Satisfies M * adj = det * I as an exact polynomial identity; a zero
    determinant is a legal output.
    """
    if m.dim != 2:
        raise DimensionMismatch("adjugate implemented for dimension 2",
                                {"dim": m.dim})
    (a, b), (c, d) = m.entries
    return PolyMatrix([[d, -b], [-c, a]]), m.det()


def matrix_from_json(data) -> RationalMatrix:
    if not (isinstance(data, list)
            and all(isinstance(row, list) for row in data)):
        raise InputError("matrix JSON must be an array of arrays")
    return RationalMatrix.from_strings(data)
