"""Exact dense linear algebra over the integers and rationals.

Everything runs on Python ints and ``fractions.Fraction``: determinants via
fraction-free elimination, Smith normal form with tracked unimodular
transforms, inverses over the rationals, and eigenvalue sign counts from a
fraction-free symmetric elimination by Sylvester's law of inertia.  No
floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence

from .errors import NotSymmetric, SingularMatrix


class Matrix:
    """Immutable dense matrix with int or Fraction entries."""

    __slots__ = ("entries",)

    def __init__(self, rows: Sequence[Sequence]):
        entries = tuple(tuple(row) for row in rows)
        if entries and any(len(row) != len(entries[0]) for row in entries):
            raise ValueError("matrix rows have unequal lengths")
        self.entries = entries

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def is_symmetric(self) -> bool:
        return self.entries == tuple(zip(*self.entries))

    @property
    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.entries for x in row)

    def to_int(self) -> "Matrix":
        """Copy with plain int entries; requires ``is_integral``."""
        return Matrix([[int(x) for x in row] for row in self.entries])

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.entries)))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("matrix shapes do not match")
        cols = tuple(zip(*other.entries))
        return Matrix(
            [
                [sum(a * b for a, b in zip(row, col)) for col in cols]
                for row in self.entries
            ]
        )

    def mul_vec(self, vec: Sequence) -> tuple:
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self.entries)

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __neg__(self) -> "Matrix":
        return self.scaled(-1)

    def scaled(self, c) -> "Matrix":
        return Matrix([[c * x for x in row] for row in self.entries])

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"Matrix({[list(row) for row in self.entries]!r})"


def pair_value(g: Matrix, x: Sequence, y: Sequence):
    """The bilinear value x^T g y, exactly."""
    gy = g.mul_vec(y)
    return sum(a * b for a, b in zip(x, gy))


@lru_cache(maxsize=None)
def determinant(a: Matrix):
    """Exact determinant of a square matrix.

    Fraction-free Bareiss elimination, so every intermediate value stays an
    integer; rational input is scaled by the common denominator c first and
    the result divided by c**n.
    """
    if not a.is_square:
        raise ValueError("determinant of a non-square matrix")
    n = a.nrows
    if n == 0:
        return 1
    c = lcm(*(x.denominator for row in a.entries for x in row))
    det = _det_bareiss([[int(x * c) for x in row] for row in a.entries])
    return det if c == 1 else Fraction(det, c**n)


def _eliminate(m, k: int, end: int, prev: int) -> None:
    """One Bareiss step: clear column k below the pivot m[k][k] within rows
    and columns k..end-1.  ``prev`` is the previous pivot, which divides
    every updated entry exactly (Sylvester's determinant identity)."""
    pivot = m[k][k]
    row_k = m[k]
    for i in range(k + 1, end):
        row_i = m[i]
        mik = row_i[k]
        for j in range(k + 1, end):
            row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
        row_i[k] = 0


def _det_bareiss(m):
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        _eliminate(m, k, n, prev)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def symmetric_elimination(g: Matrix) -> tuple[list[list[int]], int]:
    """Fraction-free congruence diagonalisation of a symmetric integer matrix.

    Returns (rows, rank).  Up to a unimodular change of basis P, the rows are
    the Bareiss rows of h = P^T g P: rows[k][k] is its leading principal
    minor D_{k+1}, rows[k][j] for j > k the minor bordered by row k and
    column j, and, with c_kj = rows[k][j]/rows[k][k],

        h(x) = sum_{k < rank} (D_{k+1}/D_k) (x_k + sum_{j>k} c_kj x_j)^2.

    A zero pivot with a nonzero entry elsewhere in its row is repaired by
    x_k -> x_k +- x_j; an all-zero row spans a radical direction and moves
    past the active block.  A definite g has no zero leading minor, so P is
    the identity and the rows belong to g itself.
    """
    m = [[int(x) for x in row] for row in g.entries]
    rank = len(m)
    prev = 1
    k = 0
    while k < rank:
        j = next((j for j in range(k, rank) if m[k][j]), None)
        if j is None:
            rank -= 1
            m[k], m[rank] = m[rank], m[k]
            for row in m:
                row[k], row[rank] = row[rank], row[k]
            continue
        if j > k:
            # the new pivot is m[j][j] +- 2*m[k][j]; one sign keeps it nonzero
            sign = 1 if m[j][j] + 2 * m[k][j] else -1
            m[k] = [a + sign * b for a, b in zip(m[k], m[j])]
            for row in m:
                row[k] += sign * row[j]
        _eliminate(m, k, rank, prev)
        prev = m[k][k]
        k += 1
    return m, rank


def rational_inverse(a: Matrix) -> Matrix:
    """Exact inverse over the rationals; raises SingularMatrix when det = 0."""
    if not a.is_square:
        raise ValueError("inverse of a non-square matrix")
    n = a.nrows
    work = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(a.entries)
    ]
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if work[i][k]), None)
        if pivot_row is None:
            raise SingularMatrix("matrix has determinant zero")
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
        pivot = work[k][k]
        work[k] = [x / pivot for x in work[k]]
        for i in range(n):
            if i != k and work[i][k]:
                factor = work[i][k]
                work[i] = [a - factor * b for a, b in zip(work[i], work[k])]
    return Matrix([row[n:] for row in work])


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Decompose an integer matrix as U @ A @ V = D.

    U and V are unimodular; D is diagonal with nonnegative entries forming a
    divisibility chain d1 | d2 | ...  Pivots are always the smallest
    surviving |entry| (ties broken by lowest row, then column), which makes
    the decomposition deterministic.
    """
    if not a.is_integral:
        raise ValueError("Smith normal form needs integer entries")
    nr, nc = a.nrows, a.ncols
    d = [[int(x) for x in row] for row in a.entries]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        for j in range(nc):
            d[dst][j] += c * d[src][j]
        for j in range(nr):
            u[dst][j] += c * u[src][j]

    def add_col(dst, src, c):
        for row in d:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    def clear_cross(t):
        # Drive column t below the pivot and row t right of it to zero;
        # any division remainder is strictly smaller than the pivot, so
        # promoting it and restarting terminates.
        while True:
            if d[t][t] < 0:
                negate_row(t)
            pivot = d[t][t]
            promoted = False
            for i in range(t + 1, nr):
                if d[i][t]:
                    add_row(i, t, -(d[i][t] // pivot))
                    if d[i][t]:
                        swap_rows(t, i)
                        promoted = True
                        break
            if promoted:
                continue
            for j in range(t + 1, nc):
                if d[t][j]:
                    add_col(j, t, -(d[t][j] // pivot))
                    if d[t][j]:
                        swap_cols(t, j)
                        promoted = True
                        break
            if promoted:
                continue
            return

    for t in range(min(nr, nc)):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                e = d[i][j]
                if e and (best is None or abs(e) < best[0]):
                    best = (abs(e), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        while True:
            clear_cross(t)
            pivot = d[t][t]
            offender = None
            for i in range(t + 1, nr):
                if any(d[i][j] % pivot for j in range(t + 1, nc)):
                    offender = i
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
    return Matrix(u), Matrix(d), Matrix(v)


@lru_cache(maxsize=None)
def signature(g: Matrix) -> tuple[int, int, int]:
    """(positive, zero, negative) eigenvalue counts of a symmetric matrix.

    Exact, by Sylvester's law of inertia: the congruent diagonal form of
    ``symmetric_elimination`` has one zero per radical direction and, by
    Jacobi's rule, one negative entry per sign change in the sequence of
    leading minors 1, D_1, ..., D_rank.
    """
    if not g.is_symmetric:
        raise NotSymmetric("signature needs a symmetric matrix")
    if not g.is_integral:
        raise ValueError("signature needs integer entries")
    rows, rank = symmetric_elimination(g)
    minors = [1] + [rows[k][k] for k in range(rank)]
    minus = sum(1 for x, y in zip(minors, minors[1:]) if (x > 0) != (y > 0))
    return (rank - minus, g.nrows - rank, minus)
