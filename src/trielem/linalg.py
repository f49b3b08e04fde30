"""Exact dense linear algebra over the integers and rationals.

Everything runs on Python ints and ``fractions.Fraction``: one fraction-free
symmetric elimination gives both the determinant and the eigenvalue sign
counts (Sylvester's law of inertia) of a symmetric integer matrix, and is
run once per matrix; Bareiss elimination gives the determinant of any
other square matrix.  Smith normal form runs exact, with U and V built
afterwards from its recorded steps, or modulo a multiple of the
determinant, with only the columns of V at the invariant factors; the exact
one gives rational inverses too.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .errors import NotSymmetric, SingularMatrix


class Matrix:
    """Immutable dense matrix with int or Fraction entries; caches its hash
    and its symmetry and integrality tests."""

    __slots__ = ("entries", "_hash", "_symmetric", "_integral")

    def __init__(self, rows: Sequence[Sequence]):
        entries = tuple(tuple(row) for row in rows)
        if entries and any(len(row) != len(entries[0]) for row in entries):
            raise ValueError("matrix rows have unequal lengths")
        self.entries = entries
        self._hash = self._symmetric = self._integral = None

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
        if self._symmetric is None:
            self._symmetric = self.entries == tuple(zip(*self.entries))
        return self._symmetric

    @property
    def is_integral(self) -> bool:
        if self._integral is None:
            self._integral = all(x.denominator == 1 for row in self.entries for x in row)
        return self._integral

    def to_int(self) -> "Matrix":
        """With plain int entries: itself, or a copy; requires ``is_integral``."""
        if set(map(type, chain.from_iterable(self.entries))) <= {int}:
            return self
        return Matrix([[int(x) for x in row] for row in self.entries])

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

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
        return tuple(sum(map(mul, row, vec)) for row in self.entries)

    def scaled(self, c) -> "Matrix":
        return Matrix([[c * x for x in row] for row in self.entries])

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.entries)
        return self._hash

    def __repr__(self) -> str:
        return f"Matrix({[list(row) for row in self.entries]!r})"


def block_diagonal(blocks: Sequence[Matrix]) -> Matrix:
    """The square matrix with the given square blocks on its diagonal."""
    n = sum(b.nrows for b in blocks)
    rows = []
    for b in blocks:
        left = len(rows)
        rows += [[0] * left + list(row) + [0] * (n - left - b.nrows) for row in b.entries]
    return Matrix(rows)


def pair_value(g: Matrix, x: Sequence, y: Sequence):
    """The bilinear value x^T g y, exactly."""
    gy = g.mul_vec(y)
    return sum(a * b for a, b in zip(x, gy))


@lru_cache(maxsize=None)
def determinant(a: Matrix):
    """Exact determinant of a square matrix.

    A symmetric integer matrix takes it from the ``symmetric_elimination``
    that ``signature`` runs, so a Gram matrix is eliminated once for both.
    Other input goes through fraction-free Bareiss elimination, so every
    intermediate value stays an integer; rational input is scaled by the
    common denominator c first and the result divided by c**n.
    """
    if not a.is_square:
        raise ValueError("determinant of a non-square matrix")
    if a.is_symmetric and a.is_integral:
        return _signature_and_determinant(a)[1]
    n = a.nrows
    c = lcm(*(x.denominator for row in a.entries for x in row))
    det = _det_bareiss([[int(x * c) for x in row] for row in a.entries])
    return det if c == 1 else Fraction(det, c**n)


def _det_bareiss(m):
    """Fraction-free Bareiss elimination: the previous pivot divides every
    updated entry exactly (Sylvester's determinant identity)."""
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
        pivot, row_k = m[k][k], m[k]
        for row_i in m[k + 1 :]:
            mik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
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
    the identity and the rows belong to g itself.  The active block stays
    symmetric (Bareiss 1968): each step computes its upper half, mirrored.
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
        pivot, row_k = m[k][k], m[k]
        for i in range(k + 1, rank):
            row_i = m[i]
            mik = row_i[k]
            for j in range(i, rank):
                row_i[j] = m[j][i] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
        k += 1
    return m, rank


def rational_inverse(a: Matrix) -> Matrix:
    """Exact inverse over the rationals; raises SingularMatrix when det = 0.
    With U @ (c*A) @ V = D exact, c the common denominator of A and t the
    last invariant factor, A^-1 = (c * V @ diag(t/d_i) @ U) / t."""
    if not a.is_square:
        raise ValueError("inverse of a non-square matrix")
    n = a.nrows
    c = lcm(*(x.denominator for row in a.entries for x in row))
    u, d, v = smith_normal_form(a.scaled(c))
    top = d[n - 1, n - 1] if n else 1
    if top == 0:
        raise SingularMatrix("matrix has determinant zero")
    scale = [c * top // d[i, i] for i in range(n)]
    vd = Matrix([[x * s for x, s in zip(row, scale)] for row in v.entries])
    return Matrix([[Fraction(x, top) for x in row] for row in (vd @ u).entries])


def smith_normal_form(a: Matrix, modulus: int = 0) -> tuple[Matrix | None, Matrix, Matrix]:
    """Decompose an integer matrix as U @ A @ V = D.

    With the default ``modulus`` 0 the arithmetic is exact: U and V are
    unimodular, and D is diagonal with nonnegative entries forming a
    divisibility chain d1 | d2 | ...  Pivots are always the smallest
    surviving |entry| (ties broken by lowest row, then column), which makes
    the decomposition deterministic.

    With ``modulus`` m > 0 the same elimination runs modulo m (Cohen, GTM
    138, §2.4; Hafner-McCurley 1991), so entries stay below m in size: a
    working entry is replaced by its symmetric residue once |x| > m.  Then
    U @ A @ V = D holds mod m for some U and V invertible mod m, and the
    gcd(d_i, m) form a divisibility chain.  If A is square and
    |det A| != 0 divides m, the invariant factors of Z^n / A Z^n are the
    gcd(d_i, m).  Only the columns of V at the factor positions i, those
    with gcd(d_i, m) != 1, are returned, with entries in [0, m), and None
    stands in place of U.  Where no working entry outgrows m, the pivots
    and D are those of the exact path, and the columns agree with it mod m.

    No pivot reads U or V: the elimination records its operations and
    builds the transforms afterwards by replaying them.
    """
    if not a.is_integral:
        raise ValueError("Smith normal form needs integer entries")
    if modulus < 0:
        raise ValueError("the modulus must be nonnegative")
    m, h = modulus, modulus // 2
    if m:

        def combine(row, other, c):
            # row + c * other; an entry that outgrew m becomes its
            # symmetric residue
            return [
                z if abs(z := x + c * y) <= m else (z + h) % m - h for x, y in zip(row, other)
            ]

        def combine_mod(row, other, c):
            return [(x + c * y) % m for x, y in zip(row, other)]

    else:

        def combine(row, other, c):
            return [x + c * y for x, y in zip(row, other)]

        combine_mod = combine

    nr, nc = a.nrows, a.ncols
    # (i, j, c) records "line i += c * line j", and (i, j, None) swaps them
    row_ops, col_ops = [], []
    # At step t, block[i][j] is entry (t+i, t+j) of the working matrix;
    # every entry outside the block and off the diagonal is already zero.
    # combine() with a zero row reduces the input entries that outgrow m.
    block = [combine([0] * nc, [int(x) for x in row], 1) for row in a.entries]
    diag = []

    def swap_rows(t, i):
        block[0], block[i] = block[i], block[0]
        row_ops.append((t, t + i, None))

    def swap_cols(t, j):
        for row in block:
            row[0], row[j] = row[j], row[0]
        col_ops.append((t, t + j, None))

    for t in range(min(nr, nc)):
        # the smallest nonzero |entry|, in the lowest row, then column
        best = min(filter(None, map(abs, chain.from_iterable(block))), default=None)
        if best is None:
            break
        swap_rows(t, next(i for i, row in enumerate(block) if best in row or -best in row))
        swap_cols(t, next(j for j, x in enumerate(block[0]) if abs(x) == best))
        while True:
            # Drive column 0 below the pivot and row 0 right of it to zero;
            # a division remainder is strictly smaller than the pivot, so
            # promoting it and starting again terminates.
            if block[0][0] < 0:
                block[0] = [-x for x in block[0]]
                row_ops.append((t, t, -2))  # row t += -2 * row t
            row_t, pivot = block[0], block[0][0]
            promoted = False
            for i in range(1, len(block)):
                if block[i][0]:
                    c = -(block[i][0] // pivot)
                    block[i] = combine(block[i], row_t, c)
                    row_ops.append((t + i, t, c))
                    if block[i][0]:
                        swap_rows(t, i)
                        promoted = True
                        break
            if promoted:
                continue
            # column 0 is now zero off the pivot, so subtracting q times
            # column 0 from column j changes only row_t[j] in the block
            for j in range(1, len(row_t)):
                if row_t[j]:
                    q = row_t[j] // pivot
                    row_t[j] -= q * pivot
                    col_ops.append((t + j, t, -q))
                    if row_t[j]:
                        swap_cols(t, j)
                        promoted = True
                        break
            if promoted:
                continue
            # the pivot must divide the rest of the block; if it does not,
            # adding an offending row to row 0 brings a remainder next round
            if pivot == 1:
                break
            offender = next(
                (i for i in range(1, len(block)) if any(x % pivot for x in block[i])), None
            )
            if offender is None:
                break
            block[0] = combine(row_t, block[offender], 1)
            row_ops.append((t, t + offender, 1))
        diag.append(pivot)
        block = [row[1:] for row in block[1:]]
    diag += [0] * max(nr, nc)
    d = [[diag[i] if i == j else 0 for j in range(nc)] for i in range(nr)]

    def replay(ops, size, keep):
        # Row p of U = E_K ... E_1 is e_p^T E_K ... E_1, and column p of
        # V = F_1 ... F_K is F_1 ... F_K e_p: both apply the operations to
        # e_p in reverse order, "line i += c * line j" as "entry j += c *
        # entry i".  lines[i] holds entry i of every vector built.
        lines = [[int(i == p) for p in keep] for i in range(size)]
        for i, j, c in reversed(ops):
            if c is None:
                lines[i], lines[j] = lines[j], lines[i]
            else:
                lines[j] = combine_mod(lines[j], lines[i], c)
        return lines

    if m:
        factors = [p for p in range(nc) if gcd(diag[p], m) != 1]
        return None, Matrix(d), Matrix(replay(col_ops, nc, factors))
    u = Matrix(zip(*replay(row_ops, nr, range(nr))))
    return u, Matrix(d), Matrix(replay(col_ops, nc, range(nc)))


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
    return _signature_and_determinant(g)[0]


@lru_cache(maxsize=None)
def _signature_and_determinant(g: Matrix) -> tuple[tuple[int, int, int], int]:
    """The signature and the determinant of a symmetric integer matrix, from
    one ``symmetric_elimination``.  Its repairs and radical swaps are
    congruences by matrices of determinant +-1, so det g is the last leading
    minor D_n when no direction is radical, and 0 when one is."""
    rows, rank = symmetric_elimination(g)
    minors = [1] + [rows[k][k] for k in range(rank)]
    minus = sum(1 for x, y in zip(minors, minors[1:]) if (x > 0) != (y > 0))
    det = minors[-1] if rank == g.nrows else 0
    return (rank - minus, g.nrows - rank, minus), det
