"""Exact dense linear algebra over the integers and rationals.

Everything runs on Python ints and ``fractions.Fraction``: one fraction-free
symmetric elimination gives both the determinant and the eigenvalue sign
counts (Sylvester's law of inertia) of a symmetric integer matrix, and is
run once per matrix; Bareiss elimination gives the determinant of any
other square matrix.  Smith normal form runs exact, one Euclidean loop per
pivot position with U and V built afterwards from its recorded steps, or
modulo m, with least-valuation pivots and only the columns of V at the
invariant factors; the exact one gives rational inverses too.  No floating
point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from math import gcd, lcm
from operator import mod, mul
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


class ModulusSplit(ArithmeticError):
    """The modular ``smith_normal_form`` met two entries whose gcds with the
    modulus do not divide one another, so no one pivot suits every prime
    of it.  ``factor`` is a divisor of the modulus, neither 1 nor the
    modulus itself and coprime to its cofactor, that separates them."""

    def __init__(self, modulus: int, factor: int):
        super().__init__(f"the modulus {modulus} splits at its factor {factor}")
        self.factor = factor


def smith_normal_form(a: Matrix, modulus: int = 0) -> tuple[Matrix | None, Matrix, Matrix]:
    """Decompose an integer matrix as U @ A @ V = D.

    With the default ``modulus`` 0 the arithmetic is exact: U and V are
    unimodular, and D is diagonal with nonnegative entries forming a
    divisibility chain d1 | d2 | ...  Each pivot position runs one loop:
    the smallest surviving |entry| (ties broken by lowest row, then column)
    becomes the positive corner pivot and clears its column, then its row,
    with floor quotients; a remainder, or a row the pivot does not divide,
    sends the loop back to pick again.  The fixed rule makes the
    decomposition deterministic.

    With ``modulus`` m > 0 the elimination runs over Z/m, pivoting on the
    entry x with the least gcd(x, m) = g, ties broken as above.  Over a
    local ring Z/p^N the entry of least valuation divides every other up to
    a unit (Cohen, GTM 138, §2.4), so one pass clears the pivot's row and
    column: an entry y goes with (y/g) * (x/g)^-1 mod m/g times the pivot's
    line.  Each pivot's g must divide gcd(y, m) for every entry y of its
    block; the entries left stay multiples of g, so only a step whose least
    gcd grows checks this.  Then the pivot has the least valuation at every
    prime of m at once, so at each prime the run is the local elimination,
    and by the Chinese remainder theorem U @ A @ V = D mod m for some U and
    V invertible mod m, with the gcd(d_i, m) a divisibility chain: the
    invariant factors of A over Z/m, that is gcd(e_i, m) for the exact
    invariant factors e_i.  Only the columns of V at the factor positions i,
    those with gcd(d_i, m) != 1, are returned, with entries in [0, m), and
    None stands in place of U.  If some gcd(y, m) is not a multiple of g,
    two primes of m want their pivots in different places, and ModulusSplit
    is raised with the part of m on the primes where g has the higher
    valuation.

    No pivot reads U or V: the elimination records its operations and
    builds the transforms afterwards by replaying them.
    """
    if not a.is_integral:
        raise ValueError("Smith normal form needs integer entries")
    if modulus < 0:
        raise ValueError("the modulus must be nonnegative")
    nr, nc = a.nrows, a.ncols
    if modulus:
        diag, columns = _least_valuation_elimination(a, modulus)
        v = Matrix([[column[k] for column in columns] for k in range(nc)])
        return None, _diagonal(diag, nr, nc), v

    # (i, j, c) records "line i += c * line j", and (i, j, None) swaps them
    row_ops, col_ops = [], []
    # At step t, block[i][j] is entry (t+i, t+j) of the working matrix;
    # every entry outside the block and off the diagonal is already zero.
    block = [[int(x) for x in row] for row in a.entries]
    diag = []
    for t in range(min(nr, nc)):
        # A round that does not finish leaves a remainder smaller than its
        # pivot, or adds to row 0 a row the pivot does not divide, which
        # leaves one next round: the pivot shrinks every round or two.
        while pivot := min(filter(None, map(abs, chain.from_iterable(block))), default=0):
            # the least nonzero |entry|, in the lowest row, then column
            i = next(i for i, row in enumerate(block) if pivot in row or -pivot in row)
            j = next(j for j, x in enumerate(block[i]) if abs(x) == pivot)
            if i:
                block[0], block[i] = block[i], block[0]
                row_ops.append((t, t + i, None))
            if j:
                for row in block:
                    row[0], row[j] = row[j], row[0]
                col_ops.append((t, t + j, None))
            if block[0][0] < 0:
                block[0] = [-x for x in block[0]]
                row_ops.append((t, t, -2))  # row t += -2 * row t
            row_t = block[0]
            for i, row in enumerate(block[1:], 1):
                if c := row[0] // pivot:
                    block[i] = [x - c * y for x, y in zip(row, row_t)]
                    row_ops.append((t + i, t, -c))
            if any(row[0] for row in block[1:]):
                continue
            # column 0 is now zero off the pivot, so subtracting q times
            # column 0 from column j changes only row_t[j] in the block
            for j in range(1, len(row_t)):
                if q := row_t[j] // pivot:
                    row_t[j] -= q * pivot
                    col_ops.append((t + j, t, -q))
            if any(row_t[1:]):
                continue
            offender = next(
                (i for i, row in enumerate(block[1:], 1) if any(x % pivot for x in row)), None
            )
            if offender is None:
                break
            block[0] = [x + y for x, y in zip(row_t, block[offender])]
            row_ops.append((t, t + offender, 1))
        if not pivot:
            break
        diag.append(pivot)
        block = [row[1:] for row in block[1:]]
    diag += [0] * max(nr, nc)
    u = Matrix(zip(*_replay(row_ops, nr, range(nr))))
    return u, _diagonal(diag, nr, nc), Matrix(_replay(col_ops, nc, range(nc)))


def _least_valuation_elimination(a: Matrix, m: int) -> tuple[list[int], list[list[int]]]:
    """The pivots of ``smith_normal_form`` modulo m > 0, and the columns of
    V at the factor positions; raises ModulusSplit as described there."""
    nc = a.ncols
    # entries are reduced only on the pivot row; the others grow by less
    # than m^2 a step, which costs less than reducing them all
    block = [list(map(int, row)) for row in a.entries]
    diag, steps = [], []
    # every entry left is a multiple of the last pivot's gcd with m, so an
    # entry with that gcd has the least one
    least = 1
    for t in range(min(a.nrows, nc)):
        # the least gcd with m, in the lowest row, then column: the first
        # entry with gcd ``least``, or else the least of all gcds, which
        # must divide the others
        seen = []
        for i, row in enumerate(block):
            gcds = list(map(gcd, row, repeat(m)))
            if least in gcds:
                g, j = least, gcds.index(least)
                break
            seen += gcds
        else:
            g = least = min(seen)
            i, j = divmod(seen.index(g), nc - t)
            if any(map(mod, seen, repeat(g))):
                y = next(y for y in seen if y % g)
                raise ModulusSplit(m, _part_on_primes_of(m, g // gcd(g, y)))
        if g == m:
            break  # the block is zero mod m
        block[0], block[i] = block[i], block[0]
        if j:
            for row in block:
                row[0], row[j] = row[j], row[0]
        pivot, *rest = [x % m for x in block[0]]
        unit_modulus = m // g
        inverse = pow(pivot // g, -1, unit_modulus)
        # Clear column 0 by row operations and drop it with row 0: the
        # column operations that clear row 0, column k += -(x_k/g) *
        # inverse * column 0, change nothing else in the block.
        block = [
            [x - c * y for x, y in zip(row[1:], rest)]
            if (c := row[0] // g * inverse % unit_modulus)
            else row[1:]
            for row in block[1:]
        ]
        diag.append(pivot)
        steps.append((j, g, inverse, rest))
    diag += [0] * (nc - len(diag))
    # Column p of V = F_1 ... F_K is F_1 ... F_K e_p.  Applied from the
    # last step back, a step's column operations add
    # -inverse * (sum_k x_k * entry k) / g to entry t, then its swap acts.
    columns = [[int(k == p) for k in range(nc)] for p in range(nc) if gcd(diag[p], m) != 1]
    for t, (j, g, inverse, rest) in reversed(list(enumerate(steps))):
        for column in columns:
            if dot := sum(map(mul, rest, column[t + 1 :])):
                column[t] = (column[t] - dot // g * inverse) % m
            if j:
                column[t], column[t + j] = column[t + j], column[t]
    return diag, columns


def _part_on_primes_of(n: int, r: int) -> int:
    """The largest divisor of n whose primes all divide r."""
    part, g = 1, gcd(n, r)
    while g > 1:
        part *= g
        n //= g
        g = gcd(n, g)
    return part


def _diagonal(diag: list, nr: int, nc: int) -> Matrix:
    return Matrix([[diag[i] if i == j else 0 for j in range(nc)] for i in range(nr)])


def _replay(ops, size: int, keep) -> list[list[int]]:
    """Row p of U = E_K ... E_1 is e_p^T E_K ... E_1, and column p of
    V = F_1 ... F_K is F_1 ... F_K e_p: both apply the operations to e_p in
    reverse order, "line i += c * line j" as "entry j += c * entry i".
    lines[i] holds entry i of every vector built for a position in
    ``keep``."""
    lines = [[int(i == p) for p in keep] for i in range(size)]
    for i, j, c in reversed(ops):
        if c is None:
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[j] = [x + c * y for x, y in zip(lines[j], lines[i])]
    return lines


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
