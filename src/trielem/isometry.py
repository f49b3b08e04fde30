"""Lattice isometries: verification, induced maps on the discriminant
group, exhaustive short-vector and isometry-group enumeration for small
definite lattices, and explicit order-3 witnesses on hyperbolic sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, isqrt

from .catalog import parse_expr
from .errors import NotDefinite, NotIsometry, RankTooLarge, SizeMismatch
from .lattice import Lattice, discriminant_group, read_int_rows
from .linalg import Matrix, signature, symmetric_elimination

ORDER_SEARCH_BOUND = 66


def is_isometry(lat: Lattice, mat: Matrix) -> bool:
    """True iff the integer matrix preserves the Gram matrix."""
    if not mat.is_square or mat.nrows != lat.rank:
        raise SizeMismatch("matrix size must equal the lattice rank")
    if not mat.is_integral:
        return False
    return mat.transpose() @ lat.gram @ mat == lat.gram


@dataclass(frozen=True, repr=False)
class Isometry:
    """An isometry of a lattice; columns are the basis-vector images."""

    lattice: Lattice
    matrix: Matrix

    def __post_init__(self):
        if not is_isometry(self.lattice, self.matrix):
            raise NotIsometry("matrix does not preserve the Gram matrix")

    def __repr__(self):
        return f"Isometry({self.lattice!r}, {self.matrix!r})"


def order_of(mat: Matrix, bound: int = ORDER_SEARCH_BOUND) -> int | None:
    """Least k <= bound with mat**k = identity, else None."""
    ident = Matrix.identity(mat.nrows)
    power = mat
    for k in range(1, bound + 1):
        if power == ident:
            return k
        power = power @ mat
    return None


@dataclass(frozen=True)
class DiscriminantAction:
    """Induced map on the discriminant group, in invariant-factor
    coordinates, which send g_i to e_i; ``trivial`` means every generator
    moves by a lattice vector, so the matrix is the identity."""

    matrix: Matrix
    trivial: bool


def discriminant_action(lat: Lattice, mat) -> DiscriminantAction:
    """Extend an isometry over the dual and reduce it to the quotient."""
    if isinstance(mat, Isometry):
        mat = mat.matrix
    if not is_isometry(lat, mat):
        raise NotIsometry("matrix does not preserve the Gram matrix")
    group = discriminant_group(lat)
    columns = [group.coordinates_of(mat.mul_vec(gen)) for gen in group.generators]
    action = Matrix(tuple(zip(*columns)))
    return DiscriminantAction(matrix=action, trivial=action == Matrix.identity(group.s))


def _definite_sign(lat: Lattice) -> int:
    plus, zero, minus = signature(lat.gram)
    if zero or (plus and minus):
        raise NotDefinite("the lattice must be positive or negative definite")
    return -1 if minus else 1


def _interval(center: Fraction, bound: Fraction) -> tuple[int, int]:
    """Integers x with (x + center)^2 <= bound, as [lo, hi] (empty if lo>hi)."""
    if bound < 0:
        return (0, -1)
    r = isqrt(bound.numerator // bound.denominator) + 1
    lo = ceil(-center) - r - 1
    hi = floor(-center) + r + 1
    while hi >= lo and (hi + center) ** 2 > bound:
        hi -= 1
    while lo <= hi and (lo + center) ** 2 > bound:
        lo += 1
    return lo, hi


def short_vectors(lat: Lattice, target_norm: int) -> list[tuple[int, ...]]:
    """All integer vectors of the given norm in a definite lattice.

    Backtracking over the exact completed-square decomposition
    g = sum_k d_k (x_k + sum_{j>k} c_kj x_j)^2 read off the fraction-free
    elimination of the Gram matrix: d_k = D_{k+1}/D_k from its leading
    minors and c_kj = rows[k][j]/rows[k][k].  The returned list is complete,
    duplicate-free, and sorted lexicographically.
    """
    n = lat.rank
    if n == 0:
        return [()] if target_norm == 0 else []
    sign = _definite_sign(lat)
    g = lat.gram if sign > 0 else lat.gram.scaled(-1)
    t = target_norm * sign
    if t < 0:
        return []
    if t == 0:
        return [(0,) * n]
    rows, _ = symmetric_elimination(g)
    minors = [1] + [rows[k][k] for k in range(n)]
    diag = [Fraction(minors[k + 1], minors[k]) for k in range(n)]
    coef = [[Fraction(x, row[k]) for x in row] for k, row in enumerate(rows)]
    found: list[tuple[int, ...]] = []
    vec = [0] * n

    def descend(i: int, remaining: Fraction):
        if i < 0:
            if remaining == 0:
                found.append(tuple(vec))
            return
        center = sum((coef[i][j] * vec[j] for j in range(i + 1, n)), Fraction(0))
        lo, hi = _interval(center, remaining / diag[i])
        for x in range(lo, hi + 1):
            term = diag[i] * (x + center) ** 2
            if term <= remaining:
                vec[i] = x
                descend(i - 1, remaining - term)
        vec[i] = 0

    descend(n - 1, Fraction(t))
    found.sort()
    return found


def enumerate_isometries(lat: Lattice) -> list[Isometry]:
    """The full isometry group of a small definite lattice.

    Basis-vector images are matched against short-vector candidates of the
    right norm, pruning on pairwise products; any full match automatically
    has determinant +-1.  Guarded to rank <= 8.
    """
    n = lat.rank
    if n == 0:
        return [Isometry(lat, Matrix.identity(0))]
    _definite_sign(lat)
    if n > 8:
        raise RankTooLarge("isometry enumeration is guarded to rank <= 8")
    g = lat.gram
    candidates = {}
    for j in range(n):
        norm = g[j, j]
        if norm not in candidates:
            candidates[norm] = [(v, g.mul_vec(v)) for v in short_vectors(lat, norm)]
    chosen: list[tuple[int, ...]] = []
    out: list[Isometry] = []

    def place(j: int):
        if j == n:
            out.append(Isometry(lat, Matrix(tuple(zip(*chosen)))))
            return
        for vector, g_vector in candidates[g[j, j]]:
            if all(
                sum(a * b for a, b in zip(chosen[i], g_vector)) == g[i, j]
                for i in range(j)
            ):
                chosen.append(vector)
                place(j + 1)
                chosen.pop()

    place(0)
    return out


def has_order3_trivial_on_A(lat: Lattice) -> bool:
    """Search the full isometry group for an order-3 element inducing the
    identity on the discriminant group."""
    for iso in enumerate_isometries(lat):
        if order_of(iso.matrix, bound=3) == 3:
            if discriminant_action(lat, iso.matrix).trivial:
                return True
    return False


def order3_isometry_u3_u() -> Isometry:
    """Order-3 isometry of U(3)+U that acts trivially on the discriminant
    group: e1 -> -2e1+3f1, e2 -> e2+3f2, f1 -> -e1+f1, f2 -> -e2-2f2 on a
    standard basis e1,e2 of U(3) and f1,f2 of U."""
    lat = parse_expr("U(3)+U")
    mat = Matrix(
        [
            [-2, 0, -1, 0],
            [0, 1, 0, -1],
            [3, 0, 1, 0],
            [0, 3, 0, -2],
        ]
    )
    return Isometry(lat, mat)


def order3_isometry_u_u() -> Isometry:
    """Order-3 isometry of U+U (its discriminant group is trivial):
    e1 -> e1+f1, e2 -> -2e2+3f2, f1 -> -3e1-2f1, f2 -> -e2+f2."""
    lat = parse_expr("U+U")
    mat = Matrix(
        [
            [1, 0, -3, 0],
            [0, -2, 0, -1],
            [1, 0, -2, 0],
            [0, 3, 0, 1],
        ]
    )
    return Isometry(lat, mat)


def matrix_from_dict(data) -> Matrix:
    """Build an integer matrix from the JSON literal {"matrix": [[...]]}."""
    return Matrix(read_int_rows(data, "matrix"))
