"""Lattice isometries: verification, whether one acts trivially on the
discriminant group, exhaustive short-vector and isometry-group enumeration
for small definite lattices under one work budget, the order-3 search, and
explicit order-3 witnesses on hyperbolic sums.

The order-3 search asks for sigma of order 3 acting trivially on A_L =
L*/L.  A root-pair witness answers first.  Without one, only the kernel of
O(L) -> O(A_L) is listed (Nikulin 1979) by ``enumerate_isometries`` with
``trivial_on_A``.  When the gcd of the Gram entries is 3 or more, that
kernel is the identity alone (Minkowski's lemma), with nothing to
enumerate.  Otherwise the search drops a candidate for a column as soon as
it and the columns placed before it cannot fix A_L, a congruence read off
a triangular basis of d L*.  This is one more test per column in the
search of Plesken-Souvignier 1997.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, lcm
from operator import mul

from .catalog import parse_expr
from .errors import NotDefinite, NotIsometry, RankTooLarge, SearchTooLarge, SizeMismatch
from .lattice import Lattice, discriminant_group, read_int_rows
from .linalg import Matrix, signature, symmetric_elimination

ORDER_SEARCH_BOUND = 66
# Work one search may do: nodes visited plus vectors kept, summed over the
# short-vector and isometry enumerations it runs.  The order-3 search uses
# 97,425 units on E6*(3), 28,505 on A1^4 in the basis e1, e2, e3,
# 7e1+3e2+2e3+e4, 2,976 on A1^8 and at most 208 on the benchmark lattices;
# on E8(3), whose Gram content is 3, only the root search runs: 27 units.
# Listing the whole group of A2(3)^3 (10,368 isometries) uses 79,519 and
# of A1^6 (46,080) 352,657.  On a 2-core x86 host, A1^7+A1(1000) stops at
# the limit in 0.14 s, and A1^6 is listed in 1.4 s.
SEARCH_BUDGET = 400_000


class SearchBudget:
    """The work left to one search; ``spend`` raises SearchTooLarge once
    more than SEARCH_BUDGET units are used."""

    def __init__(self):
        self.used = 0

    def spend(self, units: int = 1):
        self.used += units
        if self.used > SEARCH_BUDGET:
            raise SearchTooLarge(
                f"the search takes at least {self.used} steps (nodes visited plus "
                f"vectors kept), above the limit of {SEARCH_BUDGET}"
            )


def is_isometry(lat: Lattice, mat: Matrix) -> bool:
    """True iff the integer matrix preserves the Gram matrix: c_i.(G c_j) =
    g_ij for its columns c_i and i <= j, which covers every entry as G is
    symmetric.  G c_j sums the rows of G at the nonzero entries of c_j."""
    if not mat.is_square or mat.nrows != lat.rank:
        raise SizeMismatch("matrix size must equal the lattice rank")
    if not mat.is_integral:
        return False
    rows = lat.gram.entries
    columns = tuple(zip(*mat.entries))
    for j, column in enumerate(columns):
        g_column = [0] * len(rows)
        for x, row in zip(column, rows):
            if x:
                g_column = [a + x * b for a, b in zip(g_column, row)]
        for i in range(j + 1):
            if sum(map(mul, columns[i], g_column)) != rows[i][j]:
                return False
    return True


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
    """Least k <= bound with mat**k = identity, else None; mat**bound is
    the last power built."""
    ident = Matrix.identity(mat.nrows)
    power = mat
    for k in range(1, bound + 1):
        if power == ident:
            return k
        if k < bound:
            power = power @ mat
    return None


def discriminant_action(lat: Lattice, mat) -> bool:
    """Whether an isometry acts trivially on the discriminant group:
    sigma(g_i) - g_i lies in the lattice for every generator
    g_i = W_i / d_i, that is sigma(W_i) = W_i mod d_i on the integer lifts.
    An ``Isometry`` of this Gram matrix was checked when it was built."""
    checked = isinstance(mat, Isometry) and mat.lattice.gram == lat.gram
    if isinstance(mat, Isometry):
        mat = mat.matrix
    if not checked and not is_isometry(lat, mat):
        raise NotIsometry("matrix does not preserve the Gram matrix")
    group = discriminant_group(lat)
    return all(
        all((a - b) % d == 0 for a, b in zip(mat.mul_vec(w), w))
        for w, d in zip(group.lifts, group.invariant_factors)
    )


def _definite_sign(lat: Lattice) -> int:
    plus, zero, minus = signature(lat.gram)
    if zero or (plus and minus):
        raise NotDefinite("the lattice must be positive or negative definite")
    return -1 if minus else 1


def _check_enumerable(lat: Lattice):
    _definite_sign(lat)
    if lat.rank > 8:
        raise RankTooLarge("isometry enumeration is guarded to rank <= 8")


def short_vectors(
    lat: Lattice, target_norm: int, budget: SearchBudget | None = None
) -> list[tuple[int, ...]]:
    """All integer vectors of the given norm in a definite lattice.

    Backtracking over the completed squares of the fraction-free elimination
    of the Gram matrix g: with its rows r_k and leading minors D_0 = 1,
    D_{k+1} = r_k[k], g(x) = sum_k y_k^2 / (D_k D_{k+1}) for the integers
    y_k = sum_{j>=k} r_k[j] x_j.  Scaled by P = lcm_k(D_k D_{k+1}), each term
    is the integer w_k y_k^2, so the bound |y_k| <= isqrt(rest // w_k) on
    the scaled rest gives x_k's range exactly.  The returned list is
    complete, duplicate-free, and sorted lexicographically.  Each node and
    each vector found is spent from ``budget`` (a fresh one by default).
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
    if budget is None:
        budget = SearchBudget()
    rows, _ = symmetric_elimination(g)
    minors = [1] + [rows[k][k] for k in range(n)]
    scale = lcm(*(minors[k] * minors[k + 1] for k in range(n)))
    weights = [scale // (minors[k] * minors[k + 1]) for k in range(n)]
    found: list[tuple[int, ...]] = []
    vec = [0] * n

    def descend(i: int, rest: int):
        budget.spend()
        if i < 0:
            if rest == 0:
                budget.spend()
                found.append(tuple(vec))
            return
        row, weight = rows[i], weights[i]
        pivot = row[i]
        shift = sum(map(mul, row[i + 1 :], vec[i + 1 :]))
        bound = isqrt(rest // weight)
        for x in range(-((bound + shift) // pivot), (bound - shift) // pivot + 1):
            y = pivot * x + shift
            vec[i] = x
            descend(i - 1, rest - weight * y * y)
        vec[i] = 0

    descend(n - 1, t * scale)
    found.sort()
    return found


def _scaled_dual_basis(lat: Lattice) -> tuple[int, list[tuple[int, ...]]]:
    """d, the exponent of the discriminant group, and a basis w_0..w_{n-1}
    of d L* in coordinates, read mod d, with w_m supported on columns 0..m.

    d L* is spanned by the lifts W_i scaled by d / d_i and the d e_k.  An
    integer echelon form from the last column down gives the basis: at
    column m, Euclid folds d e_m and every row with an entry there into one
    row, w_m.  The rows left are zero from column m on, and the d e_k with
    k < m are still to come, so reading the rows mod d keeps the span.
    """
    group = discriminant_group(lat)
    n = lat.rank
    d = lcm(*group.invariant_factors)
    rows = [[x * (d // f) % d for x in w] for w, f in zip(group.lifts, group.invariant_factors)]
    basis = [()] * n
    for m in reversed(range(n)):
        pivot, rest = [d * (i == m) for i in range(n)], []
        for row in rows:
            while row[m]:
                q = pivot[m] // row[m]
                pivot, row = row, [a - q * b for a, b in zip(pivot, row)]
            rest.append([x % d for x in row])
        basis[m] = tuple(x % d for x in pivot)
        rows = rest
    return d, basis


def enumerate_isometries(
    lat: Lattice, budget: SearchBudget | None = None, *, trivial_on_A: bool = False
) -> list[Isometry]:
    """The isometry group of a small definite lattice, or with
    ``trivial_on_A`` its subgroup acting trivially on the discriminant
    group, in the same order as the full listing.

    The images of the basis vectors are drawn from the short vectors of
    their norms, indexed once in sorted order.  A candidate placed in a
    column keeps, by pair value, the sets of candidates of the later
    columns, built the first time it is placed and spending one unit per
    candidate compared, so the candidates for column j are its norm class
    intersected with those compatible with every column already placed
    (Plesken-Souvignier 1997).  Columns are placed level by level, each
    level in ascending index order, so the group comes out sorted by
    column indices, and a group too large for ``budget`` uses it up before
    any element is built: each element spends its n columns.  Any full
    match has determinant +-1.  Guarded to rank <= 8.

    With ``trivial_on_A``, sigma must fix A_L = L*/L, that is move every
    vector of d L* by a vector of d L for d the exponent of A_L.  On the
    echelon basis w_m of d L* (``_scaled_dual_basis``) this reads
    sum_{k<=m} w_m[k] (sigma(e_k) - e_k) = 0 mod d, which involves columns
    0..m only, so column m keeps just the candidates c whose residue
    w_m[m] c mod d closes the sum over the columns already placed.

    With ``trivial_on_A`` and a Gram content c = gcd(g_ij) of at least 3,
    the answer is the identity alone, and nothing is enumerated.  Each
    e_k / c lies in L*, since G e_k / c is integral; sigma fixing A_L moves
    it by a vector of L, so sigma = I mod c.  An isometry of a definite
    lattice has finite order, and by Minkowski's lemma the kernel of
    GL_n(Z) -> GL_n(Z/c) has no torsion for c >= 3, so sigma = I.  At c = 2
    the kernel does have torsion (-I), and the search runs.
    """
    n = lat.rank
    if n == 0:
        return [Isometry(lat, Matrix.identity(0))]
    _check_enumerable(lat)
    if trivial_on_A and gcd(*(x for row in lat.gram.entries for x in row)) >= 3:
        return [Isometry(lat, Matrix.identity(n))]
    if budget is None:
        budget = SearchBudget()
    g = lat.gram
    norms = [g[j, j] for j in range(n)]
    vectors: list[tuple[int, ...]] = []
    classes: dict[int, frozenset[int]] = {}
    for norm in norms:
        if norm not in classes:
            start = len(vectors)
            vectors += short_vectors(lat, norm, budget)
            classes[norm] = frozenset(range(start, len(vectors)))
    # A candidate of a norm is placed no earlier than that norm's first
    # column, so only the classes of the columns after it are compared.
    later: dict[int, frozenset[int]] = {}
    for j, norm in enumerate(norms):
        if norm not in later:
            later[norm] = frozenset().union(*(classes[m] for m in norms[j + 1 :]))
    compatible: dict[int, dict[int, set[int]]] = {}

    def compatible_with(k: int, norm: int) -> dict[int, set[int]]:
        if k not in compatible:
            others = later[norm]
            budget.spend(len(others))
            g_vector = g.mul_vec(vectors[k])
            by_value: dict[int, set[int]] = {}
            for other in others:
                by_value.setdefault(sum(map(mul, vectors[other], g_vector)), set()).add(other)
            compatible[k] = by_value
        return compatible[k]

    # Column m's congruence, when w_m is not 0 mod d: its candidates split
    # by the residue w_m[m] c mod d.
    congruences: list[tuple[tuple[int, ...], dict] | None] = [None] * n
    if trivial_on_A:
        d, basis = _scaled_dual_basis(lat)
        for m, w in enumerate(basis):
            if any(w):
                by_residue: dict[tuple[int, ...], set[int]] = {}
                for k in classes[norms[m]]:
                    by_residue.setdefault(tuple(w[m] * x % d for x in vectors[k]), set()).add(k)
                congruences[m] = (w, by_residue)

    empty = frozenset()
    level: list[tuple[int, ...]] = [()]
    for j, row in enumerate(g.entries):
        placed = []
        for partial in level:
            allowed = classes[row[j]]
            if congruences[j] is not None:
                w, by_residue = congruences[j]
                # w_m[m] c = w_m - sum_{k<m} w_m[k] sigma(e_k) mod d
                left = w
                for k, c in zip(partial, w):
                    if c:
                        left = [a - c * b for a, b in zip(left, vectors[k])]
                allowed = by_residue.get(tuple(x % d for x in left), empty)
            for k, value, norm in zip(partial, row, norms):
                allowed = allowed & compatible_with(k, norm).get(value, empty)
            budget.spend(len(allowed))
            placed += [partial + (k,) for k in sorted(allowed)]
        level = placed
    budget.spend(n * len(level))
    out: list[Isometry] = []
    for partial in level:
        columns = [vectors[k] for k in partial]
        out.append(Isometry(lat, Matrix(tuple(zip(*columns)))))
    return out


def _reflection(g: Matrix, root: tuple[int, ...], sign: int) -> Matrix:
    """s_r(x) = x - sign * (x.r) r for a root r with r.r = 2 * sign."""
    g_root = g.mul_vec(root)
    return Matrix(
        [[int(i == k) - sign * r * gr for k, gr in enumerate(g_root)] for i, r in enumerate(root)]
    )


def _root_pair_witness(lat: Lattice, budget: SearchBudget | None = None) -> Matrix | None:
    """s_a s_b for the first roots a, b in sorted order with |a.b| = 1, or
    None.  Reflections act trivially on the discriminant group, since
    s_r(x) - x is a multiple of r for x in the dual, and a, b span an A2,
    so s_a s_b has order 3."""
    sign = _definite_sign(lat)
    roots = short_vectors(lat, 2 * sign, budget)
    g = lat.gram
    for i, a in enumerate(roots):
        g_a = g.mul_vec(a)
        for b in roots[i + 1 :]:
            if abs(sum(map(mul, b, g_a))) == 1:
                return _reflection(g, a, sign) @ _reflection(g, b, sign)
    return None


def has_order3_trivial_on_A(lat: Lattice) -> bool:
    """Whether an order-3 isometry induces the identity on the discriminant
    group.  A root-pair witness that passes both checks answers; without
    one, the isometries trivial on the group are searched, under the same
    budget, for one of order 3."""
    _check_enumerable(lat)
    budget = SearchBudget()
    witness = _root_pair_witness(lat, budget)
    if (
        witness is not None
        and order_of(witness, bound=3) == 3
        and discriminant_action(lat, witness)
    ):
        return True
    return any(
        order_of(iso.matrix, bound=3) == 3
        for iso in enumerate_isometries(lat, budget, trivial_on_A=True)
    )


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
