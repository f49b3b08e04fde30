import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, floor, gcd, isqrt
from operator import mul

import pytest
import sympy

from trielem import isometry as isometry_module
from trielem import lattice as lattice_module
from trielem.catalog import build, parse_expr
from trielem.errors import (
    NotDefinite,
    NotIsometry,
    RankTooLarge,
    SearchTooLarge,
    SizeMismatch,
    TrielemError,
)
from trielem.isometry import (
    SEARCH_BUDGET,
    Isometry,
    SearchBudget,
    _root_pair_witness,
    _scaled_dual_basis,
    discriminant_action,
    enumerate_isometries,
    has_order3_trivial_on_A,
    is_isometry,
    matrix_from_dict,
    order3_isometry_u3_u,
    order3_isometry_u_u,
    order_of,
    short_vectors,
)
from trielem.lattice import Lattice, direct_sum, discriminant_group, lattice_from_dict, rescale
from trielem.linalg import Matrix, determinant, pair_value, rational_inverse, signature

from test_lattice import representative

A2 = build("A2")
A2_ROTATION = Matrix([[0, -1], [1, -1]])  # e1 -> e2, e2 -> -e1-e2


@lru_cache(maxsize=None)
def _adjugate(gram):
    """(det G, adj G) from sympy, so G^-1 = adj G / det G."""
    g = sympy.Matrix(gram.entries)
    return int(g.det()), [[int(x) for x in row] for row in g.adjugate().tolist()]


def moves_the_dual_by_lattice_vectors(lat, mat):
    """sigma acts trivially on A_L = L*/L iff (sigma - I) G^-1 is integral,
    as the columns of G^-1 are a basis of L*.  G^-1 comes from sympy, so
    the test shares no code with the discriminant group's integer lifts."""
    det, adj = _adjugate(lat.gram)
    moved = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(mat.entries)]
    return all(sum(map(mul, row, col)) % det == 0 for row in moved for col in zip(*adj))


def backtracking_group(lat):
    """Every isometry, one at a time, from the plain backtracking search:
    column j runs through the short vectors of norm g_jj in sorted order
    and is kept when its products with the columns already placed match
    the Gram matrix."""
    n = lat.rank
    g = lat.gram
    candidates = {}
    for j in range(n):
        norm = g[j, j]
        if norm not in candidates:
            candidates[norm] = [(v, g.mul_vec(v)) for v in short_vectors(lat, norm)]
    chosen = []

    def place(j):
        if j == n:
            yield Matrix(tuple(zip(*chosen)))
            return
        for vector, g_vector in candidates[g[j, j]]:
            if all(
                sum(a * b for a, b in zip(chosen[i], g_vector)) == g[i, j]
                for i in range(j)
            ):
                chosen.append(vector)
                yield from place(j + 1)
                chosen.pop()

    yield from place(0)


def backtracking_search(lat):
    """The order-3 search over every element, with the sympy test."""
    return any(
        order_of(mat, bound=3) == 3 and moves_the_dual_by_lattice_vectors(lat, mat)
        for mat in backtracking_group(lat)
    )


def signed_permutation(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) if perm[j] == i else 0 for j in range(n)] for i in range(n)]


def conjugate(lat, rng):
    """P^T G P for a seed-drawn signed permutation P."""
    p = Matrix(signed_permutation(lat.rank, rng))
    return Lattice(p.transpose() @ lat.gram @ p)


def dense_conjugate(lat, rng, steps=4):
    """P^T G P for P a seed-drawn signed permutation followed by ``steps``
    column additions c_j += m c_i with 0 < |m| <= 2: a basis change that
    moves the basis norms, and with them the short-vector classes."""
    p = signed_permutation(lat.rank, rng)
    for _ in range(steps):
        i, j = rng.sample(range(lat.rank), 2)
        m = rng.choice((-2, -1, 1, 2))
        for row in p:
            row[j] += m * row[i]
    p = Matrix(p)
    return Lattice(p.transpose() @ lat.gram @ p)


def seeded_sums():
    """24 seeded direct sums of A1, A1(2), A1(3), A2, A2(3) and A3 up to
    rank 5, each in a signed-permutation basis."""
    blocks = [parse_expr(e) for e in ("A1", "A1(2)", "A1(3)", "A2", "A2(3)", "A3")]
    rng = random.Random(59)
    sums = []
    for _ in range(24):
        lat = rng.choice(blocks)
        while True:
            block = rng.choice(blocks)
            if lat.rank + block.rank > 5:
                break
            lat = direct_sum(lat, block)
        sums.append(conjugate(lat, rng))
    return sums


def trivial_on_A(lat):
    """The listing under test: the isometries trivial on A_L."""
    return [iso.matrix for iso in enumerate_isometries(lat, trivial_on_A=True)]


def filtered_group(lat):
    """The whole listed group, kept where ``discriminant_action`` is trivial."""
    group = enumerate_isometries(lat)
    return [iso.matrix for iso in group if discriminant_action(lat, iso)]


def filtered_backtracking(lat):
    """The backtracking group, kept where the dual moves by lattice
    vectors."""
    return [m for m in backtracking_group(lat) if moves_the_dual_by_lattice_vectors(lat, m)]


# A1^4 in the basis e1, e2, e3, 7e1+3e2+2e3+e4.
A1_4_LONG_BASIS = Matrix(
    [[-2, 0, 0, -14], [0, -2, 0, -6], [0, 0, -2, -4], [-14, -6, -4, -126]]
)


# The order3-search benchmark lattices, with their answers.
BENCHMARK_LATTICES = (
    ("A2", True),
    ("A2^2", True),
    ("A3", True),
    ("A4", True),
    ("A5", True),
    ("D4", True),
    ("D5", True),
    ("A2+A2(3)", True),
    ("A2(3)", False),
    ("A2(3)^2", False),
    ("D4(3)", False),
    ("A1^4", False),
)


class TestIsIsometry:
    def test_witness_matrix(self):
        w = order3_isometry_u3_u()
        assert is_isometry(w.lattice, w.matrix)

    def test_identity(self):
        for lat in (A2, build("U"), build("E6")):
            assert is_isometry(lat, Matrix.identity(lat.rank))

    def test_shear_is_not(self):
        u = build("U")
        shear = Matrix([[1, 1], [0, 1]])
        assert shear.transpose() @ u.gram @ shear == Matrix([[0, 1], [1, 2]])
        assert not is_isometry(u, shear)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            is_isometry(A2, Matrix.identity(3))

    def test_constructor_rejects_non_isometry(self):
        with pytest.raises(NotIsometry):
            Isometry(build("U"), Matrix([[1, 1], [0, 1]]))


class TestOrderOf:
    def test_identity(self):
        assert order_of(Matrix.identity(4)) == 1

    def test_witnesses_have_order_three(self):
        assert order_of(order3_isometry_u3_u().matrix) == 3
        assert order_of(order3_isometry_u_u().matrix) == 3

    def test_infinite_order(self):
        assert order_of(Matrix([[1, 1], [0, 1]])) is None

    def test_rotation(self):
        assert order_of(A2_ROTATION) == 3

    @pytest.mark.parametrize(
        ("mat", "order"),
        [(Matrix([[-1]]), 2), (A2_ROTATION, 3), (Matrix([[0, -1], [1, 0]]), 4),
         (A2_ROTATION.scaled(-1), 6)],
    )
    def test_bound_below_the_order_is_none(self, mat, order, monkeypatch):
        # the powers mat^2 .. mat^bound are built, and none past the bound
        products = []
        matmul = Matrix.__matmul__
        monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
        assert order_of(mat, bound=order - 1) is None
        assert len(products) == order - 2
        assert order_of(mat, bound=order) == order
        assert len(products) == 2 * order - 3


class TestDiscriminantAction:
    def test_witness_acts_trivially(self):
        w = order3_isometry_u3_u()
        assert discriminant_action(w.lattice, w) is True

    def test_a2_rotation_trivial(self):
        # the rotation moves the dual generator by the lattice vector (1, 0)
        rep = (Fraction(-2, 3), Fraction(-1, 3))
        moved = A2_ROTATION.mul_vec(rep)
        diff = tuple(a - b for a, b in zip(moved, rep))
        assert all(x.denominator == 1 for x in diff)
        assert discriminant_action(A2, A2_ROTATION)

    def test_a2_scaled_rotation_not_trivial(self):
        lat = rescale(A2, 3)
        assert is_isometry(lat, A2_ROTATION)
        assert discriminant_action(lat, A2_ROTATION) is False

    def test_not_isometry(self):
        with pytest.raises(NotIsometry):
            discriminant_action(build("U"), Matrix([[1, 1], [0, 1]]))

    def test_isometry_of_the_lattice_is_not_checked_again(self, monkeypatch):
        w = order3_isometry_u3_u()
        checks = []
        monkeypatch.setattr(isometry_module, "is_isometry", lambda *args: checks.append(args) or True)
        assert discriminant_action(w.lattice, w)
        assert checks == []
        discriminant_action(w.lattice, w.matrix)
        assert len(checks) == 1

    @pytest.mark.parametrize("expr", ["A2", "A2(3)", "D4", "A4", "A2+A2", "A1^3"])
    def test_trivial_matches_the_dual_basis_oracle(self, expr, monkeypatch):
        # every isometry, in the given basis and two seeded dense ones; the
        # whole group is listed, which in a dense basis can take more than
        # the budget of a search
        monkeypatch.setattr(isometry_module, "SEARCH_BUDGET", 4 * SEARCH_BUDGET)
        lat = parse_expr(expr)
        rng = random.Random(expr)
        for base in (lat, dense_conjugate(lat, rng, 3), dense_conjugate(lat, rng, 3)):
            seen = set()
            for iso in enumerate_isometries(base):
                trivial = discriminant_action(base, iso)
                assert trivial == moves_the_dual_by_lattice_vectors(base, iso.matrix), iso
                seen.add(trivial)
            # each group has elements of both kinds, so the check can fail
            assert seen == {True, False}, base.gram

    def test_witnesses_trivial_by_the_dual_basis_oracle(self):
        for w in (order3_isometry_u3_u(), order3_isometry_u_u()):
            assert moves_the_dual_by_lattice_vectors(w.lattice, w.matrix)
            assert discriminant_action(w.lattice, w)

    @pytest.mark.parametrize("expr", ["A2", "D4"])
    def test_trivial_isometries_form_a_subgroup(self, expr):
        # the isometries trivial on A_L are the kernel of O(L) -> O(A_L)
        lat = parse_expr(expr)
        mats = [iso.matrix for iso in enumerate_isometries(lat)]
        kernel = [m for m in mats if discriminant_action(lat, m)]
        outside = [m for m in mats if m not in kernel]
        assert Matrix.identity(lat.rank) in kernel and outside
        # a finite set closed under products is a subgroup
        assert {a @ b for a in kernel for b in kernel} == set(kernel)
        rng = random.Random(23)
        for _ in range(40):
            k, m = rng.choice(kernel), rng.choice(outside)
            assert not discriminant_action(lat, k @ m)
            assert not discriminant_action(lat, m @ k)


class TestShortVectors:
    def brute_force(self, lat, target):
        """Every vector of the norm in the box |x_i| <= sqrt(t (G^-1)_ii),
        with G and t made positive, which holds them all by Cauchy-Schwarz."""
        sign = 1 if signature(lat.gram)[0] else -1
        t = target * sign
        if t < 0:
            return []
        inverse = rational_inverse(lat.gram.scaled(sign))
        box = [isqrt(floor(t * inverse[i, i])) for i in range(lat.rank)]
        ranges = [range(-b, b + 1) for b in box]
        return sorted(v for v in product(*ranges) if pair_value(lat.gram, v, v) == target)

    def test_a2_roots(self):
        vectors = short_vectors(A2, -2)
        assert vectors == self.brute_force(A2, -2)
        assert set(vectors) == {(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)}

    def test_a2_empty(self):
        assert short_vectors(A2, -1) == []
        assert short_vectors(A2, 2) == []

    def test_a2_scaled(self):
        lat = rescale(A2, 3)
        vectors = short_vectors(lat, -6)
        assert len(vectors) == 6
        assert vectors == self.brute_force(lat, -6)

    def test_positive_definite(self):
        lat = rescale(A2, -1)
        assert len(short_vectors(lat, 2)) == 6

    def test_root_system_sizes(self):
        assert len(short_vectors(build("D4"), -2)) == 24
        assert len(short_vectors(build("E6"), -2)) == 72
        assert len(short_vectors(build("E8"), -2)) == 240

    def test_indefinite_rejected(self):
        with pytest.raises(NotDefinite):
            short_vectors(build("U"), -2)

    def test_zero_target(self):
        assert short_vectors(A2, 0) == [(0, 0)]

    def test_random_lattices_against_brute_force(self):
        rng = random.Random(31)
        trials = 0
        while trials < 16:
            n = rng.randint(1, 4)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.randint(-2, 2)
                rows[i][i] = rng.randint(2, 6)
            if signature(Matrix(rows)) != (n, 0, 0):
                continue
            trials += 1
            sign = rng.choice((1, -1))
            lat = Lattice(Matrix(rows).scaled(sign))
            for target in (1, 2, 3, 4, 6):
                assert short_vectors(lat, sign * target) == self.brute_force(lat, sign * target)


class TestEnumerateIsometries:
    def brute_force_a2(self):
        hits = []
        for entries in product(range(-2, 3), repeat=4):
            m = Matrix([entries[:2], entries[2:]])
            if m.transpose() @ A2.gram @ m == A2.gram:
                hits.append(m)
        return hits

    def test_a2_group(self):
        group = enumerate_isometries(A2)
        assert len(group) == 12
        assert {iso.matrix for iso in group} == set(self.brute_force_a2())

    def test_scaling_preserves_group(self):
        scaled = enumerate_isometries(rescale(A2, 3))
        assert {iso.matrix for iso in scaled} == {
            iso.matrix for iso in enumerate_isometries(A2)
        }

    def test_rank_one(self):
        lat = Lattice(Matrix([[-2]]))
        group = enumerate_isometries(lat)
        assert {iso.matrix for iso in group} == {Matrix([[1]]), Matrix([[-1]])}

    def test_group_axioms(self):
        group = [iso.matrix for iso in enumerate_isometries(A2)]
        members = set(group)
        assert Matrix.identity(2) in members
        for m1 in group:
            for m2 in group:
                assert m1 @ m2 in members

    def test_all_unimodular(self):
        for iso in enumerate_isometries(rescale(A2, 3)):
            assert abs(determinant(iso.matrix)) == 1

    def test_guards(self):
        with pytest.raises(NotDefinite):
            enumerate_isometries(build("U"))
        wide = parse_expr("A1^9")
        with pytest.raises(RankTooLarge):
            enumerate_isometries(wide)

    def test_rank4_group_order(self):
        lat = direct_sum(rescale(A2, 3), rescale(A2, 3))
        assert len(enumerate_isometries(lat)) == 288

    def test_closed_form_group_orders(self):
        orders = {f"A{n}": 2 * factorial(n + 1) for n in range(2, 6)}
        orders["D4"] = 1152
        orders["D5"] = 2**5 * factorial(5)
        orders.update({f"A1^{k}": 2**k * factorial(k) for k in range(1, 6)})
        for expr, order in orders.items():
            assert len(enumerate_isometries(parse_expr(expr))) == order, expr

    @pytest.mark.parametrize("expr", [name for name, _ in BENCHMARK_LATTICES] + ["A2+A1"])
    def test_same_list_as_backtracking(self, expr):
        # the listing trivial on A_L is the same sublist of both oracles
        lat = parse_expr(expr)
        for base in (lat, conjugate(lat, random.Random(expr))):
            group = list(backtracking_group(base))
            assert [iso.matrix for iso in enumerate_isometries(base)] == group
            kept = [m for m in group if moves_the_dual_by_lattice_vectors(base, m)]
            assert trivial_on_A(base) == kept == filtered_group(base), base.gram

    @pytest.mark.parametrize("expr", [name for name, found in BENCHMARK_LATTICES if not found])
    def test_same_list_as_backtracking_in_a_dense_basis(self, expr):
        moved = dense_conjugate(parse_expr(expr), random.Random(expr), steps=3)
        mats = [iso.matrix for iso in enumerate_isometries(moved)]
        assert mats == list(backtracking_group(moved)), moved.gram
        assert trivial_on_A(moved) == filtered_backtracking(moved), moved.gram

    @pytest.mark.parametrize("expr", [name for name, _ in BENCHMARK_LATTICES])
    def test_trivial_on_A_in_a_dense_basis(self, expr, monkeypatch):
        # order and content are under test here, not the budget: the whole
        # group of A5 in this basis takes 449,354 units; and the backtracking
        # oracle takes seconds on A5 and D5 here, so the lattices without a
        # root pair alone meet it (previous test)
        monkeypatch.setattr(isometry_module, "SEARCH_BUDGET", 4 * SEARCH_BUDGET)
        moved = dense_conjugate(parse_expr(expr), random.Random(expr), steps=3)
        assert trivial_on_A(moved) == filtered_group(moved), moved.gram

    def test_trivial_on_A_on_seeded_sums(self):
        for lat in seeded_sums():
            assert trivial_on_A(lat) == filtered_backtracking(lat) == filtered_group(lat), lat.gram

    def test_scaled_dual_basis_spans_d_times_the_dual(self):
        # each w_m lies in d L* (G w_m = 0 mod d) and is zero past column m,
        # so with the d e_k they span a lattice of pivots gcd(w_m[m], d) and
        # index d^n / prod(pivots) over d Z^n; d L* has index |det G|
        lats = [parse_expr(e) for e, _ in BENCHMARK_LATTICES + (("E6*(3)", False),)]
        lats += [dense_conjugate(lat, random.Random(1), steps=3) for lat in lats]
        for lat in lats + seeded_sums():
            d, basis = _scaled_dual_basis(lat)
            pivots = 1
            for m, w in enumerate(basis):
                assert all(x % d == 0 for x in lat.gram.mul_vec(w)), lat.gram
                assert not any(w[m + 1 :]), lat.gram
                pivots *= gcd(w[m], d)
            assert d**lat.rank == abs(determinant(lat.gram)) * pivots, lat.gram

    @pytest.mark.parametrize("expr", ["A2", "A2^2", "D4", "D5", "E6", "E7", "E8"])
    def test_trivial_on_A_of_a_3_rescaling_is_the_identity(self, expr, monkeypatch):
        # L = M(3) has L* = M*/3, which holds M/3, so sigma fixing A_L
        # fixes M/3M, and by Minkowski's lemma the kernel of GL_n(Z) ->
        # GL_n(Z/3) has no element of finite order but I; the pruned search,
        # run with the content test off, finds the same
        lat = rescale(parse_expr(expr), 3)
        assert trivial_on_A(lat) == [Matrix.identity(lat.rank)]
        monkeypatch.setattr(isometry_module, "gcd", lambda *entries: 1)
        assert trivial_on_A(lat) == [Matrix.identity(lat.rank)]

    @pytest.mark.parametrize(
        "expr", ["A2(3)", "A1(3)+A2(3)", "A2(3)^2", "D4(3)", "A1(2)^3", "A2(5)", "A1(3)^2", "A2(6)"]
    )
    def test_trivial_on_A_at_content_3_to_6_against_both_oracles(self, expr, monkeypatch):
        # Gram content 3, 4, 5 or 6 in the catalog basis and two dense ones:
        # both oracles keep the identity alone, and the listing answers
        # without a short-vector search
        lat = parse_expr(expr)
        bases = [lat] + [dense_conjugate(lat, random.Random(seed), steps=3) for seed in (1, 2)]
        kept = [(filtered_group(base), filtered_backtracking(base)) for base in bases]

        def no_search(*args):
            raise AssertionError("short_vectors was called")

        monkeypatch.setattr(isometry_module, "short_vectors", no_search)
        for base, (group, backtracking) in zip(bases, kept):
            assert trivial_on_A(base) == group == backtracking == [Matrix.identity(base.rank)]

    @pytest.mark.parametrize(
        "expr", ["A1^3", "A2(2)", "D4(2)", "A2+A2(3)", "A1+A2(3)", "A2(2)+A2(3)"]
    )
    def test_trivial_on_A_at_content_1_and_2_against_both_oracles(self, expr):
        # content 2 (A1^n keeps its sign diagonals) and content 1 with a
        # scaled summand: the pruned search lists these
        lat = parse_expr(expr)
        for base in (lat, dense_conjugate(lat, random.Random(expr), steps=3)):
            budget = SearchBudget()
            listed = [iso.matrix for iso in enumerate_isometries(base, budget, trivial_on_A=True)]
            assert budget.used > 0, base.gram
            assert listed == filtered_group(base) == filtered_backtracking(base), base.gram

    def test_trivial_on_A_of_e6_dual_3_against_the_filtered_group(self, monkeypatch):
        # content 1, so the pruned search lists it; the whole group has
        # 103,680 elements, past the budget and the backtracking oracle
        lat = parse_expr("E6*(3)")
        budget = SearchBudget()
        listed = [iso.matrix for iso in enumerate_isometries(lat, budget, trivial_on_A=True)]
        assert budget.used > 0
        monkeypatch.setattr(isometry_module, "SEARCH_BUDGET", 10 * SEARCH_BUDGET)
        assert listed == filtered_group(lat) == [Matrix.identity(6)]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_trivial_on_A_of_a1_powers_is_the_sign_diagonals(self, n):
        # an isometry of A1^n is a signed permutation, and it fixes each
        # e_i / 2 mod A1^n only when it sends e_i to +-e_i; -e_i sorts first
        diagonals = [
            Matrix([[signs[i] if i == j else 0 for j in range(n)] for i in range(n)])
            for signs in product((-1, 1), repeat=n)
        ]
        assert trivial_on_A(parse_expr(f"A1^{n}")) == diagonals

    def test_long_last_basis_vector(self):
        # A1^4 in the basis e1, e2, e3, 7e1+3e2+2e3+e4: the last basis norm,
        # 126, has 832 vectors; being last, they are compared with no column
        lat = Lattice(A1_4_LONG_BASIS)
        budget = SearchBudget()
        mats = [iso.matrix for iso in enumerate_isometries(lat, budget)]
        assert len(mats) == 384
        assert mats == list(backtracking_group(lat))
        assert budget.used < SEARCH_BUDGET // 5

    def test_budget_is_shared_and_exact(self, monkeypatch):
        lat = parse_expr("A2(3)^2")
        budget = SearchBudget()
        enumerate_isometries(lat, budget)
        used = budget.used
        # 288 elements of rank 4 keep 4 vectors each, besides the nodes
        assert used > 288 * 4
        vectors_only = SearchBudget()
        short_vectors(lat, -6, vectors_only)
        shared = SearchBudget()
        short_vectors(lat, -6, shared)
        enumerate_isometries(lat, shared)
        assert shared.used == vectors_only.used + used
        monkeypatch.setattr(isometry_module, "SEARCH_BUDGET", used)
        assert len(enumerate_isometries(lat)) == 288
        monkeypatch.setattr(isometry_module, "SEARCH_BUDGET", used - 1)
        with pytest.raises(SearchTooLarge, match=f"takes at least {used} steps .* limit of {used - 1}$"):
            enumerate_isometries(lat)
        assert issubclass(SearchTooLarge, TrielemError)


class TestOrder3Search:
    def test_a2_has_one(self):
        assert has_order3_trivial_on_A(A2)

    @pytest.mark.parametrize(("expr", "found"), BENCHMARK_LATTICES)
    def test_benchmark_lattices_against_backtracking(self, expr, found):
        lat = parse_expr(expr)
        assert has_order3_trivial_on_A(lat) is found
        assert backtracking_search(lat) is found
        rng = random.Random(expr)
        for _ in range(2):
            moved = conjugate(lat, rng)
            assert has_order3_trivial_on_A(moved) is found, moved.gram
            assert backtracking_search(moved) is found, moved.gram

    @pytest.mark.parametrize(("expr", "found"), BENCHMARK_LATTICES)
    def test_dense_bases_against_backtracking(self, expr, found):
        moved = dense_conjugate(parse_expr(expr), random.Random(expr), steps=3)
        assert has_order3_trivial_on_A(moved) is found, moved.gram
        assert backtracking_search(moved) is found, moved.gram

    def test_long_last_basis_vector_has_none(self):
        lat = Lattice(A1_4_LONG_BASIS)
        assert not has_order3_trivial_on_A(lat)
        assert not backtracking_search(lat)

    def test_random_sums_against_backtracking(self):
        seen = set()
        for lat in seeded_sums():
            found = backtracking_search(lat)
            assert has_order3_trivial_on_A(lat) is found, lat.gram
            seen.add(found)
        assert seen == {True, False}

    def test_a2_scaled_has_none(self):
        assert not has_order3_trivial_on_A(rescale(A2, 3))

    def test_rank4_scaled_has_none(self):
        lat = direct_sum(rescale(A2, 3), rescale(A2, 3))
        assert not has_order3_trivial_on_A(lat)


class TestRootPairWitness:
    @pytest.mark.parametrize(
        "expr", ["A2", "A3", "A4", "A5", "D4", "D5", "E6", "E7", "E8", "D8", "A2(3)+A1^2+A2"]
    )
    def test_witness_has_order_three_and_acts_trivially(self, expr):
        lat = parse_expr(expr)
        sigma = _root_pair_witness(lat)
        identity = Matrix.identity(lat.rank)
        assert is_isometry(lat, sigma)
        assert sigma != identity
        assert sigma @ sigma @ sigma == identity
        assert moves_the_dual_by_lattice_vectors(lat, sigma)

    @pytest.mark.parametrize("expr", ["A1", "A1^4", "A2(3)", "D4(3)", "E8(3)", "A1(2)+A1^3"])
    def test_no_root_pair(self, expr):
        assert _root_pair_witness(parse_expr(expr)) is None


class TestStabilizerIdentities:
    def test_bilinear_identities_on_a2(self):
        # for an order-3 isometry fixing the discriminant group pointwise,
        # the displacement l = f(x) - x of any dual vector satisfies
        # 3<x,x> = -2<l,x> and -2<x,l> = <l,l>
        lat = A2
        mat = A2_ROTATION
        group = discriminant_group(lat)
        rng = random.Random(41)
        reps = [representative(group, c) for c in group.elements()]
        for rep in reps:
            for _ in range(3):
                x = tuple(v + rng.randint(-3, 3) for v in rep)
                image = mat.mul_vec(x)
                disp = tuple(a - b for a, b in zip(image, x))
                assert all(Fraction(v).denominator == 1 for v in disp)
                assert 3 * pair_value(lat.gram, x, x) == -2 * pair_value(
                    lat.gram, disp, x
                )
                assert -2 * pair_value(lat.gram, x, disp) == pair_value(
                    lat.gram, disp, disp
                )


class TestWitnesses:
    def test_u3_u_witness(self):
        w = order3_isometry_u3_u()
        assert w.lattice.name == "U(3)+U"
        assert order_of(w.matrix) == 3
        assert discriminant_action(w.lattice, w)

    def test_u_u_witness(self):
        w = order3_isometry_u_u()
        assert w.lattice.name == "U+U"
        assert order_of(w.matrix) == 3
        assert discriminant_group(w.lattice).s == 0  # action trivial vacuously


def test_matrix_from_dict():
    m = matrix_from_dict({"matrix": [[1, 0], [0, 1]]})
    assert m == Matrix.identity(2)
    with pytest.raises(ValueError):
        matrix_from_dict({"matrix": [[0.5]]})
    with pytest.raises(ValueError):
        matrix_from_dict({})


@pytest.mark.parametrize(
    ("reader", "key"), [(matrix_from_dict, "matrix"), (lattice_from_dict, "gram")]
)
def test_json_readers_reject_the_same_input(reader, key, monkeypatch):
    with pytest.raises(ValueError, match=f'"{key}" entries must be integers'):
        reader({key: [[True, 1], [1, 0]]})
    with pytest.raises(ValueError, match="unequal lengths"):
        reader({key: [[0, 1], [1]]})
    with pytest.raises(ValueError, match="list of rows"):
        reader({key: [[0, 1], 1]})

    # the row count is checked before any matrix is built
    def no_matrix(rows):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(isometry_module, "Matrix", no_matrix)
    monkeypatch.setattr(lattice_module, "Matrix", no_matrix)
    with pytest.raises(RankTooLarge, match="rank 65 exceeds the limit of 64"):
        reader({key: [[0] * 65] * 65})
