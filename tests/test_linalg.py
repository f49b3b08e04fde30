import random
from fractions import Fraction
from math import gcd, prod

import numpy
import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form
from sympy.polys.matrices import DomainMatrix
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trielem.catalog import build
from trielem.classify import AMBIENT_RANK, enumerate_table1
from trielem.errors import NotSymmetric, SingularMatrix
from trielem.linalg import (
    Matrix,
    ModulusSplit,
    _det_bareiss,
    determinant,
    pair_value,
    rational_inverse,
    signature,
    smith_normal_form,
    symmetric_elimination,
)


def snf_diag_2x2_oracle(m):
    # d1 = gcd of all entries, d1*d2 = |det|; independent of the elimination path
    entries = [x for row in m.entries for x in row]
    d1 = gcd(*entries)
    dd = abs(determinant(m))
    return (d1, dd // d1)


def random_symmetric(rng, n, bound=20):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-bound, bound)
    return Matrix(rows)


@st.composite
def square_matrices(draw):
    """Square matrices of size 0 to 5, mostly not symmetric, with entries
    all int or all Fraction; in about half the draws of size 2 or more the
    last row is a combination of the first two, so the matrix is singular."""
    n = draw(st.integers(0, 5))
    entry = draw(
        st.sampled_from(
            (
                st.integers(-9, 9),
                st.fractions(min_value=-9, max_value=9, max_denominator=12),
            )
        )
    )
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):
        a, b = draw(entry), draw(entry)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


def char_poly(rows):
    """Coefficients [1, c1, ..., cn] of det(x*I - A) by the trace recursion,
    in which every intermediate matrix stays integral for integral input."""
    n = len(rows)
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    coeffs = [1]
    for k in range(1, n + 1):
        b = [
            [sum(rows[i][t] * m[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        q, r = divmod(-sum(b[i][i] for i in range(n)), k)
        assert r == 0
        coeffs.append(q)
        for i in range(n):
            b[i][i] += q
        m = b
    return coeffs


def reference_signature(g: Matrix):
    """(positive, zero, negative) by Descartes' sign-variation rule on the
    characteristic polynomial, which is sharp because a symmetric matrix
    has only real eigenvalues; independent of any elimination."""
    n = g.nrows
    coeffs = char_poly([list(row) for row in g.entries])
    zero = 0
    while zero < n and coeffs[n - zero] == 0:
        zero += 1
    seq = [c for c in coeffs[: n - zero + 1] if c != 0]
    plus = sum(1 for x, y in zip(seq, seq[1:]) if (x > 0) != (y > 0))
    return (plus, zero, n - zero - plus)


def random_unimodular(rng, n, steps):
    """A product of signed column permutations and elementary column
    operations, so its determinant is +-1."""
    p = [[int(i == j) * rng.choice((-1, 1)) for j in range(n)] for i in range(n)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in p:
            row[i] += c * row[j]
    rng.shuffle(p)
    return Matrix(p)


BLOCKS = {
    "U": ((0, 1), (1, 0)),
    "U(3)": ((0, 3), (3, 0)),
    "A2": ((-2, 1), (1, -2)),
    "A2(-1)": ((2, -1), (-1, 2)),
    "zero": ((0,),),
}
small_entries = st.one_of(st.just(0), st.integers(-9, 9))


@st.composite
def symmetric_matrices(draw, kinds=("dense", "zero_diagonal", "low_rank", "blocks")):
    """Symmetric integer matrices of size at most 8: dense draws, draws with
    a zero diagonal, sums of fewer than n rank-one terms (singular), and
    direct sums of U, U(3), A2, A2(-1) and zero blocks in a mixed basis."""
    kind = draw(st.sampled_from(kinds))
    if kind == "blocks":
        rows, n = [], 0
        for name in draw(st.lists(st.sampled_from(sorted(BLOCKS)), max_size=5)):
            block = BLOCKS[name]
            if n + len(block) > 8:
                break
            rows = [row + [0] * len(block) for row in rows]
            rows += [[0] * n + list(line) for line in block]
            n += len(block)
        p = random_unimodular(random.Random(draw(st.integers(0, 2**32 - 1))), n, 2 * n)
        return p.transpose() @ Matrix(rows) @ p if n else Matrix([])
    n = draw(st.integers(0, 8))
    rows = [[0] * n for _ in range(n)]
    if kind in ("dense", "zero_diagonal"):
        for i in range(n):
            for j in range(i, n):
                if i != j or kind == "dense":
                    rows[i][j] = rows[j][i] = draw(small_entries)
    else:
        for _ in range(draw(st.integers(0, max(n - 1, 0)))):
            v = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
            sign = draw(st.sampled_from((-1, 1)))
            for i in range(n):
                for j in range(n):
                    rows[i][j] += sign * v[i] * v[j]
    return Matrix(rows)


def products(shape):
    """r x c matrices L R with L of size r x k: singular when k < min(r, c),
    and zero when k = 0."""
    r, c, k = shape
    entries = st.integers(-6, 6)
    return st.tuples(
        st.lists(st.lists(entries, min_size=k, max_size=k), min_size=r, max_size=r),
        st.lists(st.lists(entries, min_size=c, max_size=c), min_size=k, max_size=k),
    ).map(
        lambda f: [
            [sum(f[0][i][t] * f[1][t][j] for t in range(k)) for j in range(c)] for i in range(r)
        ]
    )


class TestSmithNormalForm:
    def test_a2_gram(self):
        a = Matrix([[-2, 1], [1, -2]])
        u, d, v = smith_normal_form(a)
        assert (d[0, 0], d[1, 1]) == (1, 3)
        assert (d[0, 0], d[1, 1]) == snf_diag_2x2_oracle(a)
        assert u @ a @ v == d

    def test_identity(self):
        a = Matrix.identity(3)
        u, d, v = smith_normal_form(a)
        assert d == Matrix.identity(3)
        assert u == Matrix.identity(3)
        assert v == Matrix.identity(3)

    def test_u3_gram(self):
        a = Matrix([[0, 3], [3, 0]])
        u, d, v = smith_normal_form(a)
        assert (d[0, 0], d[1, 1]) == (3, 3)
        assert (d[0, 0], d[1, 1]) == snf_diag_2x2_oracle(a)
        assert u @ a @ v == d

    def test_zero_matrix(self):
        a = Matrix([[0, 0], [0, 0]])
        u, d, v = smith_normal_form(a)
        assert d == a
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1

    def test_rectangular(self):
        a = Matrix([[2, 4, 4]])
        u, d, v = smith_normal_form(a)
        assert u @ a @ v == d
        assert d[0, 0] == 2
        assert all(d[0, j] == 0 for j in range(1, 3))

    def test_reconstruction_random(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 6)
            a = random_symmetric(rng, n, bound=9)
            u, d, v = smith_normal_form(a)
            assert u @ a @ v == d
            assert abs(determinant(u)) == 1
            assert abs(determinant(v)) == 1
            diag = [d[i, i] for i in range(n)]
            assert all(x >= 0 for x in diag)
            for x, y in zip(diag, diag[1:]):
                assert (x == 0 and y == 0) or (x != 0 and (y % x == 0 or y == 0))
            assert abs(determinant(a)) == prod(diag)

    def test_deterministic(self):
        a = Matrix([[6, 4, 2], [4, 0, 8], [2, 8, 10]])
        first = smith_normal_form(a)
        second = smith_normal_form(a)
        assert first == second

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(0, 6)).flatmap(products))
    @example([[0, 0, 0], [0, 0, 0]])
    def test_any_shape_against_sympy(self, rows):
        a = Matrix(rows)
        u, d, v = smith_normal_form(a)
        expected = sympy_smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
        assert d == Matrix(abs(expected).tolist())
        assert u @ a @ v == d
        assert abs(determinant(u)) == abs(determinant(v)) == 1
        assert smith_normal_form(a) == (u, d, v)


def sympy_invariant_factors(a: Matrix) -> tuple[int, ...]:
    """The invariant factors other than 1, from sympy's Smith normal form."""
    d = sympy_smith_normal_form(sympy.Matrix(a.entries), domain=sympy.ZZ)
    return tuple(sorted(abs(int(d[i, i])) for i in range(a.nrows) if abs(d[i, i]) != 1))


def modular_cases(count=200):
    """Nonsingular symmetric matrices of size at most 10: dense draws, and
    sums of small blocks with nontrivial groups in a random basis, many of
    them with a determinant of two or three primes."""
    blocks = (
        ((2,),), ((6,),), ((0, 3), (3, 0)), ((2, 1), (1, 2)), ((6, 3), (3, 6)), ((4, 2), (2, 4))
    )
    rng = random.Random(31)
    out = []
    while len(out) < count:
        n = rng.randint(1, 10)
        if len(out) % 2:
            a = random_symmetric(rng, n, bound=9)
        else:
            rows = []
            while len(rows) < n:
                block = rng.choice([b for b in blocks if len(b) <= n - len(rows)])
                k = len(rows)
                rows = [row + [0] * len(block) for row in rows]
                rows += [[0] * k + list(r) for r in block]
            p = random_unimodular(rng, n, 2 * n)
            a = p.transpose() @ Matrix(rows) @ p
        if determinant(a):
            out.append(a)
    return out


def modular_runs(a: Matrix) -> list[tuple[int, Matrix, Matrix]]:
    """(m, D, V) for every run of the modular Smith normal form that the
    group of a takes: modulo b^2 for b = |det a|, and after a ModulusSplit,
    modulo the square of each coprime part of b."""
    parts, runs = [abs(determinant(a))], []
    while parts:
        b = parts.pop()
        m = b * b
        try:
            no_u, d, v = smith_normal_form(a, modulus=m)
        except ModulusSplit as split:
            # a unitary divisor of m: neither 1 nor m, coprime to m / factor
            assert 1 < split.factor < m and gcd(split.factor, m // split.factor) == 1
            first = gcd(b, split.factor)
            parts += [first, b // first]
            continue
        assert no_u is None
        runs.append((m, d, v))
    return runs


TABLE1_GRAMS = [pair.S.gram for pair in enumerate_table1()] + [
    pair.T.gram for pair in enumerate_table1() if pair.T
]


class TestSmithNormalFormModular:
    """The least-valuation elimination modulo b^2 against sympy."""

    def test_invariant_factors_match_sympy(self):
        cases = modular_cases() + TABLE1_GRAMS
        assert len(cases) == 263
        splits = composite = 0
        for a in cases:
            n = a.nrows
            runs = modular_runs(a)
            splits += len(runs) - 1
            exact = sympy_invariant_factors(a)
            for m, d, v in runs:
                composite += len(sympy.primefactors(m)) > 1
                assert all(d[i, j] == 0 for i in range(n) for j in range(n) if i != j)
                # D and the factor columns of V hold residues mod m
                assert all(0 <= d[i, i] < m for i in range(n))
                assert all(0 <= x < m for row in v.entries for x in row)
                factors = [f for f in (gcd(d[i, i], m) for i in range(n)) if f != 1]
                assert all(y % x == 0 for x, y in zip(factors, factors[1:]))
                assert factors == [f for f in (gcd(e, m) for e in exact) if f != 1]
            assert prod(gcd(d[i, i], m) for m, d, _ in runs for i in range(n)) == abs(
                determinant(a)
            )
        # both sides of the contract are exercised: runs that split the
        # modulus, and runs over two or more primes that need no split
        # (57 and 131 here)
        assert splits > 50 and composite > 100

    def test_factor_columns(self):
        # column i of V solves A v_i = 0 mod the factor f_i = gcd(d_i, m),
        # as U A V = D mod m with U invertible; and V is invertible mod m,
        # so its factor columns are independent mod every prime of m
        for a in modular_cases() + TABLE1_GRAMS:
            for m, d, v in modular_runs(a):
                factors = [f for f in (gcd(d[i, i], m) for i in range(a.nrows)) if f != 1]
                assert v.nrows == a.nrows and v.ncols == len(factors)
                for f, column in zip(factors, zip(*v.entries)):
                    assert all(x % f == 0 for x in a.mul_vec(column))
                if factors:
                    columns = DomainMatrix.from_list([list(row) for row in v.entries], sympy.ZZ)
                    for p in sympy.primefactors(m):
                        assert columns.convert_to(sympy.GF(p)).rank() == len(factors)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
            lambda shape: st.lists(
                st.lists(st.integers(-30, 30), min_size=shape[1], max_size=shape[1]),
                min_size=shape[0],
                max_size=shape[0],
            )
        ),
        st.integers(1, 720),
    )
    def test_any_matrix_and_modulus_against_sympy(self, rows, m):
        # rectangular and singular input, m no multiple of any determinant:
        # a split names a coprime factor of m, and otherwise gcd(d_i, m) is
        # gcd(e_i, m) for sympy's invariant factors e_i, zeros included
        a = Matrix(rows)
        try:
            no_u, d, v = smith_normal_form(a, modulus=m)
        except ModulusSplit as split:
            assert 1 < split.factor < m and gcd(split.factor, m // split.factor) == 1
            return
        k = min(a.nrows, a.ncols)
        exact = sympy_smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
        assert no_u is None
        assert [gcd(d[i, i], m) for i in range(k)] == [gcd(int(exact[i, i]), m) for i in range(k)]
        # a column past the last row has a zero diagonal entry
        diagonal = [d[i, i] for i in range(k)] + [0] * (a.ncols - k)
        factors = [f for f in (gcd(x, m) for x in diagonal) if f != 1]
        assert v.ncols == len(factors)
        for f, column in zip(factors, zip(*v.entries)):
            assert all(x % f == 0 for x in a.mul_vec(column))

    def test_one_pass_by_hand(self):
        # [[2, 1], [1, 2]] mod 9: the unit 2 is the pivot, its inverse is 5,
        # row 1 -= 5 * row 0 leaves 2 - 5 = -3 = 6, and column 1 += 4 *
        # column 0 clears row 0; 6 has gcd 3 with 9, the one factor
        assert smith_normal_form(Matrix([[2, 1], [1, 2]]), modulus=9) == (
            None,
            Matrix([[2, 0], [0, 6]]),
            Matrix([[4], [1]]),
        )

    def test_pivots_take_the_least_gcd(self):
        # the least gcd with m = 3^4 is 3, in row 1 (ties to the lowest
        # row, then column), although 9 and 0 come first
        a = Matrix([[9, 0], [0, 3]])
        assert smith_normal_form(a, modulus=81) == (
            None,
            Matrix([[3, 0], [0, 9]]),
            Matrix([[0, 1], [1, 0]]),
        )

    def test_primes_in_conflict_split_the_modulus(self):
        # gcd(2, 36) = 2 does not divide gcd(3, 36) = 3: the part of 36 on
        # the primes of 2 / gcd(2, 3) is 4
        with pytest.raises(ModulusSplit) as split:
            smith_normal_form(Matrix([[2, 0], [0, 3]]), modulus=36)
        assert split.value.factor == 4
        # primes above 2^16: diag(p, q) splits at p^2, and [[p * q]] has a
        # single entry, so nothing conflicts and the run is composite
        p, q = 65537, 65539
        with pytest.raises(ModulusSplit) as split:
            smith_normal_form(Matrix([[p, 0], [0, q]]), modulus=(p * q) ** 2)
        assert split.value.factor == p * p
        assert smith_normal_form(Matrix([[p * q]]), modulus=(p * q) ** 2) == (
            None,
            Matrix([[p * q]]),
            Matrix([[1]]),
        )

    def test_modulus_one_and_negative(self):
        # modulo 1 every gcd(d_i, 1) is 1: no factor, so V has no columns
        a = Matrix([[2, 1], [1, 2]])
        u, d, v = smith_normal_form(a, modulus=1)
        assert u is None and v == Matrix([[], []])
        assert all(gcd(d[i, i], 1) == 1 for i in range(2))
        with pytest.raises(ValueError):
            smith_normal_form(a, modulus=-3)


class TestDeterminant:
    def test_hyperbolic_plane(self):
        assert determinant(Matrix([[0, 1], [1, 0]])) == -1

    def test_a2(self):
        assert determinant(Matrix([[-2, 1], [1, -2]])) == 3

    def test_e8(self):
        assert determinant(build("E8").gram) == 1

    def test_empty(self):
        assert determinant(Matrix([])) == 1

    def test_rational_entries(self):
        a = Matrix([[Fraction(1, 2), 0], [0, Fraction(2, 3)]])
        assert determinant(a) == Fraction(1, 3)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.fractions(min_value=-9, max_value=9, max_denominator=12),
                    min_size=n,
                    max_size=n,
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_rational_matches_sympy(self, rows):
        expected = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
        ).det()
        det = determinant(Matrix(rows))
        assert det == Fraction(int(expected.p), int(expected.q))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(symmetric_matrices())
    def test_symmetric_matches_bareiss_and_sympy(self, g):
        # symmetric integer input reads the determinant off the signature's
        # elimination; zero-diagonal draws run its repairs, and low-rank
        # draws its radical directions
        expected = int(sympy.Matrix(g.nrows, g.ncols, [x for row in g.entries for x in row]).det())
        assert determinant(g) == expected
        if g.nrows:
            assert _det_bareiss([list(row) for row in g.entries]) == expected

    @pytest.mark.parametrize(
        "rows, det",
        [
            ([], 1),
            ([[0]], 0),
            ([[0, 0], [0, 0]], 0),
            ([[0, 0, 1], [0, 0, 0], [1, 0, 0]], 0),  # radical in the middle
            ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], 0),  # radical after a U block
            ([[1, 1], [1, 1]], 0),  # zero pivot after a nonzero one
            ([[0, 1, 2], [1, 0, 3], [2, 3, 0]], 12),  # zero diagonal: repairs
            ([[0, 3], [3, 0]], -9),
        ],
    )
    def test_symmetric_repairs_and_radicals(self, rows, det):
        g = Matrix(rows)
        assert determinant(g) == det
        assert (signature(g)[1] > 0) == (det == 0)

    def test_table1_dense_bases(self):
        # |det| = 3^s, and the sign is (-1)^(negative eigenvalues):
        # S has signature (1, rho - 1) and T (2, 20 - rho), rho even
        rng = random.Random(29)
        lattices = [(pair.S, -(3**pair.s)) for pair in enumerate_table1()] + [
            (pair.T, 3**pair.s) for pair in enumerate_table1() if pair.T
        ]
        assert len(lattices) == 63
        for lat, expected in lattices:
            p = random_unimodular(rng, lat.rank, 3 * lat.rank)
            g = p.transpose() @ lat.gram @ p
            assert determinant(g) == expected, lat.name
            assert _det_bareiss([list(row) for row in g.entries]) == expected, lat.name

    def test_matches_snf_product(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 5)
            a = random_symmetric(rng, n, bound=7)
            _, d, _ = smith_normal_form(a)
            assert abs(determinant(a)) == prod(d[i, i] for i in range(n))


class TestRationalInverse:
    def test_involution(self):
        a = Matrix([[0, 1], [1, 0]])
        assert rational_inverse(a) == a

    def test_a2(self):
        a = Matrix([[-2, 1], [1, -2]])
        inv = rational_inverse(a)
        third = Fraction(1, 3)
        assert inv == Matrix([[-2 * third, -third], [-third, -2 * third]])
        assert a @ inv == Matrix.identity(2)

    def test_scalar(self):
        assert rational_inverse(Matrix([[3]])) == Matrix([[Fraction(1, 3)]])

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            rational_inverse(Matrix([[1, 1], [1, 1]]))

    def test_exact_random(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 5)
            a = random_symmetric(rng, n, bound=6)
            if determinant(a) == 0:
                continue
            assert rational_inverse(a) @ a == Matrix.identity(n)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(square_matrices())
    @example([])
    def test_matches_sympy(self, rows):
        a = Matrix(rows)
        n = a.nrows
        expected = sympy.Matrix(
            n, n, [sympy.Rational(x.numerator, x.denominator) for row in rows for x in row]
        )
        if expected.det() == 0:
            with pytest.raises(SingularMatrix):
                rational_inverse(a)
            return
        inv = rational_inverse(a)
        assert all(type(x) is Fraction for row in inv.entries for x in row)
        expected = expected.inv()
        assert inv == Matrix(
            [[Fraction(int(expected[i, j].p), int(expected[i, j].q)) for j in range(n)] for i in range(n)]
        )

    def test_non_square(self):
        with pytest.raises(ValueError):
            rational_inverse(Matrix([[1, 2, 3], [4, 5, 6]]))


class TestSignature:
    def test_hyperbolic_plane(self):
        assert signature(Matrix([[0, 1], [1, 0]])) == (1, 0, 1)
        # U in other bases; the zero pivot is repaired by x_0 -> x_0 + x_1,
        # or by x_0 - x_1 when the first sign gives 0 - 2 + 2 = 0
        assert signature(Matrix([[0, 1], [1, 2]])) == (1, 0, 1)
        assert signature(Matrix([[0, 1], [1, -2]])) == (1, 0, 1)

    def test_e8_negative_definite(self):
        assert signature(build("E8").gram) == (0, 0, 8)

    def test_k3_lattice(self):
        assert signature(build("K3").gram) == (3, 0, 19)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            signature(Matrix([[0, 1], [2, 0]]))

    def test_degenerate(self):
        assert signature(Matrix([[0, 0], [0, 1]])) == (1, 1, 0)
        assert signature(Matrix([[0]])) == (0, 1, 0)
        assert signature(Matrix([[1, 1, 0], [1, 1, 0], [0, 0, 0]])) == (1, 2, 0)
        assert signature(Matrix([[0, 0, 1], [0, 0, 0], [1, 0, 0]])) == (1, 1, 1)

    def test_empty(self):
        assert signature(Matrix([])) == (0, 0, 0)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(symmetric_matrices())
    def test_matches_characteristic_polynomial(self, g):
        assert signature(g) == reference_signature(g)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(symmetric_matrices(kinds=("dense", "zero_diagonal", "blocks")))
    def test_matches_numpy_eigenvalues(self, g):
        n = g.nrows
        eigenvalues = numpy.linalg.eigvalsh(
            numpy.array(g.entries, dtype=float).reshape(n, n)
        )
        assume(n == 0 or min(abs(eigenvalues)) > 1e-6)
        plus = int((eigenvalues > 0).sum())
        assert signature(g) == (plus, 0, n - plus)

    def test_unimodular_invariance_on_table1(self):
        rng = random.Random(23)
        lattices = [
            (pair.S, (1, 0, pair.rho - 1)) for pair in enumerate_table1()
        ] + [
            (pair.T, (2, 0, AMBIENT_RANK - 2 - pair.rho))
            for pair in enumerate_table1()
            if pair.T
        ]
        assert len(lattices) == 63
        for lat, expected in lattices:
            g = lat.gram
            p = random_unimodular(rng, lat.rank, 3 * lat.rank)
            assert abs(determinant(p)) == 1
            assert signature(g) == expected, lat.name
            assert signature(p.transpose() @ g @ p) == expected, lat.name

    def test_negation_swaps_counts(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 6)
            a = random_symmetric(rng, n)
            plus, zero, minus = signature(a)
            assert plus + zero + minus == n
            assert signature(a.scaled(-1)) == (minus, zero, plus)


def full_block_elimination(g: Matrix):
    """symmetric_elimination with a Bareiss step that computes every entry
    of the active block, both triangles, from the previous ones."""
    m = [list(row) for row in g.entries]
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
            sign = 1 if m[j][j] + 2 * m[k][j] else -1
            m[k] = [a + sign * b for a, b in zip(m[k], m[j])]
            for row in m:
                row[k] += sign * row[j]
        for i in range(k + 1, rank):
            old_i = list(m[i])
            for j in range(k + 1, rank):
                m[i][j] = (old_i[j] * m[k][k] - old_i[k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
        k += 1
    return m, rank


class TestSymmetricElimination:
    """The half-block elimination against the full-block reference."""

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(symmetric_matrices())
    @example(Matrix([[0, 1, 2], [1, 0, 3], [2, 3, 0]]))  # a repair at every step
    @example(Matrix([[1, 1, 1], [1, 1, 1], [1, 1, 2]]))  # a zero pivot after a nonzero one
    @example(Matrix([[0, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 2], [0, 0, 2, 5]]))  # radical
    def test_rows_match_full_block_reference(self, g):
        assert symmetric_elimination(g) == full_block_elimination(g)


def test_definite_elimination_factors_the_gram_matrix():
    # no zero leading minor, so no repair: the rows belong to g itself and
    # g = sum_k (D_{k+1}/D_k) l_k l_k^T with l_k = rows[k] / rows[k][k]
    for name in ("A2", "A5", "D4", "D7", "E6", "E7", "E8", "E6*(3)"):
        g = build(name).gram.scaled(-1)
        n = g.nrows
        rows, rank = symmetric_elimination(g)
        minors = [1] + [
            determinant(Matrix([r[: k + 1] for r in g.entries[: k + 1]]))
            for k in range(n)
        ]
        assert rank == n and [rows[k][k] for k in range(n)] == minors[1:], name
        product = [[Fraction(0)] * n for _ in range(n)]
        for k in range(n):
            d = Fraction(minors[k + 1], minors[k])
            l = [Fraction(rows[k][j], rows[k][k]) if j >= k else 0 for j in range(n)]
            for i in range(n):
                for j in range(n):
                    product[i][j] += d * l[i] * l[j]
        assert Matrix(product) == g, name


@pytest.mark.parametrize(
    "rows",
    [
        [[2, -1], [-1, 2]],  # int, symmetric
        [[1, 2], [3, 4]],  # int, not symmetric
        [[Fraction(1, 2), 1], [1, 0]],  # Fraction, symmetric, not integral
        [[Fraction(4, 2), 3], [Fraction(3), 1]],  # Fractions of denominator 1
        [[1, 2, 3]],  # non-square
        [[Fraction(1, 3)], [2]],  # non-square, not integral
        [],  # 0 x 0
    ],
)
def test_matrix_caches_match_fresh_computation(rows):
    a = Matrix(rows)
    n = len(rows)
    integral = all(Fraction(x).denominator == 1 for row in rows for x in row)
    symmetric = all(len(row) == n for row in rows) and all(
        rows[i][j] == rows[j][i] for i in range(n) for j in range(n)
    )
    # the first round computes each value, the second reads it back
    for _ in range(2):
        assert a.is_integral is integral
        assert a.is_symmetric is symmetric
        assert hash(a) == hash(tuple(map(tuple, rows))) == hash(Matrix(rows))
    # to_int copies only when some entry is not a plain int
    if integral:
        plain = a.to_int()
        assert plain == a and {type(x) for row in plain.entries for x in row} <= {int}
        assert (plain is a) == all(type(x) is int for row in rows for x in row)


def test_pair_value():
    g = Matrix([[-2, 1], [1, -2]])
    v = (Fraction(-2, 3), Fraction(-1, 3))
    assert pair_value(g, v, v) == Fraction(-2, 3)
    assert pair_value(g, (1, 0), (0, 1)) == 1
