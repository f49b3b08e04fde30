import json
import random
from collections import Counter
from enum import IntEnum
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form
from sympy.polys.matrices import DomainMatrix
from test_linalg import modular_cases

import trielem.lattice
from trielem.catalog import build, parse_expr
from trielem.classify import enumerate_table1
from trielem.errors import (
    Degenerate,
    GroupTooLarge,
    NotElementary,
    NotEven,
    RankTooLarge,
    ZeroScale,
)
from trielem.lattice import (
    MAX_GAUSS_ELEMENTS,
    MAX_GAUSS_MODULUS,
    DiscriminantGroup,
    FiniteQuadraticForm,
    Lattice,
    direct_sum,
    discriminant_form,
    discriminant_group,
    forms_match_opposite,
    is_even,
    is_p_elementary,
    lattice_from_dict,
    milgram_holds,
    read_int_rows,
    rescale,
)
from trielem.linalg import Matrix, determinant, pair_value, signature, smith_normal_form

CATALOG = [
    "U",
    "A1",
    "A2",
    "A3",
    "A4",
    "A5",
    "D4",
    "D5",
    "E6",
    "E7",
    "E8",
    "E6*(3)",
    "K3",
]


def generators(group):
    """g_i = W_i / d_i, read off the integer lifts."""
    return [
        tuple(Fraction(x, d) for x in w) for w, d in zip(group.lifts, group.invariant_factors)
    ]


def representative(group, coeffs):
    """A coset representative of sum(c_i * g_i), coordinates in [0, 1), on
    a group with at least one generator."""
    return [sum(c * x for c, x in zip(coeffs, xs)) % 1 for xs in zip(*generators(group))]


def spans_the_dual(lat, group):
    """Whether L and the generators span L*, computed with sympy: the
    lattice D*L + sum D*g_i Z, D = |det G|, has covolume D^(n-1) exactly
    when it is D*L*, as [L* : L] = D and each D*g_i lies in D*L*.  With
    orders multiplying to D, the generators are then a basis of A_L."""
    n, det = lat.rank, group.order
    rows = [[det * int(i == j) for j in range(n)] for i in range(n)]
    rows += [[x * (det // d) for x in w] for w, d in zip(group.lifts, group.invariant_factors)]
    snf = sympy_smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
    return prod(abs(int(snf[i, i])) for i in range(n)) == det ** (n - 1)


class TestBasics:
    def test_is_even(self):
        assert is_even(build("U"))
        assert not is_even(Lattice(Matrix([[1]])))
        assert is_even(build("A2"))

    def test_rescale(self):
        u3 = rescale(build("U"), 3)
        assert u3.gram == Matrix([[0, 3], [3, 0]])
        assert u3.name == "U(3)"
        lat = build("A2")
        assert rescale(lat, 1) is lat
        neg = rescale(lat, -1)
        assert neg.gram == Matrix([[2, -1], [-1, 2]])
        assert signature(neg.gram) == (2, 0, 0)
        with pytest.raises(ZeroScale):
            rescale(lat, 0)

    def test_rescale_det_and_evenness(self):
        rng = random.Random(2)
        for name in ("U", "A2", "E6"):
            lat = build(name)
            for m in (-2, 2, 3, 5):
                scaled = rescale(lat, m)
                assert determinant(scaled.gram) == determinant(lat.gram) * m**lat.rank
                assert is_even(scaled)
        odd = Lattice(Matrix([[1]]))
        assert is_even(rescale(odd, 2))
        assert not is_even(rescale(odd, 3))

    def test_direct_sum(self):
        u = build("U")
        s = direct_sum(u, rescale(u, 3))
        assert s.rank == 4
        assert determinant(s.gram) == 9  # (-1) * (-9)
        empty = Lattice(Matrix([]))
        lat = build("A2")
        assert direct_sum(lat, empty) is lat
        assert direct_sum(empty, lat) is lat
        mixed = direct_sum(rescale(u, 3), build("A2"))
        assert determinant(mixed.gram) == -27
        assert discriminant_group(mixed).s == 3


class TestDiscriminantGroup:
    def test_a2(self):
        group = discriminant_group(build("A2"))
        assert group.invariant_factors == (3,)
        assert group.s == 1
        assert group.order == 3

    def test_unimodular(self):
        group = discriminant_group(build("U"))
        assert group.invariant_factors == ()
        assert group.s == 0
        assert group.order == 1

    def test_a2_scaled(self):
        lat = rescale(build("A2"), 3)
        group = discriminant_group(lat)
        assert group.invariant_factors == (3, 9)
        assert group.order == 27

    def test_degenerate(self):
        with pytest.raises(Degenerate):
            discriminant_group(Lattice(Matrix([[1, 1], [1, 1]])))

    def test_generator_orders_exact(self):
        for name in ("A2", "E6", "E6*(3)", "U(3)+A2^2"):
            lat = parse_expr(name) if "+" in name else build(name)
            group = discriminant_group(lat)
            for d, gen in zip(group.invariant_factors, generators(group)):
                assert all((d * x).denominator == 1 for x in gen)
                # no proper divisor of d kills the generator
                for p in (2, 3):
                    if d % p == 0:
                        scaled = tuple(x * (d // p) for x in gen)
                        assert any(x.denominator != 1 for x in scaled)
            assert spans_the_dual(lat, group), name

    def test_order_is_det(self):
        for name in CATALOG:
            lat = build(name)
            assert discriminant_group(lat).order == abs(determinant(lat.gram))

    def test_s_at_most_rank(self):
        for name in ("U", "U(3)", "A2", "E8(3)", "E6*(3)", "U(3)+E8(3)"):
            lat = parse_expr(name)
            group = discriminant_group(lat)
            if all(d == 3 for d in group.invariant_factors):
                assert group.s <= lat.rank


class TestElementary:
    def test_u3(self):
        lat = rescale(build("U"), 3)
        assert is_p_elementary(lat, 3)
        assert discriminant_group(lat).s == 2

    def test_a2_scaled_not_elementary(self):
        assert not is_p_elementary(rescale(build("A2"), 3), 3)

    def test_e8_vacuous(self):
        assert is_p_elementary(build("E8"), 3)

    def test_s_subadditive(self):
        a2 = build("A2")
        u3 = rescale(build("U"), 3)
        e7 = build("E7")
        for l1, l2 in [(a2, u3), (a2, a2), (u3, u3), (a2, e7)]:
            s1 = discriminant_group(l1).s
            s2 = discriminant_group(l2).s
            s12 = discriminant_group(direct_sum(l1, l2)).s
            assert s12 <= s1 + s2
        # equality when both are 3-elementary
        assert discriminant_group(direct_sum(a2, u3)).s == 3


class TestDiscriminantForm:
    def test_a2_values(self):
        form = discriminant_form(build("A2"))
        # direct evaluation on the coset of the dual basis vector
        rep = (Fraction(-2, 3), Fraction(-1, 3))
        direct = pair_value(build("A2").gram, rep, rep) % 2
        assert direct == Fraction(4, 3)
        assert sorted(form.q_values.values()) == [0, Fraction(4, 3), Fraction(4, 3)]

    def test_e6_generator_value(self):
        form = discriminant_form(build("E6"))
        assert form.q_values[(1,)] == Fraction(-4, 3) % 2
        assert form.q_values[(1,)] == Fraction(2, 3)

    def test_unimodular_trivial(self):
        form = discriminant_form(build("U"))
        assert form.q_values == {(): Fraction(0)}
        assert form.group.s == 0

    def test_not_even(self):
        with pytest.raises(NotEven):
            discriminant_form(Lattice(Matrix([[1]])))

    def test_values_in_range(self):
        for name in ("A2", "U(3)", "E6*(3)", "A2(3)"):
            lat = parse_expr(name)
            form = discriminant_form(lat)
            assert all(0 <= v < 2 for v in form.q_values.values())
            # the pairings are e * g_i.G g_j, exactly, for the exponent e
            e = max(form.group.invariant_factors)
            gens = generators(form.group)
            expected = [[e * pair_value(lat.gram, x, y) for y in gens] for x in gens]
            assert [list(row) for row in form.pairings] == expected, name

    def test_representative_independence(self):
        rng = random.Random(17)
        for name in ("A2", "U(3)", "E6", "A2(3)"):
            lat = parse_expr(name)
            form = discriminant_form(lat)
            group = form.group
            for coeffs, value in form.q_values.items():
                rep = representative(group, coeffs)
                for _ in range(4):
                    shifted = [
                        x + rng.randint(-5, 5) for x in rep
                    ]
                    assert pair_value(lat.gram, shifted, shifted) % 2 == value

    def test_bilinear_polarization(self):
        # q(x+y) - q(x) - q(y) = 2 b(x,y) mod 2, on generators
        for name in ("U(3)", "E6*(3)"):
            lat = parse_expr(name)
            form = discriminant_form(lat)
            group = form.group
            gens = generators(group)
            s = group.s
            for i in range(s):
                for j in range(s):
                    if i == j:
                        continue
                    x = tuple(int(k == i) for k in range(s))
                    y = tuple(int(k == j) for k in range(s))
                    xy = tuple(
                        (a + b) % d
                        for a, b, d in zip(x, y, group.invariant_factors)
                    )
                    lhs = (form.q_values[xy] - form.q_values[x] - form.q_values[y]) % 2
                    rhs = (2 * pair_value(lat.gram, gens[i], gens[j])) % 2
                    assert lhs == rhs

    def test_q_of_negation(self):
        for name in ("A2", "U(3)", "E6*(3)"):
            form = discriminant_form(parse_expr(name))
            group = form.group
            for coeffs, value in form.q_values.items():
                neg = tuple(
                    (-c) % d for c, d in zip(coeffs, group.invariant_factors)
                )
                assert form.q_values[neg] == value


class TestFormsMatchOpposite:
    def test_rank4_row(self):
        form_s = discriminant_form(parse_expr("U(3)+A2"))
        form_t = discriminant_form(parse_expr("U+U(3)+E6+E8"))
        assert forms_match_opposite(form_s, form_t)

    def test_trivial_pair(self):
        form = discriminant_form(build("U"))
        assert forms_match_opposite(form, form)

    def test_a2_against_itself(self):
        form = discriminant_form(build("A2"))
        assert not forms_match_opposite(form, form)
        counts = Counter(form.q_values.values())
        negated = Counter((-v) % 2 for v in form.q_values.values())
        assert counts != negated

    def test_not_elementary(self):
        bad = discriminant_form(parse_expr("A2(3)"))
        good = discriminant_form(build("A2"))
        with pytest.raises(NotElementary):
            forms_match_opposite(bad, good)


class TestMilgram:
    def test_catalog(self):
        for name in CATALOG:
            assert milgram_holds(discriminant_form(build(name))), name

    def test_detects_wrong_signature(self):
        form = discriminant_form(build("A2"))
        forged = type(form)(
            group=form.group,
            pairings=form.pairings,
            lattice_signature=(2, 0, 0),
        )
        assert not milgram_holds(forged)

    def test_limits_apply_before_either_side_is_built(self, monkeypatch):
        def built(*args):
            raise AssertionError("a side of the identity was built")

        forms = [discriminant_form(parse_expr(e)) for e in ("A1(32768)", "A1(1000000)")]
        monkeypatch.setattr(trielem.lattice, "_sqrt_as_cyclotomic", built)
        monkeypatch.setattr(trielem.lattice, "_gauss_sum", built)
        for form in forms:
            with pytest.raises(GroupTooLarge):
                milgram_holds(form)

    def test_modulus_limit(self):
        # [2k] has the cyclic group Z/2k, so m = lcm(8, 8k) = 8k
        at_limit = Lattice(Matrix([[MAX_GAUSS_MODULUS // 4]]))
        assert milgram_holds(discriminant_form(at_limit))
        with pytest.raises(GroupTooLarge, match=f"above the limit of {MAX_GAUSS_MODULUS}"):
            milgram_holds(discriminant_form(Lattice(Matrix([[MAX_GAUSS_MODULUS // 2]]))))

    def test_limits_spare_3_elementary_groups(self):
        # U(3)^10 has 3^20 elements, above MAX_GAUSS_ELEMENTS, and no sum
        # over them: its Gauss sum is a product of s three-term sums
        form = discriminant_form(parse_expr("U(3)^10"))
        assert form.group.order > MAX_GAUSS_ELEMENTS
        assert milgram_holds(form)


def test_form_reads_everything_from_its_pairings():
    # a form built from plain nested lists of pairings: q and det B mod 3
    # both follow from them, as they do for the form discriminant_form built
    for lat in TABLE1_LATTICES:
        form = discriminant_form(lat)
        rebuilt = FiniteQuadraticForm(
            form.group, [list(row) for row in form.pairings], form.lattice_signature
        )
        assert rebuilt._det_mod3 == form._det_mod3 == normal_form(form)[1], lat.name
        if form.group.order <= 3**4:
            assert dict(rebuilt.q_values.items()) == dict(form.q_values.items()), lat.name
        assert forms_match_opposite(rebuilt, form) == forms_match_opposite(form, form)
        assert milgram_holds(rebuilt), lat.name


class Small(IntEnum):
    ONE = 1
    TWO = 2


def test_read_int_rows_entry_types():
    # int subclasses pass; bool and non-int entries fail, in any row
    rows = [[Small.TWO, Small.ONE], [1, 2]]
    assert read_int_rows({"gram": rows}, "gram") is rows
    lat = lattice_from_dict({"gram": rows})
    assert lat.gram == Matrix([[2, 1], [1, 2]])
    assert {type(x) for row in lat.gram.entries for x in row} == {int}
    for bad in ([[2, 1], [1, 2], [0, True]], [[2, 1.0], [1, 2]], [[2], ["1"]]):
        with pytest.raises(ValueError, match='"gram" entries must be integers'):
            read_int_rows({"gram": bad}, "gram")


def test_lattice_keeps_an_int_gram_matrix():
    g = Matrix([[2, 1], [1, 2]])
    assert Lattice(g).gram is g
    copied = Lattice(Matrix([[Fraction(2), 1], [1, 2]])).gram
    assert copied == g and {type(x) for row in copied.entries for x in row} == {int}


def test_lattice_from_dict():
    lat = lattice_from_dict({"name": "U", "gram": [[0, 1], [1, 0]]})
    assert lat.name == "U"
    assert lat.gram == Matrix([[0, 1], [1, 0]])
    assert lattice_from_dict({"gram": [[2]]}).name is None
    with pytest.raises(ValueError):
        lattice_from_dict({"gram": [[0.5]]})
    with pytest.raises(ValueError):
        lattice_from_dict({"gram": "nope"})
    with pytest.raises(ValueError):
        lattice_from_dict([1, 2])
    with pytest.raises(RankTooLarge):
        lattice_from_dict({"gram": [[0] * 65] * 65})


def test_det_product_of_factors():
    for name in ("A2", "U(3)", "E6*(3)", "U(3)+A2^3", "A2(3)"):
        lat = parse_expr(name)
        group = discriminant_group(lat)
        prod = 1
        for d in group.invariant_factors:
            prod *= d
        assert prod == abs(determinant(lat.gram))


TABLE1_LATTICES = [pair.S for pair in enumerate_table1()] + [
    pair.T for pair in enumerate_table1() if pair.T
]


def dense_basis(lat: Lattice, rng) -> Lattice:
    """The lattice in the basis P = L @ R, L unit lower and R unit upper
    triangular with off-diagonal entries in {-1, 0, 1}: a dense Gram matrix
    with entries of three to five digits at rank 20."""
    n = lat.rank
    low = [
        [int(i == j) or (rng.randint(-1, 1) if j < i else 0) for j in range(n)] for i in range(n)
    ]
    up = [
        [int(i == j) or (rng.randint(-1, 1) if j > i else 0) for j in range(n)] for i in range(n)
    ]
    p = Matrix(low) @ Matrix(up)
    return Lattice(p.transpose() @ lat.gram @ p, lat.name)


def exact_path_group(lat: Lattice) -> DiscriminantGroup:
    """The group read off the exact Smith normal form, as the modular path
    does while nothing outgrows det^2: lifts column i of V mod d_i."""
    _, d, v = smith_normal_form(lat.gram)
    positions = [i for i in range(lat.rank) if d[i, i] > 1]
    columns = list(zip(*v.entries))
    return DiscriminantGroup(
        invariant_factors=tuple(d[i, i] for i in positions),
        lifts=tuple(tuple(x % d[i, i] for x in columns[i]) for i in positions),
        order=abs(determinant(lat.gram)),
    )


def normal_form(form):
    """(s, det B mod 3) with B = 3*b on the generators, b = pairings / e."""
    e = max(form.group.invariant_factors, default=1)
    b = Matrix([[3 * x // e for x in row] for row in form.pairings])
    return form.group.s, int(determinant(b)) % 3


@pytest.fixture(scope="module")
def dense_table1():
    rng = random.Random(41)
    return [dense_basis(lat, rng) for lat in TABLE1_LATTICES for _ in range(4)]


class TestDenseBases:
    """Every table-1 lattice in four seeded dense bases, against the exact
    Smith normal form and sympy's."""

    def test_invariant_factors(self, dense_table1):
        assert len(dense_table1) == 252
        for lat in dense_table1:
            factors = discriminant_group(lat).invariant_factors
            assert factors == exact_path_group(lat).invariant_factors, lat.name
            d = sympy_smith_normal_form(sympy.Matrix(lat.gram.entries), domain=sympy.ZZ)
            expected = sorted(abs(int(d[i, i])) for i in range(lat.rank) if abs(d[i, i]) != 1)
            assert list(factors) == expected, lat.name

    def test_lifts(self, dense_table1):
        for lat in TABLE1_LATTICES + dense_table1:
            group = discriminant_group(lat)
            assert len(group.lifts) == group.s, lat.name
            for w, d in zip(group.lifts, group.invariant_factors):
                assert all(type(x) is int and 0 <= x < d for x in w), lat.name
                # G W_i = d_i G g_i, and G g_i is integral for g_i in L*
                assert all(y % d == 0 for y in lat.gram.mul_vec(w)), lat.name

    def test_generators(self, dense_table1):
        for lat in dense_table1:
            group = discriminant_group(lat)
            for f, gen in zip(group.invariant_factors, generators(group)):
                # order exactly f: f kills it, f/p does not
                assert all((f * x).denominator == 1 for x in gen)
                for p in (2, 3):
                    if f % p == 0:
                        assert any((f // p * x).denominator != 1 for x in gen), lat.name
                assert all(x.denominator == 1 for x in lat.gram.mul_vec(gen))
            assert spans_the_dual(lat, group), lat.name

    def test_form_matches_exact_path_generators(self, dense_table1, monkeypatch):
        forms = [discriminant_form(lat) for lat in dense_table1]
        monkeypatch.setattr(trielem.lattice, "discriminant_group", exact_path_group)
        for lat, form in zip(dense_table1, forms):
            exact = discriminant_form.__wrapped__(lat)
            assert normal_form(exact) == normal_form(form), lat.name
            assert milgram_holds(exact) and milgram_holds(form), lat.name

    def test_nothing_stored_reaches_modulus(self, dense_table1):
        # |det| = 3^s takes one run modulo 3^(2s), with D and the factor
        # columns of V reduced into [0, m)
        for lat in dense_table1:
            m = determinant(lat.gram) ** 2
            _, d, v = smith_normal_form(lat.gram, modulus=m)
            assert all(0 <= d[i, i] < m for i in range(lat.rank))
            assert all(0 <= x < m for row in v.entries for x in row)


def kernel_normal_form(lat: Lattice) -> tuple[int, int]:
    """(s, det B mod 3) read off a basis of K = ker(G mod 3) over GF(3)
    with sympy, with no Smith normal form: on a 3-elementary lattice,
    x -> x/3 maps K onto A_L, and B(x, y) = x.G y / 3 mod 3 is 3b there."""
    g = DomainMatrix.from_list([list(row) for row in lat.gram.entries], sympy.ZZ)
    kernel = g.convert_to(sympy.GF(3)).nullspace().to_Matrix().tolist()
    basis = [[int(x) % 3 for x in row] for row in kernel]
    b = sympy.Matrix([[pair_value(lat.gram, x, y) // 3 for y in basis] for x in basis])
    return len(basis), int(b.det()) % 3 if basis else 1


@pytest.fixture(scope="module")
def oracle_lattices():
    """The modular Smith normal form cases, the table-1 lattices, the dense
    golden bases, groups over two primes, and two primes above 2^16, on
    their own (diag(p, q), which splits the modulus) and multiplied
    ([[p * q]], a composite run with no split)."""
    dense = json.loads((Path(__file__).resolve().parents[1] / "goldens" / "dense_bases.json").read_text())
    p, q = 65537, 65539
    return (
        [Lattice(a) for a in modular_cases()]
        + TABLE1_LATTICES
        + [Lattice(data["gram"], data["name"]) for data in dense.values()]
        + [parse_expr(e) for e in ("A1+A2", "A2(3)", "A8", "D4+A2", "A1(3)+A2")]
        + [Lattice(Matrix([[p, 0], [0, q]])), Lattice(Matrix([[p * q]]))]
    )


class TestGroupOracles:
    """discriminant_group against oracles that share no code with it."""

    def test_invariant_factors_against_sympy(self, oracle_lattices):
        for lat in oracle_lattices:
            d = sympy_smith_normal_form(sympy.Matrix(lat.gram.entries), domain=sympy.ZZ)
            expected = sorted(abs(int(d[i, i])) for i in range(lat.rank) if abs(d[i, i]) != 1)
            assert list(discriminant_group(lat).invariant_factors) == expected, lat.gram

    def test_mixed_primes(self):
        expected = {
            "A1+A2": (6,),
            "A2(3)": (3, 9),
            "A8": (9,),
            "D4+A2": (2, 6),
            "A1(3)+A2": (3, 6),
        }
        for expr, factors in expected.items():
            assert discriminant_group(parse_expr(expr)).invariant_factors == factors, expr
        p, q = 65537, 65539
        for gram in ([[p, 0], [0, q]], [[p * q]]):
            assert discriminant_group(Lattice(Matrix(gram))).invariant_factors == (p * q,)

    def test_lifts_generate_the_dual(self, oracle_lattices):
        for lat in oracle_lattices:
            group = discriminant_group(lat)
            for w, d in zip(group.lifts, group.invariant_factors):
                assert all(type(x) is int and 0 <= x < d for x in w), lat.gram
                # g_i = W_i / d_i lies in L*: G W_i = 0 mod d_i
                assert all(y % d == 0 for y in lat.gram.mul_vec(w)), lat.gram
            assert spans_the_dual(lat, group), lat.gram

    def test_3_elementary_form_from_the_kernel_mod_3(self, oracle_lattices):
        dets = Counter()
        for lat in oracle_lattices:
            if is_even(lat) and set(discriminant_group(lat).invariant_factors) <= {3}:
                form = discriminant_form(lat)
                assert kernel_normal_form(lat) == (form.group.s, form._det_mod3), lat.gram
                dets[form._det_mod3] += 1
        # both values of det B mod 3 occur, so a constant one fails here
        assert dets[1] > 20 and dets[2] > 20, dets
