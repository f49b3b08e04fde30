import random
from fractions import Fraction
from itertools import product

import pytest

from trielem import isometry as isometry_module
from trielem import lattice as lattice_module
from trielem.catalog import build, parse_expr
from trielem.errors import (
    NotDefinite,
    NotIsometry,
    RankTooLarge,
    SizeMismatch,
)
from trielem.isometry import (
    Isometry,
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
from trielem.linalg import Matrix, determinant, pair_value

A2 = build("A2")
A2_ROTATION = Matrix([[0, -1], [1, -1]])  # e1 -> e2, e2 -> -e1-e2


def moves_generators_by_lattice_vectors(lat, mat):
    """sigma acts trivially on A_L iff sigma(g_i) - g_i is integral for
    every generator g_i: a test in the lattice, not in A_L's coordinates."""
    for gen in discriminant_group(lat).generators:
        moved = mat.mul_vec(gen)
        if any(Fraction(a - b).denominator != 1 for a, b in zip(moved, gen)):
            return False
    return True


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


class TestDiscriminantAction:
    def test_witness_acts_trivially(self):
        w = order3_isometry_u3_u()
        action = discriminant_action(w.lattice, w)
        assert action.trivial
        assert action.matrix == Matrix.identity(2)

    def test_a2_rotation_trivial(self):
        # the rotation moves the dual generator by the lattice vector (1, 0)
        rep = (Fraction(-2, 3), Fraction(-1, 3))
        moved = A2_ROTATION.mul_vec(rep)
        diff = tuple(a - b for a, b in zip(moved, rep))
        assert all(x.denominator == 1 for x in diff)
        assert discriminant_action(A2, A2_ROTATION).trivial

    def test_a2_scaled_rotation_not_trivial(self):
        lat = rescale(A2, 3)
        assert is_isometry(lat, A2_ROTATION)
        assert not discriminant_action(lat, A2_ROTATION).trivial

    def test_not_isometry(self):
        with pytest.raises(NotIsometry):
            discriminant_action(build("U"), Matrix([[1, 1], [0, 1]]))

    @pytest.mark.parametrize("expr", ["A2", "A2(3)", "D4", "A4", "A2+A2"])
    def test_trivial_matches_lattice_vector_test(self, expr):
        lat = parse_expr(expr)
        identity = Matrix.identity(discriminant_group(lat).s)
        seen = set()
        for iso in enumerate_isometries(lat):
            action = discriminant_action(lat, iso)
            moved_by_lattice = moves_generators_by_lattice_vectors(lat, iso.matrix)
            assert action.trivial == moved_by_lattice == (action.matrix == identity)
            seen.add(action.trivial)
        # each group has elements of both kinds, so the check can fail
        assert seen == {True, False}, expr

    def test_witnesses_trivial_by_lattice_vector_test(self):
        for w in (order3_isometry_u3_u(), order3_isometry_u_u()):
            action = discriminant_action(w.lattice, w)
            assert moves_generators_by_lattice_vectors(w.lattice, w.matrix)
            assert action.trivial
            assert action.matrix == Matrix.identity(discriminant_group(w.lattice).s)

    def test_action_is_homomorphism(self):
        group = enumerate_isometries(A2)
        mats = [iso.matrix for iso in group]
        actions = {m: discriminant_action(A2, m).matrix for m in mats}
        rng = random.Random(23)
        for _ in range(20):
            m1, m2 = rng.choice(mats), rng.choice(mats)
            composite = actions[m1] @ actions[m2]
            reduced = Matrix(
                [[x % 3 for x in row] for row in composite.entries]
            )
            expected = discriminant_action(A2, m1 @ m2).matrix
            assert reduced == expected


class TestShortVectors:
    def brute_force(self, lat, target, box):
        hits = []
        n = lat.rank
        for vec in product(range(-box, box + 1), repeat=n):
            if pair_value(lat.gram, vec, vec) == target:
                hits.append(vec)
        return sorted(hits)

    def test_a2_roots(self):
        vectors = short_vectors(A2, -2)
        assert vectors == self.brute_force(A2, -2, 3)
        assert set(vectors) == {(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)}

    def test_a2_empty(self):
        assert short_vectors(A2, -1) == []
        assert short_vectors(A2, 2) == []

    def test_a2_scaled(self):
        lat = rescale(A2, 3)
        vectors = short_vectors(lat, -6)
        assert len(vectors) == 6
        assert vectors == self.brute_force(lat, -6, 3)

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
        while trials < 10:
            n = rng.randint(1, 3)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.randint(-2, 2)
                rows[i][i] = rng.randint(2, 6)
            lat = Lattice(Matrix(rows))
            from trielem.linalg import signature

            if signature(lat.gram) != (n, 0, 0):
                continue
            trials += 1
            for target in (1, 2, 3, 4):
                assert short_vectors(lat, target) == self.brute_force(
                    lat, target, 6
                )


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


class TestOrder3Search:
    def test_a2_has_one(self):
        assert has_order3_trivial_on_A(A2)

    def test_a2_scaled_has_none(self):
        assert not has_order3_trivial_on_A(rescale(A2, 3))

    def test_rank4_scaled_has_none(self):
        lat = direct_sum(rescale(A2, 3), rescale(A2, 3))
        assert not has_order3_trivial_on_A(lat)


class TestStabilizerIdentities:
    def test_bilinear_identities_on_a2(self):
        # for an order-3 isometry fixing the discriminant group pointwise,
        # the displacement l = f(x) - x of any dual vector satisfies
        # 3<x,x> = -2<l,x> and -2<x,l> = <l,l>
        lat = A2
        mat = A2_ROTATION
        group = discriminant_group(lat)
        rng = random.Random(41)
        reps = [group.representative(c) for c in group.elements()]
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
        assert discriminant_action(w.lattice, w).trivial

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
