import random
from fractions import Fraction

import pytest

from trielem.catalog import build, parse_expr
from trielem.cyclotomic import Cyclotomic
from trielem.errors import (
    InvalidRho,
    NegativeGenus,
    NonIntegralGenus,
    NotClassified,
    NotElementary,
)
from trielem.fixed_locus import (
    GENERIC,
    MINUS_ZETA,
    NONEXISTENT,
    SPECIAL_THREE_POINTS,
    ZETA,
    FixedLocus,
    enumerate_table2,
    euler_fiber_sum,
    fiber_counts,
    fixed_locus_from_invariants,
    fixed_locus_of,
    holomorphic_lefschetz,
    hurwitz_genus,
    kodaira_euler,
    point_count,
    topological_check,
)
from trielem.isometry import short_vectors
from trielem.lattice import direct_sum, rescale

# Fixed locus per lattice: (isolated points, curve genus, total curves),
# or the special/nonexistent markers.
EXPECTED_TABLE2 = {
    "U": (0, 5, 2),
    "U(3)": (0, 4, 1),
    "U+A2": (1, 4, 2),
    "U(3)+A2": (1, 3, 1),
    "U+A2^2": (2, 3, 2),
    "U(3)+A2^2": (2, 2, 1),
    "U+E6": (3, 3, 3),
    "U+A2^3": (3, 2, 2),
    "U(3)+A2^3": (3, 1, 1),
    "U(3)+E6*(3)": "special",
    "U+E8": (4, 3, 4),
    "U+E6+A2": (4, 2, 3),
    "U+A2^4": (4, 1, 2),
    "U(3)+A2^4": (4, 0, 1),
    "U+E8+A2": (5, 2, 4),
    "U+E6+A2^2": (5, 1, 3),
    "U+A2^5": (5, 0, 2),
    "U+E8+A2^2": (6, 1, 4),
    "U+E6+A2^3": (6, 0, 3),
    "U+E8+E6": (7, 1, 5),
    "U+E8+A2^3": (7, 0, 4),
    "U+E8^2": (8, 1, 6),
    "U+E8+E6+A2": (8, 0, 5),
    "U+E8^2+A2": (9, 0, 6),
    "U+E8(3)": None,
    "U(3)+E8(3)": None,
    "U(3)+A2^5": None,
    "U+E8(3)+A2": None,
    "U+A2^6": None,
    "U+E6+A2^4": None,
    "U+E8+A2^4": None,
}


class TestEisenstein:
    # Q(zeta_3) as Cyclotomic(3, [a, b]) = a + b*zeta, zeta**2 = -1 - zeta
    def test_defining_relation(self):
        assert ZETA * ZETA == Cyclotomic(3, [-1, -1])

    def test_root_of_unity_sum(self):
        one = Cyclotomic(3, [1, 0])
        assert one + ZETA + ZETA * ZETA == Cyclotomic(3, [0, 0])

    def test_norm_is_rational(self):
        rng = random.Random(13)
        for _ in range(25):
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            x = Cyclotomic(3, [a, b])
            # the Galois conjugate a + b*zeta**2
            norm = x * Cyclotomic(3, [a, 0, b])
            assert norm.coeffs[1] == 0
            assert norm.coeffs[0] == a**2 - a * b + b**2

    def test_scalar_multiplication(self):
        assert 3 * Cyclotomic(3, [0, Fraction(-1, 3)]) == MINUS_ZETA


class TestHolomorphicLefschetz:
    def test_genus5_plus_rational(self):
        assert holomorphic_lefschetz(0, [5, 0]) == MINUS_ZETA

    def test_three_points(self):
        assert holomorphic_lefschetz(3, []) == MINUS_ZETA

    def test_empty_locus_fails(self):
        value = holomorphic_lefschetz(0, [])
        assert value == Cyclotomic(3, [0, 0])
        assert value != MINUS_ZETA

    def test_identity_criterion(self):
        rng = random.Random(19)
        for _ in range(30):
            points = rng.randint(0, 9)
            genera = [rng.randint(0, 5) for _ in range(rng.randint(0, 4))]
            value = holomorphic_lefschetz(points, genera)
            balanced = points - sum(1 - g for g in genera) == 3
            assert (value == MINUS_ZETA) == balanced

    def test_matches_componentwise_sum(self):
        # -zeta/3 per isolated point and zeta*(1-g)/3 per curve, added one
        # component at a time
        rng = random.Random(29)
        for _ in range(100):
            points = rng.randint(0, 9)
            genera = [rng.randint(0, 10) for _ in range(rng.randint(0, 5))]
            total = points * Cyclotomic(3, [0, Fraction(-1, 3)])
            for g in genera:
                total = total + Cyclotomic(3, [0, Fraction(1 - g, 3)])
            assert holomorphic_lefschetz(points, genera) == total


class TestPointCount:
    def test_values(self):
        assert point_count(2) == 0
        assert point_count(8) == 3
        assert point_count(20) == 9

    def test_invalid(self):
        for rho in (3, 0, 22, 21):
            with pytest.raises(InvalidRho):
                point_count(rho)


class TestTopologicalCheck:
    def test_rank2(self):
        locus = FixedLocus(GENERIC, 0, 5, 2)
        assert topological_check(2, locus)

    def test_special(self):
        locus = FixedLocus(SPECIAL_THREE_POINTS, 3, None, 0)
        assert topological_check(8, locus)

    def test_rank20(self):
        locus = FixedLocus(GENERIC, 9, 0, 6)
        assert topological_check(20, locus)

    def test_detects_wrong_counts(self):
        locus = FixedLocus(GENERIC, 1, 5, 2)
        assert not topological_check(2, locus)

    def test_rejects_nonexistent(self):
        locus = FixedLocus(NONEXISTENT, None, None, None)
        with pytest.raises(ValueError):
            topological_check(10, locus)


class TestFixedLocusOf:
    def test_hyperbolic_plane(self):
        locus = fixed_locus_of(parse_expr("U"))
        assert locus == FixedLocus(GENERIC, 0, 5, 2)

    def test_special_lattice(self):
        locus = fixed_locus_of(parse_expr("U(3)+E6*(3)"))
        assert locus.status == SPECIAL_THREE_POINTS
        assert locus.points == 3
        assert locus.curves == 0

    def test_special_lattice_has_no_minus2_in_definite_part(self):
        assert short_vectors(build("E6*(3)"), -2) == []

    def test_nonexistent(self):
        locus = fixed_locus_of(parse_expr("U(3)+E8(3)"))
        assert locus.status == NONEXISTENT

    def test_not_elementary(self):
        lat = direct_sum(build("U"), rescale(build("A2"), 3))
        with pytest.raises(NotElementary):
            fixed_locus_of(lat)

    def test_not_classified(self):
        with pytest.raises(NotClassified):
            fixed_locus_of(parse_expr("U(3)+A2^6"))  # the excluded key
        with pytest.raises(NotClassified):
            fixed_locus_of(parse_expr("A2(-1)"))  # definite, not hyperbolic

    def test_key_must_be_in_table(self):
        with pytest.raises(NotClassified):
            fixed_locus_from_invariants(6, 0)
        with pytest.raises(NotClassified):
            fixed_locus_from_invariants(14, 8)


class TestEnumerateTable2:
    def test_row_count(self):
        rows = enumerate_table2()
        assert len(rows) == 31
        populated = [(n, l) for n, l in rows if l.status != NONEXISTENT]
        assert len(populated) == 24
        absent = [n for n, l in rows if l.status == NONEXISTENT]
        assert len(absent) == 7

    def test_matches_expected_census(self):
        rows = dict(enumerate_table2())
        assert set(rows) == set(EXPECTED_TABLE2)
        for name, expected in EXPECTED_TABLE2.items():
            locus = rows[name]
            if expected is None:
                assert locus.status == NONEXISTENT, name
            elif expected == "special":
                assert locus.status == SPECIAL_THREE_POINTS, name
                assert (locus.points, locus.curves) == (3, 0)
            else:
                assert locus.status == GENERIC, name
                assert (locus.points, locus.genus, locus.curves) == expected, name

    def test_frozen_census_is_consistent(self):
        # the hand-transcribed table satisfies the defining formulas
        for name, expected in EXPECTED_TABLE2.items():
            if not isinstance(expected, tuple):
                continue
            lat = parse_expr(name)
            from trielem.lattice import discriminant_group

            rho = lat.rank
            s = discriminant_group(lat).s
            points, genus, curves = expected
            assert points == rho // 2 - 1
            assert genus == (22 - rho - 2 * s) // 4
            assert curves == (6 + rho - 2 * s) // 4

    def test_integrality_of_formulas(self):
        from trielem.classify import enumerate_table1

        for pair in enumerate_table1():
            if pair.exists and 22 - pair.rho - 2 * pair.s >= 0:
                assert (22 - pair.rho - 2 * pair.s) % 4 == 0
                assert (6 + pair.rho - 2 * pair.s) % 4 == 0

    def test_component_counts_nonnegative(self):
        for _, locus in enumerate_table2():
            if locus.status == NONEXISTENT:
                continue
            assert locus.points >= 0
            assert locus.curves >= 0
            if locus.status == GENERIC:
                assert locus.genus >= 0
                assert locus.curves >= 1
        no_curve = [
            name
            for name, locus in enumerate_table2()
            if locus.status != NONEXISTENT and locus.curves == 0
        ]
        assert no_curve == ["U(3)+E6*(3)"]

    def test_low_rank_euler_identity(self):
        # for rank < 8 the fixed curves carry Euler number rho - 8
        for name, locus in enumerate_table2():
            lat = parse_expr(name)
            if locus.status == GENERIC and lat.rank < 8:
                curve_euler = (2 - 2 * locus.genus) + 2 * (locus.curves - 1)
                assert curve_euler == lat.rank - 8

    def test_all_rows_pass_both_checks(self):
        for name, locus in enumerate_table2():
            if locus.status == NONEXISTENT:
                continue
            lat = parse_expr(name)
            genera = (
                []
                if locus.status == SPECIAL_THREE_POINTS
                else [locus.genus] + [0] * (locus.curves - 1)
            )
            assert holomorphic_lefschetz(locus.points, genera) == MINUS_ZETA, name
            assert topological_check(lat.rank, locus), name


class TestKodaira:
    def test_euler_numbers(self):
        assert kodaira_euler("II") == 2
        assert kodaira_euler("III") == 3
        assert kodaira_euler("IV") == 4
        assert kodaira_euler("II*") == 10
        assert kodaira_euler("III*") == 9
        assert kodaira_euler("IV*") == 8
        assert kodaira_euler("I1") == 1
        assert kodaira_euler("I3") == 3
        assert kodaira_euler("I0*") == 6
        assert kodaira_euler("I3*") == 9

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            kodaira_euler("V")

    def test_fiber_sums(self):
        assert euler_fiber_sum([("II", 12)]) == (24, True)
        assert euler_fiber_sum([("II*", 1), ("IV*", 1), ("II", 3)]) == (24, True)
        assert euler_fiber_sum([("II", 1)]) == (2, False)


class TestFiberCounts:
    def test_examples(self):
        assert fiber_counts(2) == (12, 0)
        assert fiber_counts(6) == (8, 2)
        assert fiber_counts(4) == (10, 1)

    def test_euler_identity(self):
        for rho in (2, 4, 6):
            k_ii, k_iv = fiber_counts(rho)
            assert 2 * k_ii + 4 * k_iv == 24

    def test_invalid(self):
        for rho in (8, 3, 0, 1):
            with pytest.raises(InvalidRho):
                fiber_counts(rho)


class TestHurwitz:
    def test_double_cover_twelve_branch_points(self):
        assert hurwitz_genus(2, 0, 12) == 5

    def test_double_cover_four_branch_points(self):
        assert hurwitz_genus(2, 0, 4) == 1

    def test_triple_cover_contradiction(self):
        with pytest.raises(NonIntegralGenus):
            hurwitz_genus(3, 0, 9)

    def test_negative_genus(self):
        with pytest.raises(NegativeGenus):
            hurwitz_genus(2, 0, 0)

    def test_unbranched_double_cover_of_elliptic(self):
        assert hurwitz_genus(2, 1, 0) == 1
