import pytest

from trielem.catalog import build, parse_expr
from trielem.errors import ParseError, RankTooLarge, UnknownName
from trielem.lattice import discriminant_group, is_even
from trielem.linalg import Matrix, determinant, signature


class TestBuild:
    def test_hyperbolic_plane(self):
        assert build("U").gram == Matrix([[0, 1], [1, 0]])

    def test_a_series_determinants(self):
        for n in range(1, 9):
            lat = build(f"A{n}")
            assert lat.rank == n
            assert abs(determinant(lat.gram)) == n + 1

    def test_d_series_determinants(self):
        for n in range(4, 9):
            assert abs(determinant(build(f"D{n}").gram)) == 4

    def test_e_series_determinants(self):
        assert determinant(build("E6").gram) == 3
        assert determinant(build("E7").gram) == -2
        assert determinant(build("E8").gram) == 1

    def test_root_lattices_even_negative_definite(self):
        names = [f"A{n}" for n in range(1, 9)]
        names += [f"D{n}" for n in range(4, 9)]
        names += ["E6", "E7", "E8"]
        for name in names:
            lat = build(name)
            assert is_even(lat), name
            assert signature(lat.gram) == (0, 0, lat.rank), name

    def test_e6_dual_rescaled(self):
        lat = build("E6*(3)")
        assert lat.rank == 6
        assert abs(determinant(lat.gram)) == 3**5
        assert is_even(lat)
        assert signature(lat.gram) == (0, 0, 6)

    def test_k3(self):
        lat = build("K3")
        assert lat.rank == 22
        assert signature(lat.gram) == (3, 0, 19)
        assert determinant(lat.gram) == -1
        assert is_even(lat)

    def test_unknown_names(self):
        for name in ("A0", "D3", "E9", "E6*", "Q5", "u", "A2+U"):
            with pytest.raises(UnknownName):
                build(name)

    def test_rejection_messages(self):
        for name, message in (
            ("A2+U", "unknown lattice name: 'A2+U'"),
            ("E6*", "E6* is only cataloged with its integral scale, E6*(3)"),
            (" U", "unknown lattice name: ' U'"),
            ("A0", "A0: A-series needs n >= 1"),
        ):
            with pytest.raises(UnknownName) as info:
                build(name)
            assert str(info.value) == message

    def test_e6_dual_is_three_times_the_inverse(self):
        product = build("E6").gram @ build("E6*(3)").gram
        assert product == Matrix.identity(6).scaled(3)


class TestParse:
    def test_table_row_rank10(self):
        lat = parse_expr("U(3)+A2^4")
        assert lat.rank == 10
        assert discriminant_group(lat).s == 6
        assert lat.name == "U(3)+A2^4"

    def test_single_atom(self):
        lat = parse_expr("U")
        assert lat.gram == build("U").gram

    def test_negative_scale(self):
        lat = parse_expr("A2(-1)+E8(3)")
        assert lat.rank == 10
        assert signature(lat.gram) == (2, 0, 8)

    def test_whitespace_and_unicode(self):
        plain = parse_expr("U(3)+A2^2")
        spaced = parse_expr("  U ( 3 ) + A2 ^ 2 ")
        circled = parse_expr("U(3)⊕A2^2")
        assert plain.gram == spaced.gram == circled.gram

    def test_suffix_stacking(self):
        # scales compose innermost-first; an exponent copies the scaled atom
        lat = parse_expr("U(2)(3)")
        assert lat.gram == Matrix([[0, 6], [6, 0]])
        rep = parse_expr("A2(-1)^2")
        assert rep.rank == 4
        assert signature(rep.gram) == (4, 0, 0)
        scaled_sum = parse_expr("A2^2(-1)")
        assert scaled_sum.gram == rep.gram

    def test_e6_dual_needs_scale(self):
        assert parse_expr("E6*(3)").gram == build("E6*(3)").gram
        with pytest.raises(ParseError):
            parse_expr("E6*")
        with pytest.raises(ParseError):
            parse_expr("E6*(2)")
        assert parse_expr("E6*(6)").gram == build("E6*(3)").gram.scaled(2)

    def test_errors_carry_offsets(self):
        with pytest.raises(ParseError) as info:
            parse_expr("U+")
        assert info.value.offset == 2
        with pytest.raises(ParseError) as info:
            parse_expr("U(0)")
        assert info.value.offset == 0
        with pytest.raises(ParseError) as info:
            parse_expr("U(3")
        assert info.value.offset == 3
        with pytest.raises(ParseError) as info:
            parse_expr("U^0")
        assert info.value.offset == 2
        with pytest.raises(ParseError) as info:
            parse_expr("U A2")
        assert info.value.offset == 2
        with pytest.raises(ParseError):
            parse_expr("")

    def test_unknown_base_in_expression(self):
        with pytest.raises(UnknownName):
            parse_expr("U+A0")
        with pytest.raises(UnknownName):
            parse_expr("D3^2")

    def test_glue_of_dual_summand(self):
        lat = parse_expr("U(3)+E6*(3)")
        group = discriminant_group(lat)
        assert group.s == 7
        assert abs(determinant(lat.gram)) == 3**7
        assert all(d == 3 for d in group.invariant_factors)

    def test_rank_cap(self):
        assert parse_expr("U^32").rank == 64
        for expr in ("A65", "D65", "U^33", "E8^8+U", "A2+A63"):
            with pytest.raises(RankTooLarge):
                parse_expr(expr)
        with pytest.raises(RankTooLarge):
            build("A65")
