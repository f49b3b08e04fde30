import json

import pytest

from trielem.catalog import build, parse_expr
from trielem.classify import (
    AMBIENT_RANK,
    ClassificationKey,
    classification_keys,
    complement_exists,
    enumerate_table1,
    index_determinant_identity,
    rs_exists,
    table1_rows,
    verify_pair,
)
from trielem.errors import InvalidKey, RankMismatch
from trielem.lattice import discriminant_group, is_p_elementary, rescale
from trielem.linalg import determinant, signature


class TestRsExists:
    def test_examples(self):
        assert rs_exists(2, 0)
        assert rs_exists(10, 10)
        assert not rs_exists(6, 0)

    def test_parity_constraints(self):
        # rank 2 mod 4 pairs with even s, rank 0 mod 4 with odd s (for p = 3)
        for n in (2, 6, 10, 14, 18):
            assert not rs_exists(n, 1)
        for n in (4, 8, 12, 16, 20):
            assert not rs_exists(n, 2)

    def test_odd_rank(self):
        assert not rs_exists(3, 1)

    def test_boundary_rule(self):
        # n = 2 mod 8 exempts s = 0 and s = n
        assert rs_exists(2, 2)
        assert rs_exists(10, 0)
        assert rs_exists(18, 0)
        assert not rs_exists(6, 6)
        assert not rs_exists(14, 0)

    def test_other_primes(self):
        # for p = 7 (3 mod 4) the odd-s condition matches p = 3
        assert rs_exists(4, 1, p=7) == rs_exists(4, 1, p=3)
        # for p = 5 (1 mod 4) odd s needs rank 2 mod 4, impossible with even-s rule
        assert not rs_exists(4, 1, p=5)

    def test_invalid_keys(self):
        with pytest.raises(InvalidKey):
            rs_exists(1, 0)
        with pytest.raises(InvalidKey):
            rs_exists(4, -1)
        with pytest.raises(InvalidKey):
            rs_exists(4, 5)
        with pytest.raises(InvalidKey):
            rs_exists(4, 1, p=2)


class TestComplementExists:
    def test_excluded_key(self):
        assert not complement_exists(14, 8)

    def test_examples(self):
        assert complement_exists(2, 2)
        assert complement_exists(20, 1)
        assert complement_exists(18, 4)

    def test_excluded_key_analysis(self):
        # s fills the complement rank and the complement signature is not 0 mod 8
        rho, s = 14, 8
        assert s == AMBIENT_RANK - rho
        assert (2 - (20 - rho)) % 8 != 0
        # the boundary key (18, 4) has complement signature 0 mod 8 and survives
        assert 4 == AMBIENT_RANK - 18
        assert (2 - (20 - 18)) % 8 == 0


class TestKeys:
    def test_key_count(self):
        keys = classification_keys()
        assert len(keys) == 32
        assert keys == sorted(keys, key=lambda k: (k.rank, k.s))

    def test_sig_property(self):
        key = ClassificationKey(rank=10, s=4)
        assert key.sig == (1, 9)
        assert sum(key.sig) == key.rank

    def test_keys_match_rs_exists(self):
        listed = {(k.rank, k.s) for k in classification_keys()}
        for rho in range(2, 21, 2):
            for s in range(min(rho, AMBIENT_RANK - rho) + 1):
                assert ((rho, s) in listed) == rs_exists(rho, s)


class TestEnumerateTable1:
    def test_counts(self):
        pairs = enumerate_table1()
        assert len(pairs) == 32
        assert sum(p.exists for p in pairs) == 31
        missing = [(p.rho, p.s) for p in pairs if not p.exists]
        assert missing == [(14, 8)]
        for p in pairs:
            assert (p.T is None) == (not p.exists)

    def test_contains_expected_rows(self):
        rows = {(p.rho, p.s): p for p in enumerate_table1()}
        row = rows[(10, 8)]
        assert row.S.name == "U+E8(3)"
        assert row.T.name == "U(3)^2+A2^4"
        assert row.exists

    def test_pair_invariants(self):
        for p in enumerate_table1():
            assert p.S.rank == p.rho
            assert discriminant_group(p.S).s == p.s
            assert is_p_elementary(p.S, 3)
            assert signature(p.S.gram) == (1, 0, p.rho - 1)
            if p.exists:
                assert p.S.rank + p.T.rank == AMBIENT_RANK
                assert discriminant_group(p.T).s == p.s
                assert is_p_elementary(p.T, 3)

    def test_rows_name_what_the_parser_builds(self):
        # table1_rows prints the expressions without parsing them
        for row in table1_rows():
            for name in (row["S"], row["T"]):
                if name:
                    assert parse_expr(name).name == name

    def test_deterministic_output(self):
        first = json.dumps(table1_rows())
        second = json.dumps(table1_rows())
        assert first == second


class TestVerifyPair:
    def test_rank8_row(self):
        report = verify_pair(parse_expr("U+E6"), parse_expr("U^2+E8+A2"))
        assert report.ok, report.failures()

    def test_rank2_row(self):
        report = verify_pair(parse_expr("U"), parse_expr("U^2+E8^2"))
        assert report.ok, report.failures()

    def test_deliberate_mismatch(self):
        report = verify_pair(parse_expr("U"), parse_expr("U+U(3)+E8^2"))
        assert not report.ok
        assert "determinants" in report.failures()

    def test_odd_lattice_skips_form_checks(self):
        from trielem.lattice import Lattice
        from trielem.linalg import Matrix

        odd = Lattice(Matrix([[1]]))
        report = verify_pair(odd, parse_expr("U^2+E8^2"))
        assert not report.ok
        assert not report.checks["even_S"]
        assert report.details["opposite_forms"].startswith("skipped")


class TestIndexDeterminantIdentity:
    def test_a2_scaled(self):
        assert index_determinant_identity(rescale(build("A2"), 3), build("A2"), 3)

    def test_identity_index(self):
        lat = build("E6")
        assert index_determinant_identity(lat, lat, 1)

    def test_full_rank_sublattice_instance(self):
        # a rank-6 sublattice of U(3)^2+A2 with |det| = 3^5 must have index 1
        ambient = parse_expr("U(3)^2+A2")
        sub = parse_expr("U(3)^2+A2")
        assert abs(determinant(ambient.gram)) == 3**5
        assert index_determinant_identity(sub, ambient, 1)
        assert not index_determinant_identity(sub, ambient, 3)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            index_determinant_identity(build("A2"), parse_expr("U+A2"), 1)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            index_determinant_identity(build("A2"), build("A2"), 0)
