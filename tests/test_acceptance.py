"""Acceptance suite: one test per criterion, exact tolerances, with a
printed pass/fail line each (run with ``pytest -s`` to see them live)."""

import random
import time
from math import prod

import pytest

from trielem.catalog import build, parse_expr
from trielem.classify import enumerate_table1, verify_pair
from trielem.fixed_locus import (
    GENERIC,
    MINUS_ZETA,
    NONEXISTENT,
    SPECIAL_THREE_POINTS,
    enumerate_table2,
    euler_fiber_sum,
    holomorphic_lefschetz,
    hurwitz_genus,
    topological_check,
)
from trielem.errors import NonIntegralGenus
from trielem.isometry import (
    discriminant_action,
    has_order3_trivial_on_A,
    order3_isometry_u3_u,
    order3_isometry_u_u,
    order_of,
)
from trielem.lattice import (
    direct_sum,
    discriminant_form,
    discriminant_group,
    milgram_holds,
    rescale,
)
from trielem.linalg import Matrix, determinant, pair_value, smith_normal_form

from test_lattice import representative

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


def report(number, label, elapsed=None):
    timing = "" if elapsed is None else f" ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {number} {label}: PASS{timing}")


def test_criterion_1_table1_regeneration():
    start = time.perf_counter()
    pairs = enumerate_table1()
    assert len(pairs) == 32
    assert sum(p.exists for p in pairs) == 31
    assert [(p.rho, p.s) for p in pairs if not p.exists] == [(14, 8)]
    for pair in pairs:
        if not pair.exists:
            continue
        rep = verify_pair(pair.S, pair.T)
        assert rep.ok, (pair.rho, pair.s, rep.failures())
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, "table1 regeneration and pair verification", elapsed)


def test_criterion_2_table2_regeneration():
    start = time.perf_counter()
    rows = enumerate_table2()
    assert len(rows) == 31
    populated = [(name, locus) for name, locus in rows if locus.status != NONEXISTENT]
    absent = [name for name, locus in rows if locus.status == NONEXISTENT]
    assert len(populated) == 24
    assert len(absent) == 7
    by_name = dict(rows)
    special = by_name["U(3)+E6*(3)"]
    assert special.status == SPECIAL_THREE_POINTS
    assert (special.points, special.curves) == (3, 0)
    for pair in enumerate_table1():
        if not pair.exists:
            continue
        locus = by_name[pair.S.name]
        if 22 - pair.rho - 2 * pair.s < 0:
            assert locus.status == NONEXISTENT
        elif (pair.rho, pair.s) == (8, 7):
            assert locus.status == SPECIAL_THREE_POINTS
        else:
            assert locus.status == GENERIC
            assert locus.points == pair.rho // 2 - 1
            assert locus.genus == (22 - pair.rho - 2 * pair.s) // 4
            assert locus.curves == (6 + pair.rho - 2 * pair.s) // 4
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, "table2 regeneration", elapsed)


def test_criterion_3_lefschetz_identities():
    rows = enumerate_table2()
    keys = {(p.rho, p.s): p for p in enumerate_table1()}
    rho_of = {p.S.name: p.rho for p in enumerate_table1()}
    checked = 0
    for name, locus in rows:
        if locus.status == NONEXISTENT:
            continue
        rho = rho_of[name]
        genera = (
            []
            if locus.status == SPECIAL_THREE_POINTS
            else [locus.genus] + [0] * (locus.curves - 1)
        )
        assert holomorphic_lefschetz(locus.points, genera) == MINUS_ZETA, name
        assert locus.points - sum(1 - g for g in genera) == 3, name
        assert topological_check(rho, locus), name
        checked += 1
    assert checked == 24
    assert keys[(14, 8)].exists is False
    report(3, "holomorphic and topological Lefschetz identities on all rows")


def test_criterion_4_isometry_witnesses():
    w1 = order3_isometry_u3_u()
    assert w1.matrix.transpose() @ w1.lattice.gram @ w1.matrix == w1.lattice.gram
    assert order_of(w1.matrix) == 3
    assert discriminant_action(w1.lattice, w1)
    w2 = order3_isometry_u_u()
    assert w2.matrix.transpose() @ w2.lattice.gram @ w2.matrix == w2.lattice.gram
    assert order_of(w2.matrix) == 3
    assert discriminant_group(w2.lattice).s == 0
    report(4, "order-3 isometry witnesses on U(3)+U and U+U")


def test_criterion_5_order3_search_oracle():
    assert has_order3_trivial_on_A(build("A2"))
    a2_scaled = rescale(build("A2"), 3)
    assert not has_order3_trivial_on_A(a2_scaled)
    start = time.perf_counter()
    rank4 = direct_sum(a2_scaled, a2_scaled)
    assert not has_order3_trivial_on_A(rank4)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(5, "order-3 trivial-action search (A2 yes; A2(3), A2(3)+A2(3) no)", elapsed)


def test_criterion_6_property_suites():
    # Smith normal form reconstruction on 200 random symmetric matrices
    rng = random.Random(20240817)
    for _ in range(200):
        n = rng.randint(1, 8)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-20, 20)
        a = Matrix(rows)
        u, d, v = smith_normal_form(a)
        assert u @ a @ v == d
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1
        diag = [d[i, i] for i in range(n)]
        assert abs(determinant(a)) == prod(diag)

    # |det| equals the product of the invariant factors
    for name in CATALOG:
        lat = build(name)
        group = discriminant_group(lat)
        assert prod(group.invariant_factors) == abs(determinant(lat.gram))

    # Gauss-sum identity on the whole catalog
    for name in CATALOG:
        assert milgram_holds(discriminant_form(build(name))), name

    # representative independence of the discriminant form
    for name in ("A2", "U(3)", "E6", "E6*(3)"):
        lat = parse_expr(name)
        form = discriminant_form(lat)
        group = form.group
        for coeffs, value in form.q_values.items():
            rep = representative(group, coeffs)
            for _ in range(3):
                shifted = [x + rng.randint(-4, 4) for x in rep]
                assert pair_value(lat.gram, shifted, shifted) % 2 == value

    # Euler numbers of the named singular-fiber configurations
    configs = [
        [("II", 12)],
        [("II*", 1), ("IV*", 1), ("II", 3)],
        [("IV", 4), ("II", 4)],
    ]
    for config in configs:
        total, full = euler_fiber_sum(config)
        assert total == 24 and full

    # Hurwitz cases
    assert hurwitz_genus(2, 0, 12) == 5
    assert hurwitz_genus(2, 0, 4) == 1
    with pytest.raises(NonIntegralGenus):
        hurwitz_genus(3, 0, 9)

    report(6, "property suites (SNF, determinants, Gauss sums, q-values, Euler, Hurwitz)")
