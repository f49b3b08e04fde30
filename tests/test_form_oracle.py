"""The discriminant form's fast path against the enumeration it replaced.

``reference_q_table`` is the element-by-element table the package built
before it used the F_3 normal form: Fraction pairings of the coset
generators, expanded over all 3^s group elements.  The lazy ``q_values``
and the normal-form opposite-form match must agree with it, and Milgram's
identity in closed form with the full Gauss sum over it in Z[zeta_24], at
every signature.
"""

from collections import Counter
from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

import trielem.lattice
from trielem.catalog import build, parse_expr
from trielem.classify import enumerate_table1, verify_pair
from trielem.cyclotomic import Cyclotomic
from trielem.lattice import (
    FiniteQuadraticForm,
    discriminant_form,
    discriminant_group,
    forms_match_opposite,
    is_p_elementary,
    milgram_holds,
    rescale,
)
from trielem.linalg import pair_value

from test_lattice import generators

NAMES = ["U", "E6", "E7", "E8", "E6*(3)", "K3"]
NAMES += [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)]
THREE_ELEMENTARY = [name for name in NAMES if is_p_elementary(build(name), 3)]
MAX_S = 8
# s of each summand the random direct sums are drawn from
SUMMAND_S = {"U": 0, "E8": 0, "A2": 1, "A2(-1)": 1, "E6": 1, "E6*(3)": 5, "U(3)": 2, "E8(3)": 8}


def reference_q_table(lat) -> dict:
    """Every group element's q value, by the 3^s enumeration."""
    group = discriminant_group(lat)
    gens = generators(group)
    g = lat.gram
    s = group.s
    q_gen = [Fraction(pair_value(g, w, w)) % 2 for w in gens]
    b_gen = [[Fraction(pair_value(g, w1, w2)) % 1 for w2 in gens] for w1 in gens]
    den = lcm(1, *(x.denominator for x in q_gen), *(x.denominator for r in b_gen for x in r))
    q_scaled = [int(x * den) for x in q_gen]
    b_scaled = [[int(x * den) for x in row] for row in b_gen]
    mod = 2 * den
    dims = group.invariant_factors
    values = {}
    prefix = [0] * s

    def walk(i, acc, lin):
        if i == s:
            values[tuple(prefix)] = Fraction(acc, den)
            return
        for c in range(dims[i]):
            prefix[i] = c
            if c == 0:
                walk(i + 1, acc, lin)
            else:
                acc_c = (acc + c * c * q_scaled[i] + 2 * c * lin[i]) % mod
                lin_c = [(lin[k] + c * b_scaled[i][k]) % den for k in range(s)]
                walk(i + 1, acc_c, lin_c)
        prefix[i] = 0

    walk(0, 0, [0] * s)
    return values


def reference_match(table_s, table_t) -> bool:
    """The value-multiset comparison {q_S(x)} = {-q_T(y) mod 2}."""
    return Counter(table_s.values()) == Counter((-v) % 2 for v in table_t.values())


def full_gauss_sum(table, m) -> Cyclotomic:
    """The sum of exp(pi*i*q(x)) over the table, one root of unity per element."""
    total = Cyclotomic.integer(m, 0)
    for val in table.values():
        total = total + Cyclotomic.root(m, val.numerator * (m // (2 * val.denominator)))
    return total


# sqrt(3) = 2*cos(pi/6) = zeta_12 + zeta_12^-1
SQRT3 = Cyclotomic.root(24, 2) + Cyclotomic.root(24, -2)


def milgram_rhs(s, sigma) -> Cyclotomic:
    """sqrt(3^s) * zeta_8^sigma in Z[zeta_24]."""
    rhs = Cyclotomic.root(24, 3 * sigma) * 3 ** (s // 2)
    return rhs * SQRT3 if s % 2 else rhs


def check_milgram_shifts(form, table):
    """milgram_holds against the full Gauss sum over the table, at the
    form's signature shifted by each of 0..7; only the form's own passes."""
    plus, zero, minus = form.lattice_signature
    total = full_gauss_sum(table, 24)
    passing = []
    for k in range(8):
        shifted = FiniteQuadraticForm(form.group, form.pairings, (plus + k, zero, minus))
        expected = total == milgram_rhs(form.group.s, plus + k - minus)
        assert milgram_holds(shifted) == expected, k
        passing += [k] * expected
    assert passing == [0]


def check_against_reference(lat):
    form = discriminant_form(lat)
    table = reference_q_table(lat)
    assert len(form.q_values) == len(table) == form.group.order
    assert form.q_values == table
    check_milgram_shifts(form, table)
    negated = discriminant_form(rescale(lat, -1))
    assert forms_match_opposite(form, negated)
    # the Gauss sum reads only the multiset of values, negated on -L
    check_milgram_shifts(negated, {x: (-v) % 2 for x, v in table.items()})
    return form, table


def test_catalog_three_elementary():
    assert THREE_ELEMENTARY == ["U", "E6", "E8", "E6*(3)", "K3", "A2"]
    forms = {name: check_against_reference(build(name)) for name in THREE_ELEMENTARY}
    for name_s, (form_s, table_s) in forms.items():
        for name_t, (form_t, table_t) in forms.items():
            expected = form_s.group.s == form_t.group.s and reference_match(table_s, table_t)
            assert forms_match_opposite(form_s, form_t) == expected, (name_s, name_t)


def test_table1_lattices_up_to_s8():
    lattices = [lat for pair in enumerate_table1() for lat in (pair.S, pair.T) if lat]
    small = [lat for lat in lattices if discriminant_group(lat).s <= MAX_S]
    assert len(lattices) == 63 and len(small) == 59
    for lat in small:
        check_against_reference(lat)


def _direct_sum_within_s(names):
    kept, s = [], 0
    for name in names:
        if s + SUMMAND_S[name] <= MAX_S:
            kept.append(name)
            s += SUMMAND_S[name]
    return "+".join(kept)


direct_sums = st.lists(
    st.sampled_from(sorted(SUMMAND_S)), min_size=1, max_size=4
).map(_direct_sum_within_s)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(direct_sums, direct_sums)
def test_random_direct_sums(expr_s, expr_t):
    lat_s, lat_t = parse_expr(expr_s), parse_expr(expr_t)
    form_s, table_s = check_against_reference(lat_s)
    form_t, table_t = check_against_reference(lat_t)
    expected = form_s.group.s == form_t.group.s and reference_match(table_s, table_t)
    assert forms_match_opposite(form_s, form_t) == expected
    assert forms_match_opposite(form_s, form_s) == reference_match(table_s, table_s)


def test_two_elementary_groups_keep_the_full_sum():
    # D4, A1^8 and E7+A1^3 are not 3-elementary; their Gauss sums still
    # come from every element of q_values.
    for name in ("D4", "A1^8", "E7+A1^3"):
        form = discriminant_form(parse_expr(name))
        assert set(form.group.invariant_factors) == {2}
        assert len(list(form.q_values.items())) == form.group.order
        assert milgram_holds(form), name


def test_singular_form_fails_at_every_signature():
    # B = diag(2, 0) on (Z/3)^2 is singular mod 3: one factor of the sum is
    # 3, so it is 3*sqrt(3) in absolute value and never sqrt(3^2) * zeta_8^k
    group = discriminant_form(parse_expr("U(3)")).group
    for k in range(8):
        forged = FiniteQuadraticForm(group, ((2, 0), (0, 0)), (k, 0, 0))
        assert forged._det_mod3 == 0
        assert full_gauss_sum(dict(forged.q_values.items()), 24) != milgram_rhs(2, k)
        assert not milgram_holds(forged), k


def test_table1_pairs_build_no_cyclotomic(monkeypatch):
    # every table-1 group is 3-elementary or trivial, so the closed form
    # answers both Milgram checks of each pair
    class Unbuilt:
        def __call__(self, *args):
            raise AssertionError("a cyclotomic number was built")

        __getattr__ = __call__

    monkeypatch.setattr(trielem.lattice, "Cyclotomic", Unbuilt())
    pairs = [pair for pair in enumerate_table1() if pair.exists]
    assert len(pairs) == 31
    for pair in pairs:
        report = verify_pair(pair.S, pair.T)
        assert report.ok, (pair.rho, pair.s, report.failures())
