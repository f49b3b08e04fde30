"""Invariants of orthogonal sums, block by block.

A Gram matrix splits into the connected components of its nonzero
pattern; the signature adds over them, the determinant multiplies, and the
discriminant group is the sum of theirs.  Each combined invariant is
checked against paths that do not split: the same lattice in a dense
unimodular basis P^T G P, which has one component, and sympy.
"""

import random
import sys
from collections import Counter

import numpy
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form
from sympy.polys.matrices import DomainMatrix

import trielem.lattice
import trielem.linalg
from trielem.catalog import parse_expr
from trielem.classify import enumerate_table1, verify_pair
from trielem.errors import Degenerate
from trielem.lattice import Lattice, discriminant_form, discriminant_group
from trielem.linalg import Matrix, _orthogonal_blocks, block_diagonal, determinant, signature

from test_lattice import TABLE1_LATTICES, dense_basis, spans_the_dual

# The eight blocks every table-1 lattice is an orthogonal sum of.
TABLE1_BLOCKS = ("U", "U(3)", "A2", "A2(-1)", "E6", "E8", "E6*(3)", "E8(3)")
# Sums over mixed primes, with equal factors of different blocks to align.
MIXED_PRIMES = ("A1+A2", "A5+A1", "A3+A1(2)", "D4+A2+A1(5)", "A2+A2(3)")
# Irreducible summands the random sums are drawn from.
SUMMANDS = ("U", "U(3)", "A1", "A1(2)", "A1(5)", "A2", "A2(3)", "A2(-1)", "A3", "A5", "D4", "E6")
# Largest group whose q-value distribution is listed element by element.
MAX_LISTED = 2**12


def permuted(lat: Lattice, order) -> Lattice:
    """The lattice in the basis e_order[0], e_order[1], ..."""
    g = lat.gram
    return Lattice(Matrix([[g[i, j] for j in order] for i in order]), lat.name)


def dense_conjugate(lat: Lattice, rng) -> Lattice:
    """The lattice in a seeded dense basis with one component."""
    while True:
        dense = dense_basis(lat, rng)
        if not _orthogonal_blocks(dense.gram):
            return dense


def numpy_signature(g: Matrix):
    n = g.nrows
    eigenvalues = numpy.linalg.eigvalsh(numpy.array(g.entries, dtype=float).reshape(n, n))
    assert n == 0 or min(abs(eigenvalues)) > 1e-6
    plus = int((eigenvalues > 0).sum())
    return (plus, 0, n - plus)


def sympy_invariants(g: Matrix):
    """(det, invariant factors above 1) by sympy."""
    det = DomainMatrix.from_list([list(row) for row in g.entries], sympy.ZZ).det()
    d = sympy_smith_normal_form(sympy.Matrix(g.entries), domain=sympy.ZZ)
    factors = sorted(abs(int(d[i, i])) for i in range(g.nrows) if abs(d[i, i]) != 1)
    return int(det), tuple(factors)


def q_distribution(lat: Lattice) -> Counter:
    return Counter(discriminant_form(lat).q_values.values())


def check_against_dense_and_sympy(lat: Lattice, rng) -> None:
    dense = dense_conjugate(lat, rng)
    g = lat.gram
    det, factors = sympy_invariants(g)
    assert signature(g) == signature(dense.gram) == numpy_signature(g), lat.name
    assert determinant(g) == determinant(dense.gram) == det, lat.name
    group = discriminant_group(lat)
    assert group.invariant_factors == discriminant_group(dense).invariant_factors == factors
    assert spans_the_dual(lat, group), lat.name
    assert spans_the_dual(dense, discriminant_group(dense)), lat.name
    if group.order <= MAX_LISTED:
        assert q_distribution(lat) == q_distribution(dense), lat.name


def clear_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("trielem."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == name:
                    obj.cache_clear()


class TestSplit:
    def test_dense_matrix_is_one_component(self):
        # row 0 meets every other index, or reaches one only through another row
        for rows in ([[0, 1, 1], [1, 2, 0], [1, 0, 2]], [[2, 1, 0], [1, 2, 1], [0, 1, 2]]):
            assert _orthogonal_blocks(Matrix(rows)) == ()

    def test_permuted_sum_orders_components_by_least_index(self):
        # basis A2.e1, U.e1, A2.e2, U.e2: two interleaved components
        u, a2 = parse_expr("U").gram, parse_expr("A2").gram
        g = permuted(Lattice(block_diagonal([u, a2])), [2, 0, 3, 1]).gram
        assert _orthogonal_blocks(g) == (([0, 2], a2), ([1, 3], u))
        assert _orthogonal_blocks(g) is _orthogonal_blocks(g)
        assert signature(g) == (1, 0, 3)
        assert determinant(g) == -3
        group = discriminant_group(Lattice(g))
        assert group.invariant_factors == (3,)
        assert all(w[1] == w[3] == 0 for w in group.lifts)

    def test_zero_row_is_its_own_component(self):
        g = block_diagonal([parse_expr("U").gram, Matrix([[0]]), parse_expr("A2").gram])
        assert [indices for indices, _ in _orthogonal_blocks(g)] == [[0, 1], [2], [3, 4]]
        assert _orthogonal_blocks(g)[1][1] == Matrix([[0]])
        assert signature(g) == (1, 1, 3)
        assert determinant(g) == 0
        with pytest.raises(Degenerate):
            discriminant_group(Lattice(g))

    def test_rank_zero(self):
        g = Matrix([])
        assert _orthogonal_blocks(g) == ()
        assert signature(g) == (0, 0, 0)
        assert determinant(g) == 1
        group = discriminant_group(Lattice(g))
        assert (group.invariant_factors, group.lifts, group.order) == ((), (), 1)


class TestCombinedInvariants:
    """The block sum against its dense conjugate and sympy."""

    def test_table1_lattices(self):
        assert len(TABLE1_LATTICES) == 63
        rng = random.Random(24)
        assert sum(bool(_orthogonal_blocks(lat.gram)) for lat in TABLE1_LATTICES) == 60
        for lat in TABLE1_LATTICES:
            check_against_dense_and_sympy(lat, rng)

    @pytest.mark.parametrize("expr", MIXED_PRIMES)
    def test_mixed_primes(self, expr):
        lat = parse_expr(expr)
        assert len(_orthogonal_blocks(lat.gram)) == expr.count("+") + 1
        check_against_dense_and_sympy(lat, random.Random(expr))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.sampled_from(SUMMANDS), min_size=2, max_size=4).flatmap(
            lambda names: st.tuples(
                st.just("+".join(names)),
                st.permutations(range(parse_expr("+".join(names)).rank)),
                st.integers(0, 2**32 - 1),
            )
        )
    )
    def test_permuted_sums(self, drawn):
        expr, order, seed = drawn
        lat = permuted(parse_expr(expr), order)
        assert len(_orthogonal_blocks(lat.gram)) == expr.count("+") + 1
        check_against_dense_and_sympy(lat, random.Random(seed))


def test_each_block_is_eliminated_once(monkeypatch):
    # over the 31 pairs, the modular Smith normal form runs once per
    # distinct block, and no elimination sees a whole table-1 lattice
    modular, ranks = [], []
    snf, elimination = trielem.lattice.smith_normal_form, trielem.linalg.symmetric_elimination

    def counted_snf(a, modulus=0):
        if modulus:
            modular.append(a)
        return snf(a, modulus)

    def counted_elimination(g):
        ranks.append(g.nrows)
        return elimination(g)

    pairs = [pair for pair in enumerate_table1() if pair.exists]
    assert len(pairs) == 31
    clear_caches()
    monkeypatch.setattr(trielem.lattice, "smith_normal_form", counted_snf)
    monkeypatch.setattr(trielem.linalg, "symmetric_elimination", counted_elimination)
    for pair in pairs:
        assert verify_pair(pair.S, pair.T).ok
    assert sorted(map(repr, modular)) == sorted(repr(parse_expr(b).gram) for b in TABLE1_BLOCKS)
    assert ranks and max(ranks) <= 8
