"""Named lattices and the expression grammar that combines them.

Catalog names: U, A<n> (n >= 1), D<n> (n >= 4), E6, E7, E8, E6*(3), K3.
Root lattices use the negated Cartan matrix, so they are even and negative
definite; K3 is U+U+U+E8+E8.  Expressions look like ``U(3)+A2^4``: ``(m)``
rescales by m, ``^k`` repeats a summand, ``+`` (or a circled plus) joins
direct summands.  A name, power or sum of rank above ``lattice.MAX_RANK``
raises RankTooLarge before its Gram matrix is built.
"""

from __future__ import annotations

import re

from .errors import ParseError, UnknownName
from .lattice import Lattice, check_rank
from .linalg import Matrix, block_diagonal, rational_inverse


def _root_gram(n, edges) -> Matrix:
    """The negated Cartan matrix of a simply laced Dynkin diagram."""
    g = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        g[i][j] = g[j][i] = 1
    return Matrix(g)


def _gram_a(n):
    return _root_gram(n, [(i, i + 1) for i in range(n - 1)])


def _gram_d(n):
    edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    return _root_gram(n, edges)


def _gram_e(l):
    edges = [(i, i + 1) for i in range(l - 2)] + [(2, l - 1)]
    return _root_gram(l, edges)


_GRAM_U = Matrix([[0, 1], [1, 0]])


def _base_gram(token: str) -> Matrix:
    """The Gram matrix of a base name; rational for E6* (the dual of E6)."""
    if token == "U":
        return _GRAM_U
    if token == "K3":
        return block_diagonal([_GRAM_U] * 3 + [_gram_e(8)] * 2)
    if token in ("E6", "E7", "E8"):
        return _gram_e(int(token[1]))
    if token == "E6*":
        return rational_inverse(_gram_e(6))
    if token[0] == "A":
        n = int(token[1:])
        check_rank(n, token)
        if n < 1:
            raise UnknownName(f"{token}: A-series needs n >= 1")
        return _gram_a(n)
    if token[0] == "D":
        n = int(token[1:])
        check_rank(n, token)
        if n < 4:
            raise UnknownName(f"{token}: D-series needs n >= 4")
        return _gram_d(n)
    raise UnknownName(f"unknown lattice name: {token!r}")


def build(name: str) -> Lattice:
    """Construct a catalog lattice by its exact name: a base name, or
    E6*(3), the dual of E6 scaled to be integral."""
    if name == "E6*":
        raise UnknownName("E6* is only cataloged with its integral scale, E6*(3)")
    if name != "E6*(3)" and not _BASE_RE.fullmatch(name):
        raise UnknownName(f"unknown lattice name: {name!r}")
    return parse_expr(name)


_BASE_RE = re.compile(r"K3|E6\*|E[678]|A[0-9]+|D[0-9]+|U")
_INT_RE = re.compile(r"-?[0-9]+")


def parse_expr(text: str) -> Lattice:
    """Parse a direct-sum expression into a lattice.

    Grammar: ``expr := atom ('+' atom)*``, ``atom := base suffix*``,
    ``suffix := '(' int ')' | '^' posint``.  Whitespace is ignored, scales
    apply innermost-first, and ``X^k`` is the k-fold direct sum.  Raises
    ParseError (with the character offset) or UnknownName.
    """
    src = text.replace("⊕", "+")
    pos = 0
    end = len(src)

    def skip_ws():
        nonlocal pos
        while pos < end and src[pos].isspace():
            pos += 1

    blocks: list[Matrix] = []
    labels: list[str] = []
    rank = 0
    while True:
        skip_ws()
        match = _BASE_RE.match(src, pos)
        if not match:
            raise ParseError("expected a lattice name", pos)
        token = match.group(0)
        start = pos
        pos = match.end()
        gram = _base_gram(token)
        label = token
        while True:
            skip_ws()
            if pos < end and src[pos] == "(":
                pos += 1
                skip_ws()
                mi = _INT_RE.match(src, pos)
                if not mi:
                    raise ParseError("expected an integer scale", pos)
                scale = int(mi.group(0))
                pos = mi.end()
                skip_ws()
                if pos >= end or src[pos] != ")":
                    raise ParseError("expected ')'", pos)
                pos += 1
                if scale == 0:
                    raise ParseError("scale factor must be nonzero", start)
                gram = gram.scaled(scale)
                label += f"({scale})"
            elif pos < end and src[pos] == "^":
                pos += 1
                skip_ws()
                mi = _INT_RE.match(src, pos)
                if not mi or int(mi.group(0)) < 1:
                    raise ParseError("expected a positive repeat count", pos)
                k = int(mi.group(0))
                pos = mi.end()
                check_rank(gram.nrows * k, f"{label}^{k}")
                gram = block_diagonal([gram] * k)
                label += f"^{k}"
            else:
                break
        if not gram.is_integral:
            raise ParseError(
                f"{label} has a non-integer Gram matrix; scale it by a multiple of 3",
                start,
            )
        rank += gram.nrows
        check_rank(rank, "+".join(labels + [label]))
        blocks.append(gram.to_int())
        labels.append(label)
        skip_ws()
        if pos < end and src[pos] == "+":
            pos += 1
            continue
        break
    skip_ws()
    if pos != end:
        raise ParseError("unexpected trailing input", pos)
    return Lattice(block_diagonal(blocks), "+".join(labels))
