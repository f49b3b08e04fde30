"""Integral lattices: evenness, rescaling, direct sums, discriminant groups,
discriminant quadratic forms, and the Gauss-sum consistency identity.

A lattice here is a free Z-module carrying a symmetric integer Gram matrix.
When the form is nondegenerate the lattice sits inside its dual with finite
quotient; that quotient, together with the induced Q/2Z-valued quadratic
form on it, is the invariant the classification machinery matches.  A
Gram matrix that is an orthogonal sum of blocks has the sum of their
quotients, so each distinct block is worked out once and the blocks'
cyclic factors are joined by the Chinese remainder theorem over a coprime
base of their orders; generators therefore go block by block.  A single
block's quotient comes from a Smith normal form of its Gram matrix modulo
b^2 for b = |det|, which pivots on the entry of least valuation and so
clears each row and column in one pass; its cost does not depend on how
dense the basis is.  A run that separates two primes of b splits b into
coprime parts, each run on its own and joined the same way.  The columns
of V at the factors give each generator g_i as the integer lift
W_i = d_i * g_i, and everything else is read off the lifts: the form, and
in ``isometry`` whether an isometry acts trivially on the group.

On a 3-elementary group, q is fixed by the F_3 normal form (s, det B mod 3)
of B = 3*b on the generators (Nikulin 1979, §1; Conway-Sloane, SPLAG ch. 15),
so the opposite-form match compares determinants and Milgram's identity is
a congruence mod 8 in sigma, s and det B mod 3: no element is listed and no
cyclotomic field is built.  Other groups, such as the 2-elementary ones of
D4, A1^8 and E7+A1^3, sum exp(pi*i*q) over all |A| elements in Z[zeta_m],
up to MAX_GAUSS_ELEMENTS elements and m up to MAX_GAUSS_MODULUS.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, combinations, product
from math import gcd, lcm
from operator import mul

from .cyclotomic import Cyclotomic
from .errors import (
    Degenerate,
    GroupTooLarge,
    NotElementary,
    NotEven,
    NotSymmetric,
    RankTooLarge,
    ZeroScale,
)
from .linalg import (
    Matrix,
    ModulusSplit,
    _orthogonal_blocks,
    _part_on_primes_of,
    block_diagonal,
    determinant,
    signature,
    smith_normal_form,
)

# Largest rank accepted from an expression or a JSON file (the K3 lattice has
# rank 22); checked before the Gram matrix is allocated.
MAX_RANK = 64

# Largest group whose Gauss sum is taken element by element, which only a
# group that is not 3-elementary needs.  A1^16 (2^16 elements) takes a few
# seconds, and each further factor of 2 doubles that.
MAX_GAUSS_ELEMENTS = 2**16
# Largest m = lcm(8, 4e), e the group exponent, for which such a group's
# Milgram identity is built in Z[zeta_m].  The cost grows with m and with
# the number of odd primes of m.  On a 2-core x86 host, with the cyclotomic
# polynomials built afresh, A1(512) (m = 4096) takes 0.035 s; the slowest
# rank-1 lattice [m/4] over every m <= 4096 is m = 3960 = 8*9*5*11 at
# 0.72 s, and m = 9240 = 8*3*5*7*11 takes 7 s.
MAX_GAUSS_MODULUS = 2**12


def check_rank(rank: int, label: str) -> None:
    """Raise RankTooLarge when ``rank`` exceeds MAX_RANK."""
    if rank > MAX_RANK:
        raise RankTooLarge(f"{label}: rank {rank} exceeds the limit of {MAX_RANK}")


@dataclass(frozen=True, repr=False)
class Lattice:
    """A lattice given by its Gram matrix; ``name`` is display metadata."""

    gram: Matrix
    name: str | None = None

    def __post_init__(self):
        gram = self.gram
        if not isinstance(gram, Matrix):
            gram = Matrix(gram)
        if not gram.is_square:
            raise ValueError("Gram matrix must be square")
        if not gram.is_integral:
            raise ValueError("Gram matrix must have integer entries")
        if not gram.is_symmetric:
            raise NotSymmetric("Gram matrix must be symmetric")
        object.__setattr__(self, "gram", gram.to_int())

    @property
    def rank(self) -> int:
        return self.gram.nrows

    def __repr__(self):
        label = self.name if self.name else f"rank {self.rank}"
        return f"Lattice({label})"


def is_even(lat: Lattice) -> bool:
    """True iff every vector has even square (even diagonal suffices)."""
    return all(lat.gram[i, i] % 2 == 0 for i in range(lat.rank))


def rescale(lat: Lattice, m: int) -> Lattice:
    """Multiply the bilinear form by m; decorates the name with ``(m)``."""
    if m == 0:
        raise ZeroScale("scale factor must be nonzero")
    if m == 1:
        return lat
    name = f"{lat.name}({m})" if lat.name else None
    return Lattice(lat.gram.scaled(m), name)


def direct_sum(l1: Lattice, l2: Lattice) -> Lattice:
    """Orthogonal direct sum: block-diagonal Gram matrix."""
    if l1.rank == 0:
        return l2
    if l2.rank == 0:
        return l1
    name = f"{l1.name}+{l2.name}" if l1.name and l2.name else None
    return Lattice(block_diagonal([l1.gram, l2.gram]), name)


@dataclass(frozen=True, repr=False)
class DiscriminantGroup:
    """The finite quotient (dual lattice)/(lattice).

    ``lifts`` holds W_i = d_i * g_i, entries in [0, d_i), for the generators
    g_i of L* / L in lattice-basis coordinates, one per invariant factor
    d_i.  ``order`` is |det G|, and the lifts come from the modular
    Smith normal form of G (see ``discriminant_group``).
    """

    invariant_factors: tuple[int, ...]
    lifts: tuple[tuple[int, ...], ...]
    order: int

    @property
    def s(self) -> int:
        """Minimal number of generators."""
        return len(self.invariant_factors)

    def elements(self):
        """Coefficient tuples (one residue per invariant factor)."""
        return product(*(range(d) for d in self.invariant_factors))

    def __repr__(self):
        return f"DiscriminantGroup(factors={list(self.invariant_factors)})"


@lru_cache(maxsize=None)
def discriminant_group(lat: Lattice) -> DiscriminantGroup:
    """Invariant factors and generators of (dual)/(lattice), the generators
    as integer lifts.

    G maps L* onto Z^n, so A_L = Z^n / G Z^n.  An orthogonal sum of blocks
    (``linalg._orthogonal_blocks``) has A_L the sum of its blocks' groups
    (Nikulin 1979, §1): each block's group is looked up by its Gram matrix,
    so equal blocks are worked out once, and its lifts are put at the
    block's coordinates.  A single block is the sum of its parts A_b of
    order b over coprime factors b of D = |det G|, each b holding all of D
    at its primes.  Starting from b = D, the Smith normal form of
    G runs modulo m = b^2, so no entry outgrows m however dense the basis:
    U @ G @ V = diag(c) mod m, and as b divides m the factor for c_i is
    d_i = gcd(c_i, m), a divisor of b.  The generator for d_i is
    g_i = W_i / d_i, with the integer lift W_i = w_i * v_i mod d_i, v_i
    column i of V and w_i the inverse of c_i / d_i mod d_i.  Then
    U @ G @ g_i = w_i * (c_i / d_i) * e_i + (m / d_i) * z for an integer z,
    and m / d_i is a multiple of b, hence of every d_j: row j of U, read
    mod d_j, maps g_i to e_i, so the g_i are independent of orders d_i and
    generate A_b.  (With m = b, a prime of d_i could divide c_i / d_i,
    which then has no inverse.)  U itself is never built: the Smith normal
    form returns only the columns of V at the factor positions.  When the
    elimination separates two primes of b (ModulusSplit), b splits into
    coprime parts and each runs again modulo its square; a prime-power D
    takes one run.

    Both cases end in one join over pairwise coprime moduli b.  A block's
    factors are not coprime to one another's, so each cyclic factor (d, W)
    is first split over a coprime base of all of them: its b-part d_b is
    generated by (d / d_b) * g, whose lift is W mod d_b, as
    d_b * ((d / d_b) * g) = W.  Every factor is a product of powers of the
    base, so sorting the b-parts sorts their parts at each prime of b
    alike; ties keep block order.  The parts of a single block are already
    one chain per coprime b.  The chains are aligned at their largest
    factors, and the factor d = prod d_b of a merged position gets the lift
    W = sum (d / d_b) * W_b mod d: g = sum g_b has order d, and
    (d / d_b) * g is a unit times g_b, so the merged g generate A_L.
    """
    return _group_of_gram(lat.gram)


@lru_cache(maxsize=None)
def _group_of_gram(g: Matrix) -> DiscriminantGroup:
    """``discriminant_group`` of the lattice with Gram matrix g, cached by g
    alone, so equal blocks of any lattices share one entry whatever the
    lattices are named."""
    det = abs(determinant(g))
    if det == 0:
        raise Degenerate("lattice is degenerate")
    blocks = _orthogonal_blocks(g)
    chains = _block_chains(g.nrows, blocks) if blocks else _part_chains(g, det)
    factors, lifts = [], []
    for k in range(max(map(len, chains), default=0), 0, -1):
        (f, w), *others = [chain[-k] for chain in chains if len(chain) >= k]
        for fp, wp in others:
            w = [(fp * x + f * y) % (f * fp) for x, y in zip(w, wp)]
            f *= fp
        factors.append(f)
        lifts.append(tuple(w))
    return DiscriminantGroup(invariant_factors=tuple(factors), lifts=tuple(lifts), order=det)


def _block_chains(n: int, blocks) -> list[list[tuple[int, list[int]]]]:
    """One ascending chain of (d_b, lift) per element b of a coprime base
    of the blocks' invariant factors, lifts at the blocks' coordinates."""
    cyclic = []
    for indices, block in blocks:
        group = _group_of_gram(block)
        for d, w in zip(group.invariant_factors, group.lifts):
            lift = [0] * n
            for i, x in zip(indices, w):
                lift[i] = x
            cyclic.append((d, lift))
    chains = []
    for b in _coprime_base([d for d, _ in cyclic]):
        parts = [(_part_on_primes_of(d, b), w) for d, w in cyclic]
        parts = [(db, [x % db for x in w]) for db, w in parts if db > 1]
        chains.append(sorted(parts, key=lambda part: part[0]))
    return chains


def _part_chains(g: Matrix, det: int) -> list[list[tuple[int, list[int]]]]:
    """One ascending chain of (d_i, W_i) per coprime part b of det, from
    the Smith normal form of g modulo b^2."""
    parts, chains = [det], []
    while parts:
        b = parts.pop()
        m = b * b
        try:
            _, d, v = smith_normal_form(g, modulus=m)
        except ModulusSplit as split:
            first = gcd(b, split.factor)
            parts += [first, b // first]
            continue
        pivots = [d[i, i] for i in range(g.nrows) if gcd(d[i, i], m) > 1]
        chain = []
        for c, column in zip(pivots, zip(*v.entries)):
            f = gcd(c, m)
            unit = pow(c // f, -1, f)
            chain.append((f, [unit * x % f for x in column]))
        chains.append(chain)
    return chains


def _coprime_base(numbers) -> list[int]:
    """Pairwise coprime integers above 1, ascending, of which every one of
    ``numbers`` is a product of powers: a pair a, b with g = gcd(a, b) > 1
    is replaced by a / g, g and b / g until none is left, which keeps every
    number such a product and lowers the product of the set each time."""
    base = set(numbers) - {1}
    while pair := next(((a, b) for a, b in combinations(sorted(base), 2) if gcd(a, b) > 1), None):
        a, b = pair
        g = gcd(a, b)
        base = (base - {a, b} | {a // g, g, b // g}) - {1}
    return sorted(base)


def is_p_elementary(lat: Lattice, p: int) -> bool:
    """True iff every invariant factor of the discriminant group equals p."""
    return all(d == p for d in discriminant_group(lat).invariant_factors)


@dataclass(frozen=True, repr=False, eq=False)
class FiniteQuadraticForm:
    """Q/2Z-valued quadratic form on a discriminant group.

    ``pairings`` holds the integers e * g_i.G g_j on the generators, e the
    group exponent, and the rest is read from them: ``q_values`` is a
    read-only mapping from every coefficient tuple to its value as a
    Fraction in [0, 2), evaluated on lookup.
    ``lattice_signature`` is the eigenvalue sign count of the source lattice,
    carried along for the Gauss-sum check.
    """

    group: DiscriminantGroup
    pairings: tuple[tuple[int, ...], ...]
    lattice_signature: tuple[int, int, int]

    def __repr__(self):
        return f"FiniteQuadraticForm(factors={list(self.group.invariant_factors)})"

    @cached_property
    def q_values(self) -> Mapping:
        return _QValues(self.group, self.pairings)

    @cached_property
    def _det_mod3(self) -> int:
        """det B mod 3 for B = 3*b on a 3-elementary group, where B = e*b is
        the matrix of pairings.  Over F_3, B is congruent to
        diag(1, ..., 1, det B), so (s, det B mod 3) is its normal form."""
        return determinant(Matrix([[x % 3 for x in row] for row in self.pairings])) % 3


class _QValues(Mapping):
    """q(sum c_i g_i) = sum_ij c_i c_j g_i.G g_j mod 2, from the exact
    generator pairings, which lie in (1/e)Z for the group exponent e,
    scaled by e to integers."""

    def __init__(self, group: DiscriminantGroup, pairs):
        self.group, self.pairs = group, pairs
        self.e = max(group.invariant_factors, default=1)

    def __getitem__(self, coeffs):
        dims = self.group.invariant_factors
        if len(coeffs) != len(dims) or not all(0 <= c < d for c, d in zip(coeffs, dims)):
            raise KeyError(coeffs)
        # a generator's value reads one pairing, not all s^2 of them
        support = [i for i, c in enumerate(coeffs) if c]
        acc = sum(coeffs[i] * coeffs[j] * self.pairs[i][j] for i in support for j in support)
        return Fraction(acc % (2 * self.e), self.e)

    def __iter__(self):
        return self.group.elements()

    def __len__(self):
        return self.group.order


@lru_cache(maxsize=None)
def discriminant_form(lat: Lattice) -> FiniteQuadraticForm:
    """The discriminant quadratic form, from its values on the generators.

    The pairing g_i.G g_j is W_i.(G W_j) / (d_i d_j) on the integer lifts
    W_i = d_i * g_i: one integer product G W_j per generator.  q is well
    defined mod 2 because the lattice is even.
    """
    if not is_even(lat):
        raise NotEven("the discriminant form needs an even lattice")
    group = discriminant_group(lat)
    dims = group.invariant_factors
    e = max(dims, default=1)
    gws = [lat.gram.mul_vec(w) for w in group.lifts]
    pairings = tuple(
        tuple(sum(map(mul, wi, gw)) * e // (di * dj) for gw, dj in zip(gws, dims))
        for wi, di in zip(group.lifts, dims)
    )
    return FiniteQuadraticForm(group, pairings, signature(lat.gram))


def _quadratic_sum(m: int, p: int) -> Cyclotomic:
    """The sum of zeta_p^(t*t) over t in F_p, in Z[zeta_m]."""
    terms = [0] * m
    for t in range(p):
        terms[(t * t % p) * (m // p)] += 1
    return Cyclotomic(m, terms)


def _sqrt_as_cyclotomic(n: int, m: int) -> Cyclotomic:
    """sqrt(n) for n >= 1, written exactly in Z[zeta_m].

    Each prime p dividing n to an odd power contributes sqrt(p):
    sqrt(2) = zeta_8 + zeta_8^-1, and for odd p the quadratic Gauss sum
    sum_t zeta_p^(t*t) equals sqrt(p) or i*sqrt(p) according to p mod 4.
    """
    out = Cyclotomic.integer(m, 1)
    p = 2
    while n > 1:
        if p * p > n:
            p = n
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out = out * p ** (e // 2)
        if e % 2 and p == 2:
            out = out * (Cyclotomic.root(m, m // 8) + Cyclotomic.root(m, -(m // 8)))
        elif e % 2:
            out = out * _quadratic_sum(m, p)
            if p % 4 == 3:
                out = out * Cyclotomic.root(m, -(m // 4))
        p += 1
    return out


def _gauss_sum(form: FiniteQuadraticForm, m: int) -> Cyclotomic:
    """The sum of exp(pi*i*q(x)) over every element of the group, in Z[zeta_m]."""
    terms = [0] * m
    for val in form.q_values.values():
        terms[val.numerator * (m // (2 * val.denominator))] += 1
    return Cyclotomic(m, terms)


def milgram_holds(form: FiniteQuadraticForm) -> bool:
    """Gauss-sum consistency of the form with its lattice signature.

    The sum of exp(pi*i*q(x)) over the group must equal
    sqrt(|A|) * zeta_8^sigma, sigma = t_+ - t_-.

    On (Z/3)^s, exp(pi*i*q(x)) = zeta_3^(B(x,x)/2) = zeta_3^(2*B(x,x)), and
    over the normal form diag(1, ..., 1, delta) of B, delta = det B mod 3,
    each factor sum_t zeta_3^(2*a*t*t) equals -(a/3)*i*sqrt(3).  So the sum
    is sqrt(3^s) * zeta_8^(-2s) * (delta/3), and the identity holds iff
    sigma + 2s + 4*[delta == 2] = 0 mod 8 (Nikulin 1979, §1).  A B that is
    singular mod 3 (delta = 0) turns a factor into 3 and fails.  The
    trivial group is the case s = 0, delta = 1.

    Other groups sum over every element, with both sides in Z[zeta_m] for
    m = lcm(8, 4e), e the group exponent, which contains every term, so the
    comparison is exact.  Such a group raises GroupTooLarge, before either
    side is built, when it has more than MAX_GAUSS_ELEMENTS elements or m
    is above MAX_GAUSS_MODULUS.
    """
    plus, _, minus = form.lattice_signature
    group = form.group
    if set(group.invariant_factors) <= {3}:
        delta = form._det_mod3
        return delta != 0 and (plus - minus + 2 * group.s + 4 * (delta == 2)) % 8 == 0
    e = max(group.invariant_factors)
    m = lcm(8, 4 * e)
    if group.order > MAX_GAUSS_ELEMENTS:
        raise GroupTooLarge(
            f"the Gauss sum of a group that is not 3-elementary runs over all "
            f"{_brief(group.order)} elements, above the limit of {MAX_GAUSS_ELEMENTS}"
        )
    if m > MAX_GAUSS_MODULUS:
        raise GroupTooLarge(
            f"the Gauss sum of a group of exponent {e} is taken in the "
            f"cyclotomic field of order {m}, above the limit of {MAX_GAUSS_MODULUS}"
        )
    rhs = _sqrt_as_cyclotomic(group.order, m)
    rhs = rhs * Cyclotomic.root(m, ((plus - minus) % 8) * (m // 8))
    return _gauss_sum(form, m) == rhs


def _brief(n: int) -> str:
    """n in full up to 30 digits, else its first ten digits and its length."""
    digits = str(n)
    return digits if len(digits) <= 30 else f"{digits[:10]}... ({len(digits)} digits)"


def forms_match_opposite(form_s: FiniteQuadraticForm, form_t: FiniteQuadraticForm) -> bool:
    """Do two 3-elementary forms glue, i.e. is q_S isometric to -q_T?

    Forms over F_3 are isometric iff they have equal rank s and equal
    det B mod 3, and negating B multiplies det B by (-1)^s.
    """
    if any(d != 3 for form in (form_s, form_t) for d in form.group.invariant_factors):
        raise NotElementary("both forms must live on 3-elementary groups")
    s = form_s.group.s
    det_t = (-1) ** s * form_t._det_mod3 % 3
    return form_t.group.s == s and form_s._det_mod3 == det_t


def read_int_rows(data, key: str) -> list:
    """The rows of the integer matrix ``data[key]`` in a parsed JSON object.

    Checks that ``data`` is an object holding ``key``, that its value is a
    list of at most MAX_RANK rows, each a list, and that every entry is an
    integer (JSON true and false are not)."""
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f'expected an object with a "{key}" field')
    rows = data[key]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError(f'"{key}" must be a list of rows')
    check_rank(len(rows), f'"{key}"')
    for t in set(map(type, chain.from_iterable(rows))):
        if not issubclass(t, int) or issubclass(t, bool):
            raise ValueError(f'"{key}" entries must be integers')
    return rows


def lattice_from_dict(data) -> Lattice:
    """Build a lattice from the JSON literal {"name": ..., "gram": [[...]]}."""
    gram = read_int_rows(data, "gram")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError('"name" must be a string')
    return Lattice(gram, name)
