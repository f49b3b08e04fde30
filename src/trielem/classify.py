"""Classification of even hyperbolic 3-elementary lattices that embed
primitively in the K3 lattice (the even unimodular lattice of signature
(3,19)), with the complement of each and a per-pair verification report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import parse_expr
from .errors import InvalidKey, NotElementary, RankMismatch, check_printable
from .lattice import (
    Lattice,
    discriminant_form,
    forms_match_opposite,
    is_even,
    milgram_holds,
)
from .linalg import determinant, signature

AMBIENT_RANK = 22


@dataclass(frozen=True)
class ClassificationKey:
    """Rank and minimal generator count of a hyperbolic p-elementary lattice."""

    rank: int
    s: int
    p: int = 3

    @property
    def sig(self) -> tuple[int, int]:
        return (1, self.rank - 1)


def rs_exists(n: int, s: int, p: int = 3) -> bool:
    """Does an even hyperbolic p-elementary lattice with these invariants
    exist (p an odd prime)?

    Conditions: n even; for even s, n = 2 mod 4; for odd s,
    p = (-1)^(n/2 - 1) mod 4; and unless n = 2 mod 8, strictly n > s > 0.
    """
    if n < 2 or s < 0 or s > n:
        raise InvalidKey(f"rank {n} with s = {s} is out of range")
    if p < 3 or p % 2 == 0:
        raise InvalidKey("the criterion applies to odd primes")
    if n % 2:
        return False
    if s % 2 == 0:
        if n % 4 != 2:
            return False
    else:
        need = 3 if (n // 2 - 1) % 2 else 1
        if p % 4 != need:
            return False
    if n % 8 != 2 and not (n > s > 0):
        return False
    return True


def complement_exists(rho: int, s: int) -> bool:
    """Can a key be realized inside the K3 lattice?

    The complement has rank 22 - rho, signature (2, 20 - rho), and the same
    s.  The one obstruction: s filling the whole complement rank forces the
    complement to be a rescaled even unimodular lattice, which needs its
    signature rho - 18 divisible by 8.
    """
    t_rank = AMBIENT_RANK - rho
    if s > t_rank:
        return False
    if s == t_rank and (rho - 18) % 8 != 0:
        return False
    return True


def classification_keys() -> list[ClassificationKey]:
    """All 32 keys (rank, s) admitting an even hyperbolic 3-elementary
    lattice with room for a complement generator count, by (rank, s)."""
    keys = []
    for rho in range(2, AMBIENT_RANK - 1, 2):
        for s in range(min(rho, AMBIENT_RANK - rho) + 1):
            if rs_exists(rho, s):
                keys.append(ClassificationKey(rank=rho, s=s))
    return keys


# Canonical expressions for each key: the hyperbolic lattice and its
# orthogonal complement inside U^3 + E8^2 (None when no complement exists).
_TABLE1_NAMES = {
    (2, 0): ("U", "U^2+E8^2"),
    (2, 2): ("U(3)", "U+U(3)+E8^2"),
    (4, 1): ("U+A2", "U^2+E6+E8"),
    (4, 3): ("U(3)+A2", "U+U(3)+E6+E8"),
    (6, 2): ("U+A2^2", "U^2+E6^2"),
    (6, 4): ("U(3)+A2^2", "U+U(3)+E6^2"),
    (8, 1): ("U+E6", "U^2+E8+A2"),
    (8, 3): ("U+A2^3", "U+U(3)+E8+A2"),
    (8, 5): ("U(3)+A2^3", "A2(-1)+E6+A2^3"),
    (8, 7): ("U(3)+E6*(3)", "A2(-1)+A2^6"),
    (10, 0): ("U+E8", "U^2+E8"),
    (10, 2): ("U+E6+A2", "U+U(3)+E8"),
    (10, 4): ("U+A2^4", "U+U(3)+E6+A2"),
    (10, 6): ("U(3)+A2^4", "A2(-1)+A2^5"),
    (10, 8): ("U+E8(3)", "U(3)^2+A2^4"),
    (10, 10): ("U(3)+E8(3)", "A2(-1)+A2+E8(3)"),
    (12, 1): ("U+E8+A2", "A2(-1)+E8"),
    (12, 3): ("U+E6+A2^2", "A2(-1)+E6+A2"),
    (12, 5): ("U+A2^5", "A2(-1)+A2^4"),
    (12, 7): ("U(3)+A2^5", "U(3)^2+A2^3"),
    (12, 9): ("U+E8(3)+A2", "A2(-1)+E8(3)"),
    (14, 2): ("U+E8+A2^2", "A2(-1)+E6"),
    (14, 4): ("U+E6+A2^3", "A2(-1)+A2^3"),
    (14, 6): ("U+A2^6", "U(3)^2+A2^2"),
    (14, 8): ("U(3)+A2^6", None),
    (16, 1): ("U+E8+E6", "U^2+A2"),
    (16, 3): ("U+E8+A2^3", "A2(-1)+A2^2"),
    (16, 5): ("U+E6+A2^4", "U(3)^2+A2"),
    (18, 0): ("U+E8^2", "U^2"),
    (18, 2): ("U+E8+E6+A2", "U+U(3)"),
    (18, 4): ("U+E8+A2^4", "U(3)^2"),
    (20, 1): ("U+E8^2+A2", "A2(-1)"),
}


@dataclass(frozen=True, repr=False)
class EmbeddingPair:
    """A classified lattice S with its orthogonal complement T (if any)."""

    S: Lattice
    T: Lattice | None
    rho: int
    s: int
    exists: bool

    def __repr__(self):
        t_name = self.T.name if self.T else "none"
        return f"EmbeddingPair(rho={self.rho}, s={self.s}, S={self.S.name}, T={t_name})"


def table1_names() -> list[tuple[int, int, str, str | None, bool]]:
    """Table 1 as (rho, s, S, T, exists) for each of the 32 keys, by
    (rank, s), with S and T as expressions; T is None and exists False for
    the one key without a complement."""
    return [
        (key.rank, key.s, *_TABLE1_NAMES[(key.rank, key.s)], complement_exists(key.rank, key.s))
        for key in classification_keys()
    ]


def enumerate_table1() -> list[EmbeddingPair]:
    """The 32 classification keys with their canonical lattices, ordered by
    (rank, s); 31 of them admit a complement inside the K3 lattice."""
    return [
        EmbeddingPair(
            S=parse_expr(s_name),
            T=parse_expr(t_name) if t_name else None,
            rho=rho,
            s=s,
            exists=exists,
        )
        for rho, s, s_name, t_name, exists in table1_names()
    ]


def table1_rows() -> list[dict]:
    """JSON-ready rows {rho, s, S, T, exists}."""
    return [
        {"rho": rho, "s": s, "S": s_name, "T": t_name, "exists": exists}
        for rho, s, s_name, t_name, exists in table1_names()
    ]


@dataclass
class PairReport:
    """Named check results for one candidate (lattice, complement) pair."""

    checks: dict
    details: dict

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def failures(self) -> list[str]:
        return [name for name, passed in self.checks.items() if not passed]


_FORM_CHECKS = (
    "determinants",
    "invariant_factors",
    "opposite_forms",
    "milgram_S",
    "milgram_T",
)


def verify_pair(s_lat: Lattice, t_lat: Lattice) -> PairReport:
    """Run every pairing check; math mismatches become failed entries,
    never exceptions.  A determinant too long to print in a report raises
    NumberTooLarge."""
    checks: dict = {}
    details: dict = {}
    rho = s_lat.rank
    checks["rank_sum"] = s_lat.rank + t_lat.rank == AMBIENT_RANK
    checks["signature_S"] = signature(s_lat.gram) == (1, 0, rho - 1)
    checks["signature_T"] = signature(t_lat.gram) == (2, 0, AMBIENT_RANK - 2 - rho)
    checks["even_S"] = is_even(s_lat)
    checks["even_T"] = is_even(t_lat)
    det_s = determinant(s_lat.gram)
    det_t = determinant(t_lat.gram)
    check_printable("det S", det_s)
    check_printable("det T", det_t)
    checks["nondegenerate"] = det_s != 0 and det_t != 0
    if not (checks["nondegenerate"] and checks["even_S"] and checks["even_T"]):
        for name in _FORM_CHECKS:
            checks[name] = False
            details[name] = "skipped: prerequisites failed"
        return PairReport(checks, details)
    form_s = discriminant_form(s_lat)
    form_t = discriminant_form(t_lat)
    s_count = form_s.group.s
    checks["determinants"] = abs(det_s) == abs(det_t) == 3**s_count
    if not checks["determinants"]:
        details["determinants"] = (
            f"|det S| = {abs(det_s)}, |det T| = {abs(det_t)}, expected 3^{s_count}"
        )
    checks["invariant_factors"] = (
        form_s.group.invariant_factors == form_t.group.invariant_factors
    )
    try:
        checks["opposite_forms"] = forms_match_opposite(form_s, form_t)
    except NotElementary as exc:
        checks["opposite_forms"] = False
        details["opposite_forms"] = str(exc)
    checks["milgram_S"] = milgram_holds(form_s)
    checks["milgram_T"] = milgram_holds(form_t)
    return PairReport(checks, details)


def index_determinant_identity(nsub: Lattice, nsup: Lattice, index: int) -> bool:
    """Check |det sub| = index^2 * |det sup| for a claimed finite-index
    full-rank sublattice."""
    if nsub.rank != nsup.rank:
        raise RankMismatch("sublattice and overlattice must have equal rank")
    if index < 1:
        raise ValueError("index must be a positive integer")
    return abs(determinant(nsub.gram)) == index * index * abs(determinant(nsup.gram))
