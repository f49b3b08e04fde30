"""Fixed-locus invariants of order-3 automorphisms acting trivially on the
divisor lattice: exact Lefschetz arithmetic over Q(zeta_3), the point,
genus and curve-count formulas, and the elliptic-fibration consistency
checks (Euler sums, fiber counts, the Hurwitz identity).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .classify import table1_names
from .cyclotomic import Cyclotomic
from .errors import (
    Degenerate,
    InvalidRho,
    NegativeGenus,
    NonIntegralGenus,
    NotClassified,
    NotElementary,
)
from .lattice import Lattice, discriminant_group, is_even
from .linalg import signature


ZETA = Cyclotomic(3, [0, 1])
MINUS_ZETA = Cyclotomic(3, [0, -1])

GENERIC = "generic"
SPECIAL_THREE_POINTS = "special_three_points"
NONEXISTENT = "nonexistent"


@dataclass(frozen=True)
class FixedLocus:
    """Component census of the fixed point set: isolated points, the genus
    of the one possibly irrational curve, and the total curve count."""

    status: str
    points: int | None
    genus: int | None
    curves: int | None


def holomorphic_lefschetz(points: int, genera) -> Cyclotomic:
    """Fixed-point side of the holomorphic Lefschetz number, in Q(zeta_3).

    Each isolated point contributes -zeta/3 and each fixed curve of genus g
    contributes zeta*(1-g)/3.  The cohomological side is 1 + zeta**2 =
    -zeta, so the total equals -zeta exactly when
    points - sum(1 - g) = 3.
    """
    return Cyclotomic(3, [0, Fraction(sum(1 - g for g in genera) - points, 3)])


def point_count(rho: int) -> int:
    """Number of isolated fixed points, rho/2 - 1."""
    if rho % 2 or not 2 <= rho <= 20:
        raise InvalidRho(f"Picard number {rho} is not an even number in [2, 20]")
    return rho // 2 - 1


def topological_check(rho: int, locus: FixedLocus) -> bool:
    """Euler-characteristic consistency of a fixed locus.

    The trace side of the topological fixed-point formula is (3*rho-18)/2,
    whatever s is; the locus side is points + (2-2g) + 2*(N-1) for a
    generic locus, while the curve part alone must carry Euler number
    rho - 8.
    """
    target = (3 * rho - 18) // 2
    if locus.status == SPECIAL_THREE_POINTS:
        return locus.points == target
    if locus.status != GENERIC:
        raise ValueError("the locus has no components to check")
    curve_euler = (2 - 2 * locus.genus) + 2 * (locus.curves - 1)
    return locus.points + curve_euler == target and curve_euler == rho - 8


@lru_cache(maxsize=None)
def _embeddable_keys() -> frozenset:
    return frozenset((rho, s) for rho, s, *_, exists in table1_names() if exists)


def fixed_locus_from_invariants(rho: int, s: int) -> FixedLocus:
    """Fixed locus for a classified (rank, s) key.

    Branches: no automorphism when 22 - rho - 2s < 0; exactly three isolated
    points for the unique key (8, 7), whose lattice has no square -2
    vectors; otherwise points = rho/2 - 1, genus = (22-rho-2s)/4 and curve
    count (6+rho-2s)/4.
    """
    if (rho, s) not in _embeddable_keys():
        raise NotClassified(f"(rho={rho}, s={s}) is not a realizable key")
    if 22 - rho - 2 * s < 0:
        return FixedLocus(NONEXISTENT, None, None, None)
    if (rho, s) == (8, 7):
        return FixedLocus(SPECIAL_THREE_POINTS, 3, None, 0)
    genus4 = 22 - rho - 2 * s
    curves4 = 6 + rho - 2 * s
    if genus4 % 4 or curves4 % 4:
        raise NotClassified(f"(rho={rho}, s={s}) gives non-integral invariants")
    return FixedLocus(GENERIC, point_count(rho), genus4 // 4, curves4 // 4)


def fixed_locus_of(lat: Lattice) -> FixedLocus:
    """Fixed locus determined by an even hyperbolic 3-elementary lattice
    that appears in the classification with a complement."""
    try:
        group = discriminant_group(lat)
    except Degenerate as exc:
        raise NotClassified("degenerate lattice") from exc
    if any(d != 3 for d in group.invariant_factors):
        raise NotElementary("the lattice is not 3-elementary")
    rho = lat.rank
    if not is_even(lat) or signature(lat.gram) != (1, 0, rho - 1):
        raise NotClassified("the lattice is not even hyperbolic")
    return fixed_locus_from_invariants(rho, group.s)


def enumerate_table2() -> list[tuple[str, FixedLocus]]:
    """Fixed locus for every classified lattice with a complement, by
    (rank, s); keys with 22 - rho - 2s < 0 are flagged nonexistent."""
    return [
        (s_name, fixed_locus_from_invariants(rho, s))
        for rho, s, s_name, _, exists in table1_names()
        if exists
    ]


def table2_rows() -> list[dict]:
    """JSON-ready rows {S, status, M, g, N}."""
    return [
        {
            "S": name,
            "status": locus.status,
            "M": locus.points,
            "g": locus.genus,
            "N": locus.curves,
        }
        for name, locus in enumerate_table2()
    ]


_FIBER_EULER = {"II": 2, "III": 3, "IV": 4, "II*": 10, "III*": 9, "IV*": 8}
_IN_RE = re.compile(r"I([0-9]+)(\*?)\Z")


def kodaira_euler(fiber: str) -> int:
    """Euler number of a Kodaira fiber type ("II", "I3", "I0*", "IV*", ...)."""
    if fiber in _FIBER_EULER:
        return _FIBER_EULER[fiber]
    match = _IN_RE.match(fiber)
    if match:
        n = int(match.group(1))
        return n + 6 if match.group(2) else n
    raise ValueError(f"unknown Kodaira fiber type: {fiber!r}")


def euler_fiber_sum(config) -> tuple[int, bool]:
    """Total Euler number of a singular-fiber configuration, and whether it
    fills the ambient surface's Euler number 24."""
    total = sum(count * kodaira_euler(fiber) for fiber, count in config)
    return total, total == 24


def fiber_counts(rho: int) -> tuple[int, int]:
    """(type-II count, type-IV count) for a low Picard number fibration
    whose singular fibers are all of those two types: 14 - rho fibers of
    type II and (rho-2)/2 of type IV, filling Euler number 24.
    """
    if rho % 2 or not 2 <= rho < 8:
        raise InvalidRho(f"Picard number {rho} is not an even number in [2, 8)")
    return 14 - rho, (rho - 2) // 2


def hurwitz_genus(degree: int, base_genus: int, branch_points: int) -> int:
    """Genus from 2g - 2 = degree*(2*base_genus - 2) + branch_points, each
    branch point simple.  Raises when the configuration is inconsistent."""
    value = degree * (2 * base_genus - 2) + branch_points
    if value % 2:
        raise NonIntegralGenus(f"2g - 2 = {value} is odd")
    genus = (value + 2) // 2
    if genus < 0:
        raise NegativeGenus(f"genus would be {genus}")
    return genus
