#!/usr/bin/env python3
"""The fixed-locus table and the exact arithmetic behind it: holomorphic
Lefschetz sums in Q(zeta_3), Euler-characteristic balancing, singular-fiber
Euler counts, and the Hurwitz genus computations (including the one used as
a contradiction device).
"""

from trielem import (
    MINUS_ZETA,
    NONEXISTENT,
    SPECIAL_THREE_POINTS,
    enumerate_table1,
    enumerate_table2,
    euler_fiber_sum,
    fiber_counts,
    holomorphic_lefschetz,
    hurwitz_genus,
    topological_check,
)
from trielem.errors import NonIntegralGenus


def main():
    rho_of = {p.S.name: p.rho for p in enumerate_table1()}

    print(f"{'S':<14} {'status':<22} {'M':>2} {'g':>2} {'N':>2}  identities")
    for name, locus in enumerate_table2():
        if locus.status == NONEXISTENT:
            print(f"{name:<14} {'no automorphism':<22}  -  -  -")
            continue
        genera = (
            []
            if locus.status == SPECIAL_THREE_POINTS
            else [locus.genus] + [0] * (locus.curves - 1)
        )
        holo = holomorphic_lefschetz(locus.points, genera) == MINUS_ZETA
        topo = topological_check(rho_of[name], locus)
        g = "-" if locus.genus is None else locus.genus
        print(f"{name:<14} {locus.status:<22} {locus.points:>2} {g:>2} "
              f"{locus.curves:>2}  lefschetz={holo} euler={topo}")

    print("\nSingular-fiber Euler counts (must fill the surface's 24):")
    for config in ([("II", 12)], [("II*", 1), ("IV*", 1), ("II", 3)],
                   [("IV", 4), ("II", 4)]):
        total, full = euler_fiber_sum(config)
        pretty = " + ".join(f"{n} x {t}" for t, n in config)
        print(f"  {pretty:<28} -> {total} (filled: {full})")

    print("\nLow Picard number fibrations carry only type II and IV fibers:")
    for rho in (2, 4, 6):
        k_ii, k_iv = fiber_counts(rho)
        print(f"  rank {rho}: {k_ii} x II, {k_iv} x IV "
              f"(Euler {2 * k_ii + 4 * k_iv})")

    print("\nHurwitz genus of the branch curve over the base line:")
    print(f"  double cover, 12 branch points -> genus {hurwitz_genus(2, 0, 12)}")
    print(f"  double cover, 4 branch points  -> genus {hurwitz_genus(2, 0, 4)}")
    try:
        hurwitz_genus(3, 0, 9)
    except NonIntegralGenus as exc:
        print(f"  triple cover, 9 branch points  -> impossible ({exc})")


if __name__ == "__main__":
    main()
