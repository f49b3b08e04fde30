#!/usr/bin/env python3
"""Order-3 isometries at desk scale: exhaustive search shows A2 carries an
order-3 isometry acting trivially on its discriminant group while the
3-rescalings A2(3) and A2(3)+A2(3) carry none, and two explicit hyperbolic
witnesses are checked exactly.  Next to each group O(L) it lists the
subgroup Õ(L) acting trivially on A_L, the only part the search lists.
"""

from trielem import (
    build,
    direct_sum,
    discriminant_action,
    enumerate_isometries,
    has_order3_trivial_on_A,
    order3_isometry_u3_u,
    order3_isometry_u_u,
    order_of,
    rescale,
    short_vectors,
)


def census(lat, label):
    group = enumerate_isometries(lat)
    kernel = enumerate_isometries(lat, trivial_on_A=True)
    order3 = [iso for iso in group if order_of(iso.matrix, 3) == 3]
    trivial = [iso for iso in order3 if discriminant_action(lat, iso.matrix)]
    print(f"{label}: |O(L)| = {len(group)}, |Õ(L)| = {len(kernel)} (trivial on A_L), "
          f"order-3 elements {len(order3)}, of them trivial on A_L: {len(trivial)}")
    print(f"  has_order3_trivial_on_A = {has_order3_trivial_on_A(lat)}")


def main():
    a2 = build("A2")
    print(f"A2 root count (norm -2 vectors): {len(short_vectors(a2, -2))}\n")

    census(a2, "A2")
    a2_scaled = rescale(a2, 3)
    census(a2_scaled, "A2(3)")
    census(direct_sum(a2_scaled, a2_scaled), "A2(3)+A2(3)")

    print("\nHyperbolic witnesses (indefinite, so checked directly):")
    for witness in (order3_isometry_u3_u(), order3_isometry_u_u()):
        trivial = discriminant_action(witness.lattice, witness)
        print(f"  {witness.lattice.name}: order {order_of(witness.matrix)}, "
              f"trivial on the discriminant group: {trivial}")


if __name__ == "__main__":
    main()
