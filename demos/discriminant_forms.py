#!/usr/bin/env python3
"""Discriminant groups and quadratic forms from first principles: Smith
normal form of the Gram matrix, coset generators, q-values, and the exact
Gauss-sum identity tying the form to the signature.
"""

from collections import Counter
from fractions import Fraction

from trielem import (
    build,
    discriminant_form,
    discriminant_group,
    milgram_holds,
    parse_expr,
    signature,
    smith_normal_form,
)


def show(expr):
    lat = parse_expr(expr)
    group = discriminant_group(lat)
    print(f"{expr}:")
    print(f"  signature {signature(lat.gram)}, "
          f"invariant factors {list(group.invariant_factors)}")
    for d, lift in zip(group.invariant_factors, group.lifts):
        coords = ", ".join(str(Fraction(x, d)) for x in lift)
        print(f"  generator of Z/{d}: ({coords})")
    form = discriminant_form(lat)
    counts = Counter(form.q_values.values())
    dist = ", ".join(f"{v}: {n}" for v, n in sorted(counts.items()))
    print(f"  q-value distribution {{{dist}}}")
    print(f"  Gauss-sum identity: {milgram_holds(form)}\n")


def main():
    u, d, v = smith_normal_form(build("A2").gram)
    print("Smith normal form of the A2 Gram matrix:")
    print(f"  D = {d!r}  with U A V = D, U and V unimodular\n")

    for expr in ("A2", "U(3)", "E6", "E6*(3)", "U(3)+A2"):
        show(expr)

    print("Opposite forms glue: the value distribution of U(3)+A2 is the")
    print("negation of that of its complement U+U(3)+E6+E8.")
    s_form = discriminant_form(parse_expr("U(3)+A2"))
    t_form = discriminant_form(parse_expr("U+U(3)+E6+E8"))
    s_counts = sorted(Counter(s_form.q_values.values()).items())
    t_counts = sorted(Counter((-v) % 2 for v in t_form.q_values.values()).items())
    print(f"  S side: {s_counts}")
    print(f"  -T side: {t_counts}")


if __name__ == "__main__":
    main()
