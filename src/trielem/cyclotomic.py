"""Exact arithmetic with roots of unity: the fields Q(zeta_m).

Elements are polynomials in zeta_m with rational (int or Fraction)
coefficients, reduced modulo the m-th cyclotomic polynomial, so equality of
two expressions in roots of unity is an exact coefficient comparison.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, constant term first."""
    if m < 1:
        raise ValueError("m must be positive")
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _exact_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _exact_div(num, den):
    # long division by a monic divisor; the remainder must vanish
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for k in range(dd + 1):
                num[i - dd + k] -= c * den[k]
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


def _reduce(coeffs, phi):
    deg = len(phi) - 1
    c = list(coeffs)
    for i in range(len(c) - 1, deg - 1, -1):
        q = c[i]
        if q:
            for k in range(deg + 1):
                c[i - deg + k] -= q * phi[k]
    return c[:deg]


class Cyclotomic:
    """An element of Q(zeta_m), reduced mod the m-th cyclotomic polynomial.

    Coefficients are ints or Fractions; on ints the arithmetic stays in
    Z[zeta_m]."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):
        phi = cyclotomic_polynomial(order)
        deg = len(phi) - 1
        c = list(coeffs)
        if len(c) > deg:
            c = _reduce(c, phi)
        c += [0] * (deg - len(c))
        self.order = order
        self.coeffs = tuple(c)

    @classmethod
    def root(cls, order: int, k: int) -> "Cyclotomic":
        """zeta_order ** k."""
        k %= order
        return cls(order, [0] * k + [1])

    @classmethod
    def integer(cls, order: int, n: int) -> "Cyclotomic":
        return cls(order, [n])

    def _coerce(self, other) -> "Cyclotomic":
        if isinstance(other, int):
            return Cyclotomic.integer(self.order, other)
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                raise ValueError("mixed cyclotomic orders")
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyclotomic(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            return Cyclotomic(self.order, [other * a for a in self.coeffs])
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        conv = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        return Cyclotomic(self.order, conv)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = Cyclotomic.integer(self.order, other)
        return (
            isinstance(other, Cyclotomic)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"Cyclotomic({self.order}, {list(self.coeffs)!r})"
