"""Exception types raised across the package."""

import sys


class TrielemError(Exception):
    """Base class for every package-specific error."""


class SingularMatrix(TrielemError):
    """Inversion was requested for a matrix with determinant zero."""


class NotSymmetric(TrielemError):
    """A symmetric matrix was required."""


class ZeroScale(TrielemError):
    """Rescaling by zero would degenerate the bilinear form."""


class Degenerate(TrielemError):
    """The operation needs a nondegenerate Gram matrix."""


class NotEven(TrielemError):
    """The operation is only defined for even lattices."""


class NotElementary(TrielemError):
    """The operation needs a p-elementary discriminant group."""


class UnknownName(TrielemError):
    """The requested name is not in the lattice catalog."""


class ParseError(TrielemError):
    """A lattice expression could not be parsed.

    ``offset`` is the character position of the offending input.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class InvalidKey(TrielemError):
    """Rank or generator count outside the classification's range."""


class RankMismatch(TrielemError):
    """Two lattices of equal rank were required."""


class SizeMismatch(TrielemError):
    """Matrix size does not match the lattice rank."""


class NotIsometry(TrielemError):
    """The matrix does not preserve the Gram matrix."""


class NotDefinite(TrielemError):
    """Enumeration is only possible for definite lattices."""


class RankTooLarge(TrielemError):
    """The rank is above a limit: MAX_RANK for any input lattice, or the
    small-rank guard on exhaustive enumeration."""


class GroupTooLarge(TrielemError):
    """The Milgram check of a group that is not 3-elementary would sum over
    more than MAX_GAUSS_ELEMENTS elements, or work in Z[zeta_m] for m above
    MAX_GAUSS_MODULUS."""


class SearchTooLarge(TrielemError):
    """A short-vector or isometry search would do more work than its budget
    allows."""


class NumberTooLarge(TrielemError):
    """An integer to be printed has more digits than Python converts to
    text (``sys.get_int_max_str_digits``)."""


def check_printable(name: str, value: int):
    """Raise NumberTooLarge when Python would refuse to print ``value``.
    The limit is 0, or absent on an older Python, when there is none.  An
    int of at most 3 * limit bits is below 10^limit, so only a longer one
    pays for the exact test."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and value.bit_length() > 3 * limit and abs(value) >= 10**limit:
        raise NumberTooLarge(
            f"{name} has more than {limit} digits, the limit for printing an integer"
        )


class InvalidRho(TrielemError):
    """Picard number outside the admissible range."""


class NonIntegralGenus(TrielemError):
    """A genus computation produced a non-integer; the configuration is
    inconsistent."""


class NegativeGenus(TrielemError):
    """A genus computation produced a negative value; the configuration is
    inconsistent."""


class NotClassified(TrielemError):
    """The lattice is not one of the classified embeddable lattices."""
