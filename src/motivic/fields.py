"""Base fields: the rationals and prime fields F_p for p < 2**16.

Elements are plain Fractions (characteristic 0) or ints in range(p); the Field
object supplies the arithmetic so polynomial code stays field-agnostic.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import EnumerationUnavailable, WorkbenchError
from .records import Record

_PRIME_CAP = 1 << 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Field(Record):
    """Immutable field descriptor. char == 0 means the rationals."""

    __slots__ = ("char",)

    def __init__(self, char: int = 0):
        if char != 0:
            if char >= _PRIME_CAP:
                raise WorkbenchError("prime characteristic must be < 2^16, got %d" % char)
            if not _is_prime(char):
                raise WorkbenchError("characteristic must be prime, got %d" % char)
        object.__setattr__(self, "char", char)

    # every Poly operation compares fields: test the one slot directly
    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "Q" if self.char == 0 else "F%d" % self.char

    @property
    def zero(self):
        return Fraction(0) if self.char == 0 else 0

    @property
    def one(self):
        return Fraction(1) if self.char == 0 else 1

    def of(self, n) -> object:
        """Coerce an int or Fraction into the field."""
        if self.char == 0:
            return Fraction(n)
        if type(n) is int:     # skips the ABC check below for most inputs
            return n % self.char
        if isinstance(n, Fraction):
            if n.denominator % self.char == 0:
                raise WorkbenchError("denominator not invertible mod %d" % self.char)
            return (n.numerator * pow(n.denominator, -1, self.char)) % self.char
        return n % self.char

    def add(self, a, b):
        return a + b if self.char == 0 else (a + b) % self.char

    def mul(self, a, b):
        return a * b if self.char == 0 else (a * b) % self.char

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("field inverse of zero")
        return a ** -1 if self.char == 0 else pow(a, self.char - 2, self.char)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    @property
    def finite(self) -> bool:
        return self.char != 0

    @property
    def order(self) -> int:
        """p for F_p; Q has no order, and nothing over it is counted."""
        if not self.finite:
            raise EnumerationUnavailable("point enumeration needs a finite field")
        return self.char

    def elements(self):
        return range(self.order)


QQ = Field(0)


def GF(p: int) -> Field:
    """F_p. Field(0) is Q, so 0 is refused here like any other non-prime."""
    if p == 0:
        raise WorkbenchError("characteristic must be prime, got 0")
    return Field(p)
