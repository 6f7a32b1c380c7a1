"""Ordinals below w^2, kept as pairs of natural numbers.

Every level index this package builds is finite or of the form w*a + b:
hierarchy levels are finite, and the transform's ranks and levels are
w*r + b.  Ordinal(a, b) is w*a + b; the order is lexicographic on
(a, b), and a finite ordinal equals, and hashes like, its int.

text(a, b) is the one printed form: "0", "5", "w", "w*2 + 3".
"""

from __future__ import annotations

import functools


def text(a, b):
    """The printed form of w*a + b."""
    if not a:
        return str(b)
    omega = "w" if a == 1 else "w*%d" % a
    return "%s + %d" % (omega, b) if b else omega


@functools.total_ordering
class Ordinal:
    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        a, b = int(a), int(b)
        if a < 0 or b < 0:
            raise ValueError("ordinals are not negative: w*%d + %d" % (a, b))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("Ordinal is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_int(n):
        return Ordinal(0, n)

    # -- structure ----------------------------------------------------

    def is_finite(self):
        return not self.a

    def as_int(self):
        if self.a:
            raise ValueError("%s is not finite" % self)
        return self.b

    def parity(self):
        """0 for even, 1 for odd.  Limits and zero are even; the parity
        of w*a + b is the parity of b."""
        return self.b % 2

    # -- arithmetic and comparison --------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = Ordinal(0, other)
        if not isinstance(other, Ordinal):
            return NotImplemented
        if other.a:  # the finite part of self is absorbed
            return Ordinal(self.a + other.a, other.b)
        return Ordinal(self.a, self.b + other.b)

    def __eq__(self, other):
        if isinstance(other, Ordinal):
            return self.a == other.a and self.b == other.b
        if isinstance(other, int):
            return not self.a and self.b == other
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, Ordinal):
            return (self.a, self.b) < (other.a, other.b)
        if isinstance(other, int):
            return not self.a and self.b < other
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b)) if self.a else hash(self.b)

    def __str__(self):
        return text(self.a, self.b)

    def __repr__(self):
        return "Ordinal(%d, %d)" % (self.a, self.b)


ZERO = Ordinal()
ONE = Ordinal(0, 1)
OMEGA = Ordinal(1, 0)
