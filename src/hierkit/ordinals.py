"""Ordinal notations below w^w (base-omega Cantor normal form).

An ordinal is kept as a tuple of (exponent, coefficient) pairs with
strictly decreasing natural-number exponents and coefficients >= 1.
That is enough for every level index this package ever produces:
hierarchy levels are finite or of the form w*k + n.

The textual form is "w^2*3 + w*2 + 5" (omitting "^1", "*1" and zero
terms); parse() accepts exactly what format() emits, modulo whitespace.
"""

from __future__ import annotations

import functools
import re


@functools.total_ordering
class Ordinal:
    __slots__ = ("terms",)

    def __init__(self, terms=()):
        terms = tuple((int(e), int(c)) for e, c in terms)
        last = None
        for e, c in terms:
            if e < 0 or c < 1:
                raise ValueError("bad ordinal term (%r, %r)" % (e, c))
            if last is not None and e >= last:
                raise ValueError("exponents must strictly decrease: %r" % (terms,))
            last = e
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("Ordinal is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_int(n):
        if n < 0:
            raise ValueError("ordinals are not negative")
        return Ordinal(((0, n),)) if n else Ordinal()

    @staticmethod
    def omega(k=1, coeff=1):
        return Ordinal(((k, coeff),))

    # -- structure ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def finite_part(self):
        """n where self = lambda + n with lambda limit or zero."""
        if self.terms and self.terms[-1][0] == 0:
            return self.terms[-1][1]
        return 0

    def is_finite(self):
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == 0)

    def as_int(self):
        if not self.is_finite():
            raise ValueError("%s is not finite" % self)
        return self.finite_part()

    def parity(self):
        """0 for even, 1 for odd.  Limits and zero are even; the parity
        of lambda + n is the parity of n."""
        return self.finite_part() % 2

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = Ordinal.from_int(other)
        if not isinstance(other, Ordinal):
            return NotImplemented
        if other.is_zero():
            return self
        e0 = other.terms[0][0]
        kept = [t for t in self.terms if t[0] > e0]
        if [t for t in self.terms if t[0] == e0]:
            c = next(c for e, c in self.terms if e == e0)
            merged = ((e0, c + other.terms[0][1]),) + other.terms[1:]
        else:
            merged = other.terms
        return Ordinal(tuple(kept) + merged)

    def successor(self):
        return self + 1

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = Ordinal.from_int(other)
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self.terms == other.terms

    def __lt__(self, other):
        if isinstance(other, int):
            other = Ordinal.from_int(other)
        if not isinstance(other, Ordinal):
            return NotImplemented
        for (e1, c1), (e2, c2) in zip(self.terms, other.terms):
            if e1 != e2:
                return e1 < e2
            if c1 != c2:
                return c1 < c2
        return len(self.terms) < len(other.terms)

    def __hash__(self):
        return hash(("Ordinal", self.terms))

    # -- text ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        out = []
        for e, c in self.terms:
            if e == 0:
                out.append(str(c))
            elif e == 1:
                out.append("w" if c == 1 else "w*%d" % c)
            else:
                out.append("w^%d" % e if c == 1 else "w^%d*%d" % (e, c))
        return " + ".join(out)

    def __repr__(self):
        return "Ordinal(%r)" % (self.terms,)


_TERM_RE = re.compile(
    r"""^(?:
            (?P<fin>\d+)
          | w (?:\^(?P<exp>\d+))? (?:\*(?P<coeff>\d+))?
        )$""",
    re.VERBOSE,
)


def parse_ordinal(text):
    """Inverse of str(Ordinal).  Raises ValueError on junk."""
    text = text.strip()
    if text == "0":
        return Ordinal()
    terms = []
    for chunk in text.split("+"):
        m = _TERM_RE.match(chunk.strip())
        if m is None:
            raise ValueError("cannot parse ordinal term %r" % chunk.strip())
        if m.group("fin") is not None:
            terms.append((0, int(m.group("fin"))))
        else:
            e = int(m.group("exp")) if m.group("exp") else 1
            c = int(m.group("coeff")) if m.group("coeff") else 1
            terms.append((e, c))
    return Ordinal(terms)


ZERO = Ordinal()
ONE = Ordinal.from_int(1)
OMEGA = Ordinal.omega()
