"""Additive valuation values: exact rationals extended by +infinity.

Everything in this package works additively.  A multiplicative absolute
value ``|x| = eps**q`` (for a fixed formal base ``0 < eps < 1``) is stored
as the exact rational exponent ``q``; the value ``|x| = 0`` is stored as
the distinguished element ``INF``.  Under this encoding products become
sums, maxima become minima, and ``|x| <= |y|`` becomes ``v(x) >= v(y)``.
All comparisons are exact rational comparisons.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering

__all__ = ["Val", "INF", "vmin", "vsum"]

_INF_TAG = object()


@total_ordering
class Val:
    """An element of Q union {+infinity}, totally ordered, with INF
    absorbing addition.  Immutable and hashable."""

    __slots__ = ("_q",)

    def __init__(self, value=0):
        if type(value) is Fraction:
            self._q = value
        elif value is _INF_TAG:
            self._q = None
        elif isinstance(value, Val):
            self._q = value._q
        else:
            self._q = Fraction(value)

    @property
    def is_inf(self) -> bool:
        return self._q is None

    @property
    def fraction(self) -> Fraction:
        """The finite value; raises on INF."""
        if self._q is None:
            raise ValueError("infinite valuation has no rational value")
        return self._q

    def __add__(self, other):
        if type(other) is not Val:
            other = _coerce(other)
        if self._q is None or other._q is None:
            return INF
        return Val(self._q + other._q)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Val:
            other = _coerce(other)
        if other._q is None:
            raise ValueError("cannot subtract an infinite valuation")
        if self._q is None:
            return INF
        return Val(self._q - other._q)

    def __mul__(self, scalar):
        # Scalar multiple by an exact rational.  n * INF is only defined
        # for positive n (eps**(n*q) with q = infinity stays 0).
        scalar = Fraction(scalar)
        if self._q is None:
            if scalar <= 0:
                raise ValueError("INF may only be scaled by a positive rational")
            return INF
        return Val(self._q * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        if self._q is None:
            raise ValueError("cannot negate an infinite valuation")
        return Val(-self._q)

    def __eq__(self, other):
        if type(other) is not Val:
            try:
                other = _coerce(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self._q == other._q

    # INF (stored as None) is the top of the order.  Only __lt__ is written
    # out: every comparison of Vals in the package (vmin, min, sorted, the
    # valuation-ring checks) is a <, so total_ordering derives <=, > and >=
    # from __lt__ and __eq__ for outside callers, at two calls each
    def __lt__(self, other):
        if type(other) is not Val:
            other = _coerce(other)
        a, b = self._q, other._q
        return a is not None and (b is None or a < b)

    def __hash__(self):
        return hash(("Val", self._q))

    def __repr__(self):
        return "INF" if self._q is None else f"Val({self._q})"

    def __str__(self):
        return "inf" if self._q is None else str(self._q)


def _coerce(x) -> Val:
    if isinstance(x, Val):
        return x
    if isinstance(x, (int, Fraction)):
        return Val(x)
    raise TypeError(f"cannot interpret {x!r} as a valuation value")


#: The additive image of absolute value zero; maximum of the order.
INF = Val(_INF_TAG)


def vmin(values) -> Val:
    """Exact minimum of an iterable of Val; INF for an empty iterable."""
    best = INF
    for v in values:
        v = _coerce(v)
        if v < best:
            best = v
    return best


def vsum(values) -> Val:
    """Exact sum of an iterable of Val (INF absorbs); 0 for empty."""
    total = Val(0)
    for v in values:
        total = total + v
    return total
