"""Closed intervals of floats whose arithmetic rounds outward, so every
result encloses the exact real one (Tucker, Validated Numerics, Princeton
2011). `analytic` builds its proofs on them.
"""

from __future__ import annotations

import math


def _dn(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _new(lo: float, hi: float) -> Interval:
    return tuple.__new__(Interval, (lo, hi))


class Interval(tuple):
    """The interval [lo, hi] as the pair (lo, hi); ends may be infinite and
    plain numbers mix in as points.

    Each operation moves its ends one float outward with `math.nextafter`,
    which covers the half-ulp error of a correctly rounded operation. A sum
    end of exactly 0 stays put: with gradual underflow a float sum is 0 only
    when the exact sum is. A zero factor gives an exact 0, also against an
    infinite end (0 * inf is taken as 0, the value of 0 times any real).
    exp moves two floats, because libm rounds it faithfully, not correctly.
    """

    __slots__ = ()

    def __new__(cls, lo: float, hi: float | None = None):
        return tuple.__new__(cls, (lo, lo if hi is None else hi))

    def __add__(a, b):
        b0, b1 = b if isinstance(b, tuple) else (b, b)
        lo, hi = a[0] + b0, a[1] + b1
        return _new(lo if lo == 0 else _dn(lo), hi if hi == 0 else _up(hi))

    __radd__ = __add__

    def __neg__(a):
        return _new(-a[1], -a[0])

    def __sub__(a, b):
        return a + -b

    def __rsub__(a, b):
        return -a + b

    def __mul__(a, b):
        b = b if isinstance(b, tuple) else (b, b)
        if a[0] > 0 and b[0] > 0:
            return _new(_dn(a[0] * b[0]), _up(a[1] * b[1]))
        ends = [x * y for x in a for y in b if x and y]
        lo, hi = (_dn(min(ends)), _up(max(ends))) if ends else (0.0, 0.0)
        if len(ends) < 4:  # some end product has a zero factor and is exactly 0
            lo, hi = min(lo, 0.0), max(hi, 0.0)
        return _new(lo, hi)

    __rmul__ = __mul__

    def __rtruediv__(a, num: float):
        """num / a, for num >= 0 and a of positive numbers."""
        if not (num >= 0 and a[0] > 0):
            raise ValueError(f"{num} / {tuple(a)} needs num >= 0 and a > 0")
        return _new(_dn(num / a[1]), _up(num / a[0]))

    def exp_neg(a):
        """e^-x over the interval; an end past e^709 is widened, not raised."""
        lo = _dn(_dn(math.exp(min(-a[1], 709.0))))
        hi = _up(_up(math.exp(-a[0]))) if a[0] > -709.0 else math.inf
        return _new(max(0.0, lo), hi)
