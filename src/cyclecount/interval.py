"""Closed intervals of floats whose arithmetic rounds outward, so every
result encloses the exact real one (Tucker, Validated Numerics, Princeton
2011). `analytic` builds its proofs on them.

The operators are written out: each computes its two ends and rounds them
in place with `math.nextafter`, and a - b subtracts directly instead of
adding -b. The analytic suite makes about 10,500 of these calls; with a
helper call per end and a negated copy per subtraction it runs about a
fifth slower. a0 - b1 is the same IEEE result as a0 + (-b1), so every end
is the float the composed form gives.
"""

from __future__ import annotations

import math

_next = math.nextafter
_tuple_new = tuple.__new__
INF = math.inf


class Interval(tuple):
    """The interval [lo, hi] as the pair (lo, hi); ends may be infinite.
    Any tuple is taken as an interval, and plain numbers mix in as points.

    Each operation moves its ends one float outward with `math.nextafter`,
    which covers the half-ulp error of a correctly rounded operation. A sum
    end of exactly 0 stays put: with gradual underflow a float sum is 0 only
    when the exact sum is. A zero factor gives an exact 0, also against an
    infinite end (0 * inf is taken as 0, the value of 0 times any real).
    exp moves two floats, because libm rounds it faithfully, not correctly.
    """

    __slots__ = ()

    def __new__(cls, lo: float, hi: float | None = None):
        return _tuple_new(cls, (lo, lo if hi is None else hi))

    def __add__(a, b):
        if isinstance(b, tuple):
            lo, hi = a[0] + b[0], a[1] + b[1]
        else:
            lo, hi = a[0] + b, a[1] + b
        return _tuple_new(Interval, (lo if lo == 0 else _next(lo, -INF),
                                     hi if hi == 0 else _next(hi, INF)))

    __radd__ = __add__

    def __neg__(a):
        return _tuple_new(Interval, (-a[1], -a[0]))

    def __sub__(a, b):
        if isinstance(b, tuple):
            lo, hi = a[0] - b[1], a[1] - b[0]
        else:
            lo, hi = a[0] - b, a[1] - b
        return _tuple_new(Interval, (lo if lo == 0 else _next(lo, -INF),
                                     hi if hi == 0 else _next(hi, INF)))

    def __rsub__(a, b):
        if isinstance(b, tuple):
            lo, hi = b[0] - a[1], b[1] - a[0]
        else:
            lo, hi = b - a[1], b - a[0]
        return _tuple_new(Interval, (lo if lo == 0 else _next(lo, -INF),
                                     hi if hi == 0 else _next(hi, INF)))

    def __mul__(a, b):
        a0, a1 = a
        if isinstance(b, tuple):
            b0, b1 = b
        else:
            b0 = b1 = b
        if a0 > 0 and b0 > 0:
            return _tuple_new(Interval, (_next(a0 * b0, -INF), _next(a1 * b1, INF)))
        if a0 and a1 and b0 and b1:
            p, q, r, s = a0 * b0, a0 * b1, a1 * b0, a1 * b1
            return _tuple_new(Interval, (_next(min(p, q, r, s), -INF),
                                         _next(max(p, q, r, s), INF)))
        # some end product has a zero factor and is exactly 0
        ends = [x * y for x in (a0, a1) for y in (b0, b1) if x and y]
        lo, hi = (_next(min(ends), -INF), _next(max(ends), INF)) if ends else (0.0, 0.0)
        return _tuple_new(Interval, (min(lo, 0.0), max(hi, 0.0)))

    __rmul__ = __mul__

    def __rtruediv__(a, num: float):
        """num / a, for num >= 0 and a of positive numbers."""
        if not (num >= 0 and a[0] > 0):
            raise ValueError(f"{num} / {tuple(a)} needs num >= 0 and a > 0")
        return _tuple_new(Interval, (_next(num / a[1], -INF), _next(num / a[0], INF)))

    def exp_neg(a):
        """e^-x over the interval; an end past e^709 is widened, not raised."""
        lo = _next(_next(math.exp(min(-a[1], 709.0)), -INF), -INF)
        hi = _next(_next(math.exp(-a[0]), INF), INF) if a[0] > -709.0 else INF
        return _tuple_new(Interval, (max(0.0, lo), hi))
