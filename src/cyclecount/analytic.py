"""Interval-proved verification of the scalar optimisation facts behind the
per-vertex ceiling constant 128e/81 = max over z of (1/2) z^4 e^(5 - 3z).

Every `certified_upper` is a proved upper bound of the maximum, not a grid
value plus an allowance (Tucker, Validated Numerics, 2011): it comes from
outward-rounded intervals (`interval.Interval`), either through one
branch-and-bound maximiser, `_maximise`, or, on a piece that a sign lemma
proves monotone, as one enclosure at the end of the piece the lemma names.
The maximiser bounds a box by the smaller of its natural and mean-value
enclosures; where the maximand supplies a Hessian enclosure, as the
product-sum dual does, a box proved concave is also bounded by its tangent
plane, so the box around an interior maximum closes without being bisected
to TOL (the c >= 3/2 product sum takes 35 boxes, 985 without the plane).

Monotonicity, also on the unbounded tails [1, inf), [2, inf) and [4, inf),
follows from a sign lemma: each derivative is a positive constant times an
exponential times a polynomial whose interval enclosure over the closed
range has one sign. A nonzero polynomial has isolated zeros, so the function
is strictly monotone there. A mandatory property that fails its proof
(boundary argmax, ceiling, closed form, monotonicity, concavity) raises
VerificationError.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .bounds import RATIO_UPPER
from .interval import Interval

TOL = 1e-13
MAX_BOXES = 100_000
INF = math.inf
E_INV = Interval(1.0).exp_neg()
RATIO = 128 * Interval(-1.0).exp_neg() * (1 / Interval(81.0))  # 128e/81


class VerificationError(RuntimeError):
    """A mandated analytic property failed its proof."""


@dataclass
class OptResult:
    """Proved upper bound of one maximisation, with the best point found."""

    max_value: float
    argmax: tuple[float, ...]
    on_boundary: bool
    certified_upper: float
    info: dict = field(default_factory=dict)


def _prove(claim: bool, what: str) -> None:
    if not claim:
        raise VerificationError(what)


def _f_iv(t: Interval) -> Interval:
    """x e^-x over the interval t, tight up to rounding: it rises to its
    maximum 1/e at x = 1 and falls after it."""
    ends = [x * Interval(x).exp_neg() for x in t]
    hi = E_INV[1] if t[0] < 1.0 < t[1] else max(e[1] for e in ends)
    return Interval(min(e[0] for e in ends), hi)


def _power_exp(scale, k, a, b):
    """Enclosures of scale x^k e^(a - bx) and of its derivative
    scale x^(k-1) e^(a - bx) (k - bx), for x >= 0."""

    def term(x, j):
        out = scale * (b * x - a).exp_neg()
        for _ in range(j):
            out = out * x
        return out

    return (lambda box: term(box[0], k)), (lambda box: [term(box[0], k - 1) * (k - b * box[0])])


def _at(params, x: float) -> Interval:
    """The enclosure of scale x^k e^(a - bx), params = (scale, k, a, b), at
    the point x: the supremum of a piece proved monotone towards x."""
    return _power_exp(*params)[0]((Interval(x),))


def _concave(h) -> bool:
    """Whether every symmetric matrix [[a, c], [c, b]] with a, b, c in the
    Intervals h = (a, b, c) is proved negative semidefinite. a <= a_hi < 0
    and b <= b_hi < 0 give ab >= a_hi b_hi, and c^2 <= max(|c|)^2, so the
    determinant ab - c^2 is at least a_hi b_hi - max(|c|)^2, computed in
    outward-rounded Intervals. Rounding widens both products, so a
    determinant of exactly 0 is not proved, and its box is bisected as any
    other is.
    """
    a, b, c = h
    m = Interval(max(-c[0], c[1]))
    return a[1] < 0 and b[1] < 0 and (Interval(-a[1]) * Interval(-b[1]) - m * m)[0] >= 0


def _maximise(value, grad, box, hess=None) -> OptResult:
    """Branch-and-bound maximum of a C^1 function over a box of intervals.

    value(b) encloses the function over a box b of Intervals and grad(b) its
    partial derivatives. A box whose partial derivative has a fixed strict
    sign collapses onto the face it points to, since no maximiser of the box
    lies off that face. Otherwise its bound is the smaller of the natural
    enclosure and the mean-value form. On a 2-D box, hess(b), if given,
    encloses (f_xx, f_yy, f_xy). Where `_concave` proves every matrix in it
    negative semidefinite, f lies below its tangent plane at any point p of
    the box (Hansen and Walster, Global Optimization Using Interval
    Analysis, 2004), so the upper end of f(p) + sum g_i(p) (b_i - p_i) is a
    third bound; p is the best point so far clamped into the box, and f(p)
    may raise the best value as a midpoint does. The least bound is kept,
    and info["tangent_boxes"] counts the boxes where it is the tangent one.
    The box with the largest bound is bisected on its widest side until
    that bound is within TOL of the best value proved at a point.
    on_boundary is proved: every box that may hold a maximiser lies on a
    face of the domain. Raises VerificationError if MAX_BOXES is reached.
    """
    heap, best, arg, seen, tangent = [], -INF, None, 0, 0

    def push(b):
        nonlocal best, arg, seen, tangent
        g = grad(b)
        face = tuple(Interval(s[1]) if d[0] > 0 else Interval(s[0]) if d[1] < 0 else s
                     for s, d in zip(b, g))
        if face != b:
            return push(face)
        seen += 1
        mid = tuple((lo + hi) / 2 for lo, hi in b)
        point = tuple(map(Interval, mid))
        at = value(point)
        if at[0] > best:
            best, arg = at[0], mid
        # a box of points is its own midpoint, so its enclosure is known
        whole = at if point == b else value(b)
        for side, m, d in zip(b, mid, g):
            at = at + d * (side - m)
        bound = min(whole[1], at[1])
        if hess is not None and point != b and _concave(hess(b)):
            p = tuple(min(max(x, lo), hi) for x, (lo, hi) in zip(arg, b))
            ip = tuple(map(Interval, p))
            plane = value(ip)
            if plane[0] > best:
                best, arg = plane[0], p
            for side, x, d in zip(b, p, grad(ip)):
                plane = plane + d * (side - x)
            if plane[1] < bound:
                bound, tangent = plane[1], tangent + 1
        heapq.heappush(heap, (-bound, seen, b))

    push(tuple(Interval(*side) for side in box))
    while -heap[0][0] - best > TOL:
        _, _, b = heapq.heappop(heap)
        i = max(range(len(b)), key=lambda j: b[j][1] - b[j][0])
        lo, hi = b[i]
        mid = (lo + hi) / 2
        if not lo < mid < hi or seen >= MAX_BOXES:
            raise VerificationError(f"no bound within {TOL} of the best value after {seen} boxes")
        push(b[:i] + (Interval(lo, mid),) + b[i + 1:])
        push(b[:i] + (Interval(mid, hi),) + b[i + 1:])
    on_boundary = all(any(lo == hi and lo in d for (lo, hi), d in zip(b, box))
                      for neg, _, b in heap if -neg >= best)
    return OptResult(best, arg, on_boundary, -heap[0][0],
                     {"boxes": seen, "tangent_boxes": tangent})


def f_properties() -> OptResult:
    """Prove the shape of f(x) = x e^-x on [0, inf): f' = e^-x (1 - x) makes
    it rise on [0, 1] and fall on [1, inf), so its maximum is 1/e at x = 1,
    and f'' = e^-x (x - 2) <= 0 makes it concave on [1, 2].
    """
    _prove((1 - Interval(0.0, 1.0))[0] >= 0, "x e^-x not increasing on [0, 1]")
    _prove((1 - Interval(1.0, INF))[1] <= 0, "x e^-x not decreasing on [1, inf)")
    _prove((Interval(1.0, 2.0) - 2)[1] <= 0, "x e^-x not concave on [1, 2]")
    lo, hi = _at((1, 1, 0, 1), 1.0)
    _prove(abs(lo - 1 / math.e) <= 1e-12, "max of x e^-x differs from 1/e")
    return OptResult(lo, (1.0,), False, hi, {"boxes": 0, "closed_form": 1 / math.e})


def verify_rangec() -> OptResult:
    """Prove the degree-ratio suprema of r(c) = (1/2) c^2 e^(3-c). As
    r' = (1/2) e^(3-c) c (2 - c), r rises on [0, 1] and falls on [4, inf),
    so they are r(1) = e^2/2 and r(4) = 8/e, both below 128e/81.
    """
    low, high = Interval(0.0, 1.0), Interval(4.0, INF)
    _prove((low * (2 - low))[0] >= 0, "low-range supremum not attained increasingly at c=1")
    _prove((high * (2 - high))[1] <= 0, "high-range supremum not attained decreasingly at c=4")
    at1, at4 = (_at((0.5, 2, 3, 1), c) for c in (1.0, 4.0))
    upper = max(at1[1], at4[1])
    _prove(upper <= RATIO[0], f"range supremum {upper} exceeds 128e/81")
    _prove(abs(at1[0] - math.e**2 / 2) <= 1e-12
           and abs(at4[0] - 8 / math.e) <= 1e-12, "range suprema differ from closed forms")
    return OptResult(at1[0], (1.0,), True, upper, {
        "boxes": 0, "closed_form": math.e**2 / 2, "sup_low": at1[0], "sup_high": at4[0]})


def _g_c():
    """Enclosures of u f(u + v) and of its gradient in (u, v)."""

    def grad(b):
        u, t = b[0], b[0] + b[1]
        dv = u * (1 - t) * t.exp_neg()  # u f'(u + v)
        return [_f_iv(t) + dv, dv]

    return (lambda b: b[0] * _f_iv(b[0] + b[1])), grad


def maximize_g_c() -> OptResult:
    """Maximise the slack product (c - x)(c_w - x) e^-(c_w - x) over
    [0, c] x [c, 4] for every c in [2, 4] at once, and prove that the
    rescaled value (1/2) c e^(4-c) max stays <= 4 < 128e/81.

    With u = c - x and v = c_w - c the product is u f(u + v), which does
    not contain c, over [0, c] x [0, 4 - c]. Each such domain lies inside
    the box [0, 4] x [0, 2] and contains the box's argmax (u, v) = (2, 0),
    which is proved on the boundary v = 0. So every c has the box's
    maximum 4/e^2, at x = c - 2 and c_w = c; argmax is reported as (u, v).
    (1/2) c e^(4-c) has the derivative (1/2) e^(4-c) (1 - c) <= 0 on [2, 4],
    so the rescaled value is largest at c = 2.
    """
    res = _maximise(*_g_c(), [(0.0, 4.0), (0.0, 2.0)])
    _prove(res.on_boundary, "interior argmax of the slack product")
    closed = 4 * math.exp(-2)
    _prove(abs(res.max_value - closed) <= 1e-12,
           f"slack product maximum {res.max_value} differs from 4/e^2")
    _prove((1 - Interval(2.0, 4.0))[1] <= 0, "rescaling not decreasing on [2, 4]")
    rescale = _at((0.5, 1, 4, 1), 2.0)
    scaled_upper = (rescale * res.certified_upper)[1]
    _prove(scaled_upper <= 4.0 * (1 + 1e-9), f"rescaled slack product {scaled_upper} exceeds 4")
    _prove(scaled_upper < RATIO[0], f"rescaled slack product {scaled_upper} not below 128e/81")
    res.info.update(closed_form=closed, scaled_value=rescale[0] * res.max_value,
                    scaled_upper=scaled_upper)
    return res


def maximize_g_uw() -> OptResult:
    """Prove the supremum e^-2 = f(1)^2 of the two-ended slack product
    (c_u - x_u - x + z)(c_w - x_w - x + z) e^-(c_u + c_w - x_u - x_w - x + z)
    over c <= c_u, c_w <= 4, x >= z, with both linear factors >= 0, for
    every 1 <= c < 2 and 0 <= z <= x_u, x_w <= c.

    With s = x - z, a = c_u - x_u - s and b = c_w - x_w - s it is
    f(a) f(b) e^-s. As f is unimodal, the best a for a fixed s is
    q_u(s) = min(max(1, c - x_u - s), 4 - x_u - s), and likewise q_w(s) for
    b. That leaves phi(s) = f(q_u) f(q_w) e^-s on [0, 4 - max(x_u, x_w)],
    with phi' = e^-(s + q_u + q_w) ((q_u - 1)(q_w - 1) - 1) in every regime.
    Each clamp lies in [0, 2], and a bilinear form on [0, 2]^2 is largest
    at a corner, where this one is at most 0. So phi falls from
    phi(0) = f(max(1, c - x_u)) f(max(1, c - x_w)) <= f(1)^2, which
    c = 1, x_u = x_w = z = x = 0, c_u = c_w = 1 attains; argmax is that
    point (c, x_u, x_w, z, x, c_u, c_w).
    """
    # q_v >= min(1, 4 - x_v - s) >= min(1, 0), as s <= 4 - max(x_u, x_w);
    # q_v <= max(1, c - x_v - s) <= max(1, 2 - 0 - 0), as c <= 2, x_v, s >= 0
    clamp = (min(1, 0), max(1, 2 - 0 - 0))
    corners = [(Fraction(a) - 1) * (Fraction(b) - 1) - 1 for a in clamp for b in clamp]
    _prove(max(corners) <= 0, f"phi' not <= 0 for clamps in {list(clamp)}")
    sup = E_INV * E_INV  # f <= 1/e, by f_properties
    return OptResult(sup[0], (1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0), True, sup[1],
                     {"boxes": 0, "closed_form": math.exp(-2)})


def _dual_A(lam):
    """Enclosures of z^2 y e^-(z+y) - lam z (z - y), of its gradient and of
    its Hessian (f_zz, f_yy, f_zy)."""

    def value(b):
        z, y = b
        return z * z * y * (z + y).exp_neg() - lam * z * (z - y)

    def grad(b):
        z, y = b
        e = (z + y).exp_neg()
        return [z * y * e * (2 - z) - lam * (2 * z - y), z * z * e * (1 - y) + lam * z]

    def hess(b):
        z, y = b
        e = (z + y).exp_neg()
        return (y * e * (2 - 4 * z + z * z) - 2 * lam, z * z * e * (y - 2),
                z * (2 - z) * e * (1 - y) + lam)

    return value, grad, hess


def solve_A(c: float) -> OptResult:
    """Maximise z^2 y e^-(z+y) subject to 1 <= y, z <= c and z^2 = y z, the
    per-term bound of sum_i z_i^2 y_i e^-(z_i + y_i) subject to
    1 <= y_i, z_i <= c and sum z_i^2 = sum y_i z_i, for c in [1, 2].

    Weak duality: a feasible point has sum z_i (z_i - y_i) = 0, so for any
    lam the m-term sum is at most m times the maximum over [1, c]^2 of
    z^2 y e^-(z+y) - lam z (z - y), that is m times this certified_upper.
    With z* = min(c, 3/2) and lam = z* e^(-2 z*)/2 the bound is attained at
    the feasible point y_i = z_i = z*, with value m z*^3 e^(-2 z*); the m = 2
    Lagrange relation z = (y^2 + y)/(3y - 2) at that shared y = z reads
    z = 3/2.

    For every c in [1.5, 2], z* and lam are those of c = 2 and
    [1, c]^2 lies in [1, 2]^2, so the one proof over [1, 2]^2 covers the
    piece. For c < 3/2 equality holds along the corner (c, c), which moves
    with c, so each such c is proved on its own.
    """
    if not 1.0 <= c <= 2.0:
        raise ValueError(f"need 1 <= c <= 2, got {c}")
    z_star = min(c, 1.5)
    lam = z_star * math.exp(-2 * z_star) / 2
    side = (1.0, c if c < 1.5 else 2.0)
    value, grad, hess = _dual_A(lam)
    dual = _maximise(value, grad, [side, side], hess)
    closed = z_star**3 * math.exp(-2 * z_star)
    _prove(dual.certified_upper <= closed * (1 + 1e-9),
           f"dual bound {dual.certified_upper} exceeds the closed form {closed}")
    z, y = dual.argmax
    interior = 1.0 + 1e-6 < z < side[1] - 1e-6
    _prove(not interior or max(abs(z - z_star), abs(y - z_star)) <= 1e-5,
           f"interior dual argmax {dual.argmax} is not within 1e-5 of z* = {z_star}")
    max_value = z**3 * math.exp(-2 * z)  # at the feasible point y = z
    _prove(abs(max_value - closed) <= 1e-3, f"maximum {max_value} differs from {closed}")
    return OptResult(max_value, (z, z), not interior, dual.certified_upper, {
        "boxes": dual.info["boxes"], "tangent_boxes": dual.info["tangent_boxes"],
        "closed_form": closed, "multiplier": lam})


def final_constant() -> OptResult:
    """Maximise h(z) = (1/2) z^4 e^(5 - 3z) on [1, 3/2]: interior argmax at
    z = 4/3 with value (1/2)(4/3)^4 e = 128e/81, the headline constant.
    h' = (1/2) e^(5-3z) z^3 (4 - 3z) is proved positive on [1, 4/3 - 1e-6]
    and negative on [4/3 + 1e-6, 3/2], which pins the argmax.
    """
    _prove((4 - 3 * Interval(1.0, 4 / 3 - 1e-6))[0] > 0
           and (4 - 3 * Interval(4 / 3 + 1e-6, 1.5))[1] < 0,
           "the sign of h' does not bracket the argmax at 4/3")
    res = _maximise(*_power_exp(0.5, 4, 5, 3), [(1.0, 1.5)])
    _prove(abs(res.max_value - RATIO_UPPER) <= 1e-9, f"maximum {res.max_value} is not 128e/81")
    _prove(abs(res.argmax[0] - 4 / 3) <= 1e-6, f"argmax {res.argmax[0]} is not within 1e-6 of 4/3")
    res.info["closed_form"] = RATIO_UPPER
    return res


def verify_mindeg_chain() -> OptResult:
    """Prove the two ceilings used when the scaled minimum degree
    c = k d / n is at least 2: (1/2) x^3 e^(4 - 2x) and 2 x e^(2 - x) fall on
    [2, inf), as their derivatives have the signs of x^2 (3 - 2x) and 1 - x,
    from their common value 4 at x = 2, which is below 128e/81.
    """
    tail = Interval(2.0, INF)
    _prove((tail * tail * (3 - 2 * tail))[1] <= 0, "cubic chain not decreasing on [2, inf)")
    _prove((1 - tail)[1] <= 0, "linear chain not decreasing on [2, inf)")
    cubic, linear = _at((0.5, 3, 4, 2), 2.0), _at((2, 1, 2, 1), 2.0)
    lo, hi = max(cubic[0], linear[0]), max(cubic[1], linear[1])
    _prove(hi <= RATIO[0], f"chain supremum {hi} exceeds 128e/81")
    _prove(abs(lo - 4.0) <= 1e-12, f"chain supremum {lo} differs from 4")
    return OptResult(lo, (2.0,), True, hi, {"boxes": 0})
