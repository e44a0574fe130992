"""Interval branch-and-bound verification of the continuous optimisation
steps.

The independent side is mpmath: `mpmath.iv` at 300 bits encloses the exact
result of each interval operation, `mpmath.mp` at 40 digits gives each
objective value and, through `mp.diff`, each derivative, and dense samples
of the original (unreduced) objectives bound every maximum from below.
"""

import dataclasses
import functools
import itertools
import math
import random

import pytest
from mpmath import iv, mp

from cyclecount.analytic import (
    RATIO,
    VerificationError,
    _concave,
    _dual_A,
    _f_iv,
    _g_c,
    _maximise,
    _power_exp,
    f_properties,
    final_constant,
    maximize_g_c,
    maximize_g_uw,
    solve_A,
    verify_mindeg_chain,
    verify_rangec,
)
from cyclecount.bounds import RATIO_UPPER
from cyclecount.interval import Interval

INF = math.inf
# (c, x_u, x_w, z) with 1 <= c < 2 and 0 <= z <= x_u, x_w <= c: tuples with
# both clamps at 1, with both above it, with one of each, near c = 2 and
# with x_v = c
G_UW_PARAMS = [(1.0, 0.0, 0.0, 0.0), (1.5, 0.0, 0.0, 0.0), (1.9, 0.3, 0.2, 0.1),
               (1.2, 1.0, 0.5, 0.25), (1.99, 0.0, 0.0, 0.0), (1.99, 0.7, 0.05, 0.05),
               (1.7, 1.7, 0.4, 0.4), (1.3, 0.3, 0.0, 0.0), (1.6, 1.1, 1.6, 0.9)]
G_C_CS = [2.0, 2.25, 2.5, 3.0, 3.5, 4.0]
LAM = 1.5 * math.exp(-3.0) / 2  # the multiplier solve_A uses when c >= 3/2


@pytest.fixture(autouse=True)
def mpmath_precision():
    """iv at 300 bits and mp at 40 digits for each test, restored after."""
    saved = iv.prec, mp.prec
    iv.prec, mp.dps = 300, 40
    yield
    iv.prec, mp.prec = saved


def contains(enclosure, value) -> bool:
    """Whether the float pair enclosure holds value, an mpmath.iv interval
    or an mpf."""
    lo, hi = (value.a, value.b) if hasattr(value, "a") else (value, value)
    return enclosure[0] <= lo and hi <= enclosure[1]


def test_f_shape():
    r = f_properties()
    assert abs(r.max_value - 1 / math.e) <= 1e-12
    assert abs(r.argmax[0] - 1.0) <= 1e-6
    assert not r.on_boundary
    assert r.certified_upper >= r.max_value


def test_rangec_suprema():
    r = verify_rangec()
    assert abs(r.info["sup_low"] - math.e**2 / 2) <= 1e-12
    assert abs(r.info["sup_high"] - 8 / math.e) <= 1e-12
    assert r.info["sup_low"] < RATIO_UPPER
    assert r.info["sup_high"] < RATIO_UPPER
    assert r.max_value == pytest.approx(math.e**2 / 2)


def _g_c_original(c):
    """The slack product (c - x)(c_w - x) e^-(c_w - x) at one c."""
    return lambda x, w: (c - x) * (w - x) * mp.exp(x - w)


@pytest.mark.parametrize("c", G_C_CS)
def test_g_c_boundary_argmax(c):
    # the box's argmax (u, v) = (2, 0) lies in this c's domain, at the slack
    # floor x = c - 2 and c_w = c, where the original product takes the
    # proved maximum
    r = maximize_g_c()
    assert r.on_boundary and r.argmax[1] == 0.0
    assert r.argmax[0] == pytest.approx(2.0, abs=1e-5)
    x, w = c - 2.0, c
    assert 0 <= x <= c <= w <= 4
    assert r.max_value - 1e-12 <= _g_c_original(c)(mp.mpf(x), mp.mpf(w)) <= r.certified_upper
    assert r.info["scaled_value"] < RATIO_UPPER


def test_g_c_scaled_value_at_2_is_exactly_4():
    r = maximize_g_c()
    assert r.info["scaled_value"] == pytest.approx(4.0, abs=1e-9)
    assert 4.0 <= r.info["scaled_upper"] <= 4.0 * (1 + 1e-9)
    # the rescaling (1/2) c e^(4-c) times the maximum, sampled over [2, 4],
    # peaks at c = 2
    rescaled = [c * mp.exp(4 - c) / 2 * 4 * mp.exp(-2) for c in _grid(2, 4, 201)]
    assert max(rescaled) == rescaled[0] <= r.info["scaled_upper"]


def _clamp(c, xv, s):
    return min(max(1, c - xv - s), 4 - xv - s)


def _phi(c, xu, xw):
    """phi(s) = f(q_u(s)) f(q_w(s)) e^-s, written from its definition."""
    def phi(s):
        qu, qw = _clamp(c, xu, s), _clamp(c, xw, s)
        return qu * qw * mp.exp(-qu - qw - s)

    return phi


def test_g_uw_derivative_formula():
    # phi' = e^-(s + q_u + q_w) ((q_u - 1)(q_w - 1) - 1), derived by hand and
    # used by maximize_g_uw only through its sign, against mp.diff
    rng = random.Random(11)
    for _ in range(300):
        c = mp.mpf(rng.uniform(1, 2))
        xu, xw = mp.mpf(rng.uniform(0, c)), mp.mpf(rng.uniform(0, c))
        s = mp.mpf(rng.uniform(0, 4 - max(xu, xw)))
        qu, qw = _clamp(c, xu, s), _clamp(c, xw, s)
        want = mp.exp(-s - qu - qw) * ((qu - 1) * (qw - 1) - 1)
        got = mp.diff(_phi(c, xu, xw), s)
        assert abs(got - want) <= 1e-20, (c, xu, xw, s)
        assert want <= 0


@functools.cache
def _g_uw_original_max(c, xu, xw, z):
    """The two-ended slack product on a grid of the original (x, c_u, c_w),
    including the maximiser (z, max(c, x_u + 1), max(c, x_w + 1))."""

    def value(x, cu, cw):
        a, b = cu - xu - x + z, cw - xw - x + z
        if a < 0 or b < 0:
            return mp.mpf("-inf")
        return a * b * mp.exp(-(cu + cw - xu - xw - x + z))

    x_hi = min(4 - xu, 4 - xw) + z
    cs = _grid(c, 4, 21) + [max(c, xu + 1), max(c, xw + 1)]
    return _dense_max(value, _grid(z, x_hi, 21), cs, cs)


@pytest.mark.parametrize("params", G_UW_PARAMS)
def test_g_uw_two_ended_slack(params):
    # each tuple's maximum is its closed form f(max(1, c - x_u)) f(max(1, c - x_w)),
    # at most the one proved supremum
    c, xu, xw, z = params
    closed = math.prod(q * math.exp(-q) for q in (max(1, c - xu), max(1, c - xw)))
    assert abs(_g_uw_original_max(*params) - closed) <= 1e-12
    assert closed <= maximize_g_uw().certified_upper


def test_g_uw_face_value_matches_closed_form():
    r = maximize_g_uw()
    c, xu, xw, z, x, cu, cw = map(mp.mpf, r.argmax)
    assert 1 <= c < 2 and 0 <= z <= min(xu, xw) and max(xu, xw) <= c <= min(cu, cw)
    assert x == z  # on the face s = 0
    value = (cu - xu - x + z) * (cw - xw - x + z) * mp.exp(-(cu + cw - xu - xw - x + z))
    assert r.on_boundary and r.info["boxes"] == 0
    assert r.max_value <= value <= r.certified_upper
    assert abs(value - r.info["closed_form"]) <= 1e-16


def _m_terms(m, r):
    """The m-term bound solve_A states: m times its per-term result."""
    return dataclasses.replace(r, max_value=m * r.max_value,
                               certified_upper=m * r.certified_upper)


@pytest.mark.parametrize("c", [1.0, 1.2, 1.5, 2.0])
@pytest.mark.parametrize("m", [1, 2])
def test_solve_A_closed_form(c, m):
    r = _m_terms(m, solve_A(c))
    zstar = min(c, 1.5)
    want = m * zstar**3 * math.exp(-2 * zstar)
    assert abs(r.max_value - want) <= 1e-3
    assert r.certified_upper >= want - 1e-12


def test_solve_A_covers_c_from_1_5_to_2():
    # z* = 3/2 and the multiplier do not move on [1.5, 2], and [1, c]^2 lies
    # in [1, 2]^2, so every such c gets the c = 2 proof
    at2 = solve_A(2.0)
    for c in _grid(1.5, 2.0, 6):
        r = solve_A(c)
        assert r.info["closed_form"] == at2.info["closed_form"] == 1.5**3 * math.exp(-3.0)
        assert r.info["multiplier"] == at2.info["multiplier"] == LAM
        assert (r.max_value, r.argmax, r.certified_upper) == (
            at2.max_value, at2.argmax, at2.certified_upper)


def _primal_m2(z1, z2, y1):
    """sum_i z_i^2 y_i e^-(z_i + y_i) with y_2 eliminated by the constraint."""
    y2 = (z1 * z1 + z2 * z2 - y1 * z1) / z2
    return sum(z * z * y * mp.exp(-z - y) for z, y in ((z1, y1), (z2, y2)))


def test_solve_A_lagrange_relation():
    # at the interior optimum the multiplier equality z = (y^2+y)/(3y-2) holds
    r = _m_terms(2, solve_A(2.0))
    assert not r.on_boundary
    z, y = r.argmax
    assert abs(z - (y * y + y) / (3 * y - 2)) <= 1e-2
    # the two-term primal with y_2 eliminated is stationary at (z_1, z_2, y_1),
    # with the value of twice the per-term bound
    point = (z, z, y)
    assert abs(_primal_m2(*map(mp.mpf, point)) - r.max_value) <= 1e-12
    for i in range(3):
        order = tuple(int(j == i) for j in range(3))
        assert abs(mp.diff(_primal_m2, point, order)) <= 1e-5


def test_solve_A_validates():
    with pytest.raises(ValueError):
        solve_A(0.5)
    with pytest.raises(ValueError):
        solve_A(2.5)


def test_final_constant():
    r = final_constant()
    assert abs(r.max_value - RATIO_UPPER) <= 1e-9
    assert abs(r.argmax[0] - 4 / 3) <= 1e-6
    assert not r.on_boundary

    # derivative changes sign across the optimum and vanishes at the argmax
    def h(z):
        return z**4 * mp.exp(5 - 3 * z) / 2

    assert mp.diff(h, 4 / 3 - 1e-3) > 0 > mp.diff(h, 4 / 3 + 1e-3)
    assert abs(mp.diff(h, r.argmax[0])) <= 1e-5


def test_mindeg_chain():
    r = verify_mindeg_chain()
    assert r.max_value == pytest.approx(4.0, abs=1e-12)
    assert r.max_value <= r.certified_upper < RATIO_UPPER
    assert r.argmax == (2.0,) and r.on_boundary


def test_verification_error_is_runtime_error():
    assert issubclass(VerificationError, RuntimeError)


# --- the interval arithmetic and the maximiser, against mpmath -------------

def _random_interval(rng):
    """Ends drawn from zeros, infinities and random floats; a third are
    points."""
    def end(infinite):
        pick = rng.random()
        return 0.0 if pick < 0.15 else infinite if pick < 0.3 else rng.uniform(-6, 6)

    a, b = sorted((end(-INF), end(INF)))
    if rng.random() < 0.3:
        a = b = next((e for e in (a, b) if math.isfinite(e)), 0.0)
    return a, b


def _iv(x):
    """x as an mpmath.iv interval with each infinite end moved to +-2^2000,
    beyond every float: mpmath takes 0 * inf as undefined and widens such a
    product to the whole line, while over the reals it is 0."""
    return iv.mpf([e if math.isfinite(e) else math.copysign(1, e) * mp.mpf(2) ** 2000
                   for e in x])


def test_interval_operations_enclose_mpmath():
    rng = random.Random(7)
    ops = [
        (lambda a, b: a + b, lambda a, b: a + b),
        (lambda a, b: a - b, lambda a, b: a - b),
        (lambda a, b: -a, lambda a, b: -a),
        (lambda a, b: a * b, lambda a, b: a * b),
        (lambda a, b: 2.5 - a, lambda a, b: 2.5 - a),
        (lambda a, b: 0.7 * a + 1, lambda a, b: iv.mpf(0.7) * a + 1),
        (lambda a, b: a.exp_neg(), lambda a, b: iv.exp(-a)),
    ]
    for _ in range(1000):
        x, y = _random_interval(rng), _random_interval(rng)
        for ours, theirs in ops:
            got = ours(Interval(*x), Interval(*y))
            assert contains(got, theirs(_iv(x), _iv(y))), (x, y, got)
        if x[0] > 0:
            assert contains(3 / Interval(*x), 3 / _iv(x)), x
    # exact zeros and unbounded tails, as the sign lemmas use them
    assert 1 - Interval(1.0, INF) == (-INF, 0.0)
    assert (1 - Interval(0.0, 1.0))[0] == 0.0
    assert Interval(0.0, INF) * Interval(0.0) == (0.0, 0.0)
    assert Interval(2.0, INF).exp_neg()[0] == 0.0
    assert Interval(-1000.0, 0.0).exp_neg()[1] == INF  # e^1000 overflows a float
    with pytest.raises(ValueError):
        1 / Interval(-1.0, 1.0)


# The interval operators as first written: one rounding helper call per end,
# and a - b as a + (-b). The written-out operators must give the same floats.
def _dn(x):
    return math.nextafter(x, -INF)


def _up(x):
    return math.nextafter(x, INF)


def _old_add(a, b):
    b0, b1 = b if isinstance(b, tuple) else (b, b)
    lo, hi = a[0] + b0, a[1] + b1
    return lo if lo == 0 else _dn(lo), hi if hi == 0 else _up(hi)


def _old_neg(a):
    return -a[1], -a[0]


def _old_mul(a, b):
    b = b if isinstance(b, tuple) else (b, b)
    if a[0] > 0 and b[0] > 0:
        return _dn(a[0] * b[0]), _up(a[1] * b[1])
    ends = [x * y for x in a for y in b if x and y]
    lo, hi = (_dn(min(ends)), _up(max(ends))) if ends else (0.0, 0.0)
    if len(ends) < 4:
        lo, hi = min(lo, 0.0), max(hi, 0.0)
    return lo, hi


def _old_exp_neg(a):
    lo = _dn(_dn(math.exp(min(-a[1], 709.0))))
    hi = _up(_up(math.exp(-a[0]))) if a[0] > -709.0 else INF
    return max(0.0, lo), hi


def _bits(pair):
    """The two ends as hex strings, so that 0.0 and -0.0 differ."""
    return tuple(float(e).hex() for e in pair)


def test_interval_operations_equal_the_composed_formulas():
    rng = random.Random(7)
    for _ in range(3000):
        x, y = _random_interval(rng), _random_interval(rng)
        a, b = Interval(*x), Interval(*y)
        s = rng.choice([0.0, -0.0, 0, 1, 2, rng.uniform(-6, 6), rng.uniform(0, 1e-300)])
        cases = [
            (a + b, _old_add(x, y)), (a + s, _old_add(x, s)), (s + a, _old_add(x, s)),
            (a + y, _old_add(x, y)),
            (a - b, _old_add(x, _old_neg(y))), (a - s, _old_add(x, -s)),
            (s - a, _old_add(_old_neg(x), s)), (a - y, _old_add(x, _old_neg(y))),
            (y - a, _old_add(_old_neg(x), y)),
            (-a, _old_neg(x)),
            (a * b, _old_mul(x, y)), (a * s, _old_mul(x, s)), (s * a, _old_mul(x, s)),
            (a * y, _old_mul(x, y)),
            (a.exp_neg(), _old_exp_neg(x)),
        ]
        if x[0] > 0:
            cases.append((3 / a, (_dn(3 / x[1]), _up(3 / x[0]))))
        for got, want in cases:
            assert type(got) is Interval and _bits(got) == _bits(want), (x, y, s, got, want)


def _power(scale, k, a, b):
    return lambda x: scale * x**k * mp.exp(a - b * x)


def _saddle():
    """-x^2 - y^2 + 3xy, its gradient and its Hessian (-2, -2, 3)."""
    def value(b):
        x, y = b
        return -(x * x) - y * y + 3 * x * y

    def grad(b):
        x, y = b
        return [-2 * x + 3 * y, -2 * y + 3 * x]

    return value, grad, lambda b: (Interval(-2.0), Interval(-2.0), Interval(3.0))


def _double_well():
    """-(x^2 - 1)^2 + x^3/50 - y^2, its gradient and its Hessian: concave
    around the peaks near (-1, 0) and (1, 0), the second higher by about
    0.04, and convex in x between them."""
    def value(b):
        x, y = b
        u = x * x - 1
        return -(u * u) + 0.02 * (x * x * x) - y * y

    def grad(b):
        x, y = b
        return [-4 * x * (x * x - 1) + 0.06 * (x * x), -2 * y]

    return value, grad, lambda b: (4 - 12 * (b[0] * b[0]) + 0.12 * b[0], Interval(-2.0),
                                   Interval(0.0))


def _objectives():
    """(name, value enclosure, gradient enclosure, domain, mp function,
    Hessian enclosure or None)."""
    out = [
        (f"power_exp{p}", *_power_exp(*p), dom, _power(*p), None)
        for p, dom in [((1, 1, 0, 1), [(0.0, 3.0)]), ((0.5, 2, 3, 1), [(0.0, 5.0)]),
                       ((0.5, 4, 5, 3), [(1.0, 1.5)]), ((0.5, 3, 4, 2), [(2.0, 6.0)]),
                       ((2, 1, 2, 1), [(2.0, 6.0)])]
    ]
    out.append(("f_iv", lambda b: _f_iv(b[0]), lambda b: [], [(0.0, 4.0)],
                lambda x: x * mp.exp(-x), None))
    out.append(("g_c", *_g_c(), [(0.0, 4.0), (0.0, 2.0)],
                lambda u, v: u * (u + v) * mp.exp(-u - v), None))
    # on each c's domain [0, c] x [0, 4 - c], the original product at
    # x = c - u and c_w = c + v
    for c in (2.0, 2.5, 4.0):
        out.append((f"g_c({c})", *_g_c(), [(0.0, c), (0.0, 4.0 - c)],
                    lambda u, v, c=c: _g_c_original(c)(c - u, c + v), None))
    value, grad, hess = _dual_A(LAM)
    out.append(("dual_A", value, grad, [(1.0, 2.0), (1.0, 2.0)],
                lambda z, y: z * z * y * mp.exp(-z - y) - LAM * z * (z - y), hess))
    value, grad, hess = _saddle()
    out.append(("saddle", value, grad, [(-1.0, 1.0), (-1.0, 1.0)],
                lambda x, y: -x * x - y * y + 3 * x * y, hess))
    value, grad, hess = _double_well()
    out.append(("double_well", value, grad, [(-1.7, 1.3), (-1.0, 1.0)],
                lambda x, y: -(x * x - 1) ** 2 + x**3 / 50 - y * y, hess))
    return out


# the Hessian enclosure (f_xx, f_yy, f_xy) as mp.diff orders
HESS_ORDERS = [(2, 0), (0, 2), (1, 1)]


@pytest.mark.parametrize("name,value,grad,domain,mp_fn,hess", _objectives(),
                         ids=[o[0] for o in _objectives()])
def test_value_and_gradient_enclosures_contain_mpmath(name, value, grad, domain, mp_fn, hess):
    rng = random.Random(name)
    for _ in range(40):
        box = []
        for lo, hi in domain:
            a, b = sorted(rng.uniform(lo, hi) for _ in range(2))
            box.append(Interval(a, a if rng.random() < 0.3 else b))
        box = tuple(box)
        enclosure, slopes = value(box), grad(box)
        curvatures = [] if hess is None else list(zip(hess(box), HESS_ORDERS))
        points = list(itertools.product(*box))
        points += [tuple(rng.uniform(lo, hi) for lo, hi in box) for _ in range(3)]
        for p in points:
            assert contains(enclosure, mp_fn(*map(mp.mpf, p))), (name, box, p)
            for i, slope in enumerate(slopes):
                order = tuple(int(j == i) for j in range(len(p)))
                assert contains(slope, mp.diff(mp_fn, p, order)), (name, box, p, i)
            for curvature, order in curvatures:
                assert contains(curvature, mp.diff(mp_fn, p, order)), (name, box, p, order)


def _grid(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _dense_max(fn, *axes):
    return max(fn(*map(mp.mpf, p)) for p in itertools.product(*axes))


def _primal_feasible_max(c, m):
    """The product sum at the feasible grid points, y_m eliminated."""
    if m == 1:  # z^2 = y z forces y = z
        return _dense_max(lambda z: z**3 * mp.exp(-2 * z), _grid(1, c, 401))

    def feasible(z1, z2, y1):
        y2 = (z1 * z1 + z2 * z2 - y1 * z1) / z2
        return _primal_m2(z1, z2, y1) if 1 <= y2 <= c else mp.mpf("-inf")

    return _dense_max(feasible, *[_grid(1, c, 21)] * 3)


def _dense_cases():
    cases = [
        (f_properties, lambda: _dense_max(lambda x: x * mp.exp(-x), _grid(0, 20, 2001))),
        (verify_rangec, lambda: _dense_max(lambda c: c * c * mp.exp(3 - c) / 2,
                                           _grid(0, 1, 101) + _grid(4, 20, 1601))),
        (final_constant, lambda: _dense_max(_power(0.5, 4, 5, 3), _grid(1, 1.5, 501))),
        (verify_mindeg_chain,
         lambda: max(_dense_max(_power(0.5, 3, 4, 2), _grid(2, 30, 281)),
                     _dense_max(_power(2, 1, 2, 1), _grid(2, 30, 281)))),
    ]
    # one proof for every c in [2, 4] and every (c, x_u, x_w, z), each grid
    # holding its maximiser
    for c in G_C_CS:
        cases.append((lambda: maximize_g_c(), lambda c=c: _dense_max(
            _g_c_original(c), _grid(0, c, 81) + [c - 2], _grid(c, 4, 41))))
    for params in G_UW_PARAMS:
        cases.append((lambda: maximize_g_uw(), lambda p=params: _g_uw_original_max(*p)))
    for c in (1.2, 1.5, 1.75, 2.0):
        for m in (1, 2):
            cases.append((lambda c=c, m=m: _m_terms(m, solve_A(c)),
                          lambda c=c, m=m: _primal_feasible_max(c, m)))
    return cases


@pytest.mark.parametrize("solve,sample", _dense_cases())
def test_certified_upper_dominates_a_dense_mpmath_sample(solve, sample):
    r = solve()
    best = sample()
    assert best <= r.certified_upper
    # and the bound is tight: the best value found is the sampled maximum
    assert r.max_value >= best - 1e-12
    assert r.certified_upper - r.max_value <= 1e-12


def test_certified_upper_brackets_known_maxima():
    # the maximum of h on [1, 1.5] is 128e/81 and that of g_c is 4 e^-2: each
    # certified bound lies at or above it and within the tolerance
    upper = _maximise(*_power_exp(0.5, 4, 5, 3), [(1.0, 1.5)]).certified_upper
    assert RATIO[0] <= upper <= RATIO_UPPER + 1e-9
    assert upper > RATIO_UPPER - 1e-6
    upper = _maximise(*_g_c(), [(0.0, 4.0), (0.0, 2.0)]).certified_upper
    assert upper > 4 * math.exp(-2) - 1e-6


def test_maximiser_proves_where_the_maximum_lies():
    value, grad, hess = _dual_A(LAM)
    interior = _maximise(value, grad, [(1.0, 2.0), (1.0, 2.0)], hess)
    assert not interior.on_boundary and interior.info["boxes"] > 1
    assert interior.argmax == pytest.approx((1.5, 1.5), abs=1e-5)
    # a strictly falling function collapses onto its left end in one step
    falling = _maximise(*_power_exp(2, 1, 2, 1), [(2.0, 30.0)])
    assert falling.on_boundary and falling.argmax == (2.0,)
    assert falling.info["boxes"] == 1


def test_tangent_bound_closes_the_product_sum_and_only_it():
    # the boxes around the interior maximum (3/2, 3/2) of the c >= 3/2 dual
    # are concave, so their tangent planes close the proof without bisecting
    # them to TOL; a maximisation without a Hessian takes no tangent bound
    r = solve_A(2.0)
    assert r.info["tangent_boxes"] > 0 and r.info["boxes"] <= 50
    for res in (maximize_g_c(), final_constant(),
                _maximise(*_dual_A(LAM)[:2], [(1.0, 2.0), (1.0, 2.0)])):
        assert res.info["tangent_boxes"] == 0


def test_indefinite_hessian_takes_no_tangent_bound():
    # the diagonal is negative but the determinant 4 - 9 is not, so no box
    # is proved concave; the tangent plane at the midpoint 0 would bound the
    # whole box by f(0) = 0, below the maximum 1 at (1, 1) and (-1, -1)
    value, grad, hess = _saddle()
    r = _maximise(value, grad, [(-1.0, 1.0), (-1.0, 1.0)], hess)
    assert r.certified_upper >= 1
    assert r.max_value == pytest.approx(1.0, abs=1e-12)
    assert r.on_boundary and r.info["tangent_boxes"] == 0


def test_tangent_point_is_clamped_into_the_box():
    # the best point may lie near the lower peak when a concave box around
    # the higher one is bounded; a tangent plane there passes the convex
    # valley and lies about 0.04 below the higher peak, f(1, 0) = 0.02
    value, grad, hess = _double_well()
    r = _maximise(value, grad, [(-1.7, 1.3), (-1.0, 1.0)], hess)
    assert r.info["tangent_boxes"] > 0
    assert r.certified_upper >= r.max_value >= 0.02
    assert r.argmax == pytest.approx((1.0, 0.0), abs=0.01)


@pytest.mark.parametrize("h, concave", [
    ((Interval(-2.0), Interval(-3.0), Interval(-1.0, 2.0)), True),  # 6 - 4 > 0
    # a determinant of exactly 0: each product is rounded outward, so their
    # difference is not proved >= 0
    ((Interval(-4.0, -1.0), Interval(-1.0), Interval(-1.0, 1.0)), False),
    ((Interval(-2.0), Interval(-2.0), Interval(3.0)), False),  # 4 - 9 < 0
    ((Interval(-1.0, 0.5), Interval(-5.0), Interval(0.0)), False),  # a may be > 0
])
def test_concave_needs_a_proved_negative_semidefinite_enclosure(h, concave):
    assert _concave(h) is concave


def test_monotone_claims_hold_on_unbounded_tails():
    # a sign lemma on the tail places each supremum at the tail's finite end,
    # so it takes one enclosure there and no maximiser box
    for r in (f_properties(), verify_rangec(), verify_mindeg_chain()):
        assert r.info["boxes"] == 0
    assert verify_rangec().info["sup_high"] == pytest.approx(8 / math.e, abs=1e-12)
