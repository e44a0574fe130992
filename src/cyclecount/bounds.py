"""Closed-form ceilings for rooted induced k-cycle counts.

The vertex, edge and cherry ceilings take integer degree data and return
the exact `Fraction`, so a count is compared with them in rational
arithmetic. The headline constant 128e/81 and the global ceiling
2e (n/k)^k contain e; the suites check a count against e times a rational
r only as count / r <= a float proved to be at most e (the lower end of an
interval enclosure), never against a rounded float product.
"""

from __future__ import annotations

import math
from fractions import Fraction

RATIO_UPPER = 128 * math.e / 81   # headline per-vertex constant, ~4.295553


def vertex_bound(n: int, k: int, d: int) -> Fraction:
    """Ceiling on the number of induced k-cycles through a vertex of degree d
    in an n-vertex graph: (1/2) d^2 ((n-d-1)/(k-3))^(k-3). Needs k >= 4.
    """
    if k < 4:
        raise ValueError(f"vertex bound needs k >= 4, got {k}")
    if not 0 <= d <= n - 1:
        raise ValueError(f"degree {d} impossible with n={n}")
    return Fraction(d * d * (n - d - 1) ** (k - 3), 2 * (k - 3) ** (k - 3))


def edge_bound(n: int, k: int, d_v: int, d_w: int, x_vw: int) -> Fraction:
    """Ceiling on induced k-cycles through a fixed edge vw with codegree x_vw:
    (d_v - x)(d_w - x)((n - d_v - d_w + x)/(k-4))^(k-4). Needs k >= 5.
    """
    if k < 5:
        raise ValueError(f"edge bound needs k >= 5, got {k}")
    if x_vw < 0 or x_vw > min(d_v, d_w):
        raise ValueError(f"codegree {x_vw} exceeds min degree {min(d_v, d_w)}")
    ground = n - d_v - d_w + x_vw
    if ground < 0:
        raise ValueError("inconsistent degree data: negative ground set")
    return Fraction((d_v - x_vw) * (d_w - x_vw) * ground ** (k - 4), (k - 4) ** (k - 4))


def cherry_bound(n: int, k: int, d_u: int, d_v: int, d_w: int,
                 x_uv: int, x_vw: int, x_uw: int, z_uvw: int) -> Fraction:
    """Ceiling on induced k-cycles through an induced 2-path u-v-w, from
    exclusive-neighborhood sizes by inclusion-exclusion. Needs k >= 6.
    """
    if k < 6:
        raise ValueError(f"cherry bound needs k >= 6, got {k}")
    left = d_u - x_uv - x_uw + z_uvw
    right = d_w - x_vw - x_uw + z_uvw
    if left < 0 or right < 0:
        raise ValueError("negative inclusion-exclusion term: inconsistent codegrees")
    ground = n - d_u - d_v - d_w + x_uv + x_vw + x_uw - z_uvw
    if ground < 0:
        raise ValueError("negative inclusion-exclusion term: inconsistent ground set")
    return Fraction(left * right * ground ** (k - 5), (k - 5) ** (k - 5))
