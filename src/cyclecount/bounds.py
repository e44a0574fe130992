"""Closed-form ceilings for rooted induced k-cycle counts and the global
count, plus the inducibility bracket and exact density sequences.

Every bound takes raw integer degree data and returns a float. Soundness
comparisons against exact counts inflate the float bound by a relative
epsilon (default 1e-12) so that decimal rounding can never turn a true
inequality into a spurious violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

RATIO_UPPER = 128 * math.e / 81   # headline per-vertex constant, ~4.295553
PG_CONSTANT = 2 * math.e          # global constant, ~5.436564
REL_EPS = 1e-12


def vertex_bound(n: int, k: int, d: int) -> float:
    """Ceiling on the number of induced k-cycles through a vertex of degree d
    in an n-vertex graph: (1/2) d^2 ((n-d-1)/(k-3))^(k-3). Needs k >= 4.
    """
    if k < 4:
        raise ValueError(f"vertex bound needs k >= 4, got {k}")
    if not 0 <= d <= n - 1:
        raise ValueError(f"degree {d} impossible with n={n}")
    return 0.5 * d * d * ((n - d - 1) / (k - 3)) ** (k - 3)


def vertex_bound_relaxed(n: int, k: int, d: float) -> float:
    """The relaxed form (1/2) d^2 ((n-d)/(k-3))^(k-3), maximized over real d
    at d = 2n/(k-1) with value 2 (n/(k-1))^(k-1).
    """
    if k < 4:
        raise ValueError(f"vertex bound needs k >= 4, got {k}")
    if not 0 <= d <= n:
        raise ValueError(f"degree {d} impossible with n={n}")
    return 0.5 * d * d * ((n - d) / (k - 3)) ** (k - 3)


def edge_bound(n: int, k: int, d_v: int, d_w: int, x_vw: int) -> float:
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
    return (d_v - x_vw) * (d_w - x_vw) * (ground / (k - 4)) ** (k - 4)


def cherry_bound(n: int, k: int, d_u: int, d_v: int, d_w: int,
                 x_uv: int, x_vw: int, x_uw: int, z_uvw: int) -> float:
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
    return left * right * (ground / (k - 5)) ** (k - 5)


def global_pg_bound(n: int, k: int) -> float:
    """Global ceiling 2e (n/k)^k on the induced k-cycle count (n >= k >= 4)."""
    if k < 4:
        raise ValueError(f"global bound needs k >= 4, got {k}")
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    return PG_CONSTANT * (n / k) ** k


def inducibility_bracket(k: int) -> tuple[Fraction, float]:
    """(lower, upper) bracket for the limiting induced k-cycle density.

    lower = k!/(k^k - k) is exact and holds for k >= 5 (iterated blow-up
    witness); upper = (128e/81) k!/k^k, proved for k >= 6 (for k = 5 the
    value is still returned and is a true but unproven-sharp ceiling there,
    being larger than the k = 5 lower bound).
    """
    if k < 5:
        raise ValueError(f"bracket needs k >= 5, got {k}")
    fact = math.factorial(k)
    lower = Fraction(fact, k**k - k)
    upper = RATIO_UPPER * fact / k**k
    return lower, upper


@dataclass
class DensityReport:
    """Exact induced-cycle densities I(n)/C(n,k) with monotonicity flags."""

    k: int
    densities: list[tuple[int, Fraction]]
    violations: list[int] = field(default_factory=list)

    @property
    def monotone(self) -> bool:
        return not self.violations


def density_sequence(k: int, counts_by_n: dict[int, int]) -> DensityReport:
    """Exact rational densities for consecutive n; flags every n whose
    density exceeds its predecessor's. Raises on gaps in the n range.
    """
    ns = sorted(counts_by_n)
    if not ns:
        raise ValueError("empty count map")
    if ns[0] < k:
        raise ValueError(f"count at n={ns[0]} below k={k}")
    if ns != list(range(ns[0], ns[-1] + 1)):
        raise ValueError(f"n values must be consecutive, got {ns}")
    densities = [(n, Fraction(counts_by_n[n], math.comb(n, k))) for n in ns]
    violations = [
        densities[i][0]
        for i in range(1, len(densities))
        if densities[i][1] > densities[i - 1][1]
    ]
    return DensityReport(k=k, densities=densities, violations=violations)
