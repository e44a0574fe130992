"""The host's speed, measured with fixed loads of the benchmark's own.

The benchmark runs on a few cores of a shared host. Other tenants' load
slows every process on it and the slowdown drifts over minutes: one pass of
fixed work read anywhere from 5.3 to 8.0 s within a few minutes. So a tick,
runs of a fixed load lasting a twentieth of the operation before it, is
taken after every timed operation, and a pass's time is scaled by the
load's reference time over its mean time in the ticks of that pass. Times
are thus reported in seconds at the speed at which the load takes its
reference time, near the fastest it ran on the 2-vCPU Xeon VM the
baselines were taken on. One run of a load can take half as long again as
the run before it, so a tick is many runs.

Contention slows interpreted code far more than vectorised numpy code, so
there are two loads, one of each kind, and each workload is scaled by the
kind its time is mostly made of. Scaled by the interpreted load, the
numpy-heavy `certify` workload spread by 24% over six runs, 12% unscaled.
Both loads live here so that no change to cyclecount can change them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

TICK_SHARE = 0.05       # a tick lasts this share of the time it follows
_N, _P, _DEPTH = 40, 0.2, 3
_MASKS, _BITS = 1 << 18, (0, 3, 5, 8, 11, 13, 17, 19, 20, 2)


def _rows() -> list[int]:
    rng = random.Random("perfbench-speed")
    rows = [0] * _N
    for u in range(_N):
        for w in range(u + 1, _N):
            if rng.random() < _P:
                rows[u] |= 1 << w
                rows[w] |= 1 << u
    return rows


ROWS = _rows()


def _paths(tip: int, seen: int, depth: int) -> int:
    if depth == 0:
        return 1
    total = 0
    free = ROWS[tip] & ~seen
    while free:
        bit = free & -free
        free ^= bit
        total += _paths(bit.bit_length() - 1, seen | bit, depth - 1)
    return total


def paths() -> int:
    """Number of paths with _DEPTH edges in a fixed random graph: pure
    Python bitmask recursion, like cyclecount's counting kernel."""
    return sum(_paths(root, 1 << root, _DEPTH) for root in range(_N))


MASKS = np.arange(_MASKS, dtype=np.int32)
TABLE = (np.arange(1 << len(_BITS)) % 7 == 0).astype(np.uint8)


def sweep() -> int:
    """Table hits of bit patterns gathered from consecutive int32 masks,
    like cyclecount's exhaustive numpy sweep."""
    one = np.int32(1)
    pattern = np.zeros(MASKS.shape, dtype=np.int32)
    for ell, q in enumerate(_BITS):
        pattern |= ((MASKS >> np.int32(q)) & one) << np.int32(ell)
    return int(TABLE[pattern].sum())


@dataclass(frozen=True)
class Load:
    run: Callable[[], int]
    reference_s: float      # one run, about the fastest ticks seen in a run

    def tick(self, seconds: float) -> tuple[float, int]:
        """Runs the load once, and again until `seconds` have passed;
        returns (seconds taken, runs)."""
        start = perf_counter()
        runs = 0
        while True:
            self.run()
            runs += 1
            took = perf_counter() - start
            if took >= seconds:
                return took, runs

    def scale(self, seconds: float, ticks: list[tuple[float, int]]) -> float:
        """Seconds measured while these ticks were taken, at the
        reference speed."""
        return seconds * self.reference_s * sum(r for _, r in ticks) / sum(t for t, _ in ticks)


INTERPRETED = Load(paths, 0.0055)
VECTORISED = Load(sweep, 0.0040)
