"""The induced k-cycle count of the nested balanced C_k blow-up, from its
recurrence alone, for the tests that check the construction against it."""

import functools
from math import prod


@functools.cache
def recurrence(n: int, k: int) -> int:
    """R(n) = prod of the balanced part sizes + sum of R(part), R(a) = 0 for
    a < k. For k >= 5, C_k is prime, so an induced k-cycle of a C_k blow-up
    lies inside one part or meets every part once."""
    if n < k:
        return 0
    q, r = divmod(n, k)
    sizes = [q + 1] * r + [q] * (k - r)
    return prod(sizes) + sum(recurrence(a, k) for a in sizes)
