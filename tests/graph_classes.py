"""Every isomorphism class of small graphs, for the tests that sweep them."""

import functools

from cyclecount.search import _canonical, _extend


@functools.cache
def all_classes(m: int) -> tuple[tuple[int, ...], ...]:
    """The full level sweep the search no longer runs: one canonical
    representative per class of m-vertex graphs, from every (m - 1)-vertex
    class extended by a vertex with every neighborhood."""
    if m == 1:
        return ((0,),)
    return tuple(sorted({
        _canonical(_extend(rows, s))
        for rows in all_classes(m - 1)
        for s in range(1 << (m - 1))
    }))
