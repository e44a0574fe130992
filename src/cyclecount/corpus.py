"""Fixed verification corpus: named constructions plus pinned random graphs.

The corpus backs the bound-soundness and per-vertex ceiling suites. Entries
marked heavy are large enough that edge- and cherry-level sweeps are skipped
for them (vertex-level and global checks still run).
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions import (
    blow_up,
    complete_bipartite,
    complete_graph,
    cycle,
    nested_blow_up,
    petersen,
    random_graph,
)
from .graph import Graph


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    graph: Graph
    heavy: bool = False


def standard_corpus() -> list[CorpusEntry]:
    c5 = cycle(5)
    entries = [
        CorpusEntry("cycle_6", cycle(6)),
        CorpusEntry("cycle_7", cycle(7)),
        CorpusEntry("cycle_8", cycle(8)),
        CorpusEntry("cycle_9", cycle(9)),
        CorpusEntry("complete_bipartite_3_3", complete_bipartite(3, 3)),
        CorpusEntry("complete_bipartite_4_4", complete_bipartite(4, 4)),
        CorpusEntry("complete_bipartite_2_5", complete_bipartite(2, 5)),
        CorpusEntry("complete_8", complete_graph(8)),
        CorpusEntry("petersen", petersen()),
        CorpusEntry("blowup_c5_t2", blow_up(c5, [2] * 5)),
        CorpusEntry("blowup_c6_t2", blow_up(cycle(6), [2] * 6)),
        CorpusEntry("blowup_c7_t2", blow_up(cycle(7), [2] * 7)),
        CorpusEntry("blowup_c5_t3", blow_up(c5, [3] * 5)),
        CorpusEntry("iterated_blowup_c5_d2", nested_blow_up(25, 5), heavy=True),
        CorpusEntry("random_9_p15_s23", random_graph(9, 0.15, 23)),
        CorpusEntry("random_10_p60_s17", random_graph(10, 0.6, 17)),
        CorpusEntry("random_12_p30_s7", random_graph(12, 0.3, 7)),
        CorpusEntry("random_13_p40_s19", random_graph(13, 0.4, 19)),
        CorpusEntry("random_14_p50_s11", random_graph(14, 0.5, 11)),
        CorpusEntry("random_16_p25_s13", random_graph(16, 0.25, 13)),
    ]
    return entries


DENSITIES = (0.2, 0.35, 0.5, 0.65)


def random_instances(count: int, n_lo: int, n_hi: int, seed: int) -> list[tuple[str, Graph]]:
    """Deterministic family of random graphs: sizes cycle through
    [n_lo, n_hi], densities cycle through DENSITIES, per-graph seeds come from
    SeedSequence(seed).generate_state(count)."""
    import numpy as np

    state = np.random.SeedSequence(seed).generate_state(count)
    out = []
    span = n_hi - n_lo + 1
    for i in range(count):
        n = n_lo + i % span
        p = DENSITIES[i % len(DENSITIES)]
        gseed = int(state[i])
        out.append((f"random_n{n}_p{int(p * 100)}_s{gseed}", random_graph(n, p, gseed)))
    return out
