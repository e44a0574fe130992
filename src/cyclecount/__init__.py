"""Exact induced-cycle counting, constructions, bounds, and verification."""

from .graph import Graph, from_edge_list
from .counting import (
    CountReport,
    count_cherry_rooted,
    count_containing_pair,
    count_edge_rooted,
    count_fast,
    count_oracle,
    count_rooted,
    is_induced_cycle,
    symmetrise,
)
from .constructions import (
    blow_up,
    complete_bipartite,
    complete_graph,
    cycle,
    iterated_blow_up,
    iterated_blowup_cycle_count,
    petersen,
    random_graph,
)
from .bounds import (
    PG_CONSTANT,
    RATIO_UPPER,
    cherry_bound,
    edge_bound,
    global_pg_bound,
    vertex_bound,
)
from .search import SearchResult, exhaustive_max, local_search_max
from .analytic import (
    OptResult,
    VerificationError,
    f_properties,
    final_constant,
    maximize_g_c,
    maximize_g_uw,
    solve_A,
    verify_mindeg_chain,
    verify_rangec,
)

__version__ = "0.1.0"

__all__ = [
    "CountReport",
    "Graph",
    "OptResult",
    "PG_CONSTANT",
    "RATIO_UPPER",
    "SearchResult",
    "VerificationError",
    "blow_up",
    "cherry_bound",
    "complete_bipartite",
    "complete_graph",
    "count_cherry_rooted",
    "count_containing_pair",
    "count_edge_rooted",
    "count_fast",
    "count_oracle",
    "count_rooted",
    "cycle",
    "edge_bound",
    "exhaustive_max",
    "f_properties",
    "final_constant",
    "from_edge_list",
    "global_pg_bound",
    "is_induced_cycle",
    "iterated_blow_up",
    "iterated_blowup_cycle_count",
    "local_search_max",
    "maximize_g_c",
    "maximize_g_uw",
    "petersen",
    "random_graph",
    "solve_A",
    "symmetrise",
    "verify_mindeg_chain",
    "verify_rangec",
    "vertex_bound",
]
