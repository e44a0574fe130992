"""Exact induced-cycle counting, constructions, bounds, and verification."""

from .graph import DegreeProfile, Graph, complement, from_edge_list, profile
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
    BlowUpSpec,
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
    BoundReport,
    cherry_bound,
    density_sequence,
    edge_bound,
    global_pg_bound,
    inducibility_bracket,
    vertex_bound,
    vertex_bound_relaxed,
)
from .search import SearchResult, exhaustive_max, local_search_max, monotonicity_report

__version__ = "0.1.0"

# the analytic solvers need numpy, so they load on first access (PEP 562)
# and importing the package or its CLI does not import numpy
_ANALYTIC = frozenset({
    "OptProblem",
    "OptResult",
    "VerificationError",
    "f_properties",
    "final_constant",
    "maximize_g_c",
    "maximize_g_uw",
    "solve_A",
    "verify_mindeg_chain",
    "verify_rangec",
})


def __getattr__(name: str):
    if name in _ANALYTIC:
        from . import analytic

        return getattr(analytic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BlowUpSpec",
    "BoundReport",
    "CountReport",
    "DegreeProfile",
    "Graph",
    "OptProblem",
    "OptResult",
    "PG_CONSTANT",
    "RATIO_UPPER",
    "SearchResult",
    "VerificationError",
    "blow_up",
    "cherry_bound",
    "complement",
    "complete_bipartite",
    "complete_graph",
    "count_cherry_rooted",
    "count_containing_pair",
    "count_edge_rooted",
    "count_fast",
    "count_oracle",
    "count_rooted",
    "cycle",
    "density_sequence",
    "edge_bound",
    "exhaustive_max",
    "f_properties",
    "final_constant",
    "from_edge_list",
    "global_pg_bound",
    "inducibility_bracket",
    "is_induced_cycle",
    "iterated_blow_up",
    "iterated_blowup_cycle_count",
    "local_search_max",
    "maximize_g_c",
    "maximize_g_uw",
    "monotonicity_report",
    "petersen",
    "profile",
    "random_graph",
    "solve_A",
    "symmetrise",
    "verify_mindeg_chain",
    "verify_rangec",
    "vertex_bound",
    "vertex_bound_relaxed",
]
