"""Toolkit for constructing, verifying, and refuting low rank-width
colorings of graphs, with desk-scale exact oracles."""

__version__ = "0.1.0"

from .graph import (
    Graph,
    build_graph,
    complement,
    cutrank,
    induced_subgraph,
    power,
)
from .orderings import LinearOrder, wcol_exact, wcol_heuristic, wcol_of_order
from .widths import (
    RankDecomposition,
    WidthReport,
    balanced_partition,
    rank_width_exact,
    rank_width_upper,
    tree_depth_at_most,
    tree_depth_exact,
    verify_decomposition,
)
from .coloring import (
    Coloring,
    ColoringProfile,
    RefinementColoring,
    UnionReport,
    excellent_refinement,
    good_refinement,
    low_rankwidth_coloring_of_power,
    treedepth_coloring,
    verify_low_rw_coloring,
    verify_td_coloring,
)

__all__ = [
    "Graph",
    "LinearOrder",
    "Coloring",
    "ColoringProfile",
    "RankDecomposition",
    "RefinementColoring",
    "UnionReport",
    "WidthReport",
    "balanced_partition",
    "build_graph",
    "complement",
    "cutrank",
    "excellent_refinement",
    "good_refinement",
    "induced_subgraph",
    "low_rankwidth_coloring_of_power",
    "power",
    "rank_width_exact",
    "rank_width_upper",
    "tree_depth_at_most",
    "tree_depth_exact",
    "treedepth_coloring",
    "verify_decomposition",
    "verify_low_rw_coloring",
    "verify_td_coloring",
    "wcol_exact",
    "wcol_heuristic",
    "wcol_of_order",
]
