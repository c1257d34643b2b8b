"""bfgeo: exact geometry of rectangular matrices over small finite fields.

The package verifies, constructs and decomposes adjacency-preserving maps
between matrix spaces GF(q)^(m x n): rank-metric distances, maximal
cliques and their affine lines, Grassmann flats, colorings, standard-form
homomorphisms and their exact parameter recovery.
"""

from .cliques import (Kind, Line, MaximalSet, VertexSet, classify_clique,
                      dim_adjacent_set, intersect, line_through,
                      maximal_sets_through, unit_ball)
from .fields import Field, FieldHom, enumerate_homs, identity_hom, make_field
from .grassmann import Flat, Side, embed_graph_point, flat_ad
from .homs import (MapTable, Orientation, StandardHomParams, TwistSide,
                   XiMapParams, build_witness_hom, eval_standard, hom_exists,
                   is_colouring, is_degenerate, is_graph_hom, make_xi_map,
                   moebius_twist, proper_coloring, random_valid_params,
                   standard_table, validate_params)
from .mapfile import parse_map_table, write_map_table
from .matrices import (Mat, MatrixSpace, adjacent, arithmetic_distance,
                       bfs_distances, count_rank_matrices, graph_distance,
                       random_invertible, space)
from .recovery import (RecoveryResult, WeightedSemiAffine, dim_bound_check,
                       fit_semiaffine, recover_standard)

__all__ = [
    "Field", "FieldHom", "make_field", "enumerate_homs", "identity_hom",
    "Mat", "MatrixSpace", "space", "arithmetic_distance", "adjacent",
    "graph_distance", "bfs_distances", "random_invertible", "count_rank_matrices",
    "Kind", "MaximalSet", "Line", "VertexSet", "maximal_sets_through",
    "classify_clique", "intersect", "line_through", "dim_adjacent_set",
    "unit_ball",
    "Flat", "Side", "flat_ad", "embed_graph_point",
    "MapTable", "Orientation", "StandardHomParams", "TwistSide",
    "XiMapParams", "eval_standard", "standard_table", "validate_params",
    "random_valid_params", "is_graph_hom", "is_colouring", "is_degenerate",
    "make_xi_map", "moebius_twist", "hom_exists", "proper_coloring",
    "build_witness_hom",
    "WeightedSemiAffine", "RecoveryResult", "fit_semiaffine",
    "recover_standard", "dim_bound_check",
    "parse_map_table", "write_map_table",
]
