"""Distance Pareto (complementarity) eigenvalues of connected graphs.

The distance Pareto spectrum of a connected graph is the set of Perron roots
of all nonempty principal submatrices of its distance matrix.  This package
enumerates these spectra exactly at desk scale, evaluates the known closed
forms and inequalities for the second largest value, and verifies structural
properties (eigenvector convexity on trees, edge-deletion monotonicity, tree
extremality, extremal counts) by exhaustive search.
"""

__version__ = "0.1.0"

from .errors import (
    CapExceededError,
    DisconnectedGraphError,
    EigensolverError,
    GraphParseError,
)
from .graph import (
    Graph,
    coalesce,
    delete_edge,
    diameter,
    distance_matrix,
    edge_list_text,
    make_family,
    make_graph,
    parse_edge_list,
    parse_graph6,
    transmission,
    wiener,
)
from .laws import (
    BOUND_IDS,
    BoundResult,
    CLOSED_FORM_IDS,
    bound_report,
    closed_form,
    closed_form_brute_force,
    closed_form_surd,
    evaluate_bound,
    star_spectrum,
)
from .pareto import (
    ParetoEigenpair,
    ParetoSpectrum,
    pareto_count,
    pareto_eigenpair,
    pareto_spectrum,
    rho2_fast,
)
from .verify import (
    ExtremalResult,
    PropertyReport,
    canonical_form,
    check_coalescence_quasiconvexity,
    check_edge_monotonicity,
    check_eigenvector_convexity,
    check_tree_extremes,
    connected_graph_classes,
    connected_graphs_labeled,
    extremal_search,
    is_isomorphic,
    random_connected_graph,
    trees_upto_iso,
)
