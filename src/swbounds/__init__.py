"""Walk-count moment sequences and spectral-radius bounds for simple graphs.

The package counts walks exactly, interprets the counts as moments of
measures supported on the adjacency spectrum, and turns classical
moment-problem feasibility conditions into lower and upper bounds on the
spectral radius, all checked against numpy's LAPACK eigensolver.
"""

from .bounds_lower import (
    BoundResult,
    baseline_lower_bounds,
    det_ratio_lower_bound,
    local_triangle_lower_bound,
    quadratic_root_lower_bound,
    ratio_lower_bound,
    sdp_lower_bound,
    sqrt_max_degree_lower_bound,
    triangle_edge_lower_bound,
)
from .bounds_upper import (
    atom_weight_for,
    baseline_upper_bounds,
    bipartite_upper_bound,
    clique_root_upper_bound,
    eigvec_degree_upper_bound,
    even_moment_upper_bound,
    hankel_root_upper_bound,
    stieltjes_root_upper_bound,
    two_point_upper_bound,
)
from .graph import (
    Graph,
    GraphError,
    clique_number,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    degrees,
    erdos_renyi_graph,
    generate,
    is_bipartite,
    is_connected,
    parse_edge_list,
    path_graph,
    serialize_edge_list,
    star_graph,
    triangle_counts,
)
from .moments import (
    HankelPair,
    MomentError,
    hamburger_check,
    hankel_pair,
    hankel_pair_exact,
    is_psd,
    stieltjes_feasible,
)
from .report import (
    CorpusEntry,
    Report,
    build_report,
    er_corpus,
    family_corpus,
    prepare_graph,
    run_verification,
    standard_corpus,
    sweep_bounds,
)
from .roots import largest_real_root_bracket
from .spectrum import (
    SpectralSummary,
    eigen_decompose,
    symmetric_eigenvalues,
    verify_moment_identities,
)
from .walks import (
    MomentSequence,
    all_rooted_closed_counts,
    closed_from_rooted,
    closed_walk_counts,
    closed_walk_counts_at,
    enumerate_walks_bruteforce,
    walk_counts,
)

__version__ = "0.1.0"
