"""Minimum vertex-edge domination on convex bipartite graphs.

Exact solver over lexicographic convex orderings, the chain-pivot baseline it
improves on, chain decompositions, set-cover hardness reductions to star- and
comb-convex graphs, and brute-force oracles for desk-scale verification.
"""

from .chains import (
    ChainDecomposition,
    DecompositionLemmaReport,
    decompose,
    verify_decomposition_lemma,
)
from .errors import (
    CapacityError,
    ContractError,
    DomainError,
    GenerationError,
    InputError,
    VedsError,
)
from .graph import (
    BipartiteGraph,
    VertexRef,
    build_graph,
    connected_components,
    first_undominated_edge,
    is_ve_dominating_set,
    parse_vertex_name,
    xref,
    yref,
)
from .io import (
    format_graph_text,
    format_set_system_text,
    load_graph,
    load_set_system,
    parse_graph_text,
    parse_set_system_text,
)
from .oracle import (
    CrossCheckReport,
    GeneratorConfig,
    brute_force_gamma_ve,
    brute_force_min_cover,
    cross_check,
    gen_random_convex_bipartite,
)
from .ordering import (
    ConvexityCheck,
    LexConvexOrdering,
    compute_lex_convex_ordering,
    find_convex_ordering_exhaustive,
    identity_permutation,
    validate_convex_ordering,
)
from .reductions import (
    ReductionArtifact,
    SetSystem,
    TreeCertificate,
    approx_set_cover,
    cover_to_vedset,
    reduce_comb_convex,
    reduce_star_convex,
    vedset_to_cover,
    verify_tree_convexity,
)
from .solver import (
    SolveResult,
    SolveStats,
    TraceStep,
    counterexample_graph,
    solve_baseline,
    solve_exact,
)

__version__ = "0.1.0"
