"""Exact minimization of graph spectral radii at fixed order and diameter.

Integer characteristic polynomials, Sturm-certified root intervals,
parametric quipu/dagger families, a rooted transfer calculus over quadratic
fields, and exhaustive minimizer searches with independent oracles.
"""

from .graphs import (
    Graph,
    GraphError,
    Graph6Error,
    build_graph,
    canonical_code,
    cycle_graph,
    diameter,
    graph6_decode,
    graph6_encode,
    path_graph,
    star_graph,
)
from .exactpoly import (
    CertifiedRoot,
    IntPoly,
    Ordering,
    below_3_over_sqrt2,
    certified_screen,
    charpoly,
    compare_rho,
    equal_rho_certificate,
    perron_vector,
    rho_certified,
    rho_certified_graph,
)
from .families import (
    ClosedQuipu,
    Dagger,
    OpenQuipu,
    classify,
    enumerate_quipus,
    parse_spec_literal,
    realize,
    spec_literal,
    spider,
    theorem_family,
)
from .transfer import (
    PQPair,
    QuadNum,
    RootedGraph,
    alpha,
    edge_transfer_compare,
    pendant_extend,
    pq_decompose,
    t_compose,
    t_compose_rho,
    t_value,
)
from .search import (
    MinimizerReport,
    brute_force_all_graphs,
    brute_force_sparse,
    free_trees,
    minimize_over_quipus,
    rho_k,
    unicyclic_graphs,
    verify_exceptions,
    verify_theorem,
)

__version__ = "1.0.0"
