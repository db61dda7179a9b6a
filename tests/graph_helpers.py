"""Graph and spec helpers that only the tests need: relabelling, disjoint
unions, tree and unicyclic predicates, the canonical spec of a spec's
realization and adjacency matrices."""

import numpy as np

from rhomin.families import QuipuSpec, classify, realize
from rhomin.graphs import Graph, build_graph, is_connected


def relabel(g: Graph, perm) -> Graph:
    """Apply the permutation old-label -> new-label."""
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    edges = g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()]
    return build_graph(g.n + h.n, edges)


def is_tree(g: Graph) -> bool:
    return g.edge_count == g.n - 1 and is_connected(g)


def is_unicyclic(g: Graph) -> bool:
    return g.edge_count == g.n and is_connected(g)


def canonicalize(spec: QuipuSpec) -> QuipuSpec:
    """Canonical parameter tuple of the isomorphism class of realize(spec)."""
    out = classify(realize(spec))
    if out is None:
        raise ValueError(f"realization of {spec!r} did not classify")
    return out


def adjacency(g: Graph) -> np.ndarray:
    """The int64 adjacency matrix of g."""
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1
    return a
