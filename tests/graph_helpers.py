"""Graph and spec helpers that only the tests need: relabelling, disjoint
unions, tree and unicyclic predicates, the canonical spec of a spec's
realization, adjacency matrices, scaled Perron vectors and dyadic points
next to a spectral radius."""

import math
from fractions import Fraction

import numpy as np

from rhomin.exactpoly import Ordering, compare_rho_to
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


def perron_vector(g: Graph) -> np.ndarray:
    """g's float Perron vector from eigh, scaled by 2^26, rounded and
    clamped to at least 1: a positive int64 vector for certified_screen."""
    v = np.abs(np.linalg.eigh(adjacency(g))[1][:, -1])
    return np.maximum(np.rint(v * 2**26), 1).astype(np.int64)


def lams_around(g: Graph) -> tuple[Fraction, Fraction]:
    """Dyadic lam just below and just above rho(g), within 2^-29 of a float
    radius, for a tree or unicyclic g; compare_rho_to confirms each side."""
    rho = float(np.linalg.eigvalsh(adjacency(g).astype(float))[-1])
    below, above = (Fraction(math.floor(rho * 2**30) + k, 2**30) for k in (-1, 2))
    assert compare_rho_to(g, below) is Ordering.GREATER
    assert compare_rho_to(g, above) is Ordering.LESS
    return below, above
