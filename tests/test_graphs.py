"""Graph container, metrics, canonical codes, and graph6 round-trips."""

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhomin.graphs import (
    Graph6Error,
    GraphError,
    add_edge,
    add_pendant_path,
    build_graph,
    canonical_code,
    connected_components,
    cycle_graph,
    delete_edge,
    delete_vertex,
    delete_vertices,
    diameter,
    distances,
    graph6_decode,
    graph6_encode,
    is_connected,
    path_graph,
    star_graph,
    subdivide_edge,
    two_core_cycle,
)
from graph_helpers import disjoint_union, is_tree, is_unicyclic, relabel


def test_build_rejects_bad_edges():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        build_graph(3, [(1, 1)])
    g = build_graph(3, [(0, 1), (1, 0)])  # duplicates collapse
    assert g.edge_count == 1


def test_basic_metrics():
    p5 = path_graph(5)
    assert diameter(p5) == 4
    assert is_tree(p5)
    assert not is_unicyclic(p5)
    c6 = cycle_graph(6)
    assert diameter(c6) == 3
    assert is_unicyclic(c6)
    assert two_core_cycle(c6) is not None and len(two_core_cycle(c6)) == 6
    k13 = star_graph(4)
    assert diameter(k13) == 2
    assert [k13.degree(v) for v in range(4)] == [3, 1, 1, 1]


def test_distances_and_components():
    g = disjoint_union(path_graph(3), path_graph(2))
    assert not is_connected(g)
    assert len(connected_components(g)) == 2
    assert diameter(g) is None
    d = distances(path_graph(4), 0)
    assert d == [0, 1, 2, 3]


def test_editing_helpers():
    g = path_graph(3)
    g2, tip = add_pendant_path(g, 1, 2)
    assert g2.n == 5 and g2.degree(1) == 3 and g2.degree(tip) == 1
    g3 = subdivide_edge(path_graph(2), 0, 1)
    assert canonical_code(g3) == canonical_code(path_graph(3))
    g4 = delete_vertex(cycle_graph(4), 0)
    assert canonical_code(g4) == canonical_code(path_graph(3))
    g5 = delete_edge(cycle_graph(4), 0, 1)
    assert canonical_code(g5) == canonical_code(path_graph(4))
    g6 = delete_vertices(path_graph(5), [0, 4])
    assert canonical_code(g6) == canonical_code(path_graph(3))
    assert add_edge(path_graph(3), 0, 2).edge_count == 3


def test_canonical_code_tree_invariance():
    # same tree, two labelings
    a = build_graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
    b = build_graph(5, [(4, 3), (3, 1), (1, 0), (1, 2)])
    assert canonical_code(a) == canonical_code(b)
    assert canonical_code(a) != canonical_code(path_graph(5))


def test_canonical_code_unicyclic_invariance():
    a = build_graph(5, [(0, 1), (1, 2), (2, 0), (1, 3), (3, 4)])
    b = build_graph(5, [(4, 2), (2, 0), (0, 4), (2, 3), (3, 1)])
    assert canonical_code(a) == canonical_code(b)


def test_canonical_code_dense_small():
    a = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    b = build_graph(4, [(2, 3), (3, 0), (0, 1), (1, 2), (3, 1)])
    assert canonical_code(a) == canonical_code(b)


def test_graph6_round_trip():
    for g in (path_graph(1), path_graph(7), cycle_graph(9), star_graph(5)):
        assert canonical_code(graph6_decode(graph6_encode(g))) == canonical_code(g)
    with pytest.raises(Graph6Error):
        graph6_decode("\x01bad")


def test_graph6_against_networkx():
    nx = pytest.importorskip("networkx")
    import random

    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 12)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        g = build_graph(n, edges)
        ours = graph6_encode(g)
        theirs = nx.to_graph6_bytes(_nx_graph(nx, n, edges),
                                    header=False).decode().strip()
        assert ours == theirs
        back = graph6_decode(ours)
        assert back.n == n and sorted(back.edges()) == sorted(edges)


def _nx_graph(nx, n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def test_canonical_code_of_a_long_path_needs_no_deep_recursion():
    p = path_graph(1100)
    assert canonical_code(p) == canonical_code(relabel(p, list(range(1099, -1, -1))))


def test_canonical_code_of_a_long_cycle_with_a_long_tail():
    g, _ = add_pendant_path(cycle_graph(600), 0, 600)
    assert canonical_code(g).startswith(b"U:")


FIGURE_EIGHT = [(0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (3, 4), (4, 5)]


def test_two_core_cycle_refuses_a_figure_eight_promptly():
    # run apart, so that a walk that never closes fails the test, not the run
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    script = (
        "from rhomin.graphs import GraphError, build_graph, two_core_cycle\n"
        "try:\n"
        f"    two_core_cycle(build_graph(6, {FIGURE_EIGHT}))\n"
        "except GraphError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], timeout=10, env=env)
    assert proc.returncode == 0


@pytest.mark.parametrize("g", [
    build_graph(4, list(combinations(range(4), 2))),
    disjoint_union(cycle_graph(3), cycle_graph(3)),
], ids=["K4", "two-triangles"])
def test_two_core_cycle_refuses_more_than_one_cycle(g):
    with pytest.raises(GraphError):
        two_core_cycle(g)


@st.composite
def sparse_graphs(draw):
    """A random tree or unicyclic graph on at most 12 vertices, randomly
    labelled."""
    n = draw(st.integers(1, 12))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    others = [e for e in combinations(range(n), 2) if e not in edges]
    if others and draw(st.booleans()):
        edges.append(draw(st.sampled_from(others)))
    return relabel(build_graph(n, edges), draw(st.permutations(range(n))))


@settings(max_examples=150, deadline=None)
@given(sparse_graphs(), st.data())
def test_canonical_code_ignores_labels(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    assert canonical_code(relabel(g, perm)) == canonical_code(g)


@settings(max_examples=150, deadline=None)
@given(sparse_graphs(), sparse_graphs())
def test_equal_codes_exactly_when_isomorphic(g, h):
    nx = pytest.importorskip("networkx")
    same = nx.is_isomorphic(_nx_graph(nx, g.n, g.edges()), _nx_graph(nx, h.n, h.edges()))
    assert (canonical_code(g) == canonical_code(h)) == same


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_graph6_round_trip_random(data):
    n = data.draw(st.integers(0, 20))
    pairs = list(combinations(range(n), 2))
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = build_graph(n, [e for e, k in zip(pairs, keep) if k])
    assert graph6_decode(graph6_encode(g)) == g
