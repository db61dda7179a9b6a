"""Finite simple undirected graphs.

Vertices are labelled 0..n-1 with no gaps. Graph values are immutable and
hashable; every operation returns a new value. Besides construction and BFS
metrics the module provides canonical codes (isomorphism keys for trees,
unicyclic graphs and small graphs) and the graph6 interchange format. One
leaf peel of the whole graph, peel_leaves, tells a connected tree or
unicyclic graph from any other graph and serves every job on one: canonical
codes and a tree's centres, and the elimination order and cycle that
exactpoly folds into characteristic polynomials and inertia signs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

INF = float("inf")


class GraphError(ValueError):
    """Invalid construction argument or unsupported operation."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]


def build_graph(n: int, edges) -> Graph:
    """Build a graph from a vertex count and an iterable of endpoint pairs.

    Duplicate pairs collapse; loops and out-of-range endpoints raise.
    """
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge endpoint out of range: ({u}, {v})")
        if u == v:
            raise GraphError(f"loop at vertex {u}")
        sets[u].add(v)
        sets[v].add(u)
    return Graph(n, tuple(tuple(sorted(s)) for s in sets))


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Star with center 0 and n-1 leaves."""
    return build_graph(n, [(0, i) for i in range(1, n)])


# ---------------------------------------------------------------------------
# editing helpers

def add_edge(g: Graph, u: int, v: int) -> Graph:
    return build_graph(g.n, g.edges() + [(u, v)])


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    if not g.has_edge(u, v):
        raise GraphError(f"no edge ({u}, {v})")
    return build_graph(g.n, [e for e in g.edges() if set(e) != {u, v}])


def delete_vertices(g: Graph, vs) -> Graph:
    """Delete the given vertices; remaining vertices are relabelled in order."""
    vs = set(vs)
    keep = [v for v in range(g.n) if v not in vs]
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in g.edges() if u not in vs and v not in vs]
    return build_graph(len(keep), edges)


def delete_vertex(g: Graph, v: int) -> Graph:
    return delete_vertices(g, [v])


def add_pendant_path(g: Graph, v: int, length: int) -> tuple[Graph, int]:
    """Attach a path of `length` new vertices at v; return (graph, tip).

    For length 0 the graph is unchanged and the tip is v itself.
    """
    if length == 0:
        return g, v
    edges = g.edges()
    prev = v
    for i in range(length):
        w = g.n + i
        edges.append((prev, w))
        prev = w
    return build_graph(g.n + length, edges), prev


def subdivide_edge(g: Graph, u: int, v: int) -> Graph:
    """Replace the edge uv by a new vertex adjacent to both u and v."""
    if not g.has_edge(u, v):
        raise GraphError(f"no edge ({u}, {v})")
    w = g.n
    edges = [e for e in g.edges() if set(e) != {u, v}]
    edges += [(u, w), (w, v)]
    return build_graph(g.n + 1, edges)


# ---------------------------------------------------------------------------
# metrics

def distances(g: Graph, v: int):
    """BFS hop distances from v; unreachable vertices get float('inf')."""
    if not (0 <= v < g.n):
        raise GraphError(f"vertex {v} out of range")
    dist = [INF] * g.n
    dist[v] = 0
    frontier = [v]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if dist[w] is INF:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return INF not in distances(g, 0)


def connected_components(g: Graph) -> list[list[int]]:
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def diameter(g: Graph):
    """Greatest finite distance, or None when the graph is disconnected."""
    if g.n == 0:
        raise GraphError("diameter of the empty graph is undefined")
    best = 0
    for v in range(g.n):
        dist = distances(g, v)
        m = max(dist)
        if m is INF:
            return None
        best = max(best, m)
    return best


def _code(child_codes: list[bytes]) -> bytes:
    """AHU code from child codes; none is a prefix of another, so lists compare as joins."""
    return b"(" + b"".join(sorted(child_codes)) + b")"


def tree_code(centres: list[list[bytes]]) -> bytes:
    """Canonical code of a tree from the child codes of its one or two centres,
    other centre excluded: the least rooting at a centre, the other a child."""
    return b"T:" + min(_code(kids + [_code(c) for c in centres[:i] + centres[i + 1:]])
                       for i, kids in enumerate(centres))


def unicyclic_code(hang: list[bytes]) -> bytes:
    """Code of a unicyclic graph from its cycle's tree codes in least rotation or reflection."""
    return b"U:" + b"|".join(hang)


def _cycle(g: Graph, core: list[int]) -> list[int] | None:
    """`core` in cyclic order from its least vertex when it induces exactly
    one cycle, else None."""
    inside = set(core)
    nbrs = {v: [w for w in g.adj[v] if w in inside] for v in core}
    if not core or any(len(ws) != 2 for ws in nbrs.values()):
        return None
    order = [core[0]]
    prev, cur = core[0], min(nbrs[core[0]])
    while cur != core[0]:
        order.append(cur)
        a, b = nbrs[cur]
        prev, cur = cur, b if a == prev else a
    return order if len(order) == len(core) else None


def peel_leaves(g: Graph) -> tuple[list[int], list[int], list[int] | None]:
    """Strip the leaves of g one at a time until none is left, first in
    first out from the leaves in decreasing order.

    Returns the peeled vertices in the order they went; a list whose entry
    at each peeled vertex is its parent, its last neighbour when it went;
    and what is left: a connected tree's last vertex as a one-element list,
    a connected unicyclic graph's cycle in cyclic order, from its least
    vertex toward the lesser of that vertex's cycle neighbours; or None for
    anything else, a forest or any graph with more than one component
    among them. Every vertex comes after all of its children, so one pass
    over the order can fold each subtree into its parent. The queue takes
    the leaves layer by layer, so a tree's last vertex is a centre.
    """
    deg = [len(a) for a in g.adj]
    # the sum of each vertex's neighbours not yet peeled: a leaf's parent
    link = [sum(a) for a in g.adj]
    order = []
    queue = [v for v in reversed(range(g.n)) if deg[v] == 1]
    for v in queue:
        if deg[v] != 1:  # a tree's last vertex, its neighbour peeled first
            continue
        deg[v] = -1
        order.append(v)
        w = link[v]
        link[w] -= v
        deg[w] -= 1
        if deg[w] == 1:
            queue.append(w)
    left = [v for v in range(g.n) if deg[v] >= 0]
    return order, link, left if len(left) == 1 else _cycle(g, left)


# ---------------------------------------------------------------------------
# canonical codes

class UnsupportedFamily(GraphError):
    """Graph outside the families supported by canonical_code."""


def _wl_cells(g: Graph) -> list[list[int]]:
    colors = [g.degree(v) for v in range(g.n)]
    for _ in range(g.n):
        sig = [
            (colors[v], tuple(sorted(colors[w] for w in g.adj[v])))
            for v in range(g.n)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [palette[s] for s in sig]
        if new == colors:
            break
        colors = new
    cells: dict[int, list[int]] = {}
    for v in range(g.n):
        cells.setdefault(colors[v], []).append(v)
    return [cells[c] for c in sorted(cells)]


def _small_graph_code(g: Graph) -> bytes:
    if g.n > 10:
        raise UnsupportedFamily("general canonical code supported only for n <= 10")
    cells = _wl_cells(g)
    total = 1
    for c in cells:
        f = 1
        for i in range(2, len(c) + 1):
            f *= i
        total *= f
    if total > 2_000_000:
        raise UnsupportedFamily("too many candidate labelings")
    best = None
    for parts in itertools.product(*(itertools.permutations(c) for c in cells)):
        perm = [0] * g.n
        pos = 0
        for part in parts:
            for v in part:
                perm[v] = pos
                pos += 1
        bits = 0
        for u, v in g.edges():
            a, b = sorted((perm[u], perm[v]))
            bits |= 1 << (b * (b - 1) // 2 + a)
        if best is None or bits < best:
            best = bits
    return b"G:" + best.to_bytes((g.n * (g.n - 1) // 2 + 7) // 8, "big")


def canonical_code(g: Graph) -> bytes:
    """Relabeling-invariant code; equal codes <=> isomorphic graphs.

    Supported: connected trees, connected unicyclic graphs, and arbitrary
    connected graphs with n <= 10. Tree and unicyclic codes fold AHU codes
    (Aho, Hopcroft & Ullman, 1974) and subtree heights over the order of
    peel_leaves, which also decides connectivity: with n - 1 or n edges,
    only a connected tree or unicyclic graph leaves a vertex or one cycle.
    A tree's last vertex is a centre; the other centre, if any, is its one
    child of height one less than its own.
    """
    m = g.edge_count
    if m == g.n - 1 or m == g.n:
        order, parent, core = peel_leaves(g)
        if core is None:
            raise UnsupportedFamily("canonical_code requires a connected graph")
        kids: list[list[bytes]] = [[] for _ in range(g.n)]
        height = [0] * g.n
        # the peel takes a vertex's children in order of height, so the
        # last one sets its height
        for v in order:
            w = parent[v]
            kids[w].append(_code(kids[v]))
            height[w] = height[v] + 1
        if len(core) > 1:
            hang = [_code(kids[v]) for v in core]
            return unicyclic_code(min(seq[s:] + seq[:s] for seq in (hang, hang[::-1])
                                      for s in range(len(hang))))
        c = core[0]
        tops = [v for v in g.adj[c] if height[v] == height[c] - 1]
        if len(tops) != 1:
            return tree_code([kids[c]])
        kids[c].remove(_code(kids[tops[0]]))
        return tree_code([kids[c], kids[tops[0]]])
    if not is_connected(g):
        raise UnsupportedFamily("canonical_code requires a connected graph")
    return _small_graph_code(g)


# ---------------------------------------------------------------------------
# graph6

class Graph6Error(GraphError):
    """Malformed graph6 text."""


# The largest order graph6 writes in its one-byte size field.
GRAPH6_MAX_N = 62


def graph6_encode(g: Graph) -> str:
    if g.n > GRAPH6_MAX_N:
        raise Graph6Error(f"only n <= {GRAPH6_MAX_N} supported")
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


def graph6_decode(text: str) -> Graph:
    if not text:
        raise Graph6Error("empty graph6 string")
    if any(not (63 <= ord(ch) <= 126) for ch in text):
        raise Graph6Error("illegal graph6 character")
    n = ord(text[0]) - 63
    if n > GRAPH6_MAX_N:
        raise Graph6Error(f"only n <= {GRAPH6_MAX_N} supported")
    need = (n * (n - 1) // 2 + 5) // 6
    body = text[1:]
    if len(body) != need:
        raise Graph6Error(f"expected {need} payload characters, got {len(body)}")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        bits.extend((val >> (5 - k)) & 1 for k in range(6))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return build_graph(n, edges)
