"""Minimizer searches over graphs of fixed order and diameter.

Three search spaces of increasing restriction, each with an exact final
tournament: all labeled graphs (tiny orders), all trees and unicyclic graphs,
and the quipu/dagger families. The family search is the production path; the
other two are independent oracles against which it is cross-validated. The
module also packages the end-to-end verification that the minimum spectral
radius at order 3k+1 and diameter 2k is attained exactly by the tied family
of open quipus with parameters (i, i+j-1, j) over i+j=k.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .exactpoly import (
    CertifiedRoot,
    Ordering,
    adjacency_matrix,
    below_3_over_sqrt2,
    certified_screen,
    compare_rho,
    compare_roots,
    equal_rho_certificate,
    perron_vector,
    rho_certified_graph,
)
from .families import (
    OpenQuipu,
    QuipuSpec,
    classify,
    enumerate_quipus,
    realize,
    spec_diameter,
    spec_literal,
    spider,
    theorem_family,
)
from .graphs import (
    Graph,
    build_graph,
    canonical_code,
    cycle_graph,
    diameter,
    graph6_encode,
)

# brute_force_all_graphs screens with v = (A + I)^POWER_STEPS 1. Its entries
# are largest for K_7, where v = 7^10 * 1 and A v = 6 * 7^10, so every
# cross-product certified_screen forms is at most 6 * 7^20 < 2^63. For every
# n <= 7 and d, ten steps keep the same labelled graphs as twelve; eight keep
# three times as many at (7, 5).
POWER_STEPS = 10


@dataclass(frozen=True)
class Winner:
    code: bytes
    graph: Graph
    spec: QuipuSpec | None


@dataclass
class MinimizerReport:
    n: int
    d: int
    min_rho: CertifiedRoot | None
    winners: list[Winner]
    search_space: str
    candidates_examined: int
    sound: bool = True
    stats: dict = field(default_factory=dict)

    def winner_codes(self) -> set[bytes]:
        return {w.code for w in self.winners}

    def to_json(self) -> dict:
        min_rho = None
        if self.min_rho is not None:
            min_rho = self.min_rho.to_json()
        return {
            "n": self.n,
            "d": self.d,
            "min_rho": min_rho,
            "winners": [
                {
                    "graph6": graph6_encode(w.graph),
                    "spec": spec_literal(w.spec) if w.spec is not None else None,
                }
                for w in self.winners
            ],
            "search_space": self.search_space,
            "candidates_examined": self.candidates_examined,
            "sound": self.sound,
            "stats": self.stats,
        }


class BudgetError(ValueError):
    """A search was requested beyond its supported size."""


# ---------------------------------------------------------------------------
# exact confirmation shared by all search paths

def _exact_tournament(graphs: list[Graph], specs) -> tuple[CertifiedRoot, list[Winner]]:
    """Certify the exact minimum and every tie among candidate graphs, each
    compared once against the running best: LESS starts a new best, EQUAL
    (backed by compare_roots' common-factor witness) adds a tie."""
    best = None
    winners: list[Winner] = []
    for g, spec in zip(graphs, specs):
        root = rho_certified_graph(g)
        order = Ordering.LESS if best is None else compare_roots(root, best)[0]
        if order is Ordering.LESS:
            best, winners = root, []
        if order is not Ordering.GREATER:
            winners.append(Winner(canonical_code(g), g, spec))
    winners.sort(key=lambda w: w.code)
    return best, winners


def _screen_batches(batches) -> tuple[np.ndarray, int]:
    """The ids certified_screen keeps from batches of (ids, A v, v), and how
    many there were. Each batch is screened alone, then what the batches keep
    together; that equals one screen of all, as no batch drops the least U."""
    kept, total = [], 0
    for ids, av, v in batches:
        total += len(ids)
        keep = certified_screen(av, v)[0]
        kept.append((ids[keep], av[:, keep], v[:, keep]))
    if not kept:
        return np.zeros(0, dtype=np.int64), 0
    ids, av, v = (np.concatenate(part, axis=-1) for part in zip(*kept))
    return ids[certified_screen(av, v)[0]], total


def _perron_batches(graphs: list[Graph]):
    """(positions, A v, v) for graphs of one order, v being each graph's
    rounded Perron vector, a batch of graphs at a time to bound memory."""
    size = 1024
    for start in range(0, len(graphs), size):
        part = graphs[start:start + size]
        v, av = np.empty((2, part[0].n, len(part)), dtype=np.int64)
        for j, g in enumerate(part):
            a = adjacency_matrix(g)
            v[:, j] = perron_vector(a)
            av[:, j] = a @ v[:, j]
        yield np.arange(start, start + len(part)), av, v


# ---------------------------------------------------------------------------
# oracle 1: every labeled graph on n <= 7 vertices

def _matched_batches(n: int, d: int, pairs: list[tuple[int, int]]):
    """(masks, A v, v) for the labelled graphs of order n and diameter d, one
    chunk of edge masks at a time, with v = (A + I)^POWER_STEPS 1.

    Each chunk holds every vertex's neighbourhood as an n-bit mask (one uint8
    per vertex, since n <= 7). Reachability grows as bitsets: one step ORs
    into reach[v] the neighbourhood of every u already in reach[v], so after
    t steps reach[v] is the ball of radius t around v. A graph has diameter d
    when every ball is full after d steps and not after d - 1."""
    total = 1 << len(pairs)
    # 2^14 masks make each int64 temporary 128 KB. At 2^17 the 1 MB
    # temporaries were no faster, and depending on heap layout up to 5 MB of
    # them stayed resident after the search.
    chunk = 1 << 14
    full = np.uint8((1 << n) - 1)
    shifts = np.arange(n, dtype=np.uint8)
    own = (np.uint8(1) << shifts)[:, None]
    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.int64)
        # one row per vertex, one column per graph: numpy's inner loops
        # then run along the batch instead of along n
        nb = np.zeros((n, len(masks)), dtype=np.uint8)
        for i, (u, v) in enumerate(pairs):
            bit = ((masks >> i) & 1).astype(np.uint8)
            nb[u] |= bit << v
            nb[v] |= bit << u
        reach = np.repeat(own, len(masks), axis=1)
        filled_before = np.zeros(len(masks), dtype=bool)
        for t in range(1, d + 1):
            if t == d:
                filled_before = (reach == full).all(axis=0)
            grown = reach.copy()
            for u in range(n):
                grown |= ((reach >> u) & 1) * nb[u]
            reach = grown
        idx = np.nonzero((reach == full).all(axis=0) & ~filled_before)[0]
        if len(idx) == 0:
            continue
        # adj[u, w] is 1 when w is a neighbour of u, one column per graph
        adj = (nb[:, None, idx] >> shifts[:, None]) & 1
        vec = np.ones((n, len(idx)), dtype=np.int64)
        for _ in range(POWER_STEPS):
            vec += np.einsum("uwk,wk->uk", adj, vec)
        yield masks[idx], np.einsum("uwk,wk->uk", adj, vec), vec


def brute_force_all_graphs(n: int, d: int) -> MinimizerReport:
    """Exhaustive minimum over all connected graphs of order n and diameter d,
    iterating all 2^C(n,2) labeled graphs in vectorized batches, screened
    exactly with the integer vectors (A + I)^POWER_STEPS 1."""
    if not 1 <= n <= 7:
        raise BudgetError("brute_force_all_graphs supports 1 <= n <= 7")
    pairs = list(combinations(range(n), 2))
    m = len(pairs)
    total = 1 << m
    if n == 1:
        g = build_graph(1, [])
        if d != 0:
            return MinimizerReport(n, d, None, [], "all-graphs", total,
                                   stats={"matched": 0})
        root = rho_certified_graph(g)
        return MinimizerReport(n, d, root, [Winner(canonical_code(g), g, None)],
                               "all-graphs", total, stats={"matched": 1})
    pool_masks, matched = _screen_batches(_matched_batches(n, d, pairs))
    if not matched:
        return MinimizerReport(n, d, None, [], "all-graphs", total,
                               stats={"matched": matched})
    seen: dict[bytes, Graph] = {}
    for mk in pool_masks.tolist():
        g = build_graph(n, [pairs[i] for i in range(m) if mk >> i & 1])
        seen.setdefault(canonical_code(g), g)
    graphs = [seen[c] for c in sorted(seen)]
    min_rho, winners = _exact_tournament(graphs, [classify(g) for g in graphs])
    return MinimizerReport(n, d, min_rho, winners, "all-graphs", total,
                           stats={"matched": matched, "pool": len(graphs)})


# ---------------------------------------------------------------------------
# oracle 2: all trees and unicyclic graphs up to n = 14

@functools.cache
def free_trees(n: int) -> list[Graph]:
    """All free trees of order n, one per isomorphism class, generated by
    leaf addition with canonical deduplication."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return [build_graph(1, [])]
    return _leaf_extensions(free_trees(n - 1), {})


def _leaf_extensions(parents: list[Graph], seen: dict[bytes, Graph]) -> list[Graph]:
    """One graph per isomorphism class among `seen` and every way to hang a
    new leaf on a vertex of a parent, in canonical-code order. The first graph
    found for a code is kept. Twins (vertices with the same neighbours, such
    as leaves on one stem) are swapped by an automorphism, so only the first
    of them gets a leaf."""
    for g in parents:
        rows = set()
        for v in range(g.n):
            if g.adj[v] in rows:
                continue
            rows.add(g.adj[v])
            h = _append_leaf(g, v)
            code = canonical_code(h)
            if code not in seen:
                seen[code] = h
    return [seen[c] for c in sorted(seen)]


def _append_leaf(g: Graph, v: int) -> Graph:
    """g plus a new vertex g.n adjacent to v. The new label is the largest,
    so every adjacency row stays sorted, as build_graph would leave it."""
    adj = list(g.adj)
    adj[v] += (g.n,)
    adj.append((v,))
    return Graph(g.n + 1, tuple(adj))


def naive_free_tree_count(n: int) -> int:
    """Independent free-tree count for small n: iterate labeled trees by
    Pruefer sequence and deduplicate by canonical code."""
    if n > 8:
        raise BudgetError("naive count supported for n <= 8")
    if n == 1 or n == 2:
        return 1
    seen = set()
    for code in range(n ** (n - 2)):
        seq = []
        x = code
        for _ in range(n - 2):
            seq.append(x % n)
            x //= n
        seen.add(canonical_code(_tree_from_pruefer(n, seq)))
    return len(seen)


def _tree_from_pruefer(n: int, seq: list[int]) -> Graph:
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, w))
    return build_graph(n, edges)


def counted_free_trees(n: int) -> int:
    """Free-tree count by the rooted-tree counting recurrence (independent of
    any generator): r(n) via divisor convolution, then free counts by removing
    root symmetries."""
    # rooted trees: r(1)=1, n*r(n+1) = sum_{k=1..n} (sum_{d|k} d*r(d)) r(n-k+1)
    r = [0, 1]
    for size in range(2, n + 1):
        acc = 0
        for k in range(1, size):
            s = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            acc += s * r[size - k]
        r.append(acc // (size - 1))
    # free trees by the dissimilarity identity:
    # t(n) = r(n) - (sum_{i+j=n} r(i)r(j) - [n even] r(n/2)) / 2
    conv = sum(r[i] * r[n - i] for i in range(1, n))
    if n % 2 == 0:
        conv -= r[n // 2]
    return r[n] - conv // 2


@functools.cache
def unicyclic_graphs(n: int) -> list[Graph]:
    """All connected unicyclic graphs of order n up to isomorphism, by leaf
    addition starting from each cycle length."""
    if n < 3:
        return []
    cycle = cycle_graph(n)
    return _leaf_extensions(unicyclic_graphs(n - 1), {canonical_code(cycle): cycle})


@functools.cache
def _sparse_members(n: int) -> list[tuple[int, Graph]]:
    """Every tree and unicyclic graph of order n with its diameter."""
    return [(diameter(g), g) for g in free_trees(n) + unicyclic_graphs(n)]


def brute_force_sparse(n: int, d: int) -> MinimizerReport:
    """Exact minimum over all trees and unicyclic graphs of order n and
    diameter d. Sound as a minimum over all graphs exactly when the result
    has certified spectral radius below 3/sqrt(2) (the structural reduction
    to sparse graphs needs that bound); the report carries the flag.
    `screened_out` counts the graphs dropped by the exact screen."""
    if not 1 <= n <= 14:
        raise BudgetError("brute_force_sparse supports 1 <= n <= 14")
    cands = _sparse_members(n)
    matched = [g for diam, g in cands if diam == d]
    if not matched:
        return MinimizerReport(n, d, None, [], "sparse", len(cands), sound=False)
    graphs = [matched[i] for i in _screen_batches(_perron_batches(matched))[0]]
    min_rho, winners = _exact_tournament(graphs, [classify(g) for g in graphs])
    return MinimizerReport(
        n, d, min_rho, winners, "sparse", len(cands), sound=below_3_over_sqrt2(min_rho),
        stats={"matched": len(matched), "screened_out": len(matched) - len(graphs)},
    )


# ---------------------------------------------------------------------------
# production path: quipu/dagger family search

def minimize_over_quipus(n: int, d: int) -> MinimizerReport:
    """Exact minimum over all open quipus, closed quipus and daggers of order
    n and diameter d.

    Pipeline: enumerate family members; screen them all with the exact
    Collatz-Wielandt certificate; certify the minimum and all ties exactly
    among the kept members. The report is sound when that minimum is
    certified below 3/sqrt(2). Enumeration computes diameters from
    parameters; each winner's diameter is confirmed by BFS on its graph, and
    a mismatch marks the report unsound. `screened_out` counts the members
    dropped by the exact screen, `exactly_compared` the kept ones.
    """
    specs = list(enumerate_quipus(n, d))
    if not specs:
        return MinimizerReport(n, d, None, [], "quipu-family", 0, sound=False)
    graphs = [realize(s) for s in specs]
    kept = _screen_batches(_perron_batches(graphs))[0].tolist()
    min_rho, winners = _exact_tournament([graphs[i] for i in kept], [specs[i] for i in kept])
    diameter_mismatches = sum(spec_diameter(w.spec) != d for w in winners)
    sound = below_3_over_sqrt2(min_rho) and not diameter_mismatches
    return MinimizerReport(
        n, d, min_rho, winners, "quipu-family", len(specs), sound=sound,
        stats={"screened_out": len(specs) - len(kept), "exactly_compared": len(kept),
               "diameter_mismatches": diameter_mismatches},
    )


# ---------------------------------------------------------------------------
# theorem-level verdicts

@dataclass
class Verdict:
    passed: bool
    failures: list[str]
    data: dict = field(default_factory=dict)


def rho_k(k: int) -> CertifiedRoot:
    """Certified spectral radius of the three-arm spider with arm length k."""
    return rho_certified_graph(realize(spider(k)))


def verify_theorem(k: int) -> Verdict:
    """Check that the minimizers at order 3k+1 and diameter 2k are exactly
    the tied quipu family, that the ties are certified equalities, and that
    the minimum is strictly below the next family's."""
    if k < 2:
        raise ValueError("need k >= 2")
    failures = []
    report = minimize_over_quipus(3 * k + 1, 2 * k)
    if not report.sound:
        failures.append("search is not sound at this (n, d)")
    family = theorem_family(k)
    expected = {canonical_code(realize(s)) for s in family}
    got = report.winner_codes()
    if got != expected:
        failures.append(
            f"winner set mismatch: got {len(got)} winners, expected {len(expected)}"
        )
    base = realize(family[0])
    for s in family[1:]:
        ok, _ = equal_rho_certificate(base, realize(s))
        if not ok:
            failures.append(f"no equality certificate for {spec_literal(s)}")
    order, _ = compare_roots(rho_k(k), rho_k(k + 1))
    if order is not Ordering.LESS:
        failures.append("family minimum does not increase with k")
    return Verdict(not failures, failures, {"report": report, "k": k})


def exception_specs(k: int) -> list[OpenQuipu]:
    """The seven open quipus of order 3k+1 and diameter 2k that the paper's
    structural conditions do not rule out but whose spectral radius exceeds
    the family minimum (k >= 7)."""
    if k < 7:
        raise ValueError("need k >= 7")
    return [
        OpenQuipu((1, k - 3, k - 1, 1), (1, k - 2, 1)),
        OpenQuipu((1, k - 4, k - 1, 2), (1, k - 3, 2)),
        OpenQuipu((1, 0, k - 1, k - 2), (1, 1, k - 2)),
        OpenQuipu((1, k - 2, k - 2, 1), (1, k - 2, 1)),
        OpenQuipu((1, 1, k - 2, k - 2), (1, 1, k - 2)),
        OpenQuipu((1, 1, k - 2, k - 4, 1), (1, 1, k - 3, 1)),
        OpenQuipu((1, k - 3, k - 2, 0, 1), (1, k - 3, 1, 1)),
    ]


def verify_exceptions(k: int) -> Verdict:
    """Certify that each of the seven exceptional quipus has spectral radius
    strictly above the family minimum, and that the comparator quipu used
    against the last one sits above 3/sqrt(2)."""
    if k < 7:
        raise ValueError("need k >= 7")
    failures = []
    base = realize(spider(k))
    for s in exception_specs(k):
        if compare_rho(realize(s), base) is not Ordering.GREATER:
            failures.append(f"{spec_literal(s)} does not exceed the minimum")
    comparator = OpenQuipu((1, k - 3, k - 2, 2), (1, k - 3, 2))
    if below_3_over_sqrt2(rho_certified_graph(realize(comparator))):
        failures.append("comparator quipu is below the threshold")
    return Verdict(not failures, failures, {"k": k})
