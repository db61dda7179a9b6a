"""Minimizer searches over graphs of fixed order and diameter.

Three search spaces of increasing restriction, each with an exact final
tournament: all labeled graphs (tiny orders), all trees and unicyclic graphs,
and the quipu/dagger families. The family search is the production path; the
other two are independent oracles against which it is cross-validated. All
three discard only through this module's exact Collatz-Wielandt screen,
certified_screen, fed integer vectors from one stacked float eigh per batch
(or, for all labeled graphs, from powers of A + I). The module also packages
the end-to-end verification that the minimum spectral radius at order 3k+1
and diameter 2k is attained exactly by the tied family of open quipus with
parameters (i, i+j-1, j) over i+j=k.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import chain, combinations, product

import numpy as np

from .exactpoly import (
    CertifiedRoot,
    Ordering,
    below_3_over_sqrt2,
    compare_rho,
    compare_roots,
    equal_rho_certificate,
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
    _code,
    build_graph,
    canonical_code,
    graph6_encode,
    tree_code,
    unicyclic_code,
)


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


# ---------------------------------------------------------------------------
# exact Collatz-Wielandt screen shared by all search paths

def _least_ratio(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least p[i]/q[i] over the first axis, as its (numerator,
    denominator) pair, for positive q. Exact: pairs of ratios are compared
    by integer cross-multiplication, halving the rows each round."""
    while len(p) > 1:
        half = len(p) // 2
        a, b = slice(0, half), slice(half, 2 * half)
        take = p[b] * q[a] < p[a] * q[b]
        p_min, q_min = np.where(take, p[b], p[a]), np.where(take, q[b], q[a])
        p, q = np.concatenate([p_min, p[2 * half:]]), np.concatenate([q_min, q[2 * half:]])
    return p[0], q[0]


def certified_screen(av: np.ndarray, v: np.ndarray):
    """Exact Collatz-Wielandt screen over candidate graphs of one order.

    Column j of the int64 (n, candidates) array `v` is a positive vector for
    candidate j, and column j of `av` is A_j v_j. For any positive vector,
    L_j = min_i (A_j v_j)_i / (v_j)_i <= rho_j <= max_i (...)_i / (v_j)_i = U_j
    (Horn & Johnson, Matrix Analysis, 8.1). With U* the least U_j, candidate
    j is kept exactly when L_j <= U*: a dropped one has rho_j >= L_j > U* >=
    the least rho among the candidates. A poor vector only widens its own
    bracket. Every comparison is an integer cross-multiplication; a vector
    that is not positive raises ValueError, a cross-product beyond int64
    OverflowError. Returns the keep mask, L and U, the last two as
    (numerators, denominators) pairs of arrays.
    """
    if (v < 1).any():
        raise ValueError("Collatz-Wielandt vectors must be positive")
    if int(av.max(initial=0)) * int(v.max()) >= 1 << 63:
        raise OverflowError("Collatz-Wielandt cross-products exceed int64")
    lo_p, lo_q = _least_ratio(av, v)
    neg_hi_p, hi_q = _least_ratio(-av, v)
    hi_p = -neg_hi_p
    best_p, best_q = _least_ratio(hi_p, hi_q)
    return lo_p * best_q <= best_p * lo_q, (lo_p, lo_q), (hi_p, hi_q)


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


# _perron_batches' entries lie in [1, 2^26], so A v has entries at most
# deg * 2^26 and every cross-product certified_screen forms is at most
# deg * 2^52: below 2^63 for any maximum degree under 2^11, and so for every
# quipu (degree <= 3) whatever its order.
PERRON_SCALE = 1 << 26
# Graphs per stacked eigh. Batches of 1,024 gave the theorem benchmark 6 MB
# more peak RSS than batches of 256 and saved about 2 % of its time. What the
# screen keeps does not depend on it: _screen_batches rescreens the union.
PERRON_BATCH = 256

# brute_force_all_graphs screens with v = (A + I)^POWER_STEPS 1. Its entries
# are largest for K_7, where v = 7^10 * 1 and A v = 6 * 7^10, so every
# cross-product certified_screen forms is at most 6 * 7^20 < 2^63. For every
# n <= 7 and d, ten steps keep the same labelled graphs as twelve; eight keep
# three times as many at (7, 5).
POWER_STEPS = 10


def _perron_batches(graphs: list[Graph]):
    """(positions, A v, v) for graphs of one order, PERRON_BATCH at a time.
    v is each graph's float Perron vector, from one stacked eigh per batch,
    scaled by PERRON_SCALE, rounded and clamped to at least 1. The float only
    steers the vector; certified_screen's bounds hold for any positive one."""
    for start in range(0, len(graphs), PERRON_BATCH):
        part = graphs[start:start + PERRON_BATCH]
        n = part[0].n
        rows = [row for g in part for row in g.adj]
        degrees = [len(row) for row in rows]
        a = np.zeros((len(part), n, n), dtype=np.int8)
        a.reshape(-1, n)[np.repeat(np.arange(len(rows)), degrees),
                         np.fromiter(chain.from_iterable(rows), np.intp, sum(degrees))] = 1
        vecs = np.abs(np.linalg.eigh(a)[1][:, :, -1])
        v = np.maximum(np.rint(vecs * PERRON_SCALE), 1).astype(np.int64)
        av = np.einsum("kuw,kw->uk", a, v, dtype=np.int64)
        yield np.arange(start, start + len(part)), av, v.T


# ---------------------------------------------------------------------------
# oracle 1: every labeled graph on n <= 7 vertices

def _matched_batches(n: int, d: int, pairs: list[tuple[int, int]]):
    """(masks, A v, v) for the labelled graphs of order n and diameter d, one
    chunk of edge masks at a time, with v = (A + I)^POWER_STEPS 1.

    Each chunk holds every vertex's neighbourhood as an n-bit mask (one uint8
    per vertex, since n <= 7). Reachability grows as bitsets: one step ORs
    into reach[v] the neighbourhood of every u already in reach[v], so after
    t steps reach[v] is the ball of radius t around v. A graph has diameter d
    when every ball is full after d steps and not after d - 1; none has a
    negative diameter, though a one-vertex ball is full after 0 steps."""
    if d < 0:
        return
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

# A rooted tree: AHU code, order, height, internal diameter, root's subtrees.
_Rooted = namedtuple("_Rooted", "code size height diam kids")


def _root(kids: tuple) -> _Rooted:
    """The rooted tree with these subtrees at its root."""
    h = sorted([t.height + 1 for t in kids] + [0, 0])[-2:]
    return _Rooted(_code([t.code for t in kids]), 1 + sum(t.size for t in kids), h[1],
                   max([t.diam for t in kids] + [h[0] + h[1]]), kids)


def _forests(total: int, pool: list[_Rooted], bound: int):
    """Every multiset, as a tuple, of trees in pool[:bound] whose orders sum
    to `total`; pool is sorted by order."""
    if total == 0:
        yield ()
    for i in range(bound):
        if pool[i].size > total:
            break
        for rest in _forests(total - pool[i].size, pool, i + 1):
            yield (pool[i], *rest)


def _place(adj: list, rows: dict, t: _Rooted, parent: int) -> int:
    """Append t's vertices to adj depth-first below `parent` and return the
    label of t's root. Rows are interned in `rows`, so graphs share them."""
    v = len(adj)
    adj.append(None)
    row = (parent, *[_place(adj, rows, k, v) for k in t.kids])
    adj[v] = rows.setdefault(row, row)
    return v


def _hang(rows: dict, heads: list[tuple[int, ...]], trees: list[_Rooted]) -> Graph:
    """The graph whose vertices 0..len(heads)-1 are adjacent to their heads
    and carry the given rooted trees, numbered in that order after them."""
    adj = list(heads)
    for v, (head, t) in enumerate(zip(heads, trees)):
        row = head + tuple([_place(adj, rows, k, v) for k in t.kids])
        adj[v] = rows.setdefault(row, row)
    return Graph(len(adj), tuple(adj))


@functools.cache
def _sparse_members(n: int) -> list[tuple[bytes, int, Graph]]:
    """Every free tree and connected unicyclic graph of order n, one per
    isomorphism class, as (canonical code, diameter, graph) in code order.
    Each is built once, its code and diameter read off its parts, from
    rooted trees that are multisets of smaller ones (Wright, Richmond,
    Odlyzko & McKay, 1986): a tree rooted at its centre, or at the centre
    giving its code with the other as its tallest subtree; a cycle carrying
    rooted trees whose ranks by code are the least of their rotations and
    reflections. Centres and the cycle are numbered first, so rows come out
    sorted as build_graph leaves them."""
    pool = [_Rooted(b"()", 1, 0, 0, ())]
    for size in range(2, n - 1):
        pool += [_root(kids) for kids in _forests(size - 1, pool, len(pool))]
    rows, members = {}, []
    for t in map(_root, _forests(n - 1, pool, len(pool))):
        if t.diam == 2 * t.height:
            members.append((tree_code([[k.code for k in t.kids]]), t.diam, _hang(rows, [()], [t])))
        elif t.diam == 2 * t.height - 1:
            b = max(t.kids, key=lambda k: k.height)
            a = tuple(k for k in t.kids if k is not b)
            code = tree_code([[k.code for k in a], [k.code for k in b.kids]])
            if code == b"T:" + t.code:
                members.append((code, t.diam, _hang(rows, [(1,), (0,)], [_root(a), b])))
    ranked = sorted(pool, key=lambda t: t.code)
    ranks = [[r for r, t in enumerate(ranked) if t.size == size] for size in range(n)]
    heads = [[tuple(sorted(((v - 1) % c, (v + 1) % c))) for v in range(c)] for c in range(n + 1)]
    for first, t in enumerate(ranked):
        # `first` is the least rank on the cycle; cuts split the order left among the others
        left = n - t.size
        for cuts in chain.from_iterable(combinations(range(1, left), k) for k in range(1, left)):
            sizes = [b - a for a, b in zip((0, *cuts), (*cuts, left))]
            for rest in product(*(ranks[s][bisect_left(ranks[s], first):] for s in sizes)):
                seq, c = (first, *rest), len(cuts) + 2
                if any(seq > s[i:] + s[:i] for s in (seq, seq[::-1])
                       for i in range(c) if s[i] == first):
                    continue
                hang = [ranked[r] for r in seq]
                h = [t.height for t in hang]
                diam = max([t.diam for t in hang] + [h[i] + h[j] + min(j - i, c - j + i)
                                                     for j in range(c) for i in range(j)])
                members.append((unicyclic_code([t.code for t in hang]), diam,
                                _hang(rows, heads[c], hang)))
    return sorted(members)


def free_trees(n: int) -> list[Graph]:
    """All free trees of order n, one per isomorphism class, in code order."""
    if n < 1:
        raise ValueError("need n >= 1")
    return [g for code, _, g in _sparse_members(n) if code.startswith(b"T:")]


def unicyclic_graphs(n: int) -> list[Graph]:
    """All connected unicyclic graphs of order n, one per isomorphism class, in code order."""
    return [g for code, _, g in _sparse_members(n) if code.startswith(b"U:")]


def brute_force_sparse(n: int, d: int) -> MinimizerReport:
    """Exact minimum over all trees and unicyclic graphs of order n and
    diameter d. Sound as a minimum over all graphs exactly when the result
    has certified spectral radius below 3/sqrt(2) (the structural reduction
    to sparse graphs needs that bound); the report carries the flag.
    `screened_out` counts the graphs dropped by the exact screen."""
    if not 1 <= n <= 14:
        raise BudgetError("brute_force_sparse supports 1 <= n <= 14")
    cands = _sparse_members(n)
    matched = [g for _, diam, g in cands if diam == d]
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
