"""Minimizer searches over graphs of fixed order and diameter.

Three search spaces of increasing restriction: all labeled graphs (tiny
orders), all trees and unicyclic graphs, and the quipu/dagger families. The
family search is the production path; the other two are independent oracles
against which it is cross-validated. All three feed one streaming exact
tournament, which certifies each graph offered to it and keeps the minimum
and every tie. Over trees and unicyclic graphs a graph is offered only if
the inertia of lam*I - A does not put its radius above the incumbent lam,
the best certified radius so far, rounded up: the sparse oracle reads it
off each member's parts, folding the elimination up each rooted tree hung
on its centres or cycle with the pivot of each rooted tree memoised for
the current lam, and the family search runs the pivot walk of
families.enumerate_quipus, which carries the same elimination along the
walk and cuts whole prefixes by it. Both build only the graphs they
offer, and neither uses any float. The all-labeled-graphs oracle
generates only the degree-sorted edge masks, whose degrees do not
decrease with the vertex label, pair by pair: every class has one, and
each stands for n!/prod m_i! labelled graphs, m_i the multiplicities of
its degrees. It screens them once and offers only the graphs that this
module's exact Collatz-Wielandt screen, certified_screen, keeps with the
integer vectors (A + I)^POWER_STEPS 1. That oracle alone uses numpy, and
its functions import it when called, so `import rhomin` does not load
numpy.
The module also packages the end-to-end verification that the minimum
spectral radius at order 3k+1 and diameter 2k is attained exactly by the
tied family of open quipus with parameters (i, i+j-1, j) over i+j=k.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product

from .exactpoly import (
    CertifiedRoot,
    Ordering,
    below_3_over_sqrt2,
    compare_rho,
    compare_roots,
    core_order,
    pivot_after,
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
# the exact tournament that every search feeds

# The incumbent lam is the best radius's certified upper end, rounded up to a
# multiple of 2^-16. The unrounded end has a denominator near 2^40 that the
# inertia test's pivots carry along the backbone multiply up: on a 2-core
# host the search at (3k+1, 2k) took 1.3 times as long with it at k = 6 and
# 1.5 times at k = 7.
_INCUMBENT_GRID = 1 << 16


class _Tournament:
    """The exact minimum and every tie among the graphs offered to it. Each
    is certified and compared once against the running best: LESS starts a
    new best and tightens the incumbent lam, EQUAL (backed by compare_roots'
    common-factor witness) adds a tie, and GREATER drops it. `offered`
    counts the graphs offered."""

    def __init__(self):
        self.best: CertifiedRoot | None = None
        self.winners: list[Winner] = []
        self.lam: Fraction | None = None
        self.offered = 0

    def offer(self, g: Graph, spec: QuipuSpec | None) -> None:
        self.offered += 1
        root = rho_certified_graph(g)
        order = Ordering.LESS if self.best is None else compare_roots(root, self.best)[0]
        if order is Ordering.LESS:
            self.best, self.winners = root, []
            self.lam = Fraction(math.ceil(root.hi * _INCUMBENT_GRID), _INCUMBENT_GRID)
        if order is not Ordering.GREATER:
            self.winners.append(Winner(canonical_code(g), g, spec))

    def result(self) -> tuple[CertifiedRoot | None, list[Winner]]:
        """The best radius and its winners, in code order."""
        return self.best, sorted(self.winners, key=lambda w: w.code)


# ---------------------------------------------------------------------------
# exact Collatz-Wielandt screen shared by all search paths

def _least_ratio(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least p[i]/q[i] over the first axis, as its (numerator,
    denominator) pair, for positive q. Exact: pairs of ratios are compared
    by integer cross-multiplication, halving the rows each round."""
    import numpy as np

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
    import numpy as np

    if (v < 1).any():
        raise ValueError("Collatz-Wielandt vectors must be positive")
    if int(av.max(initial=0)) * int(v.max()) >= 1 << 63:
        raise OverflowError("Collatz-Wielandt cross-products exceed int64")
    lo_p, lo_q = _least_ratio(av, v)
    neg_hi_p, hi_q = _least_ratio(-av, v)
    hi_p = -neg_hi_p
    best_p, best_q = _least_ratio(hi_p, hi_q)
    return lo_p * best_q <= best_p * lo_q, (lo_p, lo_q), (hi_p, hi_q)


# brute_force_all_graphs screens with v = (A + I)^POWER_STEPS 1. Its entries
# are largest for K_7, where v = 7^10 * 1 and A v = 6 * 7^10, so every
# cross-product certified_screen forms is at most 6 * 7^20 < 2^63. Over the
# degree-sorted walk, for every n <= 7 and d, ten steps keep the same labelled
# graphs as twelve wherever twelve stay within int64 (all but (6, 1), (7, 1)
# and (7, 2)); eight keep three times as many at (7, 5), 54 against 18.
POWER_STEPS = 10


# ---------------------------------------------------------------------------
# oracle 1: every labeled graph on n <= 7 vertices

def _matched(n: int, d: int, pairs: list[tuple[int, int]]):
    """(masks, A v, v, weights) for the degree-sorted labelled graphs of
    order n and diameter d, masks ascending, with v = (A + I)^POWER_STEPS 1.

    The degree-sorted masks, whose degrees do not decrease with the vertex
    label, are generated pair by pair in `pairs` order: each pair doubles
    the partial masks (without it, then with it), each carrying its partial
    degrees, so the masks stay ascending. The pair (u, n - 1) is the last
    one at u, so its degree is final there and a mask with deg(u - 1) >
    deg(u) is dropped; the last pair also fixes deg(n - 1). Every
    isomorphism class has such a labelling, its vertices numbered in degree
    order, so every class is reached; L, U and U* do not depend on the
    labelling, so certified_screen keeps the same classes as over all masks.
    A class whose degree sequence has multiplicities m_i has n!/|Aut|
    labellings, and prod m_i!/|Aut| of them are degree-sorted, since
    automorphisms keep degrees. So each match weighs n!/prod m_i!, and the
    weights sum to the number of labelled graphs of diameter d.

    The survivors hold every vertex's neighbourhood as an n-bit mask (one
    uint8 per vertex, since n <= 7). Reachability grows as bitsets: one step
    ORs into reach[v] the neighbourhood of every u already in reach[v], so
    after t steps reach[v] is the ball of radius t around v. A graph has
    diameter d when every ball is full after d steps and not after d - 1;
    none has a negative diameter, though a one-vertex ball is full after 0
    steps."""
    import numpy as np

    # 2^21 masks at n = 7 fit int32; at most 145,208 partial ones are alive
    masks = np.zeros(1, dtype=np.int32)
    deg = np.zeros((n, 1), dtype=np.uint8)
    vertex = np.arange(n)[:, None]
    for i, (u, v) in enumerate(pairs):
        masks = np.concatenate([masks, masks | np.int32(1 << i)])
        deg = np.concatenate([deg, deg + ((vertex == u) | (vertex == v))], axis=1)
        if v == n - 1 and u:
            keep = deg[u - 1] <= deg[u]
            masks, deg = masks[keep], deg[:, keep]
    keep = (deg[:-1] <= deg[1:]).all(axis=0)
    masks, deg = masks[keep], deg[:, keep]
    full = np.uint8((1 << n) - 1)
    shifts = np.arange(n, dtype=np.uint8)
    # one row per vertex, one column per graph: numpy's inner loops then
    # run along the batch instead of along n
    nb = np.zeros((n, len(masks)), dtype=np.uint8)
    for i, (u, v) in enumerate(pairs):
        bit = ((masks >> i) & 1).astype(np.uint8)
        nb[u] |= bit << v
        nb[v] |= bit << u
    reach = np.repeat((np.uint8(1) << shifts)[:, None], len(masks), axis=1)
    filled_before = np.full(len(masks), d < 0)  # so a negative d matches nothing
    for t in range(1, d + 1):
        if t == d:
            filled_before = (reach == full).all(axis=0)
        grown = reach.copy()
        for u in range(n):
            grown |= ((reach >> u) & 1) * nb[u]
        reach = grown
    idx = np.nonzero((reach == full).all(axis=0) & ~filled_before)[0]
    # prod m_i! as the product, over the sorted degrees, of each one's
    # place in its run of equal degrees
    deg = deg[:, idx]
    run = np.ones(len(idx), dtype=np.int64)
    ties = np.ones(len(idx), dtype=np.int64)
    for v in range(1, n):
        run = np.where(deg[v] == deg[v - 1], run + 1, 1)
        ties *= run
    # adj[u, w] is 1 when w is a neighbour of u, one column per graph
    adj = (nb[:, None, idx] >> shifts[:, None]) & 1
    vec = np.ones((n, len(idx)), dtype=np.int64)
    for _ in range(POWER_STEPS):
        vec += np.einsum("uwk,wk->uk", adj, vec)
    return masks[idx], np.einsum("uwk,wk->uk", adj, vec), vec, math.factorial(n) // ties


def brute_force_all_graphs(n: int, d: int) -> MinimizerReport:
    """Exhaustive minimum over all connected graphs of order n and diameter d.
    Only the degree-sorted labellings of the 2^C(n,2) edge masks, at least
    one per class, are generated and get a diameter; those of diameter d
    are screened once, exactly, with the integer vectors
    (A + I)^POWER_STEPS 1, and the classes kept are offered in code order.
    `matched` counts the labelled graphs of diameter d, each degree-sorted
    match standing for n!/prod m_i! of them (_matched); `pool` counts the
    classes offered."""
    if not 1 <= n <= 7:
        raise BudgetError("brute_force_all_graphs supports 1 <= n <= 7")
    pairs = list(combinations(range(n), 2))
    m = len(pairs)
    total = 1 << m
    masks, av, v, weights = _matched(n, d, pairs)
    matched = int(weights.sum())
    if not matched:
        return MinimizerReport(n, d, None, [], "all-graphs", total,
                               stats={"matched": matched})
    seen: dict[bytes, Graph] = {}
    for mk in masks[certified_screen(av, v)[0]].tolist():
        g = build_graph(n, [pairs[i] for i in range(m) if mk >> i & 1])
        seen.setdefault(canonical_code(g), g)
    tournament = _Tournament()
    for code in sorted(seen):
        tournament.offer(seen[code], classify(seen[code]))
    min_rho, winners = tournament.result()
    return MinimizerReport(n, d, min_rho, winners, "all-graphs", total,
                           stats={"matched": matched, "pool": len(seen)})


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


def _place(adj: list, t: _Rooted, parent: int) -> int:
    """Append t's vertices to adj depth-first below `parent` and return the
    label of t's root."""
    v = len(adj)
    adj.append(None)
    adj[v] = (parent, *[_place(adj, k, v) for k in t.kids])
    return v


def _hang(heads: list[tuple[int, ...]], trees: list[_Rooted]) -> Graph:
    """The graph whose vertices 0..len(heads)-1 are adjacent to their heads
    and carry the given rooted trees, numbered in that order after them."""
    adj = list(heads)
    for v, (head, t) in enumerate(zip(heads, trees)):
        adj[v] = head + tuple([_place(adj, k, v) for k in t.kids])
    return Graph(len(adj), tuple(adj))


@functools.cache
def _sparse_members(n: int) -> list[tuple[bytes, int, tuple]]:
    """Every free tree and connected unicyclic graph of order n, one per
    isomorphism class, as (canonical code, diameter, parts) in code order,
    each made once from a pool of smaller rooted trees (Wright, Richmond,
    Odlyzko & McKay, 1986). A central tree's root has two or more tallest
    subtrees, of height top: diameter 2*top + 2. A bicentral tree is two of
    height top and total order n, rooted at the side of smaller code (its
    tree_code): diameter 2*top + 1. A cycle's c >= 3 trees have ranks by code
    least among rotations and reflections, walked depth first from the least
    over ranks no less, by order; the last is at least the second, so only a
    tie there or a repeated least rank needs the full test. Its diameter is
    the most of the trees' own, the tallest height plus c//2 (to the vertex
    opposite) and h_i + h_j + cycle distance over trees of positive height:
    a pair with a height-0 end spans at most the other's height plus c//2.
    No graph is built; parts are _hang's (heads, trees), trees shared, and
    _hang(*parts) numbers centres or cycle first, rows sorted as build_graph's."""
    if n > 14:
        raise BudgetError("trees and unicyclic graphs are generated for n <= 14")
    pool = [_Rooted(b"()", 1, 0, 0, ())]
    for size in range(2, n - 1):
        pool += [_root(kids) for kids in _forests(size - 1, pool, len(pool))]
    members, pos = [], {t.code: i for i, t in enumerate(pool)}
    for top in range(-1, n // 2):  # -1: the lone vertex, which has no subtree
        tall, lower = [t for t in pool if t.height == top], [t for t in pool if t.height < top]
        for x, y in (f for f in _forests(n, tall, len(tall)) if len(f) == 2):
            members.append(min((tree_code([[k.code for k in a.kids] + [b.code]]), 2 * top + 1,
                                ([(1,), (0,)], [a, b])) for a, b in ((x, y), (y, x))))
        for size in range(2 * top + 2, n):
            his = [f for f in _forests(size, tall, len(tall)) if len(f) != 1]
            for hi, lo in product(his, _forests(n - 1 - size, lower, len(lower))):
                t = _root(tuple(sorted(hi + lo, key=lambda k: pos[k.code], reverse=True)))
                members.append((tree_code([[k.code for k in t.kids]]), 2 * top + 2, ([()], [t])))
    ranked = sorted(pool, key=lambda t: t.code)
    above = [[] for _ in range(n)]  # above[s]: the ranks of order s from `first` on, descending
    heads = [[tuple(sorted(((v - 1) % c, (v + 1) % c))) for v in range(c)] for c in range(n + 1)]
    hops = [[min(k, c - k) for k in range(c)] for c in range(n + 1)]

    def walk(seq: tuple[int, ...], left: int) -> None:
        for s in range(1, left):
            for r in above[s]:
                walk(seq + (r,), left - s)
        for r in above[left] if len(seq) > 1 else ():
            if r < seq[1]:
                break
            cyc, c = seq + (r,), len(seq) + 1
            if r == seq[1] and cyc[1:] > cyc[:0:-1] or cyc.count(seq[0]) > 1 and cyc > min(
                    s[i:] + s[:i] for s in (cyc, cyc[::-1]) for i in range(c) if s[i] == seq[0]):
                continue
            hang = [ranked[k] for k in cyc]
            h, hop = [t.height for t in hang], hops[c]
            diam = max([t.diam for t in hang] + [max(h) + c // 2] + [h[i] + h[j] + hop[j - i]
                       for i, j in combinations([i for i in range(c) if h[i]], 2)])
            members.append((unicyclic_code([t.code for t in hang]), diam, (heads[c], hang)))
    for first in reversed(range(len(ranked) if n > 2 else 0)):
        above[ranked[first].size].append(first)
        walk((first,), n - ranked[first].size)
    return sorted(members)


def free_trees(n: int) -> list[Graph]:
    """All free trees of order n <= 14, one per isomorphism class, in code order."""
    if n < 1:
        raise ValueError("need n >= 1")
    return [_hang(*parts) for code, _, parts in _sparse_members(n) if code.startswith(b"T:")]


def unicyclic_graphs(n: int) -> list[Graph]:
    """All connected unicyclic graphs of order n <= 14, one per isomorphism class, in
    code order."""
    return [_hang(*parts) for code, _, parts in _sparse_members(n) if code.startswith(b"U:")]


def _root_pivot(t: _Rooted, lam: tuple[int, int], memo: dict) -> tuple | None:
    """The pivot at t's root of lam*I - A(t), its subtrees eliminated from
    the leaves inward: lam - sum 1/pivot over its children, an unreduced
    pair. None when a pivot below the root is <= 0, which puts the radius
    of any graph t hangs in above lam, by _inertia's rule. It depends only
    on t's rooted isomorphism class, so `memo` holds it by t's code, for
    one lam."""
    if t.code in memo:
        return memo[t.code]
    p = lam
    for k in t.kids:
        q = _root_pivot(k, lam, memo)
        if q is None or q[0] <= 0:
            p = None
            break
        p = pivot_after(p, q)
    memo[t.code] = p
    return p


def _parts_order(trees: list[_Rooted], lam: tuple[int, int], memo: dict) -> Ordering:
    """rho against lam for the member of _sparse_members that hangs these
    rooted trees on its one centre, two centres or cycle: _inertia's
    elimination, each tree folded by _root_pivot, the first of two centres
    eliminated into the second, then core_order on what is left."""
    piv = []
    for t in trees:
        p = _root_pivot(t, lam, memo)
        if p is None:
            return Ordering.GREATER
        piv.append(p)
    if len(piv) == 2:  # two centres; a cycle has at least three vertices
        if piv[0][0] <= 0:
            return Ordering.GREATER
        piv = [pivot_after(piv[1], piv[0])]
    return core_order(piv)


def brute_force_sparse(n: int, d: int) -> MinimizerReport:
    """Exact minimum over all trees and unicyclic graphs of order n and
    diameter d. Sound as a minimum over all graphs exactly when the result
    has certified spectral radius below 3/sqrt(2) (the structural reduction
    to sparse graphs needs that bound); the report carries the flag. The
    members are walked in code order. Once the exact tournament holds an
    incumbent lam, a member whose inertia test (_parts_order) puts it above
    lam is dropped; `screened_out` counts these. Each other member is built
    as a graph and offered. The root pivots of the hung trees are memoised
    by code for each lam and forgotten when lam tightens."""
    if n < 1:
        raise BudgetError("brute_force_sparse supports 1 <= n <= 14")
    cands = _sparse_members(n)
    matched = [parts for _, diam, parts in cands if diam == d]
    if not matched:
        return MinimizerReport(n, d, None, [], "sparse", len(cands), sound=False)
    tournament = _Tournament()
    lam, memo = None, {}
    for heads, trees in matched:
        if tournament.lam is not None:
            if tournament.lam is not lam:
                lam, memo = tournament.lam, {}
            if _parts_order(trees, (lam.numerator, lam.denominator), memo) is Ordering.GREATER:
                continue
        g = _hang(heads, trees)
        tournament.offer(g, classify(g))
    min_rho, winners = tournament.result()
    return MinimizerReport(
        n, d, min_rho, winners, "sparse", len(cands), sound=below_3_over_sqrt2(min_rho),
        stats={"matched": len(matched), "screened_out": len(matched) - tournament.offered},
    )


# ---------------------------------------------------------------------------
# production path: quipu/dagger family search

def minimize_over_quipus(n: int, d: int) -> MinimizerReport:
    """Exact minimum over all open quipus, closed quipus and daggers of order
    n and diameter d.

    Branch-and-bound against the exact tournament's incumbent lam: the
    pivot walk of enumerate_quipus cuts each prefix of its walk whose
    elimination pivots put every member below it above lam, so at least
    the minimum. Each member it keeps, one whose last pivot is >= 0 and
    so whose radius is at most the lam of the moment, is realized and
    offered to the tournament, which may tighten lam for the rest of the
    walk. The report is sound when the minimum is certified below
    3/sqrt(2). Enumeration computes diameters from parameters; each
    winner's diameter is confirmed by BFS on its graph, and a mismatch
    marks the report unsound. `candidates_examined` counts the members the
    walk reached in full, `screened_out` those of them whose last pivot
    was negative, `exactly_compared` the ones offered, and `prefixes_cut`
    the prefixes the pivots cut.
    """
    tournament = _Tournament()
    tally = {}
    for spec in enumerate_quipus(n, d, incumbent=lambda: tournament.lam, tally=tally):
        tournament.offer(realize(spec), spec)
    min_rho, winners = tournament.result()
    if min_rho is None:
        return MinimizerReport(n, d, None, [], "quipu-family", 0, sound=False)
    diameter_mismatches = sum(spec_diameter(w.spec) != d for w in winners)
    sound = below_3_over_sqrt2(min_rho) and not diameter_mismatches
    return MinimizerReport(
        n, d, min_rho, winners, "quipu-family", tally["reached"], sound=sound,
        stats={"screened_out": tally["screened_out"],
               "exactly_compared": tournament.offered,
               "prefixes_cut": tally["prefixes_cut"],
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
    the tied quipu family, and that the minimum is strictly below the next
    family's. The ties need no second check: the tournament admits a tie
    only on compare_roots' gcd witness of its equality."""
    if k < 2:
        raise ValueError("need k >= 2")
    failures = []
    report = minimize_over_quipus(3 * k + 1, 2 * k)
    if not report.sound:
        failures.append("search is not sound at this (n, d)")
    expected = {canonical_code(realize(s)) for s in theorem_family(k)}
    got = report.winner_codes()
    if got != expected:
        failures.append(
            f"winner set mismatch: got {len(got)} winners, expected {len(expected)}"
        )
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
