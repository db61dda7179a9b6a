"""Named property suites: randomized, certified checks of the structural
facts the searches rely on. Each suite is deterministic (seeded) and returns
a SuiteResult; the test suite and the command line both run them."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .exactpoly import (
    Ordering,
    below_3_over_sqrt2,
    charpoly,
    compare_rho,
    compare_rho_to,
    compare_roots,
    equal_rho_certificate,
    rho_certified_graph,
)
from .families import (
    ClosedQuipu,
    enumerate_quipus,
    realize,
    spec_literal,
    spider,
    theorem_family,
)
from .graphs import (
    Graph,
    add_edge,
    build_graph,
    canonical_code,
    delete_edge,
    delete_vertex,
    distances,
    is_connected,
    path_graph,
    subdivide_edge,
)
from .search import rho_k
from .transfer import (
    RootedGraph,
    edge_transfer_compare,
    odd_path_center_pq,
    pendant_extend,
    pq_decompose,
    alpha,
    extended_phi,
    t_compose,
    t_compose_rho,
    t_value,
)

DEFAULT_SEED = 20240917
SAMPLE_LAMBDAS = (Fraction(21, 10), Fraction(5, 2), Fraction(3))


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checks: int
    failures: list[str] = field(default_factory=list)


def _random_tree(rng: random.Random, n: int) -> Graph:
    g = build_graph(1, [])
    for v in range(1, n):
        g = add_edge(build_graph(v + 1, list(g.edges())), rng.randrange(v), v)
    return g


def _random_connected(rng: random.Random, n: int, extra: int) -> Graph:
    g = _random_tree(rng, n)
    tries = 0
    while extra > 0 and tries < 50:
        u, v = rng.randrange(n), rng.randrange(n)
        tries += 1
        if u != v and v not in g.adj[u]:
            g = add_edge(g, u, v)
            extra -= 1
    return g


def suite_subgraph_monotonicity(seed: int = DEFAULT_SEED, trials: int = 30) -> SuiteResult:
    """Removing an edge or a vertex from a connected graph (keeping it
    connected) strictly lowers the spectral radius."""
    rng = random.Random(seed)
    failures = []
    checks = 0
    while checks < trials:
        n = rng.randint(4, 8)
        g = _random_connected(rng, n, rng.randint(1, 3))
        edges = list(g.edges())
        u, v = rng.choice(edges)
        h = delete_edge(g, u, v)
        if not is_connected(h):
            continue
        checks += 1
        if compare_rho(h, g) is not Ordering.LESS:
            failures.append(f"edge removal not strict on {canonical_code(g)!r}")
    return SuiteResult("subgraph-monotonicity", not failures, checks, failures)


def suite_subdivision(seed: int = DEFAULT_SEED, trials: int = 25) -> SuiteResult:
    """Subdividing an edge of an internal path (both ends of degree >= 2,
    graph not a cycle) does not increase the spectral radius; subdividing a
    pendant edge of a path-plus-pendant increases order but lowers nothing.

    Checked form: for graphs that are cycles, subdivision keeps radius 2;
    for an edge on an internal path of a non-cycle graph, radius strictly
    decreases or stays equal per the certified comparison being not Greater.
    """
    def _path_terminus(g: Graph, start: int, prev: int) -> int:
        # Walk along degree-2 vertices away from ``prev`` until the path
        # ends at a vertex of degree != 2 (or wraps around a cycle).
        cur, back = start, prev
        while g.degree(cur) == 2 and cur != prev:
            nxt = next(w for w in g.adj[cur] if w != back)
            back, cur = cur, nxt
        return cur

    def _on_internal_path(g: Graph, u: int, v: int) -> bool:
        a = _path_terminus(g, u, v)
        b = _path_terminus(g, v, u)
        return g.degree(a) >= 3 and g.degree(b) >= 3

    rng = random.Random(seed)
    failures = []
    checks = 0
    while checks < trials:
        n = rng.randint(5, 8)
        g = _random_connected(rng, n, rng.randint(1, 2))
        internal = [(u, v) for u, v in g.edges() if _on_internal_path(g, u, v)]
        if not internal:
            continue
        u, v = rng.choice(internal)
        h = subdivide_edge(g, u, v)
        checks += 1
        if compare_rho(h, g) is Ordering.GREATER:
            failures.append(f"internal subdivision increased rho on {canonical_code(g)!r}")
    return SuiteResult("subdivision", not failures, checks, failures)


def suite_edge_transfer(seed: int = DEFAULT_SEED, trials: int = 200) -> SuiteResult:
    """The pendant-path transfer prediction matches the certified comparison
    on random valid instances, with equality exactly when j=0 and k=l-1."""
    rng = random.Random(seed)
    failures = []
    checks = 0
    attempts = 0
    while checks < trials and attempts < trials * 60:
        attempts += 1
        n = rng.randint(3, 6)
        g = _random_connected(rng, n, rng.randint(1, 3))
        cand = [v for v in range(g.n) if g.degree(v) >= 2]
        if not cand:
            continue
        u = rng.choice(cand)
        v = rng.choice(cand)
        j = 0 if u == v else distances(g, u)[v]
        l = rng.randint(1, 3)
        k = max(l - 1 + (j - 1 if j > 0 else -1) + rng.randint(0, 2), l - 1 + j - 1)
        if k - l < j - 1 or k < 0:
            continue
        checks += 1
        res = edge_transfer_compare(g, u, v, j, k, l)
        if not res.verified:
            failures.append(
                f"prediction failed: j={j} k={k} l={l} on {canonical_code(g)!r}"
            )
    return SuiteResult("edge-transfer", not failures and checks >= trials, checks, failures)


# lo < 3/sqrt(2) < hi with hi - lo = 2^-40: 2^80 * 9/2 = 9 * 2^79 is no
# square, so lo^2 < 9/2 < hi^2
_THRESHOLD_LO = Fraction(math.isqrt(9 << 79), 1 << 40)
_THRESHOLD_HI = _THRESHOLD_LO + Fraction(1, 1 << 40)


def _below_threshold(spec) -> bool:
    """rho(realize(spec)) < 3/sqrt(2), decided by compare_rho_to at hi, then
    at lo. Only a radius between them takes a certified root."""
    g = realize(spec)
    if compare_rho_to(g, _THRESHOLD_HI) is not Ordering.LESS:
        return False
    if compare_rho_to(g, _THRESHOLD_LO) is not Ordering.GREATER:
        return True
    return below_3_over_sqrt2(rho_certified_graph(g, Fraction(1, 10**4)))


def suite_diameter_bounds(n: int = 16) -> SuiteResult:
    """Every open quipu of order n (n >= 13) with certified radius below
    3/sqrt(2) has diameter at least (2n-4)/3; closed quipus stay within
    n/3 < d <= 2(n-1)/3, with the upper bound met only by the one-branch
    quipu on a cycle of 2/3 the order."""
    failures = []
    checks = 0
    # the walk drops only members with rho > _THRESHOLD_HI > 3/sqrt(2)
    for d in range(1, n):
        for s in enumerate_quipus(n, d, kinds={"open"}, incumbent=lambda: _THRESHOLD_HI):
            if not _below_threshold(s):
                continue
            checks += 1
            if 3 * d < 2 * n - 4:
                failures.append(f"{spec_literal(s)} below threshold at d={d}")
    for d in range(1, n):
        for s in enumerate_quipus(n, d, kinds={"closed"}, incumbent=lambda: _THRESHOLD_HI):
            if not _below_threshold(s):
                continue
            checks += 1
            if not (n < 3 * d and 3 * d <= 2 * (n - 1)):
                failures.append(f"closed {spec_literal(s)} out of range at d={d}")
    return SuiteResult("diameter-bounds", not failures, checks, failures)


def suite_rooted_ratio(seed: int = DEFAULT_SEED, trials: int = 50) -> SuiteResult:
    """Transfer-pair identities on random rooted trees: the defining linear
    system, pendant extension versus direct polynomial evaluation, and the
    closed-form ratio; plus the odd-path closed form and the two-graph
    t-inequality on random rational points."""
    rng = random.Random(seed)
    failures = []
    checks = 0
    for _ in range(trials):
        n = rng.randint(1, 8)
        g = _random_tree(rng, n)
        v = rng.randrange(n)
        rg = RootedGraph(g, v)
        phi_g, phi_gv = charpoly(g), charpoly(delete_vertex(g, v))
        for lam in SAMPLE_LAMBDAS:
            checks += 1
            pq = pq_decompose(rg, lam)
            if pq.phi != phi_g.eval_at(lam) or pq.phi_minus_root != phi_gv.eval_at(lam):
                failures.append(f"defining system failed at lam={lam}")
                continue
            i = rng.randint(0, 5)
            ext = pendant_extend(pq, i)
            if ext.phi != extended_phi(rg, i, lam):
                failures.append(f"extension mismatch i={i} lam={lam}")
            if ext.phi == 0:
                continue
            nxt = pendant_extend(ext, 1)
            if ((nxt.p + nxt.q) / (ext.p + ext.q) - alpha(rg, i, lam)).sign():
                failures.append(f"ratio disagrees with its field form i={i} lam={lam}")
    for k in range(0, 7):
        p = path_graph(2 * k + 1)
        direct = pq_decompose(RootedGraph(p, k), Fraction(5, 2))
        closed = odd_path_center_pq(k, Fraction(5, 2))
        checks += 1
        if direct.p != closed.p or direct.q != closed.q:
            failures.append(f"odd-path closed form failed at k={k}")
    g1 = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])
    g2 = build_graph(6, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)])
    for _ in range(50):
        lam = Fraction(2) + Fraction(rng.randint(1, 2000), 1000)
        checks += 1
        tu = t_value(RootedGraph(g1, 3), lam)
        tv = t_value(RootedGraph(g2, 3), lam)
        if (tv - tu).sign() <= 0:
            failures.append(f"t-inequality failed at lam={lam}")
    return SuiteResult("rooted-ratio", not failures, checks, failures)


def suite_equal_radius_family(kmax: int = 6) -> SuiteResult:
    """All members of the tied family at each k share one certified radius,
    and so does the companion closed quipu with cycle gaps (i+j+1, i+j+1)
    and pendants (i-1, j-1) for i, j >= 1."""
    failures = []
    checks = 0
    for k in range(2, kmax + 1):
        base = realize(spider(k))
        for s in theorem_family(k):
            checks += 1
            ok, _ = equal_rho_certificate(base, realize(s))
            if not ok:
                failures.append(f"k={k}: {spec_literal(s)} not tied")
        for i in range(1, k):
            j = k - i
            if j < i:
                break
            cq = ClosedQuipu((i + j + 1, i + j + 1), (i - 1, j - 1))
            checks += 1
            ok, _ = equal_rho_certificate(base, realize(cq))
            if not ok:
                failures.append(f"k={k}: companion {spec_literal(cq)} not tied")
    return SuiteResult("equal-radius-family", not failures, checks, failures)


def suite_composition(seed: int = DEFAULT_SEED, trials: int = 50) -> SuiteResult:
    """The certified root of the composition equation always intersects the
    certified radius of the realized composition graph."""
    rng = random.Random(seed)
    failures = []
    checks = 0
    for _ in range(trials):
        parts = [
            RootedGraph(t, rng.randrange(t.n))
            for t in (_random_tree(rng, rng.randint(1, 5)) for _ in range(3))
        ]
        checks += 1
        root = t_compose_rho(*parts)
        ref = rho_certified_graph(t_compose(*parts))
        if root.hi < ref.lo or ref.hi < root.lo:
            failures.append("equation and realized intervals disjoint")
    return SuiteResult("composition", not failures, checks, failures)


def suite_composition_symmetry(seed: int = DEFAULT_SEED, trials: int = 20) -> SuiteResult:
    """Swapping the center branch with the two equal outer branches preserves
    the spectral radius: rho(T_{G1,G1}^{G2}) = rho(T_{G2,G2}^{G1})."""
    rng = random.Random(seed)
    failures = []
    checks = 0
    for _ in range(trials):
        t1 = _random_tree(rng, rng.randint(1, 6))
        t2 = _random_tree(rng, rng.randint(1, 6))
        a = RootedGraph(t1, rng.randrange(t1.n))
        b = RootedGraph(t2, rng.randrange(t2.n))
        checks += 1
        ok, _ = equal_rho_certificate(t_compose(a, b, a), t_compose(b, a, b))
        if not ok:
            failures.append("symmetry equality not certified")
    return SuiteResult("composition-symmetry", not failures, checks, failures)


def suite_spider_family(kmax: int = 15) -> SuiteResult:
    """The three-arm spider radii increase strictly with the arm length and
    stay certified below 3/sqrt(2); the first two values are sqrt(3) and 2."""
    failures = []
    checks = 0
    for k in range(1, kmax + 1):
        root = rho_k(k)
        checks += 1
        if not below_3_over_sqrt2(root):
            failures.append(f"rho_{k} not below the threshold")
        if k < kmax:
            order, _ = compare_roots(rho_k(k), rho_k(k + 1))
            checks += 1
            if order is not Ordering.LESS:
                failures.append(f"rho_{k} not below rho_{k + 1}")
    r1 = rho_k(1)
    if not (r1.lo * r1.lo <= 3 <= r1.hi * r1.hi):
        failures.append("rho_1 interval misses sqrt(3)")
    r2 = rho_k(2)
    if not (r2.lo <= 2 <= r2.hi):
        failures.append("rho_2 interval misses 2")
    checks += 2
    return SuiteResult("spider-family", not failures, checks, failures)


ALL_SUITES = {
    "subgraph-monotonicity": suite_subgraph_monotonicity,
    "subdivision": suite_subdivision,
    "edge-transfer": suite_edge_transfer,
    "diameter-bounds": suite_diameter_bounds,
    "rooted-ratio": suite_rooted_ratio,
    "equal-radius-family": suite_equal_radius_family,
    "composition": suite_composition,
    "composition-symmetry": suite_composition_symmetry,
    "spider-family": suite_spider_family,
}


def run_suites(names=None) -> list[SuiteResult]:
    if names is None:
        names = list(ALL_SUITES)
    unknown = [n for n in names if n not in ALL_SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    return [ALL_SUITES[n]() for n in names]
