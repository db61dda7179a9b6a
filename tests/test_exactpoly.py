"""Integer polynomials, Sturm root certification, the inertia locator of
tree and unicyclic radii, exact comparisons, and the exact Collatz-Wielandt
screen that the searches run before them."""

import math
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhomin.exactpoly import (
    CYCLE_START,
    DEFAULT_TOL,
    CertifiedRoot,
    IntPoly,
    Ordering,
    arm_pivots,
    at_most_inverse,
    bare_paths,
    below_3_over_sqrt2,
    charpoly,
    charpoly_dense,
    compare_rho,
    compare_rho_to,
    compare_roots,
    cycle_after,
    cycle_close,
    cycle_pivot,
    cycle_then,
    equal_rho_certificate,
    poly_div_exact,
    poly_gcd,
    pivot_after,
    poly_to_json,
    rho_certified,
    rho_certified_graph,
    sturm_chain,
)
from rhomin.families import ClosedQuipu, OpenQuipu, parse_spec_literal, realize, spider
from rhomin.graphs import (build_graph, cycle_graph, graph6_decode, path_graph, peel_leaves,
                           star_graph)
from rhomin.search import POWER_STEPS, _hang, _sparse_members, certified_screen
from rhomin.transfer import RootedGraph, compose_charpoly
from graph_helpers import adjacency, disjoint_union, lams_around, perron_vector, relabel


def count_roots_halfopen(chain, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in (a, b] of the first entry of a
    sturm_chain: its sign variations at a less those at b (Sturm)."""

    def variations(x):
        signs = [s for s in (q.sign_at(x) for q in chain) if s]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return variations(a) - variations(b)


def faddeev_leverrier(g) -> IntPoly:
    """det(xI - A) by the exact integer Faddeev-LeVerrier recurrence, the
    reference charpoly_dense is checked against: M_0 = I, c_k = -tr(A
    M_{k-1}) / k, M_k = A M_{k-1} + c_k I, with row i of A M the sum of M's
    rows at the neighbours of i."""
    n = g.n
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    for k in range(1, n + 1):
        M = [[sum(col) for col in zip([0] * n, *(M[t] for t in nbrs))] for nbrs in g.adj]
        ck = -sum(M[i][i] for i in range(n)) // k
        coeffs[n - k] = ck
        for i in range(n):
            M[i][i] += ck
    return IntPoly(tuple(coeffs))


def test_poly_arithmetic():
    p = IntPoly((1, 2))       # 1 + 2x
    q = IntPoly((-1, 0, 1))   # x^2 - 1
    assert (p * q).coeffs == (-1, -2, 1, 2)
    assert (p + q).coeffs == (0, 2, 1)
    assert (q - q).is_zero
    assert q.derivative().coeffs == (0, 2)
    assert q.eval_at(Fraction(3, 2)) == Fraction(5, 4)
    assert q.sign_at(Fraction(1, 2)) == -1
    assert q.sign_at(Fraction(1)) == 0
    assert IntPoly(()).is_zero


def test_poly_json_round_trip():
    p = IntPoly((-3, 0, 1))
    assert IntPoly(tuple(map(int, poly_to_json(p)))) == p
    assert poly_to_json(p) == ["-3", "0", "1"]


def test_gcd_and_square_free():
    # (x-1)^2 (x+2) and (x-1)(x-3) share (x-1)
    a = IntPoly((-1, 1)) * IntPoly((-1, 1)) * IntPoly((2, 1))
    b = IntPoly((-1, 1)) * IntPoly((-3, 1))
    g = poly_gcd(a, b)
    assert g.coeffs == (-1, 1)
    sf = sturm_chain(a)[0]
    assert sf.coeffs == IntPoly((-1, 1)).__mul__(IntPoly((2, 1))).coeffs


def test_sturm_counts():
    # x(x^2 - 3), and x^3 (x^2 - 3) with its triple root 0 at the midpoint
    # of (-2, 2]: every count is of distinct roots, also with 0 as an end
    counts = {(-2, 2): 3, (-2, 0): 2, (0, 2): 1, (-1, 0): 1, (0, 1): 0, (1, 2): 1}
    for k in (1, 3):
        p = IntPoly((0,) * k + (-3, 0, 1))
        chain = sturm_chain(p)
        assert chain[0] == IntPoly((0, -3, 0, 1))
        for (a, b), n in counts.items():
            assert count_roots_halfopen(chain, Fraction(a), Fraction(b)) == n
        root = rho_certified(p)
        assert root.lo * root.lo < 3 < root.hi * root.hi


def test_rho_certified_irrational():
    root = rho_certified(IntPoly((-3, 0, 1)))  # sqrt(3)
    assert root.lo * root.lo < 3 < root.hi * root.hi
    assert root.width <= Fraction(1, 10**12)


def test_rho_certified_rational_root_deflation():
    # x(x-2)(x+2): largest root exactly 2, marked exact by the one Sturm
    # bisection that isolates every root
    root = rho_certified(IntPoly((0, -4, 0, 1)))
    assert root.exact and root.lo == 2
    # largest root rational but not the bisection midpoint
    root = rho_certified(IntPoly((-6, 11, -6, 1)))  # (x-1)(x-2)(x-3)
    assert root.contains(Fraction(3))


def _minus(root, q: Fraction) -> int:
    """Sign of root - q, for a rational root or for the quadratic root
    (-b + sqrt(disc)) / 2 given as (b, disc) with disc not a square."""
    if isinstance(root, Fraction):
        return (root > q) - (root < q)
    b, disc = root
    t = 2 * q + b
    return 1 if t < 0 or disc > t * t else -1


def _as_float(root) -> float:
    if isinstance(root, Fraction):
        return float(root)
    b, disc = root
    return (-b + math.sqrt(disc)) / 2


@settings(max_examples=200, deadline=None)
@given(
    linear=st.lists(
        st.tuples(st.integers(1, 4), st.integers(-8, 8), st.integers(1, 3)),
        min_size=1, max_size=4),
    quadratics=st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-9, 9), st.integers(1, 2)),
        max_size=2),
    tol=st.sampled_from([Fraction(1, 2), Fraction(1, 1000), Fraction(1, 10**12)]),
)
def test_isolation_of_products_of_known_factors(linear, quadratics, tol):
    # (a x - b)^k and (x^2 + b x + c)^k factors, so repeated roots occur
    p, roots = IntPoly((1,)), []
    for a, b, k in linear:
        for _ in range(k):
            p = p * IntPoly((-b, a))
        roots.append(Fraction(b, a))
    for b, c, k in quadratics:
        for _ in range(k):
            p = p * IntPoly((c, b, 1))
        disc = b * b - 4 * c
        if disc >= 0:
            s = math.isqrt(disc)
            roots.append(Fraction(-b + s, 2) if s * s == disc else (b, disc))
    largest = max(roots, key=_as_float)
    root = rho_certified(p, tol)
    assert root.width <= tol
    if root.exact:
        assert _minus(largest, root.lo) == 0
    else:
        assert _minus(largest, root.lo) > 0 and _minus(largest, root.hi) <= 0
    if all(a == 1 for a, _, _ in linear):
        is_integer = isinstance(largest, Fraction) and largest.denominator == 1
        assert root.exact == is_integer


def test_refine_converges_to_the_root_above_a_root_at_lo():
    p = IntPoly((3, -4, 1))  # (x - 1)(x - 3); lo = 1 is the smaller root
    root = CertifiedRoot(p, p, Fraction(1), Fraction(4), False)
    fine = root.refine(Fraction(1, 10**9))
    assert fine.contains(Fraction(3))
    assert fine.width <= Fraction(1, 10**9)


def _sturm_evaluations(monkeypatch, g) -> list:
    """The points at which rho_certified(charpoly(g)) evaluates the Sturm
    chain."""
    import rhomin.exactpoly as ep

    p = charpoly(g)
    calls = []
    var_at = ep._var_at

    def counting(chain, x):
        calls.append(x)
        return var_at(chain, x)

    monkeypatch.setattr(ep, "_var_at", counting)
    rho_certified(p)
    return calls


def test_isolation_evaluates_the_sturm_chain_once_per_halving(monkeypatch):
    g = realize(spider(10))
    calls = _sturm_evaluations(monkeypatch, g)
    # The integer bracket reads V at 1, 2, 4, ..., 2^j, the first power of
    # two >= rho, then once per halving of (2^(j-1), 2^j] over the
    # integers, j - 1 of them. Bisection of (m - 1, m] then stops once the
    # interval is narrower than the gap between the two largest distinct
    # roots, after at most log2(1 / gap) halvings.
    eig = np.unique(np.round(np.linalg.eigvalsh(adjacency(g)), 9))
    j = math.ceil(math.log2(eig[-1]))
    halvings = max(0, math.ceil(math.log2(1 / (eig[-1] - eig[-2]))))
    bound = (j + 1) + (j - 1) + halvings
    assert bound <= 11
    assert len(calls) <= bound


def test_isolation_starts_from_the_least_integer_above_rho(monkeypatch):
    # rho ~ 2.1211 and lambda_2 ~ 1.9190: doubling reads V at 1, 2 and 4,
    # one halving over the integers at 3, then the hint's two probes on the
    # 2^-42 grid, which straddle rho at most 2^-41 apart; (lo, hi] isolates
    # rho there, so no halving below an integer reads V at all
    g = realize(spider(10))
    calls = _sturm_evaluations(monkeypatch, g)
    above, below = Fraction(9328518719553, 2**42), Fraction(9328518719551, 2**42)
    assert calls == [1, 2, 4, 3, above, below]
    assert above - below <= Fraction(1, 2**41)
    root = rho_certified(charpoly(g))
    assert (root.lo, root.hi, root.exact) == (below, above, False)


# ---------------------------------------------------------------------------
# rho_certified's Newton hint: two probes in place of the halvings

def _random_dense(rng, n):
    """A connected graph on n vertices: a random tree plus 2 to 6 further
    edges, the shape of the benchmark's dense queries."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    target = n - 1 + rng.randint(2, 6)
    while len(edges) < target:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return build_graph(n, edges)


def _composed(rng, count):
    """compose_charpoly of `count` triples of random rooted trees of 1..6
    vertices."""
    polys = []
    for _ in range(count):
        parts = []
        for _ in range(3):
            n = rng.randint(1, 6)
            tree = build_graph(n, [(rng.randrange(v), v) for v in range(1, n)])
            parts.append(RootedGraph(tree, rng.randrange(n)))
        polys.append(compose_charpoly(*parts))
    return polys


def _sturm_route_sample():
    """Polynomials of each kind the Sturm route takes: spiders' charpolys,
    dense graphs', a forest's, composed polynomials and 2x^2 - 9."""
    rng = random.Random(30)
    graphs = [realize(spider(k)) for k in (3, 10, 15)]
    graphs += [_random_dense(rng, n) for n in (12, 20, 30, 40)]
    graphs.append(disjoint_union(path_graph(7), star_graph(5)))
    return [charpoly(g) for g in graphs] + _composed(rng, 4) + [IntPoly((-9, 0, 2))]


def test_a_probe_at_rho_is_an_exact_root(monkeypatch):
    import rhomin.exactpoly as ep

    # 2x - 1 is not monic: its root 1/2 lies on the probes' 2^-42 grid, and
    # a hint 2^-43 below it puts the upper probe on it, where side is EQUAL
    monkeypatch.setattr(ep, "_newton_hint", lambda sf, m: (2**41 - 0.5) / 2**42)
    root = rho_certified(IntPoly((-1, 2)))
    assert root.exact and root.lo == root.hi == Fraction(1, 2)


@pytest.mark.parametrize("hint", ["m-1", "m", "above", "below", "nan"])
def test_newton_hint_decides_nothing(monkeypatch, hint):
    import rhomin.exactpoly as ep

    # a hint at either end of the bracket, 0.3 off rho, or not a number:
    # the exact probes then land on the wrong side or are skipped, and the
    # halving that follows them still certifies the root found with no hint
    polys = _sturm_route_sample()
    real = ep._newton_hint
    monkeypatch.setattr(ep, "_newton_hint", lambda sf, m: math.nan)
    unhinted = [rho_certified(p) for p in polys]
    wrong = {
        "m-1": lambda sf, m: m - 1.0,
        "m": lambda sf, m: float(m),
        "above": lambda sf, m: real(sf, m) + 0.3,
        "below": lambda sf, m: real(sf, m) - 0.3,
        "nan": lambda sf, m: math.nan,
    }[hint]
    monkeypatch.setattr(ep, "_newton_hint", wrong)
    for p, expected in zip(polys, unhinted):
        root = rho_certified(p)
        assert compare_roots(root, expected)[0] is Ordering.EQUAL
        assert root.exact == expected.exact
        if not root.exact:
            # rho is sf's one root in (lo, hi], and none lies above hi, below
            # the Cauchy bound 1 + max |c_i| of a polynomial with lead >= 1
            chain = sturm_chain(p)
            assert root.width <= DEFAULT_TOL
            assert count_roots_halfopen(chain, root.lo, root.hi) == 1
            bound = Fraction(1 + max(abs(c) for c in p.coeffs))
            assert count_roots_halfopen(chain, root.hi, bound) == 0


def test_newton_hint_leaves_no_halving(monkeypatch):
    import rhomin.exactpoly as ep

    # the chain is read at the integer bracket and the two probes, and
    # nothing is halved, in isolation or in refine(): the probes straddle
    # rho at most 2^-41 apart. Newton in floats alone stalls more than the
    # probes' 2^-44 margin from rho on spiders from k = 9 and on most dense
    # graphs at n = 60; the exact step from the 2^-64 grid mends that
    rng = random.Random(31)
    polys = [charpoly(realize(spider(k))) for k in range(3, 16)]
    polys += [charpoly(_random_dense(rng, n)) for n in (20, 40, 60) for _ in range(20)]
    polys += _composed(rng, 10)
    points = _counting(monkeypatch, "_var_at")
    halvings = []
    halve = ep._halve

    def counting(side, lo, hi, done):
        def counted(x):
            halvings.append(x)
            return side(x)

        return halve(counted, lo, hi, done)

    monkeypatch.setattr(ep, "_halve", counting)
    for p in polys:
        points.clear()
        rho_certified(p)
        assert sum(x.denominator > 1 for _, x in points) <= 2
        assert not halvings


def test_charpoly_known_values():
    assert charpoly(path_graph(4)).coeffs == (1, 0, -3, 0, 1)
    assert charpoly(star_graph(4)).coeffs == (0, 0, -3, 0, 1)
    assert charpoly(cycle_graph(5)).coeffs == (-2, 5, 0, -5, 0, 1)
    assert charpoly(build_graph(1, [])).coeffs == (0, 1)
    assert charpoly(build_graph(0, [])).coeffs == (1,)


def test_charpoly_routes_agree():
    import random

    from rhomin.graphs import add_edge

    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 8)
        g = build_graph(1, [])
        for v in range(1, n):
            g = add_edge(build_graph(v + 1, list(g.edges())), rng.randrange(v), v)
        if n >= 3 and rng.random() < 0.5:
            # close one cycle to get a unicyclic graph
            u, w = rng.sample(range(n), 2)
            if w not in g.adj[u]:
                g = add_edge(g, u, w)
        assert charpoly(g).coeffs == charpoly_dense(g).coeffs


def test_charpoly_disconnected_multiplies():
    g = disjoint_union(path_graph(2), path_graph(3))
    assert charpoly(g).coeffs == (charpoly(path_graph(2)) * charpoly(path_graph(3))).coeffs


def _connected(data, n, least_extra, most_extra):
    """A random connected graph on n vertices: a random tree plus between
    least_extra and most_extra further edges."""
    edges = [(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    others = [e for e in combinations(range(n), 2) if e not in edges]
    k = data.draw(st.integers(least_extra, min(most_extra, len(others))))
    return build_graph(n, edges + data.draw(st.permutations(others))[:k])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_charpoly_routes_agree_on_mixed_components(data):
    # one component per route of charpoly (tree, unicyclic with trees
    # hanging off its cycle, two or more cycles), interleaved by a random
    # relabelling
    t, u = data.draw(st.integers(1, 2)), data.draw(st.integers(3, 12))
    m = data.draw(st.integers(4, max(4, 10 - t - u)))
    g = disjoint_union(disjoint_union(_connected(data, t, 0, 0), _connected(data, u, 1, 1)),
                       _connected(data, m, 2, m * m))
    g = relabel(g, data.draw(st.permutations(range(g.n))))
    expected = tuple(int(c) for c in np.rint(np.poly(adjacency(g)))[::-1])
    assert charpoly(g).coeffs == charpoly_dense(g).coeffs == expected


def test_charpoly_dense_matches_faddeev_leverrier_at_every_density():
    rng = random.Random(28)
    graphs = [build_graph(0, []), build_graph(1, []), build_graph(5, []),
              disjoint_union(cycle_graph(5), build_graph(4, list(combinations(range(4), 2))))]
    for n in range(2, 31):
        for density in (0.1, 0.3, 0.6, 0.9):
            graphs.append(build_graph(n, [e for e in combinations(range(n), 2)
                                          if rng.random() < density]))
    for g in graphs:
        assert charpoly_dense(g) == faddeev_leverrier(g)


def _complete(n):
    return build_graph(n, list(combinations(range(n), 2)))


def test_charpoly_dense_keeps_the_widest_fields_apart():
    # a field holds Delta^k < 2^(n bitlen(Delta)) walks: K_n fits closest at
    # n = 2^b (Delta = 2^b - 1), its field widens at n = 2^b + 1, and K_62
    # has the widest field at the largest order graph6 writes
    for n in (1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 62):
        phi = IntPoly((1 - n, 1))  # (x - n + 1)(x + 1)^(n - 1)
        for _ in range(n - 1):
            phi = phi * IntPoly((1, 1))
        assert charpoly_dense(_complete(n)) == faddeev_leverrier(_complete(n)) == phi


@pytest.mark.parametrize("g", [
    build_graph(62, [(u, v) for u in range(31) for v in range(31, 62)]),
    build_graph(62, [(0, v) for v in range(1, 62)] + [(v, v % 61 + 1) for v in range(1, 62)]),
], ids=["K31,31", "W62"])
def test_charpoly_dense_matches_faddeev_leverrier_at_the_largest_order(g):
    assert charpoly_dense(g) == faddeev_leverrier(g)


def test_charpoly_of_a_long_path_needs_no_deep_recursion():
    # P_n = x P_{n-1} - P_{n-2}; a recursion per vertex would overflow the stack
    x = IntPoly((0, 1))
    prev, cur = IntPoly((1,)), x
    for _ in range(1099):
        prev, cur = cur, x * cur - prev
    assert charpoly(path_graph(1100)) == cur


_SMALL_POLY = st.lists(st.integers(-9, 9), min_size=1, max_size=5).map(
    lambda c: IntPoly(tuple(c)))


@settings(max_examples=200, deadline=None)
@given(_SMALL_POLY, _SMALL_POLY, _SMALL_POLY)
def test_poly_div_exact(q, b, r):
    if b.is_zero:
        with pytest.raises(ZeroDivisionError):
            poly_div_exact(q, b)
        return
    assert poly_div_exact(q * b, b) == q
    # a nonzero remainder of lower degree than b is never divided away
    r = IntPoly(r.coeffs[: b.degree])
    if not r.is_zero:
        with pytest.raises(ValueError, match="inexact"):
            poly_div_exact(q * b + r, b)


def test_poly_div_exact_rejects_a_non_integral_quotient():
    # (2x^2 + 2) / (4x^2 + 4) = 1/2 has no remainder but is not integral
    with pytest.raises(ValueError, match="inexact"):
        poly_div_exact(IntPoly((2, 0, 2)), IntPoly((4, 0, 4)))
    assert poly_div_exact(IntPoly((4, 0, 4)), IntPoly((2, 0, 2))) == IntPoly((2,))


def _bracket(screen, j):
    _, (lo_p, lo_q), (hi_p, hi_q) = screen
    return Fraction(int(lo_p[j]), int(lo_q[j])), Fraction(int(hi_p[j]), int(hi_q[j]))


def _screen_graphs(graphs, vectors):
    mats = [adjacency(g) for g in graphs]
    v = np.stack(vectors, axis=1).astype(np.int64)
    av = np.stack([a @ v[:, j] for j, a in enumerate(mats)], axis=1)
    return certified_screen(av, v)


def test_perron_vector_brackets_truth():
    for g, rho in ((cycle_graph(8), 2), (star_graph(5), 2)):
        lo, hi = _bracket(_screen_graphs([g], [perron_vector(g)]), 0)
        assert lo <= rho <= hi and hi - lo < Fraction(1, 10**6)


def test_certified_screen_keeps_exactly_the_brackets_reaching_the_least_upper_bound():
    c4 = cycle_graph(4)
    diamond = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    k4 = build_graph(4, list(combinations(range(4), 2)))
    ones = [1, 1, 1, 1]
    a, b = 10**6, 10**6 - 1
    screen = _screen_graphs([c4, diamond, diamond, k4], [ones, ones, [a, a, b, b], ones])
    # C_4 pins U* = 2; the diamond's first bracket [2, 3] reaches it exactly,
    # its second starts at 2a/b = 2 + 2e-6, K_4's at 3
    assert _bracket(screen, 0) == (2, 2)
    assert _bracket(screen, 1) == (2, 3)
    assert _bracket(screen, 2)[0] == Fraction(2 * a, b)
    assert screen[0].tolist() == [True, True, False, False]
    with pytest.raises(ValueError):
        _screen_graphs([c4], [[1, 0, 1, 1]])


def _connected_graphs(draw):
    n = draw(st.integers(1, 12))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    if draw(st.booleans()):  # dense: every pair not chosen
        chosen = set(pairs) - chosen
    return build_graph(n, tree | chosen)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_certified_screen_brackets_contain_rho(data):
    g = _connected_graphs(data.draw)
    if data.draw(st.booleans()):
        # any positive vector
        v = data.draw(st.lists(st.integers(1, 2**26), min_size=g.n, max_size=g.n))
    else:
        # a nudged Perron vector, for a tight bracket
        nudge = data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
        v = perron_vector(g) + np.array(nudge)
    lo, hi = _bracket(_screen_graphs([g], [v]), 0)
    root = rho_certified_graph(g)
    assert lo <= root.hi and root.lo <= hi


def test_certified_screen_products_fit_int64_at_the_largest_entries():
    # the all-graphs oracle's largest vector: K_7 after every power step
    k7 = adjacency(build_graph(7, list(combinations(range(7), 2))))
    v = np.ones(7, dtype=np.int64)
    for _ in range(POWER_STEPS):
        v = v + k7 @ v
    assert (v == 7**POWER_STEPS).all()
    assert _bracket(certified_screen((k7 @ v)[:, None], v[:, None]), 0) == (6, 6)
    # one step more would leave int64: refused, not wrapped
    v = v + k7 @ v
    with pytest.raises(OverflowError):
        certified_screen((k7 @ v)[:, None], v[:, None])


def test_compare_rho_orderings():
    assert compare_rho(path_graph(4), path_graph(5)) is Ordering.LESS
    assert compare_rho(cycle_graph(7), cycle_graph(4)) is Ordering.EQUAL
    assert compare_rho(star_graph(5), path_graph(5)) is Ordering.GREATER


def test_equal_certificate_has_common_factor():
    ok, witness = equal_rho_certificate(cycle_graph(5), cycle_graph(9))
    assert ok
    assert witness.factor.degree >= 1
    assert witness.factor.sign_at(Fraction(2)) == 0  # rho = 2 is the shared root


def test_close_but_unequal_radii_are_separated():
    # P^{(k)}_{(k,k)} radii for consecutive k differ by ~1e-2 at k=8 and shrink
    from rhomin.families import realize, spider

    g1, g2 = realize(spider(9)), realize(spider(10))
    assert compare_rho(g1, g2) is Ordering.LESS


def test_compare_roots_leaves_its_arguments_unchanged():
    from rhomin.families import realize, spider

    # coarse roots, so the comparison has to refine both
    a = rho_certified(charpoly(realize(spider(9))), Fraction(1, 2))
    b = rho_certified(charpoly(realize(spider(10))), Fraction(1, 2))
    before = (a.lo, a.hi, b.lo, b.hi)
    assert compare_roots(a, b)[0] is Ordering.LESS
    assert (a.lo, a.hi, b.lo, b.hi) == before


def _around(p: IntPoly, lo: Fraction, hi: Fraction) -> CertifiedRoot:
    return CertifiedRoot(p, sturm_chain(p)[0], lo, hi, False)


def test_compare_roots_reads_the_isolating_sets():
    x_minus_2 = IntPoly((-2, 1))
    two = CertifiedRoot(x_minus_2, x_minus_2, Fraction(2), Fraction(2), True)
    shared = _around(x_minus_2 * IntPoly((-1, 1)), Fraction(3, 2), Fraction(5, 2))
    order, witness = compare_roots(two, shared)
    assert order is Ordering.EQUAL
    assert (witness.factor, witness.lo, witness.hi) == (x_minus_2, 2, 2)
    # {2} meets (lo, hi] as given, and one sign test of the gcd decides
    eps = Fraction(1, 10**5)
    near = _around(x_minus_2 * IntPoly((-1, 1)), 2 - eps, 2 + eps)
    order, witness = compare_roots(near, two)
    assert order is Ordering.EQUAL and (witness.lo, witness.hi) == (2, 2)
    # sqrt(5) lies in (3/2, 5/2] too, but x^2 - 5 shares no root with x - 2
    sqrt5 = _around(IntPoly((-5, 0, 1)), Fraction(3, 2), Fraction(5, 2))
    assert compare_roots(two, sqrt5) == (Ordering.LESS, None)
    assert compare_roots(sqrt5, two) == (Ordering.GREATER, None)
    # (lo, m] and (m, hi] meet at m alone: disjoint sets, ordered as given
    m = Fraction(17321, 10000)
    sqrt3 = _around(IntPoly((-3, 0, 1)), m - Fraction(1, 10**4), m)
    above = _around(IntPoly((-34643, 20000)), m, m + Fraction(1, 10**4))
    assert compare_roots(sqrt3, above) == (Ordering.LESS, None)
    assert compare_roots(above, sqrt3) == (Ordering.GREATER, None)


def test_compare_roots_ties_roots_above_a_shared_smaller_root():
    # both bisection polynomials vanish at lo = 1, a root below both radii,
    # so the gcd's signs at the ends of (1, 4] cannot tell at first; the
    # roots are refined until lo passes 1 and the gcd changes sign
    p = IntPoly((3, -4, 1))  # (x - 1)(x - 3)
    q = p * IntPoly((5, 1))  # (x - 1)(x - 3)(x + 5)
    order, witness = compare_roots(_around(p, Fraction(1), Fraction(4)),
                                   _around(q, Fraction(1), Fraction(4)))
    assert order is Ordering.EQUAL
    assert witness.factor == p and 1 < witness.lo < 3 <= witness.hi <= 4


def test_threshold_decisions():
    assert below_3_over_sqrt2(rho_certified_graph(cycle_graph(6)))  # 2 < 2.121
    assert not below_3_over_sqrt2(rho_certified_graph(star_graph(6)))  # sqrt(5)
    # sqrt(4.49) and sqrt(4.51) lie 0.0023 either side of 3/sqrt(2) = sqrt(4.5)
    assert below_3_over_sqrt2(rho_certified(IntPoly((-449, 0, 100)))) is True
    assert below_3_over_sqrt2(rho_certified(IntPoly((-451, 0, 100)))) is False
    two = rho_certified(IntPoly((-2, 1)))
    assert two.exact and two.lo == 2
    assert below_3_over_sqrt2(two) is True
    assert below_3_over_sqrt2(rho_certified(IntPoly((-3, 1)))) is False
    # a root equal to the threshold is not below it; the gcd witness decides,
    # also for a multiple of 2x^2 - 9 with a further factor
    assert below_3_over_sqrt2(rho_certified(IntPoly((-9, 0, 2)))) is False
    assert below_3_over_sqrt2(rho_certified(IntPoly((-9, 0, 2)) * IntPoly((-1, 1)))) is False


def test_certified_root_refine_tightens_only():
    coarse = rho_certified(charpoly(path_graph(6)), Fraction(1, 100))
    root = coarse
    lo0, hi0 = root.lo, root.hi
    root = root.refine(Fraction(1, 10**9))
    assert lo0 <= root.lo <= root.hi <= hi0
    assert root.width <= Fraction(1, 10**9)
    assert (coarse.lo, coarse.hi) == (lo0, hi0)
    assert root.refine(Fraction(1, 10**6)) is root


def test_certified_roots_are_immutable():
    root = rho_certified_graph(path_graph(7))
    with pytest.raises(FrozenInstanceError):
        root.lo = Fraction(0)


def test_fine_graph_root_does_not_narrow_the_cached_one():
    g = path_graph(8)
    fine = rho_certified_graph(g, Fraction(1, 10**30))
    assert fine.width <= Fraction(1, 10**30)
    later = rho_certified_graph(g)
    assert later.width > Fraction(1, 10**30)
    assert later.lo <= fine.lo <= fine.hi <= later.hi


def test_rho_certified_rejects_degenerate():
    with pytest.raises(ValueError):
        rho_certified(IntPoly(()))
    with pytest.raises(ValueError):
        rho_certified(IntPoly((5,)))
    with pytest.raises(ValueError):
        rho_certified(IntPoly((1, 0, 1)))  # no real roots


def test_nonpositive_tolerance_is_rejected():
    p = IntPoly((-3, 0, 1))
    for tol in (0, -1, Fraction(-1, 3)):
        with pytest.raises(ValueError):
            rho_certified(p, tol)
        with pytest.raises(ValueError):
            rho_certified(p).refine(tol)
        with pytest.raises(ValueError):
            rho_certified_graph(path_graph(5), tol)
    # an exact root rejects it too
    with pytest.raises(ValueError):
        rho_certified_graph(star_graph(5)).refine(0)


# ---------------------------------------------------------------------------
# compare_rho_to: the radius against a rational by inertia

@st.composite
def _trees_and_unicyclic(draw):
    """A random tree or connected unicyclic graph on at most 30 vertices."""
    n = draw(st.integers(1, 30))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    others = sorted(set(combinations(range(n), 2)) - {(u, v) for u, v in edges})
    if others and draw(st.booleans()):
        edges.append(draw(st.sampled_from(others)))
    return build_graph(n, edges)


@settings(max_examples=300, deadline=None)
@given(_trees_and_unicyclic(), st.data())
def test_compare_rho_to_agrees_with_certified_roots_and_inertia(g, data):
    rho = float(np.linalg.eigvalsh(adjacency(g))[-1]) if g.n > 1 else 0.0
    if data.draw(st.booleans()):
        # small integers and halves put zero pivots in the elimination
        lam = Fraction(data.draw(st.integers(-2, 8)), data.draw(st.sampled_from([1, 2])))
    else:
        bits = data.draw(st.sampled_from([4, 16, 40]))
        lam = Fraction(round(rho * 2**bits) + data.draw(st.integers(-2, 2)), 2**bits)
    got = compare_rho_to(g, lam)
    point = rho_certified(IntPoly((-lam.numerator, lam.denominator)))
    # a Sturm root, apart from the elimination that rho_certified_graph shares
    assert got is compare_roots(rho_certified(charpoly(g)), point)[0]
    # numpy's inertia of lam*I - A, where its least eigenvalue is clear of 0
    least = float(np.linalg.eigvalsh(float(lam) * np.eye(g.n) - adjacency(g))[0])
    if abs(least) > 1e-9:
        assert got is (Ordering.LESS if least > 0 else Ordering.GREATER)


def test_compare_rho_to_at_an_eigenvalue():
    for c in range(3, 13):
        cycle = cycle_graph(c)
        assert compare_rho_to(cycle, 2) is Ordering.EQUAL
        assert compare_rho_to(cycle, 2 + Fraction(1, 2**30)) is Ordering.LESS
        assert compare_rho_to(cycle, 2 - Fraction(1, 2**30)) is Ordering.GREATER
    assert compare_rho_to(path_graph(2), 1) is Ordering.EQUAL
    assert compare_rho_to(build_graph(1, []), 0) is Ordering.EQUAL
    assert compare_rho_to(star_graph(5), 2) is Ordering.EQUAL
    # zero pivots below the top eigenvalue: P_5 has eigenvalue 1 < sqrt(3),
    # and the triangle's leading 2-by-2 minor vanishes at 1 < 2
    assert compare_rho_to(path_graph(5), 1) is Ordering.GREATER
    assert compare_rho_to(cycle_graph(3), 1) is Ordering.GREATER
    assert compare_rho_to(cycle_graph(3), -1) is Ordering.GREATER


def test_compare_rho_to_builds_no_polynomial(monkeypatch):
    import rhomin.exactpoly

    def refuse(*args):
        raise AssertionError("compare_rho_to built a polynomial")

    monkeypatch.setattr(rhomin.exactpoly, "charpoly", refuse)
    monkeypatch.setattr(rhomin.exactpoly, "IntPoly", refuse)
    for g in (cycle_graph(6), path_graph(5), star_graph(5), realize(spider(4))):
        for lam in (0, 1, 2, Fraction(21, 10)):
            compare_rho_to(g, lam)


@pytest.mark.parametrize("g", [
    build_graph(0, []),
    build_graph(4, list(combinations(range(4), 2))),
    disjoint_union(cycle_graph(3), cycle_graph(3)),
    disjoint_union(path_graph(2), path_graph(3)),
    disjoint_union(cycle_graph(4), path_graph(1)),
], ids=["empty", "K4", "two-triangles", "two-paths", "cycle-and-vertex"])
def test_compare_rho_to_refuses_other_graphs(g):
    with pytest.raises(ValueError):
        compare_rho_to(g, 2)


# ---------------------------------------------------------------------------
# the inertia locator: tree and unicyclic radii with no Sturm chain

def _assert_located(g):
    """rho_certified_graph(g) is the Sturm root of charpoly(g): EQUAL, as
    exact, as narrow, and alone in its interval among charpoly's roots."""
    root, sturm = rho_certified_graph(g), rho_certified(charpoly(g))
    assert compare_roots(root, sturm)[0] is Ordering.EQUAL
    assert root.exact == sturm.exact
    if not root.exact:
        assert root.width <= DEFAULT_TOL
        assert count_roots_halfopen(sturm_chain(root.poly), root.lo, root.hi) == 1


def _small_sparse_graphs():
    """Every tree and unicyclic graph with n <= 10, one per class, in code order by n."""
    return [_hang(*parts) for n in range(1, 11) for _, _, parts in _sparse_members(n)]


def test_locator_agrees_with_sturm_on_every_small_tree_and_unicyclic_graph():
    graphs = _small_sparse_graphs()
    assert len(graphs) == 201 + 1040  # OEIS A000055 and A001429, n <= 10
    for g in graphs:
        _assert_located(g)


def test_locator_agrees_with_sturm_on_random_trees_and_unicyclic_graphs():
    rng = random.Random(20261019)
    for n in range(11, 61):
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        u, v = sorted(rng.sample(range(n), 2))
        if rng.random() < 0.5 and (u, v) not in edges:  # edges are (parent < child)
            edges.append((u, v))
        _assert_located(build_graph(n, edges))


def test_locator_bisects_until_interlacing_isolates_rho(monkeypatch):
    import rhomin.exactpoly as ep

    # two K_{1,4} whose centres a path of 4 vertices joins: lambda_2 ~ 2.2706
    # and rho ~ 2.3387 share (9/4, 19/8], the cell of width 1/8 that
    # bisection alone would stop at. rho(g - v) >= lambda_2 for the leaf v,
    # so the interlacing test keeps bisecting until lambda_2 is left out.
    # Without a hint: its probes, 2^-42 apart, would leave lambda_2 out at once.
    monkeypatch.setattr(ep, "_float_hint", lambda peel, m: math.nan)
    path = [0, 2, 3, 4, 5, 1]
    edges = list(zip(path, path[1:])) + [(c, 6 + 4 * i + j) for i, c in enumerate((0, 1))
                                         for j in range(4)]
    g = build_graph(14, edges)
    p = charpoly(g)
    chain = sturm_chain(p)
    assert count_roots_halfopen(chain, Fraction(9, 4), Fraction(19, 8)) == 2
    tol = Fraction(1, 8)
    root = ep._locate(peel_leaves(g, range(g.n)), tol)
    assert root.width < tol
    assert count_roots_halfopen(chain, root.lo, root.hi) == 1
    assert compare_roots(root, rho_certified(p))[0] is Ordering.EQUAL


def _hint_sample():
    """Every seventh tree and unicyclic graph with n <= 10, and six seeded
    random quipus with n = 20..60."""
    small = _small_sparse_graphs()[::7]
    return small + _hint_quipus()


def _hint_quipus():
    """Six seeded random open and closed quipus with n = 20..60."""
    rng = random.Random(19)
    quipus = []
    while len(quipus) < 6:
        r = rng.randrange(1, 4)
        if rng.random() < 0.5:
            spec = OpenQuipu(tuple(rng.randrange(12) for _ in range(r + 2)),
                             tuple(rng.randrange(12) for _ in range(r + 1)))
        else:
            spec = ClosedQuipu(tuple(rng.randrange(2, 12) for _ in range(r)),
                               tuple(rng.randrange(12) for _ in range(r)))
        if 20 <= spec.order <= 60:
            quipus.append(realize(spec))
    return quipus


@pytest.mark.parametrize("hint", ["m-1", "m", "above", "below", "nan"])
def test_locator_float_hint_decides_nothing(monkeypatch, hint):
    import rhomin.exactpoly as ep

    # a hint at either end of the bracket, 0.3 off rho, or not a number:
    # the exact probes then land on the wrong side or are skipped, and the
    # bisection that follows them still certifies rho
    real = ep._float_hint
    wrong = {
        "m-1": lambda peel, m: m - 1.0,
        "m": lambda peel, m: float(m),
        "above": lambda peel, m: real(peel, m) + 0.3,
        "below": lambda peel, m: real(peel, m) - 0.3,
        "nan": lambda peel, m: math.nan,
    }[hint]
    monkeypatch.setattr(ep, "_float_hint", wrong)
    ep._graph_root.cache_clear()
    try:
        for g in _hint_sample():
            _assert_located(g)
    finally:
        ep._graph_root.cache_clear()


def _counting(monkeypatch, name: str) -> list:
    """The calls made from now on to the exactpoly function `name`, each
    as its tuple of arguments."""
    import rhomin.exactpoly as ep

    calls = []
    real = getattr(ep, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ep, name, counting)
    return calls


def test_locator_takes_few_exact_passes(monkeypatch):
    import rhomin.exactpoly as ep

    passes = _counting(monkeypatch, "_inertia")
    graphs = _small_sparse_graphs()
    for g in graphs:
        ep._locate(peel_leaves(g, range(g.n)))
    # the integer bracket, two probes and one interlacing test; bisection
    # from the integer bracket down to 1e-12 alone would take about 45
    assert len(passes) / len(graphs) <= 12


def test_float_hint_takes_few_float_eliminations(monkeypatch):
    import rhomin.exactpoly as ep

    # each Newton step or bisection step is one _float_pivot pass;
    # bisection alone, from width 1 down to 2^-46, would take 46
    graphs = _small_sparse_graphs() + _hint_quipus()
    passes = _counting(monkeypatch, "_float_pivot")
    hints = _counting(monkeypatch, "_float_hint")
    for g in graphs:
        ep._locate(peel_leaves(g, range(g.n)))
    assert len(hints) > 1200 and len(passes) >= len(hints)
    assert len(passes) / len(hints) <= 16


def test_float_hint_never_raises():
    import rhomin.exactpoly as ep

    # at the bracket (m - 1, m] around rho and at the two next to it, where
    # a pivot or a determinant can come out 0.0 exactly (K_2 and C_6 at an
    # integer, a triangle's leading minor at 1) or a last pivot keeps one
    # sign throughout; stars of high degree put a vertex's sum of hundreds
    # of reciprocals in one pivot
    graphs = (_small_sparse_graphs() + _hint_quipus()
              + [star_graph(k + 1) for k in (50, 300, 1000)])
    for g in graphs:
        peel = peel_leaves(g, range(g.n))
        m = math.ceil(ep._locate(peel).hi)  # the least integer >= rho
        for bracket in {max(1, m - 1), m, m + 1}:
            x = ep._float_hint(peel, bracket)
            assert isinstance(x, float)
            assert math.isnan(x) or bracket - 1 <= x <= bracket


@pytest.mark.parametrize("g", [
    star_graph(301),
    build_graph(1501, [(i, (i + 1) % 1500) for i in range(1500)] + [(0, 1500)]),
], ids=["K1,300", "C1500-with-a-leaf"])
def test_float_hint_lands_within_the_probe_margin_where_products_would_overflow(g):
    import rhomin.exactpoly as ep

    # the centre of K_{1,300} sums 300 reciprocals, whose pairs' product
    # would pass the float range; around a cycle of 1,500 vertices the 2x2
    # product passes it too unless it is rescaled
    peel = peel_leaves(g, range(g.n))
    root = ep._locate(peel)
    x = Fraction(ep._float_hint(peel, math.ceil(root.hi)))
    margin = Fraction(1, 2**44)
    assert root.lo - margin <= x <= root.hi + margin


def test_locator_takes_few_exact_passes_at_high_degree(monkeypatch):
    import rhomin.exactpoly as ep

    # the integer bracket doubles and halves (1, 2, 4, ..., 32, then 24, 20,
    # 18, 17 for sqrt(300)), and the hint lands close enough for its two
    # probes to leave one interlacing test
    passes = _counting(monkeypatch, "_inertia")
    for k, most in ((50, 12), (300, 16)):
        passes.clear()
        root = ep._locate(peel_leaves(star_graph(k + 1), range(k + 1)))
        assert root.lo**2 < k < root.hi**2
        assert len(passes) <= most, (k, len(passes))


@pytest.mark.parametrize("g, rho", [
    (build_graph(1, []), 0),
    (path_graph(2), 1),
    (cycle_graph(6), 2),
    (star_graph(5), 2),
    (star_graph(10), 3),
    (star_graph(17), 4),
    (star_graph(26), 5),
    (star_graph(37), 6),
], ids=["K1", "K2", "C6", "K1,4", "K1,9", "K1,16", "K1,25", "K1,36"])
def test_locator_keeps_an_integer_radius_exact(g, rho):
    import rhomin.exactpoly as ep

    # an integer reached by doubling (1, 2, 4) or by halving after it (0,
    # 3, 5, 6) is EQUAL and ends the search as an exact root
    root = ep._locate(peel_leaves(g, range(g.n)))
    assert root.exact and root.lo == root.hi == rho


@pytest.mark.parametrize("g, rho", [
    (graph6_decode("IheA@GUAo"), 3),
    (build_graph(6, [(u, v) for u in range(3) for v in range(3, 6)]), 3),
    (build_graph(5, list(combinations(range(5), 2))), 4),
    (disjoint_union(cycle_graph(5), cycle_graph(5)), 2),
], ids=["Petersen", "K3,3", "K5", "2C5"])
def test_sturm_route_keeps_an_integer_radius_exact(g, rho):
    # graphs the locator does not take: the Sturm route's integer bracket
    # finds rho EQUAL, also where it is a double root of the charpoly (2 C_5)
    assert peel_leaves(g, range(g.n))[2] is None
    root = rho_certified_graph(g)
    assert root.exact and root.lo == root.hi == rho


def _count_polynomials(monkeypatch) -> list:
    """The peels _bridge_phi is called on from now on, with every cached
    graph root dropped."""
    import rhomin.exactpoly as ep

    built = _counting(monkeypatch, "_bridge_phi")
    ep._graph_root.cache_clear()
    return built


_N62 = "open:ks=10,20,10;ms=10,10"


def test_locator_builds_no_polynomial_nothing_reads(monkeypatch):
    g1 = realize(parse_spec_literal(_N62))
    g2 = realize(parse_spec_literal("open:ks=10,19,10;ms=10,11"))
    built = _count_polynomials(monkeypatch)
    rho_certified_graph(g1)
    assert compare_rho(g1, g2) is Ordering.LESS
    assert below_3_over_sqrt2(rho_certified_graph(g1))
    assert not below_3_over_sqrt2(rho_certified_graph(g2))
    assert built == []


def test_locator_builds_one_polynomial_per_tied_graph(monkeypatch):
    g1 = realize(parse_spec_literal("closed:ks=4,4;ms=0,1"))
    g2 = realize(parse_spec_literal("open:ks=3,3;ms=3"))
    built = _count_polynomials(monkeypatch)
    for _ in range(2):
        ok, witness = equal_rho_certificate(g1, g2)
        assert ok and witness.factor.degree >= 1
        assert len(built) == 2


def test_locator_polynomial_is_the_charpoly():
    for g in (path_graph(9), star_graph(6), cycle_graph(7), realize(spider(5)),
              realize(parse_spec_literal(_N62))):
        assert rho_certified_graph(g).to_json()["poly"] == poly_to_json(charpoly(g))


def test_refined_copies_share_one_polynomial(monkeypatch):
    g = realize(parse_spec_literal(_N62))
    built = _count_polynomials(monkeypatch)
    root = rho_certified_graph(g)
    fine = root.refine(Fraction(1, 10**30))
    finer = fine.refine(Fraction(1, 10**40))
    assert root.refine(Fraction(1, 10**30)).width <= Fraction(1, 10**30)
    assert finer.width <= Fraction(1, 10**40) and len(built) == 1
    assert root.poly is fine.poly is finer.poly


def test_locator_builds_no_sturm_chain(monkeypatch):
    import rhomin.exactpoly as ep

    def refuse(p):
        raise AssertionError("sturm_chain was called")

    monkeypatch.setattr(ep, "sturm_chain", refuse)
    ep._graph_root.cache_clear()
    for g in (build_graph(1, []), path_graph(9), cycle_graph(7), star_graph(6),
              realize(spider(5)), realize(ClosedQuipu((3, 4), (2, 5)))):
        root = rho_certified_graph(g)
        assert root.exact or root.width <= DEFAULT_TOL
    # nor does a tie between two located roots, with the gcd's signs
    for pair in ((cycle_graph(5), cycle_graph(9)),
                 (realize(parse_spec_literal("closed:ks=4,4;ms=0,1")),
                  realize(parse_spec_literal("open:ks=3,3;ms=3")))):
        assert equal_rho_certificate(*pair)[0]
    # a bicyclic graph still takes the Sturm route
    with pytest.raises(AssertionError, match="sturm_chain"):
        rho_certified_graph(build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))


def test_cut_rule_decides_the_subgraph_it_stands_for():
    # the walk's prefix: a left arm of a vertices, a branch vertex with a
    # pendant of m, j segment (or gap) vertices, then t bare vertices to
    # come. The cut rule must fire exactly when rho(H) >= lam, for the H
    # it stands for, at lam 2^-30 on either side of rho(H).
    checks = 0
    for a, m, j, t in product(range(4), range(4), range(4), range(1, 5)):
        h = realize(OpenQuipu((a, j + t), (m,)))
        for lam, fires in zip(lams_around(h), (True, False)):
            xs = arm_pivots(lam, h.n)
            p = pivot_after(xs[m + 1], xs[a])
            for _ in range(j):
                p = pivot_after(xs[1], p)
            bare_end = t >= len(xs) or xs[t][0] <= 0  # no positive x_t
            assert (bare_end or at_most_inverse(p, xs[t])) is fires, (a, m, j, t, lam)
            checks += 1
        if a or j + t < 2:
            continue
        # the same around a cycle of 1 + j + t vertices, from the branch vertex
        h = realize(ClosedQuipu((j + t,), (m,)))
        for lam, fires in zip(lams_around(h), (True, False)):
            xs, bare = arm_pivots(lam, h.n), bare_paths(lam, h.n)
            state = cycle_after(CYCLE_START, xs[m + 1])
            for _ in range(j):
                state = cycle_after(state, xs[1])
            cut = (t >= len(xs) or xs[t][0] <= 0 or at_most_inverse(cycle_pivot(state), xs[t])
                   or cycle_close(cycle_then(state, bare[t - 1]), xs[1]) <= 0)
            assert cut is fires, (m, j, t, lam)
            checks += 1
    assert checks == 2 * 4**4 + 2 * 4 * 15
