"""Integer polynomials, Sturm root certification, exact comparisons, and the
exact Collatz-Wielandt screen that the searches run before them."""

import math
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhomin.exactpoly import (
    CertifiedRoot,
    IntPoly,
    Ordering,
    below_3_over_sqrt2,
    cauchy_root_bound,
    charpoly,
    charpoly_dense,
    compare_rho,
    compare_roots,
    count_roots_halfopen,
    equal_rho_certificate,
    poly_div_exact,
    poly_gcd,
    poly_to_json,
    rho_certified,
    rho_certified_graph,
    square_free_part,
    sturm_chain,
)
from rhomin.families import realize, spider, theorem_family
from rhomin.graphs import build_graph, cycle_graph, path_graph, star_graph
from rhomin.search import PERRON_SCALE, POWER_STEPS, _perron_batches, certified_screen
from graph_helpers import adjacency, disjoint_union, relabel


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
    sf = square_free_part(a)
    assert sf.coeffs == IntPoly((-1, 1)).__mul__(IntPoly((2, 1))).coeffs


def test_sturm_counts():
    p = IntPoly((0, -3, 0, 1))  # x(x^2 - 3)
    chain = sturm_chain(square_free_part(p))
    assert count_roots_halfopen(chain, Fraction(-2), Fraction(2)) == 3
    assert count_roots_halfopen(chain, Fraction(1), Fraction(2)) == 1
    assert cauchy_root_bound(p) >= 2


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


def test_isolation_evaluates_the_sturm_chain_once_per_halving(monkeypatch):
    import rhomin.exactpoly as ep

    g = realize(spider(10))
    p = charpoly(g)
    calls = []
    var_at = ep._var_at

    def counting(chain, x):
        calls.append(x)
        return var_at(chain, x)

    monkeypatch.setattr(ep, "_var_at", counting)
    rho_certified(p)
    # Bisection stops once the interval is narrower than the gap between
    # the two largest distinct roots, so it halves the starting interval
    # (-C, U], C the Cauchy bound and U <= max(deg, C), at most
    # log2(width / gap) times; V is also read once at each starting bound.
    bound = cauchy_root_bound(square_free_part(p))
    width = float(max(p.degree, bound) + bound)
    eig = np.unique(np.round(np.linalg.eigvalsh(adjacency(g)), 9))
    halvings = math.ceil(math.log2(width / (eig[-1] - eig[-2])))
    assert len(calls) <= halvings + 2


def test_isolation_skips_the_halvings_below_the_degree_bound(monkeypatch):
    import rhomin.exactpoly as ep

    g = realize(spider(10))
    p = charpoly(g)
    calls = []
    var_at = ep._var_at

    def counting(chain, x):
        calls.append(x)
        return var_at(chain, x)

    monkeypatch.setattr(ep, "_var_at", counting)
    rho_certified(p)
    # Every root of a graph's charpoly lies in [-deg, deg]. The halvings
    # that only raise lo from minus the Cauchy bound to -deg need no
    # evaluation, so V is read once at deg, once at -deg and once for each
    # halving of (-deg, deg] down to the gap between the two largest roots.
    eig = np.unique(np.round(np.linalg.eigvalsh(adjacency(g)), 9))
    halvings = math.ceil(math.log2(2 * p.degree / (eig[-1] - eig[-2])))
    assert halvings + 2 == 11
    assert len(calls) <= halvings + 2


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
    # one component per route of charpoly (tree, unicyclic, two or more
    # cycles), interleaved by a random relabelling
    t, u = data.draw(st.integers(1, 2)), data.draw(st.integers(3, 4))
    m = data.draw(st.integers(4, 10 - t - u))
    g = disjoint_union(disjoint_union(_connected(data, t, 0, 0), _connected(data, u, 1, 1)),
                       _connected(data, m, 2, m * m))
    g = relabel(g, data.draw(st.permutations(range(g.n))))
    expected = tuple(int(c) for c in np.rint(np.poly(adjacency(g)))[::-1])
    assert charpoly(g).coeffs == charpoly_dense(g).coeffs == expected


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
        [(_, av, v)] = _perron_batches([g])
        lo, hi = _bracket(certified_screen(av, v), 0)
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
        v = data.draw(st.lists(st.integers(1, PERRON_SCALE), min_size=g.n, max_size=g.n))
    else:
        # a nudged Perron vector, for a tight bracket
        nudge = data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
        [(_, _, v)] = _perron_batches([g])
        v = v[:, 0] + np.array(nudge)
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

    # the quipu search's largest entries: PERRON_SCALE on a degree-3 quipu,
    # beside a 1 for the most lopsided ratios
    g = realize(theorem_family(8)[1])
    a = adjacency(g)
    v = np.full(g.n, PERRON_SCALE, dtype=np.int64)
    v[0] = 1
    ratios = [Fraction(int(x), int(y)) for x, y in zip(a @ v, v)]
    assert _bracket(_screen_graphs([g], [v]), 0) == (min(ratios), max(ratios))
    assert int((a @ v).max()) * int(v.max()) == 3 * PERRON_SCALE**2 < 2**63

    # the bound beside PERRON_SCALE: maximum degree below 2^11
    for degree, fits in ((2**11 - 1, True), (2**11, False)):
        av = np.array([[degree * PERRON_SCALE], [PERRON_SCALE]], dtype=np.int64)
        v = np.full((2, 1), PERRON_SCALE, dtype=np.int64)
        if fits:
            assert _bracket(certified_screen(av, v), 0) == (1, degree)
        else:
            with pytest.raises(OverflowError):
                certified_screen(av, v)


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
