"""Quadratic-field transfer calculus: pq pairs, ratios, composition,
edge transfer."""

import random
from fractions import Fraction

import pytest

from rhomin.exactpoly import (
    Ordering,
    charpoly,
    charpoly_dense,
    compare_rho,
    compare_roots,
    equal_rho_certificate,
    rho_certified_graph,
)
from rhomin.families import OpenQuipu, classify, realize
from rhomin.graphs import build_graph, canonical_code, cycle_graph, delete_vertex, path_graph
from rhomin.transfer import (
    PoleError,
    QuadNum,
    RootedGraph,
    alpha,
    compose_charpoly,
    edge_transfer_compare,
    extended_phi,
    odd_path_center_pq,
    pendant_extend,
    pq_decompose,
    root_pair,
    t_compose,
    t_compose_rho,
    t_value,
)

LAMBDAS = (Fraction(21, 10), Fraction(5, 2), Fraction(3))


def _random_tree(rng, n):
    from rhomin.graphs import add_edge

    g = build_graph(1, [])
    for v in range(1, n):
        g = add_edge(build_graph(v + 1, list(g.edges())), rng.randrange(v), v)
    return g


def test_quadnum_field_axioms():
    x1, x2 = root_pair(Fraction(3))
    assert (x1 * x2).to_rational() == 1
    assert (x1 + x2).to_rational() == 3
    assert (x2**3 * x1**3).to_rational() == 1
    assert (x2**-2) == x1**2
    assert ((x1 - x2) * (x1 - x2)).to_rational() == 5  # (x1-x2)^2 = D
    with pytest.raises(ValueError):
        root_pair(Fraction(2))


def test_quadnum_perfect_square_normalizes():
    x1, x2 = root_pair(Fraction(5, 2))  # D = 9/4 is a rational square
    assert x1.is_rational and x1.to_rational() == Fraction(1, 2)
    assert x2.is_rational and x2.to_rational() == 2


def test_quadnum_sign():
    x1, x2 = root_pair(Fraction(3))
    assert (x2 - x1).sign() == 1
    assert (x1 - x2).sign() == -1
    assert (x1 * x2 - 1).sign() == 0
    # a and b of opposite signs, rational part dominant
    d = x1.D
    assert QuadNum(Fraction(3), Fraction(-1), d).sign() == 1
    assert QuadNum(Fraction(-3), Fraction(1), d).sign() == -1
    assert QuadNum(Fraction(1), Fraction(-1), d).sign() == -1


def test_pq_defining_system_random_trees():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 8)
        g = _random_tree(rng, n)
        rg = RootedGraph(g, rng.randrange(n))
        for lam in LAMBDAS:
            pq = pq_decompose(rg, lam)
            assert pq.phi == charpoly(g).eval_at(lam)
            assert pq.phi_minus_root == charpoly(delete_vertex(g, rg.root)).eval_at(lam)


def test_rooted_graph_polynomials_are_read_once_and_stay_out_of_equality(monkeypatch):
    import rhomin.transfer as transfer

    calls = []
    monkeypatch.setattr(transfer, "charpoly", lambda g: calls.append(g.n) or charpoly(g))
    g = path_graph(4)
    rg, twin = RootedGraph(g, 1), RootedGraph(g, 1)
    t_compose(rg, rg, None)
    assert calls == []  # placing a branch reads no polynomial
    for lam in LAMBDAS:
        pq_decompose(rg, lam)
        extended_phi(rg, 2, lam)
    assert calls == [4, 3]
    assert (rg.phi, rg.phi_minus_root) == (charpoly(g), charpoly(delete_vertex(g, 1)))
    assert rg == twin and hash(rg) == hash(twin)
    assert rg != RootedGraph(g, 2)


def test_single_vertex_pq():
    pq = pq_decompose(RootedGraph(path_graph(1), 0), Fraction(3))
    assert pq.phi == 3
    assert pq.phi_minus_root == 1


def test_pq_rejects_small_lambda():
    with pytest.raises(ValueError):
        pq_decompose(RootedGraph(path_graph(2), 0), Fraction(2))


def test_odd_path_closed_form():
    for k in range(0, 7):
        for lam in LAMBDAS:
            direct = pq_decompose(RootedGraph(path_graph(2 * k + 1), k), lam)
            closed = odd_path_center_pq(k, lam)
            assert direct.p == closed.p and direct.q == closed.q


def test_pendant_extend_matches_charpoly():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 6)
        g = _random_tree(rng, n)
        v = rng.randrange(n)
        pq = pq_decompose(RootedGraph(g, v), Fraction(5, 2))
        for i in (0, 1, 2, 4):
            ext = pendant_extend(pq, i)
            assert ext.phi == extended_phi(RootedGraph(g, v), i, Fraction(5, 2))
    base = pq_decompose(RootedGraph(path_graph(1), 0), Fraction(5, 2))
    ext = pendant_extend(base, 2)
    assert ext.phi == charpoly(path_graph(3)).eval_at(Fraction(5, 2))


def test_alpha_values_and_closed_form():
    rg = RootedGraph(path_graph(1), 0)
    assert alpha(rg, 0, Fraction(3)) == Fraction(8, 3)
    assert alpha(rg, 1, Fraction(3)) == Fraction(21, 8)
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(1, 7)
        g = _random_tree(rng, n)
        rg = RootedGraph(g, rng.randrange(n))
        lam = rng.choice(LAMBDAS)
        i = rng.randint(0, 5)
        if extended_phi(rg, i, lam) == 0:
            continue
        # (x1^{i+1} p + x2^{i+1} q) / (x1^i p + x2^i q) in the quadratic field
        pq = pendant_extend(pq_decompose(rg, lam), i)
        nxt = pendant_extend(pq, 1)
        field = (nxt.p + nxt.q) / (pq.p + pq.q)
        assert field.is_rational and field.to_rational() == alpha(rg, i, lam)


def test_t_value_inequality_between_reference_graphs():
    g1 = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])
    g2 = build_graph(6, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)])
    assert classify(g1) == OpenQuipu((1, 1), (3,))
    assert classify(g2) == OpenQuipu((1, 2), (2,))
    rng = random.Random(1)
    for _ in range(50):
        lam = Fraction(2) + Fraction(rng.randint(1, 2000), 1000)
        tu = t_value(RootedGraph(g1, 3), lam)
        tv = t_value(RootedGraph(g2, 3), lam)
        assert (tv - tu).sign() > 0
    # closed forms from the two-graph analysis
    for lam in LAMBDAS:
        x1, x2 = root_pair(lam)
        tu = t_value(RootedGraph(g1, 3), lam)
        tv = t_value(RootedGraph(g2, 3), lam)
        assert tu == ((x2**3 - lam) * x2**3 - x1**2) / ((lam - x1**3) * x1**3 + x2**2)
        assert tv == ((x2**3 - lam) * x2**2) / ((lam - x1**3) * x1**2)


def test_t_value_pole():
    # p of (P2, end) vanishes where phi ratios degenerate: find a pole by
    # construction instead: P1 at lambda where -x1*phi + phi_{G-v} = 0 has
    # no rational solution > 2, so use a crafted graph/value pair if any.
    # The error path is still exercised via a direct QuadNum inversion.
    x1, _ = root_pair(Fraction(3))
    zero = x1 - x1
    with pytest.raises(PoleError):
        zero.inverse()


def test_compose_structure_and_identity():
    k1 = RootedGraph(path_graph(1), 0)
    T = t_compose(k1, k1, k1)
    assert T.n == 6
    assert classify(T) == OpenQuipu((1, 2), (2,))  # the (2,1,2) spider
    poly = compose_charpoly(k1, k1, k1)
    assert poly.coeffs == charpoly_dense(T).coeffs
    # phi = (x^2-1)((x^2-1)^2 - 2x^2)
    from rhomin.exactpoly import IntPoly

    a = IntPoly((-1, 0, 1))
    expected = a * (a * a - IntPoly((0, 0, 2)))
    assert poly.coeffs == expected.coeffs


def test_compose_identity_random():
    rng = random.Random(17)
    for _ in range(25):
        parts = [
            RootedGraph(t, rng.randrange(t.n))
            for t in (_random_tree(rng, rng.randint(1, 5)) for _ in range(3))
        ]
        T = t_compose(*parts)
        assert T.n == sum(p.graph.n for p in parts) + 3
        assert compose_charpoly(*parts).coeffs == charpoly(T).coeffs


def test_compose_omitted_branches():
    k1 = RootedGraph(path_graph(1), 0)
    assert t_compose(None, k1, None).n == 2
    assert t_compose(k1, k1, None).n == 4
    left = t_compose(k1, k1, None)
    right = t_compose(None, k1, k1)
    assert canonical_code(left) == canonical_code(right)


def test_t_compose_rho_matches_realization():
    rng = random.Random(23)
    for tol in (Fraction(1, 10), Fraction(1, 10**6), Fraction(1, 10**20)):
        for _ in range(5):
            parts = [
                RootedGraph(t, rng.randrange(t.n))
                for t in (_random_tree(rng, rng.randint(1, 6)) for _ in range(3))
            ]
            root = t_compose_rho(*parts, tol=tol)
            assert root.width <= tol
            ref = rho_certified_graph(t_compose(*parts))
            assert not (root.hi < ref.lo or ref.hi < root.lo)


def test_t_compose_rho_rejects_nonpositive_tolerance():
    k1 = RootedGraph(path_graph(1), 0)
    for tol in (0, -1, Fraction(-1, 3)):
        with pytest.raises(ValueError):
            t_compose_rho(k1, k1, k1, tol)


def test_t_compose_rho_singletons():
    k1 = RootedGraph(path_graph(1), 0)
    root = t_compose_rho(k1, k1, k1)
    assert abs(root.as_float() - 1.9318516525781366) < 1e-9


def test_t_compose_rho_with_a_disconnected_branch_keeps_a_double_radius():
    from graph_helpers import disjoint_union

    import rhomin.exactpoly as ep

    # g1 carries, off its root, a copy of the composition of three single
    # vertices, so the composed graph is that tree twice and its radius a
    # double root of compose_charpoly: the Descartes count cannot isolate
    # it, and the Sturm route of the square-free part does
    k1 = RootedGraph(path_graph(1), 0)
    tree = t_compose(k1, k1, k1)
    g1 = RootedGraph(disjoint_union(path_graph(1), tree), 0)
    p = compose_charpoly(g1, k1, k1)
    with pytest.raises(ValueError):
        ep._descartes_root(p)
    root = t_compose_rho(g1, k1, k1)
    assert compare_roots(root, rho_certified_graph(tree))[0] is Ordering.EQUAL


def test_composition_swap_equality():
    a = RootedGraph(path_graph(2), 0)
    b = RootedGraph(path_graph(3), 0)
    ok, witness = equal_rho_certificate(t_compose(a, b, a), t_compose(b, a, b))
    assert ok and witness is not None


def test_composition_monotone_in_branch():
    # a branch with larger spectral spread raises the composed radius
    small = RootedGraph(path_graph(2), 0)
    large = RootedGraph(path_graph(4), 0)
    mid = RootedGraph(path_graph(3), 0)
    t_small = t_compose(small, mid, small)
    t_large = t_compose(large, mid, large)
    assert compare_rho(t_small, t_large) is Ordering.LESS


def test_edge_transfer_preconditions():
    c4 = cycle_graph(4)
    with pytest.raises(ValueError):
        edge_transfer_compare(c4, 0, 0, 0, 0, 2)  # k - l < -1
    with pytest.raises(ValueError):
        edge_transfer_compare(c4, 0, 1, 1, 1, 0)  # l = 0
    with pytest.raises(ValueError):
        edge_transfer_compare(c4, 0, 1, 2, 3, 1)  # wrong distance
    with pytest.raises(ValueError):
        edge_transfer_compare(c4, 0, 0, 1, 3, 1)  # u == v needs j == 0
    with pytest.raises(ValueError):
        edge_transfer_compare(path_graph(4), 0, 3, 3, 3, 1)  # degree 1 ends


def test_edge_transfer_predictions():
    c4 = cycle_graph(4)
    res = edge_transfer_compare(c4, 0, 0, 0, 2, 1)
    assert res.predicted is Ordering.GREATER and res.verified
    res = edge_transfer_compare(c4, 0, 0, 0, 1, 2)
    assert res.predicted is Ordering.EQUAL and res.verified
    assert canonical_code(res.left) == canonical_code(res.right)


def test_edge_transfer_quipu_instance():
    # transferring along the family at k=8 strictly lowers toward the spider
    k = 8
    a = realize(OpenQuipu((1, k - 3, k - 1, 1), (1, k - 2, 1)))
    b = realize(OpenQuipu((1, k - 1, k - 1), (1, k - 1)))
    # direct certified comparison mirroring the transfer chain's conclusion
    assert compare_rho(a, b) is Ordering.GREATER
