"""Search oracles, generators, reports, and theorem-level verdicts."""

import json
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from rhomin.exactpoly import Ordering, compare_roots
from rhomin.families import (
    OpenQuipu,
    classify,
    realize,
    spider,
    theorem_family,
)
from rhomin.graphs import (
    build_graph,
    canonical_code,
    cycle_graph,
    diameter,
    graph6_decode,
    path_graph,
)
from rhomin.search import (
    PERRON_BATCH,
    BudgetError,
    _perron_batches,
    _sparse_members,
    brute_force_all_graphs,
    brute_force_sparse,
    certified_screen,
    exception_specs,
    free_trees,
    minimize_over_quipus,
    rho_k,
    unicyclic_graphs,
    verify_exceptions,
    verify_theorem,
)
from graph_helpers import adjacency
from tree_oracles import counted_free_trees, naive_free_tree_count


def test_free_tree_counts_match_independent_formula():
    for n in range(1, 15):
        assert len(free_trees(n)) == counted_free_trees(n)
    assert counted_free_trees(10) == 106
    assert len(free_trees(13)) == 1301
    # OEIS A000055
    assert len(free_trees(14)) == counted_free_trees(14) == 3159


def test_free_tree_counts_match_naive_generator():
    for n in range(1, 9):
        assert len(free_trees(n)) == naive_free_tree_count(n)


def test_unicyclic_counts():
    # connected unicyclic graphs per isomorphism class, n = 3..14 (OEIS A001429)
    assert [len(unicyclic_graphs(n)) for n in range(3, 15)] == [
        1, 2, 5, 13, 33, 89, 240, 657, 1806, 5026, 13999, 39260,
    ]


def test_generated_graphs_are_in_normal_form():
    # Graph values key the root cache, so a generated graph must equal (and
    # hash like) the one build_graph makes from the same edges. The codes and
    # diameters read off the construction are checked against the
    # leaf-peeling canonical code and one BFS per vertex.
    for n in range(1, 12):
        members = _sparse_members(n)
        codes = [code for code, _, _ in members]
        assert all(a < b for a, b in zip(codes, codes[1:])), n
        for code, diam, g in members:
            ref = build_graph(g.n, g.edges())
            assert g == ref and hash(g) == hash(ref)
            assert code == canonical_code(g) and diam == diameter(g)


def test_generator_edge_cases():
    assert free_trees(1) == [build_graph(1, [])]
    assert free_trees(2) == [path_graph(2)]
    assert all(unicyclic_graphs(n) == [] for n in range(-1, 3))
    assert unicyclic_graphs(3) == [cycle_graph(3)]
    with pytest.raises(ValueError):
        free_trees(0)
    for n in range(1, 5):
        for d in range(-1, n + 1):
            sparse, every = brute_force_sparse(n, d), brute_force_all_graphs(n, d)
            if sparse.sound and every.sound and sparse.winners and every.winners:
                assert sparse.winner_codes() == every.winner_codes(), (n, d)


def test_budget_guards():
    with pytest.raises(BudgetError):
        brute_force_all_graphs(8, 4)
    with pytest.raises(BudgetError):
        brute_force_sparse(15, 5)
    with pytest.raises(BudgetError):
        naive_free_tree_count(9)


def test_brute_force_all_small_paths():
    report = brute_force_all_graphs(5, 4)
    assert len(report.winners) == 1
    assert report.winners[0].code == canonical_code(path_graph(5))
    assert report.candidates_examined == 2 ** 10


def test_brute_force_all_no_match():
    report = brute_force_all_graphs(3, 9)
    assert report.min_rho is None and not report.winners


def test_brute_force_all_matches_per_graph_bfs():
    # the batched reachability against one BFS diameter per labelled graph
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        by_diameter = Counter(
            diameter(build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1]))
            for mask in range(1 << len(pairs))
        )
        for d in range(n + 1):
            assert brute_force_all_graphs(n, d).stats["matched"] == by_diameter[d], (n, d)


def test_brute_force_all_order7_diameter4_stats():
    stats = brute_force_all_graphs(7, 4).stats
    assert stats == {"matched": 194040, "pool": 2}


def test_brute_force_all_complete_graph_at_the_largest_power_entries():
    # K_7 is the only graph of diameter 1 on 7 vertices; its power vector
    # reaches 7^POWER_STEPS, the largest entry the all-graphs screen forms.
    rep = brute_force_all_graphs(7, 1)
    assert rep.stats == {"matched": 1, "pool": 1}
    assert rep.min_rho.exact and rep.min_rho.lo == 6


def test_wrong_vector_moves_loser_into_tournament(monkeypatch):
    import rhomin.search

    pools = []
    tournament = rhomin.search._exact_tournament

    def spy(graphs, specs):
        pools.append({canonical_code(g) for g in graphs})
        return tournament(graphs, specs)

    monkeypatch.setattr(rhomin.search, "_exact_tournament", spy)
    base = brute_force_sparse(8, 5)
    matched = [g for g in free_trees(8) + unicyclic_graphs(8) if diameter(g) == 5]
    losers = [g for g in matched if canonical_code(g) not in pools[0]]
    assert losers and base.stats["screened_out"] == len(losers)
    loser = losers[0]
    [(_, _, v)] = _perron_batches([loser])
    wrong = v[::-1, 0].copy()
    wrong_av = adjacency(loser) @ wrong

    # the reversed vector widens the loser's bracket to reach U*
    [(_, av, v)] = _perron_batches([base.winners[0].graph])
    assert certified_screen(np.stack([wrong_av, av[:, 0]], axis=1),
                            np.stack([wrong, v[:, 0]], axis=1))[0].all()

    def patched(graphs):
        for ids, av, v in _perron_batches(graphs):
            for j, i in enumerate(ids):
                if graphs[i] is loser:
                    av[:, j], v[:, j] = wrong_av, wrong
            yield ids, av, v

    monkeypatch.setattr(rhomin.search, "_perron_batches", patched)
    rep = brute_force_sparse(8, 5)
    assert pools[1] == pools[0] | {canonical_code(loser)}
    assert rep.stats["screened_out"] == base.stats["screened_out"] - 1
    assert [(w.code, w.spec) for w in rep.winners] == [(w.code, w.spec) for w in base.winners]
    assert rep.sound and compare_roots(rep.min_rho, base.min_rho)[0] is Ordering.EQUAL


def test_perron_batches_bracket_rho_across_batches():
    graphs = free_trees(12)
    assert len(graphs) == 551 > 2 * PERRON_BATCH
    batches = list(_perron_batches(graphs))
    assert len(batches) == 3
    ids, av, v = (np.concatenate(part, axis=-1) for part in zip(*batches))
    assert ids.tolist() == list(range(len(graphs))) and (v >= 1).all()
    _, (lo_p, lo_q), (hi_p, hi_q) = certified_screen(av, v)
    for j, g in enumerate(graphs):
        rho = np.linalg.eigvalsh(adjacency(g))[-1]
        assert lo_p[j] / lo_q[j] - 1e-9 <= rho <= hi_p[j] / hi_q[j] + 1e-9


@pytest.mark.parametrize("d", range(-1, 3))
def test_oracles_agree_at_order_one(d):
    every, sparse = brute_force_all_graphs(1, d), brute_force_sparse(1, d)
    assert [(w.code, w.spec) for w in every.winners] == [(w.code, w.spec) for w in sparse.winners]
    if d == 0:
        assert every.min_rho == sparse.min_rho and every.min_rho.lo == 0
        assert every.stats == {"matched": 1, "pool": 1}
        assert every.to_json()["winners"][0]["spec"] == "open:ks=0,0;ms=0"
    else:
        assert every.min_rho is sparse.min_rho is None
        assert every.stats == {"matched": 0}


def test_sparse_known_minimizers():
    # path at diameter n-1
    rep = brute_force_sparse(10, 9)
    assert [w.spec for w in rep.winners] == [OpenQuipu((0, 0), (9,))]
    assert rep.sound
    # one branch vertex at diameter n-2
    rep = brute_force_sparse(10, 8)
    assert [w.spec for w in rep.winners] == [OpenQuipu((1, 1), (7,))]
    # two branch vertices at diameter n-3
    rep = brute_force_sparse(10, 7)
    assert [w.spec for w in rep.winners] == [OpenQuipu((1, 4, 1), (1, 1))]
    # cycle at diameter floor(n/2)
    rep = brute_force_sparse(9, 4)
    assert len(rep.winners) == 1
    assert rep.winners[0].code == canonical_code(realize(classify(rep.winners[0].graph)))
    assert rep.min_rho.contains(2) or rep.min_rho.lo == 2


def test_sparse_theorem_case_k3():
    rep = brute_force_sparse(10, 6)
    expected = {canonical_code(realize(s)) for s in theorem_family(3)}
    assert rep.winner_codes() == expected
    assert rep.sound


def test_quipu_search_agrees_with_sparse():
    for n, d in [(10, 6), (9, 5), (10, 7), (10, 8)]:
        a = brute_force_sparse(n, d)
        b = minimize_over_quipus(n, d)
        if not (a.sound and b.sound):
            continue
        assert a.winner_codes() == b.winner_codes(), (n, d)
        order, _ = compare_roots(a.min_rho, b.min_rho)
        assert order is Ordering.EQUAL


def test_quipu_search_report_shape():
    rep = minimize_over_quipus(10, 6)
    payload = rep.to_json()
    assert payload["n"] == 10 and payload["d"] == 6
    assert payload["sound"] is True
    assert len(payload["winners"]) == 2
    for w in payload["winners"]:
        g = graph6_decode(w["graph6"])
        assert g.n == 10
        assert w["spec"] is not None
    json.dumps(payload)  # serializable end to end


def test_search_determinism():
    a = minimize_over_quipus(10, 6).to_json()
    b = minimize_over_quipus(10, 6).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_verify_theorem_small():
    v = verify_theorem(2)
    assert v.passed, v.failures
    assert len(v.data["report"].winners) == 2
    v = verify_theorem(3)
    assert v.passed, v.failures
    assert len(v.data["report"].winners) == 2


def test_closed_quipu_boundary_competitor():
    # the long-cycle closed quipu appears at (3k+1, 2k) for k=7 but loses
    k = 7
    from rhomin.families import ClosedQuipu, enumerate_quipus
    from rhomin.exactpoly import compare_rho

    target = ClosedQuipu((2 * k + 1,), (k - 1,))
    members = list(enumerate_quipus(3 * k + 1, 2 * k, kinds={"closed"}))
    assert target in members
    assert compare_rho(realize(target), realize(spider(k))) is Ordering.GREATER


def test_exception_specs_shape():
    for k in (7, 9):
        specs = exception_specs(k)
        assert len(specs) == 7
        for s in specs:
            g = realize(s)
            assert g.n == 3 * k + 1
            from rhomin.graphs import diameter

            assert diameter(g) == 2 * k
    with pytest.raises(ValueError):
        exception_specs(6)


def test_verify_exceptions_k7():
    v = verify_exceptions(7)
    assert v.passed, v.failures


def test_rho_k_values():
    r1 = rho_k(1)
    assert r1.lo**2 < 3 < r1.hi**2
    r2 = rho_k(2)
    assert r2.contains(2)
    order, _ = compare_roots(rho_k(5), rho_k(6))
    assert order is Ordering.LESS


def test_winner_diameter_mismatch_marks_report_unsound(monkeypatch):
    import rhomin.search

    rep = minimize_over_quipus(10, 6)
    assert rep.sound and rep.stats["diameter_mismatches"] == 0
    monkeypatch.setattr(rhomin.search, "spec_diameter", lambda spec: -1)
    rep = minimize_over_quipus(10, 6)
    assert rep.sound is False
    assert rep.stats["diameter_mismatches"] == len(rep.winners) == 2
