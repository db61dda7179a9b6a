"""Search oracles, generators, reports, and theorem-level verdicts."""

import hashlib
import json
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from rhomin.exactpoly import (
    Ordering,
    below_3_over_sqrt2,
    charpoly,
    compare_rho_to,
    compare_roots,
    rho_certified,
    rho_certified_graph,
)
from rhomin.families import (
    ALL_KINDS,
    ClosedQuipu,
    OpenQuipu,
    classify,
    enumerate_quipus,
    realize,
    spec_diameter,
    spider,
    theorem_family,
)
from rhomin.graphs import (
    build_graph,
    canonical_code,
    cycle_graph,
    diameter,
    graph6_decode,
    graph6_encode,
    path_graph,
    star_graph,
)
from rhomin.search import (
    BudgetError,
    _hang,
    _matched,
    _parts_order,
    _sparse_members,
    _Tournament,
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
from graph_helpers import adjacency, perron_vector
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
    # leaf-peeling canonical code and one BFS per vertex: every member up to
    # n = 11; past it every 12th, every cycle of length >= n - 2, and every
    # cycle of length >= 10 with two or more hung trees of positive height,
    # where the diameter rule pairs trees rather than reading one height off
    # the cycle.
    sampled = 0
    for n in range(1, 15):
        members = _sparse_members(n)
        codes = [code for code, _, _ in members]
        assert all(a < b for a, b in zip(codes, codes[1:])), n
        for m, (code, diam, (heads, trees)) in enumerate(members):
            cycle = len(trees) if code.startswith(b"U:") else 0
            if n > 11 and m % 12 and cycle < n - 2 and (
                    cycle < 10 or sum(t.height > 0 for t in trees) < 2):
                continue
            g = _hang(heads, trees)
            ref = build_graph(g.n, g.edges())
            assert g == ref and hash(g) == hash(ref)
            assert code == canonical_code(g) and diam == diameter(g)
            sampled += n > 11
    assert sampled == 5417


def test_sparse_members_digest_is_pinned():
    # every member's code, diameter and built graph for n <= 13, pinned from
    # the generator that rooted every rooted tree of order n and tried every
    # composition of the cycle; the histogram pins n = 14
    digest = hashlib.sha256()
    for n in range(1, 14):
        for code, diam, parts in _sparse_members(n):
            digest.update(code + b" %d " % diam + graph6_encode(_hang(*parts)).encode() + b"\n")
    assert digest.hexdigest() == (
        "e74d60140530a9cabdae2413951ddc36b38292413b442a4dab0c1d4829cda33f")
    members = _sparse_members(14)
    assert len(members) == 42419
    assert Counter((code[:1], diam) for code, diam, _ in members) == {
        (b"T", 2): 1, (b"T", 3): 6, (b"T", 4): 88, (b"T", 5): 322, (b"T", 6): 755,
        (b"T", 7): 850, (b"T", 8): 645, (b"T", 9): 328, (b"T", 10): 123, (b"T", 11): 34,
        (b"T", 12): 6, (b"T", 13): 1,
        (b"U", 2): 1, (b"U", 3): 36, (b"U", 4): 955, (b"U", 5): 5397, (b"U", 6): 11755,
        (b"U", 7): 11154, (b"U", 8): 6528, (b"U", 9): 2579, (b"U", 10): 715, (b"U", 11): 128,
        (b"U", 12): 12,
    }


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
    cached = _sparse_members.cache_info().currsize
    for generator in (free_trees, unicyclic_graphs):
        with pytest.raises(BudgetError):
            generator(15)
    assert _sparse_members.cache_info().currsize == cached


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


def test_degree_sorted_walk_reaches_every_class_with_its_labelled_count():
    # per-graph BFS over every labelled graph against the degree-sorted
    # labelled graphs the batches yield: the same classes, and each class's
    # weights sum to its number of labelled graphs
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        by_diameter = {}
        for mask in range(1 << len(pairs)):
            g = build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            dg = diameter(g)
            if dg is not None:
                by_diameter.setdefault(dg, Counter())[canonical_code(g)] += 1
        for d in range(-1, n + 2):
            walked = Counter()
            masks, _, _, weights = _matched(n, d, pairs)
            for mask, weight in zip(masks.tolist(), weights.tolist()):
                g = build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
                degrees = [g.degree(v) for v in range(n)]
                assert degrees == sorted(degrees), (n, d, mask)
                walked[canonical_code(g)] += weight
            assert walked == by_diameter.get(d, Counter()), (n, d)


def test_degree_sorted_generator_matches_the_popcount_filter():
    # the masks over every d, each call's ascending, against a popcount of
    # every vertex's degree over all 2^C(n,2) edge masks: exactly the
    # degree-sorted masks of connected graphs
    for n in range(1, 8):
        pairs = list(combinations(range(n), 2))
        every = np.arange(1 << len(pairs), dtype=np.int32)
        deg = np.zeros((n, len(every)), dtype=np.uint8)
        for i, (u, v) in enumerate(pairs):
            bit = ((every >> i) & 1).astype(np.uint8)
            deg[u] += bit
            deg[v] += bit
        degree_sorted = every[(deg[:-1] <= deg[1:]).all(axis=0)].tolist()
        connected = [mask for mask in degree_sorted
                     if diameter(build_graph(n, [p for i, p in enumerate(pairs)
                                                 if mask >> i & 1])) is not None]
        walked = []
        for d in range(-1, n + 2):
            masks = _matched(n, d, pairs)[0].tolist()
            assert masks == sorted(set(masks)), (n, d)
            walked += masks
        assert sorted(walked) == connected, n
    assert len(degree_sorted) == 16758  # n = 7


def test_brute_force_all_order7_diameter4_stats():
    stats = brute_force_all_graphs(7, 4).stats
    assert stats == {"matched": 194040, "pool": 2}


def test_brute_force_all_complete_graph_at_the_largest_power_entries():
    # K_7 is the only graph of diameter 1 on 7 vertices; its power vector
    # reaches 7^POWER_STEPS, the largest entry the all-graphs screen forms.
    rep = brute_force_all_graphs(7, 1)
    assert rep.stats == {"matched": 1, "pool": 1}
    assert rep.min_rho.exact and rep.min_rho.lo == 6


def test_all_graphs_oracle_screens_once(monkeypatch):
    import rhomin.search

    calls = []
    screen = rhomin.search.certified_screen

    def counting(av, v):
        calls.append(v)
        return screen(av, v)

    monkeypatch.setattr(rhomin.search, "certified_screen", counting)
    for n, d, screens in ((1, 0, 1), (3, 9, 0), (6, 3, 1), (7, 4, 1)):
        calls.clear()
        rep = brute_force_all_graphs(n, d)
        assert len(calls) == screens and bool(rep.winners) == bool(screens), (n, d)


def test_wrong_vector_moves_loser_into_tournament(monkeypatch):
    import rhomin.search

    n, d = 6, 3
    pairs = list(combinations(range(n), 2))

    def labelled(mask):
        return build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])

    pools = []
    offer = rhomin.search._Tournament.offer

    def spy(self, g, spec):
        pools[-1].add(canonical_code(g))
        offer(self, g, spec)

    monkeypatch.setattr(rhomin.search._Tournament, "offer", spy)
    pools.append(set())
    base = brute_force_all_graphs(n, d)
    # the first labelled graph whose class the screen keeps out of the pool
    masks = _matched(n, d, pairs)[0].tolist()
    loser = next(mk for mk in masks if canonical_code(labelled(mk)) not in pools[0])
    degrees = adjacency(labelled(loser)).sum(axis=1)
    matched = rhomin.search._matched

    def patched(*args):
        # a flat vector widens the loser's bracket to [least, largest degree]
        masks, av, v, weights = matched(*args)
        for j in np.flatnonzero(masks == loser):
            av[:, j], v[:, j] = degrees, 1
        return masks, av, v, weights

    monkeypatch.setattr(rhomin.search, "_matched", patched)
    pools.append(set())
    rep = brute_force_all_graphs(n, d)
    assert pools[1] == pools[0] | {canonical_code(labelled(loser))}
    assert rep.stats["pool"] == base.stats["pool"] + 1
    assert [(w.code, w.spec) for w in rep.winners] == [(w.code, w.spec) for w in base.winners]
    assert rep.sound == base.sound
    assert compare_roots(rep.min_rho, base.min_rho)[0] is Ordering.EQUAL


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


def _screened_quipu_search(n, d):
    """The quipu search as it was before branch-and-bound: every member
    realized, screened by certified_screen with float Perron vectors, then
    the exact tournament over what the screen keeps."""
    specs = list(enumerate_quipus(n, d))
    if not specs:
        return None, [], False
    graphs = [realize(s) for s in specs]
    v = np.stack([perron_vector(g) for g in graphs], axis=1)
    av = np.stack([adjacency(g) @ v[:, j] for j, g in enumerate(graphs)], axis=1)
    tournament = _Tournament()
    for i in np.flatnonzero(certified_screen(av, v)[0]):
        tournament.offer(graphs[i], specs[i])
    min_rho, winners = tournament.result()
    sound = below_3_over_sqrt2(min_rho) and all(spec_diameter(w.spec) == d for w in winners)
    return min_rho, winners, sound


def test_pruned_quipu_search_matches_the_screened_one():
    for n in range(1, 17):
        for d in range(n + 1):
            rep = minimize_over_quipus(n, d)
            min_rho, winners, sound = _screened_quipu_search(n, d)
            assert rep.min_rho == min_rho, (n, d)
            assert [(w.code, w.spec) for w in rep.winners] == [(w.code, w.spec) for w in winners]
            assert rep.sound == sound, (n, d)


def test_every_member_the_pruned_search_drops_is_above_the_minimum(monkeypatch):
    import rhomin.search

    offered = []

    def spy(n, d, kinds=ALL_KINDS, incumbent=None, tally=None):
        assert incumbent is not None  # the search runs the pivot walk
        for spec in enumerate_quipus(n, d, kinds, incumbent, tally):
            offered.append(spec)
            yield spec

    monkeypatch.setattr(rhomin.search, "enumerate_quipus", spy)
    cut_members = 0
    for n in range(1, 15):
        for d in range(n + 1):
            offered.clear()
            rep = minimize_over_quipus(n, d)
            stats = rep.stats
            if offered:
                assert stats["exactly_compared"] == len(offered)
                assert stats["screened_out"] + len(offered) == rep.candidates_examined
            winners = {w.spec for w in rep.winners}
            for spec in set(enumerate_quipus(n, d)) - winners:
                # a coarse root of its own, refined by compare_roots as needed
                root = rho_certified(charpoly(realize(spec)), Fraction(1, 2**10))
                assert compare_roots(root, rep.min_rho)[0] is Ordering.GREATER, (n, d, spec)
                cut_members += spec not in offered
    assert cut_members > 0


def test_every_member_the_sparse_oracle_drops_is_above_the_minimum():
    drops = 0
    for n in range(1, 11):
        for d in range(-1, n + 1):
            rep = brute_force_sparse(n, d)
            winners = rep.winner_codes()
            for code, diam, parts in _sparse_members(n):
                if diam == d and code not in winners:
                    # a coarse Sturm root of its own, refined by compare_roots as needed
                    root = rho_certified(charpoly(_hang(*parts)), Fraction(1, 2**10))
                    assert compare_roots(root, rep.min_rho)[0] is Ordering.GREATER, (n, d, code)
                    drops += 1
    assert drops == 1197


def test_parts_fold_agrees_with_compare_rho_to():
    # one memo per lam, shared by every member: a memo keyed by anything
    # coarser than a rooted tree's class hands one tree another's pivot
    fixed = [Fraction(x) for x in (0, 1, Fraction(3, 2), 2, Fraction(9, 4), 3)]
    fixed += [2 + Fraction(1, 2**30), 2 - Fraction(1, 2**30)]
    memos, seen = {}, Counter()

    def fold(parts, lam):
        return _parts_order(parts[1], (lam.numerator, lam.denominator), memos.setdefault(lam, {}))

    for n in range(1, 11):
        for _, _, parts in _sparse_members(n):
            g = _hang(*parts)
            # the member's own radius rounded up to the grid, as the tournament rounds it
            own = Fraction(math.ceil(rho_certified_graph(g).hi * 2**16), 2**16)
            for lam in fixed + [own]:
                got = fold(parts, lam)
                assert got is compare_rho_to(g, lam), (canonical_code(g), lam)
                seen[got] += 1
    assert set(seen) == set(Ordering)
    at_eigenvalue = [(build_graph(1, []), 0), (path_graph(2), 1), (star_graph(5), 2)]
    at_eigenvalue += [(cycle_graph(n), 2) for n in range(3, 11)]
    for g, lam in at_eigenvalue:
        parts = next(p for code, _, p in _sparse_members(g.n) if code == canonical_code(g))
        assert fold(parts, Fraction(lam)) is Ordering.EQUAL, canonical_code(g)


def test_sparse_oracle_builds_only_the_graphs_it_offers(monkeypatch):
    import rhomin.search

    built = []
    hang = rhomin.search._hang

    def counting(*args):
        built.append(args)
        return hang(*args)

    monkeypatch.setattr(rhomin.search, "_hang", counting)
    _sparse_members.cache_clear()
    rep = brute_force_sparse(13, 6)
    assert len(built) == rep.stats["matched"] - rep.stats["screened_out"] == 24


def test_sparse_oracle_digest_is_pinned():
    # every report for n <= 12 and every d, pinned from an oracle that built
    # every member's graph and asked compare_rho_to of each; min_rho's ends
    # are left out, as a locator change may move them by one cell of its grid
    digest = hashlib.sha256()
    for n in range(1, 13):
        for d in range(n + 1):
            rep = brute_force_sparse(n, d).to_json()
            if rep["min_rho"] is not None:
                del rep["min_rho"]["lo"], rep["min_rho"]["hi"]
            digest.update((json.dumps(rep, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == (
        "1d64a8a307d969cd519d0c1acc0188ad2b3a35afa34a7e421a66e9788a01d2d8")


def test_all_graphs_oracle_digest_is_pinned():
    # every report for n <= 6 and every d, pinned from the oracle that
    # walked every labelled graph; winners by canonical code and spec, as
    # the labelling a report holds of each winner class may change
    digest = hashlib.sha256()
    for n in range(1, 7):
        for d in range(-1, n + 2):
            rep = brute_force_all_graphs(n, d)
            rec = rep.to_json()
            rec["winners"] = [[w.code.hex(), j["spec"]]
                              for w, j in zip(rep.winners, rec["winners"])]
            digest.update((json.dumps(rec, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == (
        "d6a528820163447510edf6f0d7e27b3e8cac6fc2bd824ae794eb31a2498d8d7a")


def test_quipu_search_uses_no_float_screen(monkeypatch):
    # nor does the sparse oracle: both drop only by the inertia test
    import rhomin.search

    def refuse(*args, **kwargs):
        raise AssertionError("a tree or unicyclic search reached the float screen")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(rhomin.search, "certified_screen", refuse)
    for k in (2, 3, 4, 5):
        assert verify_theorem(k).passed
    rep = minimize_over_quipus(16, 9)
    assert rep.sound and rep.stats["prefixes_cut"] > 0
    assert [w.spec for w in rep.winners] == [ClosedQuipu((6, 6), (1, 1))]
    for n, d in ((10, 6), (12, 5), (13, 8)):
        rep = brute_force_sparse(n, d)
        assert rep.winners and rep.stats["screened_out"] > 0, (n, d)
