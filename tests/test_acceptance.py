"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints exactly one pass/fail
line on the real stdout (bypassing capture) so a plain ``pytest -v`` run
shows the verdict for every criterion.
"""

from fractions import Fraction

import pytest

from rhomin.exactpoly import (
    Ordering,
    below_3_over_sqrt2,
    compare_roots,
    equal_rho_certificate,
    rho_certified_graph,
)
from rhomin.families import (
    ClosedQuipu,
    OpenQuipu,
    realize,
    spec_diameter,
    theorem_family,
)
from rhomin.graphs import canonical_code, path_graph
from rhomin.search import (
    brute_force_all_graphs,
    brute_force_sparse,
    free_trees,
    minimize_over_quipus,
    rho_k,
    verify_exceptions,
    verify_theorem,
)
from rhomin.suites import (
    suite_composition,
    suite_composition_symmetry,
    suite_diameter_bounds,
    suite_edge_transfer,
    suite_rooted_ratio,
)
from rhomin.transfer import RootedGraph, t_compose
from tree_oracles import counted_free_trees, naive_free_tree_count


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_verdicts(capfd):
    # Keep a handle on the capture manager so _report can print its one
    # verdict line on the real stdout even under fd-level capture.
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(num: int, ok: bool, detail: str):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    with _CAPTURE.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_exhaustive_order7_diameter4():
    report = brute_force_all_graphs(7, 4)
    expected = {canonical_code(realize(s)) for s in theorem_family(2)}
    ok = report.winner_codes() == expected and len(report.winners) == 2
    root = report.min_rho
    ok = ok and root is not None and root.lo <= 2 <= root.hi and root.exact
    equal, witness = equal_rho_certificate(report.winners[0].graph,
                                           report.winners[1].graph)
    ok = ok and equal and witness is not None
    ok = ok and witness.factor.eval_at(Fraction(2)) == 0
    _report(1, ok, f"{len(report.winners)} winners at (7,4), min rho = 2 "
                   "with a shared root-2 factor")


def test_criterion_2_family_minimizers_k3_to_8():
    sizes = {}
    ok = True
    for k in range(3, 9):
        verdict = verify_theorem(k)
        sizes[k] = len(verdict.data["report"].winners)
        ok = ok and verdict.passed
    ok = ok and [sizes[k] for k in range(3, 9)] == [2, 3, 3, 4, 4, 5]
    _report(2, ok, f"tied-family winner counts k=3..8: "
                   f"{[sizes[k] for k in range(3, 9)]}")


def test_criterion_3_known_minimizers():
    cases = [
        (10, 9, path_graph(10)),
        (10, 8, realize(OpenQuipu((1, 7), (1,)))),
        (10, 7, realize(OpenQuipu((1, 4, 1), (1, 1)))),
        (9, 4, realize(ClosedQuipu((8,), (0,)))),
    ]
    failures = []
    for n, d, expected in cases:
        report = brute_force_sparse(n, d)
        if not report.sound:
            failures.append(f"({n},{d}) not sound")
        elif report.winner_codes() != {canonical_code(expected)}:
            failures.append(f"({n},{d}) wrong winner set")
    _report(3, not failures,
            "sparse search reproduces the path, two pendant-path trees, "
            "and the 9-cycle" if not failures else "; ".join(failures))


def test_criterion_4_exceptional_quipus():
    failures = []
    for k in range(7, 13):
        verdict = verify_exceptions(k)
        if not verdict.passed:
            failures.append(f"k={k}: {verdict.failures}")
    _report(4, not failures,
            "all seven exceptional families exceed the minimum for k=7..12"
            if not failures else "; ".join(failures))


def test_criterion_5_spider_radius_regression():
    failures = []
    for k in range(1, 16):
        if not below_3_over_sqrt2(rho_k(k)):
            failures.append(f"rho_{k} not certified below 3/sqrt(2)")
        if k < 15:
            order, _ = compare_roots(rho_k(k), rho_k(k + 1))
            if order is not Ordering.LESS:
                failures.append(f"rho_{k} not below rho_{k+1}")
    r1, r2 = rho_k(1), rho_k(2)
    if not (r1.lo ** 2 <= 3 <= r1.hi ** 2):
        failures.append("rho_1 interval misses sqrt(3)")
    if not (r2.exact and r2.lo == 2):
        failures.append("rho_2 not exactly 2")
    _report(5, not failures,
            "rho_k strictly increasing and below 3/sqrt(2) for k<=15; "
            "rho_1 = sqrt(3), rho_2 = 2" if not failures else "; ".join(failures))


def test_criterion_6_diameter_boundary():
    failures = []
    for k in (4, 5):
        spec = ClosedQuipu((2 * k + 3,), (k,))
        g = realize(spec)
        if g.n != 3 * k + 4:
            failures.append(f"k={k}: wrong order {g.n}")
        if spec_diameter(spec) != 2 * k + 2:
            failures.append(f"k={k}: wrong diameter")
        if not below_3_over_sqrt2(rho_certified_graph(g)):
            failures.append(f"k={k}: boundary quipu not below 3/sqrt(2)")
    bounds = suite_diameter_bounds(16)
    if not bounds.passed:
        failures.extend(bounds.failures)
    _report(6, not failures,
            "boundary closed quipus hit d = 2(n-1)/3; open quipus below the "
            "threshold at n=16 satisfy d >= (2n-4)/3"
            if not failures else "; ".join(failures))


def test_criterion_7_transfer_identities():
    failures = []
    # (a)-(d): defining identities, closed-form ratio, odd-path center
    # pair, strict t-inequality on 50 rational points in (2, 4].
    r = suite_rooted_ratio(trials=500)
    if not r.passed:
        failures.extend(r.failures)
    # (e) composition-equation root intersects the realized radius.
    r = suite_composition(trials=50)
    if not r.passed:
        failures.extend(r.failures)
    # (f) branch-swap equality certified.
    r = suite_composition_symmetry(trials=20)
    if not r.passed:
        failures.extend(r.failures)
    # (g) compositions of a pendant-path tree with two paths realize the
    # two exceptional quipus exactly.
    for k in range(7, 11):
        g = realize(OpenQuipu((1, 1, k - 3), (1, 1)))
        h = realize(OpenQuipu((2, k - 2), (2,)))
        lg = sum((1, 1, k - 3)) + 2
        lh = sum((2, k - 2)) + 1
        p2 = RootedGraph(path_graph(k - 2), 0)
        p3 = RootedGraph(path_graph(k - 3), 0)
        tg = t_compose(RootedGraph(g, lg - 1), p2, p3)
        th = t_compose(RootedGraph(h, lh - 1), p2, p3)
        if canonical_code(tg) != canonical_code(
                realize(OpenQuipu((1, 1, k - 2, k - 2), (1, 1, k - 2)))):
            failures.append(f"k={k}: first composition not isomorphic")
        if canonical_code(th) != canonical_code(
                realize(OpenQuipu((2, k - 1, k - 2), (2, k - 2)))):
            failures.append(f"k={k}: second composition not isomorphic")
    _report(7, not failures,
            "pq/alpha/odd-path identities on 500 trees x 3 points, "
            "t-inequality, 50 composition roots, 20 symmetry certificates, "
            "8 composition isomorphisms" if not failures else "; ".join(failures))


def test_criterion_8_edge_transfer():
    r = suite_edge_transfer(trials=200)
    _report(8, r.passed,
            f"predicted ordering matched the certificate on {r.checks} "
            "edge-transfer instances" if r.passed else "; ".join(r.failures))


def test_criterion_9_oracle_cross_validation():
    failures = []
    gen10 = len(free_trees(10))
    if gen10 != 106 or counted_free_trees(10) != 106:
        failures.append(f"free-tree count at n=10: generator {gen10}, "
                        f"formula {counted_free_trees(10)}")
    for n in range(1, 9):
        if naive_free_tree_count(n) != len(free_trees(n)):
            failures.append(f"naive tree count disagrees at n={n}")
    for n, d in [(7, 4), (10, 9), (10, 8), (10, 7), (9, 4)]:
        rs = brute_force_sparse(n, d)
        rq = minimize_over_quipus(n, d)
        if rs.sound and rq.sound and rs.winner_codes() != rq.winner_codes():
            failures.append(f"({n},{d}) sparse/quipu winner sets differ")
    _report(9, not failures,
            "tree generator counts agree with the independent formula; "
            "sparse and quipu searches agree on all sound (n,d) pairs"
            if not failures else "; ".join(failures))
