"""Family realization, classification round-trips, enumeration."""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhomin.exactpoly import Ordering, compare_rho_to
from rhomin.families import (
    ClosedQuipu,
    Dagger,
    OpenQuipu,
    classify,
    enumerate_quipus,
    parse_spec_literal,
    realize,
    spec_diameter,
    spec_literal,
    spider,
    theorem_family,
)
from rhomin.graphs import (
    build_graph,
    canonical_code,
    cycle_graph,
    diameter,
    path_graph,
    star_graph,
)
from graph_helpers import canonicalize, lams_around, relabel


def test_spec_invariants():
    with pytest.raises(ValueError):
        OpenQuipu((1,), ())
    with pytest.raises(ValueError):
        OpenQuipu((1, -1), (2,))
    with pytest.raises(ValueError):
        ClosedQuipu((0,), (1,))  # cycle length 1
    with pytest.raises(ValueError):
        Dagger(-1)
    assert OpenQuipu((2, 2), (2,)).order == 7
    assert ClosedQuipu((2, 2), (1, 1)).order == 8
    assert Dagger(3).order == 7


def test_realize_shapes():
    g = realize(OpenQuipu((1, 1, 1), (1, 1)))
    assert g.n == 7
    assert sorted(g.degree(v) for v in range(7)) == [1, 1, 1, 1, 2, 3, 3]
    c = realize(ClosedQuipu((2, 2), (1, 1)))
    assert c.n == 8 and c.edge_count == 8
    d = realize(Dagger(0))
    assert canonical_code(d) == canonical_code(star_graph(4))


def test_classify_round_trip_families():
    cases = [
        OpenQuipu((0, 0), (5,)),
        OpenQuipu((1, 2), (3,)),
        OpenQuipu((1, 1, 1), (1, 1)),
        OpenQuipu((2, 0, 3), (1, 2)),
        OpenQuipu((1, 3, 2, 1), (1, 2, 1)),
        ClosedQuipu((5,), (0,)),
        ClosedQuipu((4,), (2,)),
        ClosedQuipu((1, 2), (2, 1)),
        ClosedQuipu((0, 0, 1), (1, 1, 1)),
        Dagger(1),
        Dagger(4),
    ]
    for spec in cases:
        out = classify(realize(spec))
        assert out is not None, spec
        assert canonical_code(realize(out)) == canonical_code(realize(spec))
        # canonical forms are fixed points
        assert canonicalize(out) == out


def test_classify_path_cycle_star():
    assert classify(path_graph(6)) == OpenQuipu((0, 0), (5,))
    assert classify(cycle_graph(7)) == ClosedQuipu((6,), (0,))
    assert classify(star_graph(4)) == OpenQuipu((1, 1), (1,))


def test_classify_rejects_non_family():
    assert classify(star_graph(5)) == Dagger(1)  # four unit arms at the center
    assert classify(star_graph(6)) is None  # degree 5 exceeds every family
    k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert classify(k4) is None
    # two degree-4 vertices: not a dagger, not a quipu
    g = build_graph(10, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (2, 6),
                         (6, 7), (1, 8), (2, 9)])
    assert classify(g) is None
    # tree whose four degree-3 vertices do not share a path
    h = build_graph(10, [(0, 1), (0, 4), (0, 7), (1, 2), (1, 3),
                         (4, 5), (4, 6), (7, 8), (7, 9)])
    assert classify(h) is None


def test_classify_dagger_requires_tail():
    # tail 0 has no degree-4 path vertex once realized? no: center has degree 3
    assert isinstance(classify(realize(Dagger(0))), OpenQuipu)
    assert classify(realize(Dagger(2))) == Dagger(2)


def test_theorem_family_members():
    fam = theorem_family(4)
    assert len(fam) == 3
    for s in fam:
        assert s.order == 13
        assert spec_diameter(s) == 8
    assert spider(4) in [canonicalize(s) for s in fam[:1]]


def test_spec_literals():
    s = OpenQuipu((1, 1, 1), (1, 1))
    assert parse_spec_literal(spec_literal(s)) == s
    assert parse_spec_literal("spec:dagger:t=3") == Dagger(3)
    assert parse_spec_literal("closed:ks=2,2;ms=1,1") == ClosedQuipu((2, 2), (1, 1))
    with pytest.raises(ValueError):
        parse_spec_literal("open:ks=1,2")
    with pytest.raises(ValueError):
        parse_spec_literal("weird:x=1")


@pytest.mark.parametrize("text", ["open:ks=1,1;ms=1;foo=bar", "open:ks=1,1;ms=1;ms=5",
                                  "dagger:t=1;t=2", "closed:ks=3;ms=1;ks=3"])
def test_spec_literal_rejects_unknown_and_repeated_keys(text):
    with pytest.raises(ValueError, match="malformed"):
        parse_spec_literal(text)


def test_enumerate_small_complete():
    specs = list(enumerate_quipus(7, 4))
    literals = sorted(spec_literal(s) for s in specs)
    assert "open:ks=2,2;ms=2" in literals
    assert "open:ks=1,1,1;ms=1,1" in literals
    assert "dagger:t=3" in literals
    # each realization is distinct and has the right (n, d)
    codes = set()
    for s in specs:
        g = realize(s)
        assert g.n == 7 and diameter(g) == 4
        code = canonical_code(g)
        assert code not in codes
        codes.add(code)


def test_enumerate_matches_exhaustive_tree_scan():
    # every tree of order 8 with diameter 5 that classifies as an open quipu
    # must be found by the enumerator, and vice versa
    from rhomin.search import free_trees

    expected = set()
    for t in free_trees(8):
        if diameter(t) == 5 and classify(t) is not None:
            expected.add(canonical_code(t))
    got = {canonical_code(realize(s)) for s in enumerate_quipus(8, 5, kinds={"open"})}
    got |= {canonical_code(realize(s)) for s in enumerate_quipus(8, 5, kinds={"dagger"})}
    assert got == expected


def test_enumerate_matches_exhaustive_unicyclic_scan():
    from rhomin.search import unicyclic_graphs

    expected = set()
    for g in unicyclic_graphs(8):
        if diameter(g) == 4 and classify(g) is not None:
            expected.add(canonical_code(g))
    got = {canonical_code(realize(s)) for s in enumerate_quipus(8, 4, kinds={"closed"})}
    assert got == expected


def test_enumerate_canonical_and_unique():
    for (n, d) in [(10, 6), (11, 7), (12, 6)]:
        seen = set()
        for s in enumerate_quipus(n, d):
            assert canonicalize(s) == s
            assert s not in seen
            seen.add(s)


def test_enumerate_matches_tree_and_unicyclic_reference():
    # an independent reference for every n <= 14 and every d: all trees and
    # unicyclic graphs that classify into a family, by BFS diameter
    from rhomin.search import free_trees, unicyclic_graphs

    for n in range(1, 15):
        by_d = {}
        for g in free_trees(n) + unicyclic_graphs(n):
            if classify(g) is not None:
                by_d.setdefault(diameter(g), []).append(canonical_code(g))
        for d in range(n + 1):
            got = sorted(canonical_code(realize(s)) for s in enumerate_quipus(n, d))
            assert got == sorted(by_d.get(d, [])), (n, d)


def test_enumeration_digest_is_pinned():
    # the members for every n <= 18 and every d, pinned from an enumerator
    # that built every parameter tuple with no pivot arithmetic; at lam = 4
    # the walk cuts nothing and drops nothing
    digest = hashlib.sha256()
    for n in range(1, 19):
        for d in range(n + 1):
            tally = {}
            literals = sorted(spec_literal(s) for s in enumerate_quipus(n, d, tally=tally))
            assert tally == {"reached": len(literals), "screened_out": 0, "prefixes_cut": 0}
            digest.update(f"{n} {d}: {' '.join(literals)}\n".encode())
    assert digest.hexdigest() == (
        "18f7f298b6df21205abcfbc142b619ab7985978827cb6ec75287d4df38f21614")


@pytest.mark.parametrize("k,counts", [
    (3, (14, 23)), (4, (86, 80)), (5, (521, 276)), (6, (3292, 913)),
    (7, (20772, 2935)),
])
def test_enumerate_theorem_family_counts(k, counts):
    n, d = 3 * k + 1, 2 * k
    specs = list(enumerate_quipus(n, d, kinds={"open", "closed"}))
    got = (sum(isinstance(s, OpenQuipu) for s in specs),
           sum(isinstance(s, ClosedQuipu) for s in specs))
    assert got == counts
    if k <= 5:
        for s in specs:
            assert s.order == n and spec_diameter(s) == d, spec_literal(s)


# ---------------------------------------------------------------------------
# properties of classify over random specs, zero parameters included

_PARAM = st.integers(0, 5)


@st.composite
def _specs(draw):
    kind = draw(st.sampled_from(["open", "closed", "dagger"]))
    if kind == "dagger":
        return Dagger(draw(st.integers(0, 8)))
    r = draw(st.integers(1 if kind == "closed" else 0, 4))
    if kind == "open":
        return OpenQuipu(tuple(draw(_PARAM) for _ in range(r + 2)),
                         tuple(draw(_PARAM) for _ in range(r + 1)))
    ks = tuple(draw(_PARAM) for _ in range(r))
    if sum(ks) + r < 3:
        ks = (3 - r + ks[0],) + ks[1:]
    return ClosedQuipu(ks, tuple(draw(_PARAM) for _ in range(r)))


@settings(max_examples=300, deadline=None)
@given(_specs(), st.randoms(use_true_random=False))
def test_classify_is_a_canonical_inverse_of_realize(spec, rnd):
    g = realize(spec)
    perm = list(range(g.n))
    rnd.shuffle(perm)
    out = classify(g)
    assert out is not None
    assert classify(relabel(g, perm)) == out
    assert canonical_code(realize(out)) == canonical_code(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 17).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))))
def test_classify_returns_every_enumerated_spec(nd):
    for s in enumerate_quipus(*nd):
        assert classify(realize(s)) == s, spec_literal(s)


def _spec_edges(spec):
    """The order and edge list of a spec as realize() documents them: the
    backbone first, then each pendant path, numbered in branch order."""
    if isinstance(spec, Dagger):
        n, edges, hubs, arms = 1, [], [0, 0, 0, 0], [1, 1, 1, spec.tail]
    elif isinstance(spec, ClosedQuipu):
        n = spec.cycle_length
        edges = [(v, (v + 1) % n) for v in range(n)]
        hubs = [sum(spec.ks[:i]) + i for i in range(spec.r)]
        arms = spec.ms
    else:
        n = sum(spec.ks) + len(spec.ms)
        edges = [(v, v + 1) for v in range(n - 1)]
        hubs = [spec.ks[0] + sum(spec.ks[1:i + 1]) + i for i in range(len(spec.ms))]
        arms = spec.ms
    for hub, m in zip(hubs, arms):
        for v in range(n, n + m):
            edges.append((v - 1 if v > n else hub, v))
        n += m
    return n, edges


def test_realize_equals_build_graph_on_every_enumerated_spec():
    specs = 0
    for n in range(1, 15):
        for d in range(n + 1):
            for s in enumerate_quipus(n, d):
                assert realize(s) == build_graph(*_spec_edges(s)), spec_literal(s)
                specs += 1
    assert specs > 1000


@settings(max_examples=200, deadline=None)
@given(_specs().filter(lambda s: 0 in ((s.tail,) if isinstance(s, Dagger) else s.ks + s.ms)))
def test_realize_equals_build_graph_with_zero_parameters(spec):
    assert realize(spec) == build_graph(*_spec_edges(spec))


# ---------------------------------------------------------------------------
# the pivot walk: enumerate_quipus given an incumbent

@pytest.mark.parametrize("lam", [Fraction(61, 32), Fraction(2), Fraction(131, 64),
                                 Fraction(17, 8)])
def test_pivot_walk_drops_exactly_the_members_above_lam(lam):
    # every member the walk drops, by a cut prefix or its last pivot, has
    # rho > lam, and every member it keeps has rho <= lam
    kept = dropped = 0
    for n in range(1, 17):
        for d in range(n + 1):
            walked = set(enumerate_quipus(n, d, incumbent=lambda: lam))
            for s in enumerate_quipus(n, d):
                above = compare_rho_to(realize(s), lam) is Ordering.GREATER
                assert (s in walked) is not above, (n, d, spec_literal(s))
                kept += not above
                dropped += above
    assert kept >= 10 and dropped > 1000


def test_pivot_walk_decides_each_member_at_lam_next_to_its_radius():
    # the sharpest lam for each member: 2^-30 below its radius the walk
    # must drop it, 2^-30 above keep it; an over-strong cut anywhere on its
    # way would show as a drop above
    members = 0
    for n in range(1, 13):
        for d in range(n + 1):
            for s in enumerate_quipus(n, d):
                below, above = lams_around(realize(s))
                assert s not in enumerate_quipus(n, d, incumbent=lambda: below), spec_literal(s)
                assert s in enumerate_quipus(n, d, incumbent=lambda: above), spec_literal(s)
                members += 1
    assert members > 700


def test_enumerate_at_large_diameter_ends_promptly():
    # a quipu with many branch vertices has many disjoint arms, and a
    # longest path meets at most two, so at d close to n the enumeration is
    # short; run in a subprocess, so a search that never ends fails here
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("from rhomin.families import enumerate_quipus, spec_literal\n"
            "for n, d in ((40, 39), (62, 61)):\n"
            "    print(*(spec_literal(s) for s in enumerate_quipus(n, d)))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))},
    )
    assert proc.stdout == "open:ks=0,0;ms=39\nopen:ks=0,0;ms=61\n"

