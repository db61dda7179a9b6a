"""Parametric graph families: open quipus, closed quipus, daggers.

An open quipu is a tree of maximum degree 3 whose degree-3 vertices lie on a
path; parameters ks give the segment lengths along the backbone and ms the
pendant path lengths at the branch vertices. A closed quipu is the unicyclic
analogue (branch vertices on the cycle). A dagger is a star of order 4 with a
pendant path attached at its center.

The module realizes parameter tuples as graphs, classifies graphs back to
canonical parameters, and enumerates all family members with a given order
and diameter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    Graph,
    build_graph,
    diameter,
    distances,
    is_connected,
    two_core_cycle,
)


@dataclass(frozen=True)
class OpenQuipu:
    """Open quipu with r+2 segment lengths ks and r+1 pendant lengths ms."""

    ks: tuple[int, ...]
    ms: tuple[int, ...]

    def __post_init__(self):
        if len(self.ks) != len(self.ms) + 1:
            raise ValueError("need len(ks) == len(ms) + 1")
        if len(self.ms) < 1:
            raise ValueError("need at least one branch position")
        if any(k < 0 for k in self.ks) or any(m < 0 for m in self.ms):
            raise ValueError("parameters must be nonnegative")

    @property
    def r(self) -> int:
        return len(self.ms) - 1

    @property
    def order(self) -> int:
        return sum(self.ks) + sum(self.ms) + self.r + 1


@dataclass(frozen=True)
class ClosedQuipu:
    """Closed quipu with r cycle gaps ks and r pendant lengths ms."""

    ks: tuple[int, ...]
    ms: tuple[int, ...]

    def __post_init__(self):
        if len(self.ks) != len(self.ms) or not self.ks:
            raise ValueError("need len(ks) == len(ms) >= 1")
        if any(k < 0 for k in self.ks) or any(m < 0 for m in self.ms):
            raise ValueError("parameters must be nonnegative")
        if self.cycle_length < 3:
            raise ValueError("cycle length below 3")

    @property
    def r(self) -> int:
        return len(self.ms)

    @property
    def cycle_length(self) -> int:
        return sum(self.ks) + self.r

    @property
    def order(self) -> int:
        return self.cycle_length + sum(self.ms)


@dataclass(frozen=True)
class Dagger:
    """Star of order 4 with a pendant path of `tail` vertices at the center."""

    tail: int

    def __post_init__(self):
        if self.tail < 0:
            raise ValueError("tail must be nonnegative")

    @property
    def order(self) -> int:
        return self.tail + 4


QuipuSpec = OpenQuipu | ClosedQuipu | Dagger


# ---------------------------------------------------------------------------
# realization

def realize(spec: QuipuSpec) -> Graph:
    """Build the graph of a parameter tuple.

    Backbone (or cycle) vertices are numbered first, left to right, then the
    pendant paths in branch order.
    """
    if isinstance(spec, OpenQuipu):
        return _realize_open(spec)
    if isinstance(spec, ClosedQuipu):
        return _realize_closed(spec)
    if isinstance(spec, Dagger):
        return _realize_dagger(spec)
    raise TypeError(f"not a family spec: {spec!r}")


def _realize_open(q: OpenQuipu) -> Graph:
    edges = []
    branch = []
    v = -1
    for i, k in enumerate(q.ks):
        for _ in range(k):
            v += 1
            if v:
                edges.append((v - 1, v))
        if i < len(q.ms):
            v += 1
            if v:
                edges.append((v - 1, v))
            branch.append(v)
    n = v + 1
    for b, m in zip(branch, q.ms):
        prev = b
        for _ in range(m):
            edges.append((prev, n))
            prev = n
            n += 1
    return build_graph(n, edges)


def _realize_closed(q: ClosedQuipu) -> Graph:
    c = q.cycle_length
    edges = [(i, (i + 1) % c) for i in range(c)]
    branch = []
    pos = 0
    for k in q.ks:
        branch.append(pos)
        pos += k + 1
    n = c
    for b, m in zip(branch, q.ms):
        prev = b
        for _ in range(m):
            edges.append((prev, n))
            prev = n
            n += 1
    return build_graph(n, edges)


def _realize_dagger(d: Dagger) -> Graph:
    edges = [(0, 1), (0, 2), (0, 3)]
    prev = 0
    n = 4
    for _ in range(d.tail):
        edges.append((prev, n))
        prev = n
        n += 1
    return build_graph(n, edges)


def spec_diameter(spec: QuipuSpec) -> int:
    return diameter(realize(spec))


# ---------------------------------------------------------------------------
# classification back to canonical parameters

def _walk_arm(g: Graph, start: int, first: int):
    """Follow the path leaving `start` through `first`; return its vertex
    count, or None if it runs into a vertex of degree >= 3."""
    length = 0
    prev, cur = start, first
    while True:
        length += 1
        deg = g.degree(cur)
        if deg == 1:
            return length
        if deg > 2:
            return None
        nxt = next(w for w in g.adj[cur] if w != prev)
        prev, cur = cur, nxt
    # unreachable


def _open_variants(ks, ms):
    """(ks + ms, ks, ms) of every end-arm swap and reversal (r >= 1)."""
    for kr, mr in ((ks, ms), (ks[::-1], ms[::-1])):
        for left in ((kr[0], mr[0]), (mr[0], kr[0])):
            for right in ((kr[-1], mr[-1]), (mr[-1], kr[-1])):
                ck = (left[0],) + tuple(kr[1:-1]) + (right[0],)
                cm = (left[1],) + tuple(mr[1:-1]) + (right[1],)
                yield (ck + cm, ck, cm)


def _open_canonical(ks: tuple[int, ...], ms: tuple[int, ...]) -> OpenQuipu:
    """Least representative under end-arm swaps and reversal."""
    if len(ms) == 1:
        arms = sorted((ks[0], ks[1], ms[0]))
        return OpenQuipu((arms[0], arms[1]), (arms[2],))
    _, bk, bm = min(_open_variants(ks, ms))
    return OpenQuipu(bk, bm)


def _closed_pair_candidates(ks, ms):
    r = len(ks)
    seqs = [list(zip(ms, ks))]
    refl_ms = [ms[0]] + [ms[r - 1 - i] for i in range(r - 1)]
    refl_ks = ks[::-1]
    seqs.append(list(zip(refl_ms, refl_ks)))
    for seq in seqs:
        for s in range(r):
            yield tuple(seq[s:] + seq[:s])


def _closed_canonical(ks: tuple[int, ...], ms: tuple[int, ...]) -> ClosedQuipu:
    """Least representative under rotation and reflection of the cycle."""
    best = min(_closed_pair_candidates(tuple(ks), tuple(ms)))
    bm = tuple(m for m, _ in best)
    bk = tuple(k for _, k in best)
    return ClosedQuipu(bk, bm)


def canonicalize(spec: QuipuSpec) -> QuipuSpec:
    """Canonical parameter tuple of the isomorphism class of realize(spec)."""
    out = classify(realize(spec))
    if out is None:
        raise ValueError(f"realization of {spec!r} did not classify")
    return out


def classify(g: Graph):
    """Parse a connected graph into a canonical family spec, or None.

    The parse is maximal: every reported branch vertex has degree 3, so all
    pendant lengths at branch vertices are >= 1 (degenerate zero parameters
    are accepted by realize() but never produced here). Paths classify as
    open quipus with ks=(0,0); cycles as closed quipus with a zero pendant.
    Daggers are recognized by their degree-4 center (tail >= 1).
    """
    if g.n == 0 or not is_connected(g):
        return None
    degs = [g.degree(v) for v in range(g.n)]
    maxdeg = max(degs)
    m = g.edge_count
    if maxdeg > 4:
        return None
    if maxdeg == 4:
        return _classify_dagger(g, degs)
    if m == g.n - 1:
        return _classify_tree(g, degs)
    if m == g.n:
        return _classify_unicyclic(g, degs)
    return None


def _classify_dagger(g: Graph, degs):
    if g.edge_count != g.n - 1:
        return None
    centers = [v for v in range(g.n) if degs[v] == 4]
    if len(centers) != 1 or any(d > 2 for d in degs if d != 4):
        return None
    c = centers[0]
    arms = [_walk_arm(g, c, w) for w in g.adj[c]]
    if any(a is None for a in arms):
        return None
    arms.sort()
    if arms[:3] != [1, 1, 1]:
        return None
    return Dagger(arms[3])


def _classify_tree(g: Graph, degs):
    branch = [v for v in range(g.n) if degs[v] == 3]
    if not branch:
        return OpenQuipu((0, 0), (g.n - 1,))
    if len(branch) == 1:
        b = branch[0]
        arms = [_walk_arm(g, b, w) for w in g.adj[b]]
        if any(a is None for a in arms):
            return None
        a0, a1, a2 = sorted(arms)
        return OpenQuipu((a0, a1), (a2,))
    # order the branch vertices along their common path
    dist0 = distances(g, branch[0])
    u = max(branch, key=lambda v: (dist0[v], v))
    distu = distances(g, u)
    w = max(branch, key=lambda v: (distu[v], v))
    path = _tree_path(g, u, w)
    if any(b not in set(path) for b in branch):
        return None
    order = [v for v in path if degs[v] == 3]
    gaps = []
    idx = {v: i for i, v in enumerate(path)}
    for a, b in zip(order, order[1:]):
        seg = path[idx[a] + 1 : idx[b]]
        if any(degs[v] != 2 for v in seg):
            return None
        gaps.append(len(seg))
    pend = []
    for i, b in enumerate(order[1:-1], start=1):
        off = [x for x in g.adj[b] if x not in (path[idx[b] - 1], path[idx[b] + 1])]
        arm = _walk_arm(g, b, off[0])
        if arm is None:
            return None
        pend.append(arm)
    end_arms = []
    for b, inward in ((order[0], path[idx[order[0]] + 1]),
                      (order[-1], path[idx[order[-1]] - 1])):
        offs = [x for x in g.adj[b] if x != inward]
        arms = [_walk_arm(g, b, x) for x in offs]
        if any(a is None for a in arms):
            return None
        end_arms.append(sorted(arms))
    ks = (end_arms[0][0],) + tuple(gaps) + (end_arms[1][0],)
    ms = (end_arms[0][1],) + tuple(pend) + (end_arms[1][1],)
    return _open_canonical(ks, ms)


def _tree_path(g: Graph, u: int, w: int) -> list[int]:
    parent = {u: None}
    stack = [u]
    while stack:
        v = stack.pop()
        if v == w:
            break
        for x in g.adj[v]:
            if x not in parent:
                parent[x] = v
                stack.append(x)
    path = [w]
    while path[-1] != u:
        path.append(parent[path[-1]])
    return path[::-1]


def _classify_unicyclic(g: Graph, degs):
    cycle = two_core_cycle(g)
    cyc_set = set(cycle)
    if any(degs[v] == 3 and v not in cyc_set for v in range(g.n)):
        return None
    branch_pend = {}
    for v in cycle:
        if degs[v] == 3:
            off = next(x for x in g.adj[v] if x not in cyc_set)
            arm = _walk_arm(g, v, off)
            if arm is None:
                return None
            branch_pend[v] = arm
    if not branch_pend:
        return ClosedQuipu((g.n - 1,), (0,))
    order = [v for v in cycle if v in branch_pend]
    idx = {v: i for i, v in enumerate(cycle)}
    c = len(cycle)
    ks = []
    ms = []
    for a, b in zip(order, order[1:] + order[:1]):
        gap = (idx[b] - idx[a]) % c
        ks.append(gap - 1 if len(order) > 1 else c - 1)
        ms.append(branch_pend[a])
    return _closed_canonical(tuple(ks), tuple(ms))


# ---------------------------------------------------------------------------
# the tied family of order 3k+1 and diameter 2k

def theorem_family(k: int) -> list[OpenQuipu]:
    """The floor(k/2)+1 open quipus of order 3k+1 and diameter 2k that share
    the minimum spectral radius: ks=(i, i+j-1, j), ms=(i, j) over i+j=k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = []
    for i in range(k // 2 + 1):
        j = k - i
        out.append(OpenQuipu((i, i + j - 1, j), (i, j)))
    return out


def spider(k: int) -> OpenQuipu:
    """The three-arm spider with arm length k (ks=(k,k), ms=(k,))."""
    return OpenQuipu((k, k), (k,))


# ---------------------------------------------------------------------------
# constrained enumeration

ALL_KINDS = frozenset({"open", "closed", "dagger"})


def enumerate_quipus(n: int, d: int, kinds=ALL_KINDS):
    """Yield every canonical family spec of order n and diameter exactly d.

    Branch-and-prune over parameter tuples. The diameter is computed from the
    parameters while the tuple is built, and prefixes that cannot be
    canonical or cannot reach diameter d are cut, so no graph is built or
    searched. Each isomorphism class appears exactly once.
    """
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    kinds = frozenset(kinds)
    if not kinds <= ALL_KINDS:
        raise ValueError(f"unknown kinds: {kinds - ALL_KINDS}")
    if "open" in kinds:
        yield from _enumerate_open(n, d)
    if "closed" in kinds:
        yield from _enumerate_closed(n, d)
    if "dagger" in kinds:
        yield from _enumerate_dagger(n, d)


def _enumerate_dagger(n: int, d: int):
    # Dagger(0) is the spider OpenQuipu((1, 1), (1,)); a tail t >= 1 gives
    # diameter t + 1
    if n >= 5 and d == n - 3:
        yield Dagger(n - 4)


def _enumerate_open(n: int, d: int):
    # degenerate path
    if d == n - 1 and (n >= 2 or d == 0):
        yield OpenQuipu((0, 0), (n - 1,))
    # single branch vertex: spider with arms a <= b <= c, all >= 1, whose
    # diameter is b + c
    if n >= 4:
        for a in range(1, (n - 1) // 3 + 1):
            for b in range(a, (n - 1 - a) // 2 + 1):
                c = n - 1 - a - b
                if c >= b and b + c == d:
                    yield OpenQuipu((a, b), (c,))
    # r+1 >= 2 branch vertices
    for r in range(1, (n - 4) // 2 + 1):
        yield from _enumerate_open_r(n, d, r)


def _compositions(total: int, parts: int, minima):
    """All tuples of the given length with prescribed minima summing to total."""
    if parts == 1:
        if total >= minima[0]:
            yield (total,)
        return
    for first in range(minima[0], total - sum(minima[1:]) + 1):
        for rest in _compositions(total - first, parts - 1, minima[1:]):
            yield (first,) + rest


def _enumerate_open_r(n: int, d: int, r: int):
    # segment sum s: backbone length s + r must not exceed the diameter
    budget = n - r - 1  # vertices left for segments + pendants
    for s in range(2, min(d - r, budget - (r + 1)) + 1):
        minima = (1,) + (0,) * r + (1,)
        for ks in _compositions(s, r + 2, minima):
            # a canonical tuple has the least first entry among its variants
            if ks[0] > ks[-1]:
                continue
            pos = []
            p = ks[0]
            for k in ks[1:-1]:
                pos.append(p)
                p += k + 1
            pos.append(p)
            for ms in _open_pendants(ks, pos, s + r, budget - s, d):
                if ks + ms == min(v[0] for v in _open_variants(ks, ms)):
                    yield OpenQuipu(ks, ms)


def _open_pendants(ks, pos, backbone, total, d):
    """Pendant length tuples ms (each >= 1, summing to `total`) that give the
    open quipu (ks, ms) diameter exactly d, with ms[0] >= ks[0] and
    ms[-1] >= ks[-1] as canonical form requires.

    The farthest pair is backbone end to end, end to pendant tip, or tip to
    tip; every such distance is capped at d on the way down and the largest
    one is carried along, so a leaf is kept exactly when it reaches d.
    """
    last = len(pos) - 1
    last_min = max(1, ks[-1])

    def rec(i, remaining, runmax, best, acc):
        # runmax >= 0 is the largest ms[j] - pos[j] so far, so the tip-to-tip
        # term m + p + runmax also covers the left end to this tip
        p = pos[i]
        cap = min(d - p - runmax, d - backbone + p)
        if i == last:
            if last_min <= remaining <= cap and max(
                best, remaining + p + runmax, remaining + backbone - p
            ) == d:
                yield (*acc, remaining)
            return
        cap = min(cap, remaining - (last - 1 - i) - last_min)
        for m in range(ks[0] if i == 0 else 1, cap + 1):
            acc.append(m)
            yield from rec(i + 1, remaining - m, max(runmax, m - p),
                           max(best, m + p + runmax, m + backbone - p), acc)
            acc.pop()

    yield from rec(0, total, 0, backbone, [])


def _enumerate_closed(n: int, d: int):
    if n >= 3 and d == n // 2:
        yield ClosedQuipu((n - 1,), (0,))
    for c in range(3, n):  # cycle length; at least one pendant vertex remains
        mcap = d - c // 2
        if mcap < 1:
            continue
        for r in range(1, min(c, n - c) + 1):
            for ks in _compositions(c - r, r, (0,) * r):
                # the reflection through the first branch vertex starts
                # with (ms[0], ks[-1])
                if ks[0] > ks[-1]:
                    continue
                pos = []
                p = 0
                for k in ks:
                    pos.append(p)
                    p += k + 1
                for ms in _cycle_pendants(pos, c, n - c, d, mcap):
                    if tuple(zip(ms, ks)) == min(_closed_pair_candidates(ks, ms)):
                        yield ClosedQuipu(ks, ms)


def _cycle_pendants(pos, c, total, d, mcap):
    """Pendant length tuples ms (each >= 1, summing to `total`) that give the
    closed quipu with branch positions `pos` on a c-cycle diameter exactly d,
    with ms[0] <= every later entry as canonical form requires.

    The farthest pair is the cycle antipode, a tip to its antipode, or two
    tips through the shorter arc. Every distance is capped at d on the way
    down and the largest one is carried along; a prefix is cut as soon as no
    completion can reach d.
    """
    r = len(pos)
    half = c // 2
    arc = [[min(abs(a - b), c - abs(a - b)) for b in pos] for a in pos]

    def rec(i, remaining, best, top, acc):
        # later pendants are each >= ms[0], so none of the remaining ones
        # exceeds cap; two tips are at most their lengths plus half apart
        low = acc[0] if i else 1
        left = r - 1 - i
        cap = min(mcap, remaining - left * low)
        partner = max(top, cap if left else 0)
        if max(best, half + cap + partner) < d:
            return
        row = arc[i]
        for j in range(i):
            cap = min(cap, d - acc[j] - row[j])
        if not left:
            if low <= remaining <= cap and max(
                best, half + remaining,
                max((acc[j] + remaining + row[j] for j in range(i)), default=0),
            ) == d:
                yield (*acc, remaining)
            return
        if i == 0:  # ms[0] is the least of r pendants
            cap = min(cap, remaining // r)
        for m in range(low, cap + 1):
            acc.append(m)
            yield from rec(i + 1, remaining - m, max(
                best, half + m,
                max((acc[j] + m + row[j] for j in range(i)), default=0),
            ), max(top, m), acc)
            acc.pop()

    yield from rec(0, total, half, 0, [])


# ---------------------------------------------------------------------------
# spec literals

def spec_literal(spec: QuipuSpec) -> str:
    if isinstance(spec, OpenQuipu):
        return "open:ks=%s;ms=%s" % (
            ",".join(map(str, spec.ks)),
            ",".join(map(str, spec.ms)),
        )
    if isinstance(spec, ClosedQuipu):
        return "closed:ks=%s;ms=%s" % (
            ",".join(map(str, spec.ks)),
            ",".join(map(str, spec.ms)),
        )
    if isinstance(spec, Dagger):
        return f"dagger:t={spec.tail}"
    raise TypeError(f"not a family spec: {spec!r}")


def parse_spec_literal(text: str) -> QuipuSpec:
    """Parse `open:ks=...;ms=...`, `closed:ks=...;ms=...` or `dagger:t=...`
    (an optional `spec:` prefix is accepted)."""
    body = text.removeprefix("spec:")
    kind, _, rest = body.partition(":")
    try:
        if kind == "dagger":
            key, _, val = rest.partition("=")
            if key != "t":
                raise ValueError
            return Dagger(int(val))
        fields = dict(item.split("=") for item in rest.split(";"))
        ks = tuple(int(x) for x in fields["ks"].split(","))
        ms = tuple(int(x) for x in fields["ms"].split(","))
        if kind == "open":
            return OpenQuipu(ks, ms)
        if kind == "closed":
            return ClosedQuipu(ks, ms)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed spec literal: {text!r}") from exc
    raise ValueError(f"unknown spec kind: {kind!r}")


def spec_to_json(spec: QuipuSpec) -> dict:
    if isinstance(spec, Dagger):
        return {"kind": "dagger", "tail": spec.tail}
    kind = "open" if isinstance(spec, OpenQuipu) else "closed"
    return {"kind": kind, "ks": list(spec.ks), "ms": list(spec.ms)}
