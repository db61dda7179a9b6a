"""Parametric graph families: open quipus, closed quipus, daggers.

An open quipu is a tree of maximum degree 3 whose degree-3 vertices lie on a
path; parameters ks give the segment lengths along the backbone and ms the
pendant path lengths at the branch vertices. A closed quipu is the unicyclic
analogue (branch vertices on the cycle). A dagger is a star of order 4 with a
pendant path attached at its center.

All three are one shape: a backbone (a path, a cycle or a single centre)
with pendant paths, the arms, hanging at branch positions. realize() builds
the backbone and hangs the arms; classify() strips the arms from the leaves
inward and reads the parameters off what is left. The module also
enumerates all family members with a given order and diameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .graphs import Graph, build_graph, diameter, is_connected


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

    The backbone is numbered first: the path of an open quipu left to right,
    the cycle of a closed one, or a dagger's centre. A pendant path then
    hangs at each branch position, numbered in branch order. The positions
    are ks[0] and then one past each inner gap on the path, 0 and then one
    past each gap on the cycle, and the centre four times, with lengths 1,
    1, 1 and the tail, for a dagger.
    """
    if isinstance(spec, Dagger):
        n, edges, hubs, arms = 1, [], (0, 0, 0, 0), (1, 1, 1, spec.tail)
    elif isinstance(spec, (OpenQuipu, ClosedQuipu)):
        closed = isinstance(spec, ClosedQuipu)
        n = spec.cycle_length if closed else sum(spec.ks) + spec.r + 1
        edges = [(v, (v + 1) % n) for v in range(n if closed else n - 1)]
        first, gaps = (0, spec.ks[:-1]) if closed else (spec.ks[0], spec.ks[1:-1])
        hubs, arms = accumulate((k + 1 for k in gaps), initial=first), spec.ms
    else:
        raise TypeError(f"not a family spec: {spec!r}")
    for hub, m in zip(hubs, arms):
        edges += zip([hub, *range(n, n + m - 1)], range(n, n + m))
        n += m
    return build_graph(n, edges)


def spec_diameter(spec: QuipuSpec) -> int:
    return diameter(realize(spec))


# ---------------------------------------------------------------------------
# classification back to canonical parameters

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


def classify(g: Graph):
    """Parse a connected graph into a canonical family spec, or None.

    Every family member is a backbone with arms. An arm is what a walk from
    a leaf covers while the degree stays <= 2; its vertex count is credited
    to the first vertex of degree >= 3 it reaches, its hub. The vertices on
    no arm form the core: a dagger's centre, a spider's one hub, the path of
    an open quipu from its first hub to its last, or the cycle of a closed
    quipu. Graphs of maximum degree <= 2 are the path, which classifies as
    an open quipu with ks=(0,0), and the cycle, a closed quipu with a zero
    pendant. Otherwise every hub carries arms of length >= 1, so zero
    parameters (accepted by realize()) are never produced here, and a
    dagger's tail is >= 1.
    """
    if g.n == 0 or not is_connected(g):
        return None
    deg = [len(a) for a in g.adj]
    cyclic = g.edge_count - g.n + 1
    if cyclic not in (0, 1) or max(deg) > 4:
        return None
    if max(deg) <= 2:
        return ClosedQuipu((g.n - 1,), (0,)) if cyclic else OpenQuipu((0, 0), (g.n - 1,))
    arms = [[] for _ in range(g.n)]
    in_core = [True] * g.n
    for leaf in (v for v in range(g.n) if deg[v] == 1):
        prev, cur, length = -1, leaf, 0
        while deg[cur] <= 2:
            in_core[cur] = False
            length += 1
            a = g.adj[cur]
            prev, cur = cur, a[0] if a[0] != prev else a[1]
        arms[cur].append(length)
    core = [v for v in range(g.n) if in_core[v]]
    if max(deg) == 4:
        if len(core) == 1 and sorted(arms[core[0]])[:3] == [1, 1, 1]:
            return Dagger(max(arms[core[0]]))
        return None
    if len(core) == 1:
        a = arms[core[0]]
        return _open_canonical((a[0], a[1]), (a[2],))
    core_adj = [[w for w in g.adj[v] if in_core[w]] for v in range(g.n)]
    if any(len(core_adj[v]) > 2 or cyclic and len(core_adj[v]) < 2 for v in core):
        return None
    # walk the core from a path end, or once around the cycle from a hub;
    # each hub records its arms and the core vertices up to the next hub
    start = next(v for v in core if arms[v] and len(core_adj[v]) <= 1 + cyclic)
    prev, v, seq, gaps = -1, start, [], []
    while True:
        if arms[v]:
            seq.append(arms[v])
            gaps.append(0)
        else:
            gaps[-1] += 1
        nxt = [w for w in core_adj[v] if w != prev]
        if not nxt or nxt[0] == start:
            break
        prev, v = v, nxt[0]
    if cyclic:
        return _closed_canonical(tuple(gaps), tuple(a[0] for a in seq))
    ks = (seq[0][0], *gaps[:-1], seq[-1][0])
    ms = (seq[0][1], *(a[0] for a in seq[1:-1]), seq[-1][1])
    return _open_canonical(ks, ms)


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
    # r+1 >= 2 branch vertices carry r+3 disjoint arms of >= 1 vertex each
    # (two at either end, one at each inner branch vertex); a longest path
    # meets at most two of them, so it misses >= r+1 vertices and
    # d <= n - r - 2
    for r in range(1, min((n - 4) // 2, n - d - 2) + 1):
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
            pos = list(accumulate((k + 1 for k in ks[1:-1]), initial=ks[0]))
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
        # with r >= 2 pendants a longest path takes at most half the cycle
        # and two whole pendants; each other pendant leaves >= 1 vertex off
        # it, so d <= c//2 + (n - c) - (r - 2)
        for r in range(1, min(c, n - c, max(1, c // 2 + n - c + 2 - d)) + 1):
            for ks in _compositions(c - r, r, (0,) * r):
                # the reflection through the first branch vertex starts
                # with (ms[0], ks[-1])
                if ks[0] > ks[-1]:
                    continue
                pos = list(accumulate((k + 1 for k in ks[:-1]), initial=0))
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
    if isinstance(spec, (OpenQuipu, ClosedQuipu)):
        return "%s:ks=%s;ms=%s" % (
            "open" if isinstance(spec, OpenQuipu) else "closed",
            ",".join(map(str, spec.ks)),
            ",".join(map(str, spec.ms)),
        )
    if isinstance(spec, Dagger):
        return f"dagger:t={spec.tail}"
    raise TypeError(f"not a family spec: {spec!r}")


def parse_spec_literal(text: str) -> QuipuSpec:
    """Parse `open:ks=...;ms=...`, `closed:ks=...;ms=...` or `dagger:t=...`
    (an optional `spec:` prefix is accepted). Each key must appear exactly
    once, and no other key may appear."""
    body = text.removeprefix("spec:")
    kind, _, rest = body.partition(":")
    keys = {"open": ["ks", "ms"], "closed": ["ks", "ms"], "dagger": ["t"]}.get(kind)
    if keys is None:
        raise ValueError(f"unknown spec kind: {kind!r}")
    try:
        pairs = [item.split("=") for item in rest.split(";")]
        fields = dict(pairs)
        if sorted(fields) != keys or len(pairs) != len(keys):
            raise ValueError
        if kind == "dagger":
            return Dagger(int(fields["t"]))
        ks, ms = (tuple(int(x) for x in fields[key].split(",")) for key in keys)
        return (OpenQuipu if kind == "open" else ClosedQuipu)(ks, ms)
    except ValueError as exc:
        raise ValueError(f"malformed spec literal: {text!r}") from exc


def spec_to_json(spec: QuipuSpec) -> dict:
    if isinstance(spec, Dagger):
        return {"kind": "dagger", "tail": spec.tail}
    kind = "open" if isinstance(spec, OpenQuipu) else "closed"
    return {"kind": kind, "ks": list(spec.ks), "ms": list(spec.ms)}
