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
enumerates the family members with a given order and diameter by one walk,
the pivot walk: walking each backbone, it carries the elimination of
lam*I - A one vertex at a time and cuts every prefix whose members it puts
above an incumbent lam, building no graph. Without an incumbent lam is 4,
where nothing is cut, and the walk yields every member.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .exactpoly import (
    CYCLE_START,
    arm_pivots,
    at_most_inverse,
    bare_paths,
    cycle_after,
    cycle_close,
    cycle_pivot,
    cycle_then,
    pivot_after,
)
from .graphs import Graph, diameter, is_connected


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
    1, 1 and the tail, for a dagger. The graph is simple by construction,
    so its sorted neighbour rows are written directly.
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
    rows = [[] for _ in range(n)]
    for u, v in edges:
        rows[u].append(v)
        rows[v].append(u)
    return Graph(n, tuple(tuple(sorted(row)) for row in rows))


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


def enumerate_quipus(n: int, d: int, kinds=ALL_KINDS, incumbent=None, tally=None):
    """Yield the canonical family specs of order n and diameter exactly d.

    The members come from the pivot walk (_PivotWalk), which computes the
    diameter from the parameters while it builds each tuple and cuts the
    prefixes that cannot be canonical or cannot reach diameter d, so no
    graph is built or searched. Each isomorphism class appears exactly once.
    The order is the walk's: open quipus with one branch vertex, then those
    with two or more by their number and segment sum; the bare cycle, then
    closed quipus by cycle length and number of branch vertices; the dagger
    last. Within a shape it follows the walk along the backbone, segments
    and pendants in turn. The CLI's `enumerate` lists the members sorted by
    their parameters within each shape instead (cli._listing_key).

    Without `incumbent` every member is yielded. Given `incumbent`, a
    callable that gives the current bound lam (or None while there is
    none), only those members are yielded whose radius the elimination of
    lam*I - A does not put above lam. `tally`, a dict, receives the walk's
    counts as it goes.
    """
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    kinds = frozenset(kinds)
    if not kinds <= ALL_KINDS:
        raise ValueError(f"unknown kinds: {kinds - ALL_KINDS}")
    walk = _PivotWalk(n, d, kinds, incumbent or (lambda: None), {} if tally is None else tally)
    yield from walk.walk()


def _enumerate_dagger(n: int, d: int):
    # Dagger(0) is the spider OpenQuipu((1, 1), (1,)); a tail t >= 1 gives
    # diameter t + 1
    if n >= 5 and d == n - 3:
        yield Dagger(n - 4)


def _open_leaves(n: int, d: int):
    """The open quipus of order n and diameter d with one branch vertex."""
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


def _open_shapes(n: int, d: int):
    """(r, s): each number r + 1 >= 2 of branch vertices and segment sum s
    an open quipu of order n and diameter d can have."""
    # r+1 >= 2 branch vertices carry r+3 disjoint arms of >= 1 vertex each
    # (two at either end, one at each inner branch vertex); a longest path
    # meets at most two of them, so it misses >= r+1 vertices and
    # d <= n - r - 2
    for r in range(1, min((n - 4) // 2, n - d - 2) + 1):
        # the backbone, of length s + r, must not exceed the diameter; the
        # budget n - r - 1 holds the segments and r + 1 pendants
        for s in range(2, min(d - r, n - 2 * r - 2) + 1):
            yield r, s


def _closed_shapes(n: int, d: int):
    """(c, r, mcap): each cycle length c and number r of branch vertices a
    closed quipu of order n and diameter d can have, with mcap = d - c//2,
    the longest pendant it allows."""
    for c in range(3, n):  # cycle length; at least one pendant vertex remains
        mcap = d - c // 2
        if mcap < 1:
            continue
        # with r >= 2 pendants a longest path takes at most half the cycle
        # and two whole pendants; each other pendant leaves >= 1 vertex off
        # it, so d <= c//2 + (n - c) - (r - 2)
        for r in range(1, min(c, n - c, max(1, c // 2 + n - c + 2 - d)) + 1):
            yield c, r, mcap


# ---------------------------------------------------------------------------
# the pivot walk: enumeration that cuts by radius

# Every member has maximum degree at most 4, so its radius is below 4 and
# the walk drops nothing at lam = 4; it stands in for a missing incumbent.
_NO_INCUMBENT = Fraction(4)


class _PivotWalk:
    """The members of order n and diameter d, of the given kinds, whose
    spectral radius the elimination of lam*I - A does not put above lam =
    incumbent(), each as a canonical spec. No graph is built.

    The walk goes left to right along the backbone of an open quipu with
    two or more branch vertices, and around the cycle from the first branch
    vertex of a closed quipu, picking segments and pendants in turn and
    computing the diameter from them as it goes (open_hub, cycle_hub).
    Alongside, it carries compare_rho_to's elimination one backbone vertex
    at a time: the pivot at the current vertex (exactpoly.pivot_after), or
    around a cycle the product of Schwenk's 2-by-2 matrices
    (exactpoly.cycle_after), with each arm's pivot taken from the table
    exactpoly.arm_pivots(lam).

    A prefix of the walk fixes the graph up to some backbone vertex v, with
    t >= 1 backbone vertices still to come. Every member below it contains
    H, the prefix with t bare vertices after v (and, around a cycle, the
    closing edge), as a proper subgraph, since it has a pendant or the
    closing edge that H lacks. The prefix is cut when exactpoly's cut rule
    puts rho(H) >= lam: on a path when v's pivot is <= 1/x_t (<= 1/lam for
    t = 1), and around a cycle also when the bare vertices close it with a
    last pivot <= 0. Every member below then has rho > lam. With the
    prefix go every longer segment or gap containing v and every longer
    pendant at v, as their members contain this H too. A member reached in
    full is yielded when its last pivot (by Schwenk's rule around a cycle)
    is >= 0 after positive ones, that is when rho <= lam. The path,
    spiders, cycle and dagger have no prefix to cut; they are reached at
    once and get the same final test.

    `incumbent` is read again after each yield, so the caller may lower
    lam as members come in; while it gives None, lam is 4, where nothing is
    cut or dropped. lam only falls, and a pivot computed under an older,
    larger lam is kept: the matrix that elimination describes has diagonal
    entries >= the current lam, so it is >= lam*I - A, and when it is not
    positive definite neither is lam*I - A. A stale pivot only weakens a
    cut; every cut and drop stays exact. The counts, added to those already
    in `counts`, are
    "reached", the members reached in full; "screened_out", those of them
    with a negative last pivot; and "prefixes_cut", the cuts.
    """

    def __init__(self, n, d, kinds, incumbent, counts):
        self.n, self.d, self.kinds, self.incumbent = n, d, kinds, incumbent
        self.counts = counts
        for key in ("reached", "screened_out", "prefixes_cut"):
            counts.setdefault(key, 0)
        self.lam = None
        self.refresh()

    def refresh(self):
        lam = self.incumbent() or _NO_INCUMBENT
        if lam is not self.lam:
            self.lam, self.xs, self.bare = lam, arm_pivots(lam, self.n), bare_paths(lam, self.n)

    def arm(self, m):
        """x_m, the pivot at the top of an arm of m vertices, or None when
        the arm has a pivot <= 0."""
        xs = self.xs
        return xs[m] if m < len(xs) and xs[m][0] > 0 else None

    def diagonal(self, m):
        """x_{m+1}, the diagonal a vertex keeps once its arm of m vertices
        is eliminated, or None (a cut) when that arm has a pivot <= 0."""
        if m + 1 < len(self.xs):
            return self.xs[m + 1]
        self.counts["prefixes_cut"] += 1
        return None

    def above(self, p, t) -> bool:
        """The path rule at a vertex of pivot p with t >= 1 bare vertices
        after it: p <= 1/x_t, or no positive x_t."""
        x = self.arm(t)
        return x is None or at_most_inverse(p, x)

    def cut(self, p, t) -> bool:
        if self.above(p, t):
            self.counts["prefixes_cut"] += 1
            return True
        return False

    def cycle_cut(self, state, t) -> bool:
        """The path rule, then the closed bare cycle, at a cycle vertex
        with t >= 1 more after it."""
        if self.cut(cycle_pivot(state), t):
            return True
        if cycle_close(cycle_then(state, self.bare[t - 1]), self.xs[1]) <= 0:
            self.counts["prefixes_cut"] += 1
            return True
        return False

    def finish(self, spec, sign):
        """Count a member reached in full, and yield it unless its last
        pivot, of the given sign, is negative. lam may have fallen by the
        time the caller resumes the walk, so it is read again then."""
        self.counts["reached"] += 1
        if sign < 0:
            self.counts["screened_out"] += 1
            return
        yield spec
        self.refresh()

    def hub_sign(self, p, arms) -> int:
        """The sign of the last pivot, at a vertex with arms of the given
        lengths after the pivot p: -1 also when an arm has a pivot <= 0."""
        if arms[0] + 1 >= len(self.xs):
            return -1
        last = pivot_after(self.xs[arms[0] + 1], p)
        for m in arms[1:]:
            x = self.arm(m)
            if x is None:
                return -1
            last = pivot_after(last, x)
        return (last[0] > 0) - (last[0] < 0)

    def cycle_sign(self, state, m, k) -> int:
        """A number with the sign of the last pivot around a cycle, from the
        state before a branch vertex with a pendant of m vertices that the
        last gap, of k vertices, follows: cycle_close's value, or -1 when a
        pivot before the last is cut."""
        if m + 1 >= len(self.xs):
            return -1
        diagonals = [self.xs[m + 1]] + [self.xs[1]] * k
        for t, x in enumerate(diagonals[:-1]):
            state = cycle_after(state, x)
            if self.above(cycle_pivot(state), k - t):
                return -1
        return cycle_close(state, diagonals[-1])

    def walk(self):
        n, d, kinds = self.n, self.d, self.kinds
        if "open" in kinds:
            for spec in _open_leaves(n, d):  # one branch vertex, three arms
                yield from self.finish(spec, self.hub_sign((1, 0), (*spec.ms, *spec.ks)))
            for r, s in _open_shapes(n, d):
                yield from self.open_hub(0, r, s + r, (1, 0), -1, s, n - r - 1 - s, 0, s + r,
                                         [], [])
        if "closed" in kinds:
            if n >= 3 and d == n // 2:
                yield from self.finish(ClosedQuipu((n - 1,), (0,)),
                                       self.cycle_sign(CYCLE_START, 0, n - 1))
            for c, r, mcap in _closed_shapes(n, d):
                yield from self.cycle_hub(0, c, r, mcap, CYCLE_START, -1, c - r, n - c, c // 2,
                                          0, [], [], [])
        if "dagger" in kinds:
            for spec in _enumerate_dagger(n, d):  # the centre, with four arms
                yield from self.finish(spec, self.hub_sign((1, 0), (spec.tail, 1, 1, 1)))

    def open_hub(self, i, r, backbone, p, at, segs, pends, runmax, best, ks, ms):
        """Pick the segment ks[i] before branch vertex i (the left end arm
        for i = 0), then its pendant ms[i]; at the last branch vertex,
        ks[r + 1] and ms[r] are what is left. p is the pivot at position
        `at`, just before the segment; segs and pends count the segment and
        pendant vertices left. The backbone has positions 0..backbone.

        The farthest pair is backbone end to end, end to pendant tip, or tip
        to tip. Every such distance is capped at d on the way down and the
        largest one, best, is carried along, so a member is kept exactly
        when it reaches d. runmax >= 0 is the largest ms[j] - pos[j] so far,
        so the tip-to-tip term m + pos + runmax also covers the left end to
        the tip of m."""
        d = self.d
        # the right end arm ks[-1] is >= ks[0]
        kmax = segs // 2 if i == 0 else segs - ks[0]
        for k in range(kmax + 1):
            if k:  # the segment vertex at position at + k
                p = pivot_after(self.xs[1], p)
                if self.cut(p, backbone - at - k):
                    break
            elif i == 0:
                continue
            pos = at + k + 1
            low = k if i == 0 else 1
            if d - pos - runmax < low:
                break
            cap = min(d - pos - runmax, d - backbone + pos)
            if i == r:
                m, end = pends, segs - k
                kt, mt = (*ks, k, end), (*ms, m)
                # ms[0] >= ks[0] and ms[-1] >= ks[-1], so no end-arm swap
                # is below (ks, ms); only the reversal can be
                if (ks[0] <= end <= m <= cap
                        and max(best, m + pos + runmax, m + backbone - pos) == d
                        and (ks[0] < end or kt + mt <= kt[::-1] + mt[::-1])):
                    yield from self.finish(OpenQuipu(kt, mt), self.hub_sign(p, (m, end)))
                continue
            cap = min(cap, pends - (r - 1 - i) - (k if i == 0 else ks[0]))
            for m in range(low, cap + 1):
                x = self.diagonal(m)
                if x is None:
                    break
                hub = pivot_after(x, p)
                if self.cut(hub, backbone - pos):
                    break
                ks.append(k)
                ms.append(m)
                yield from self.open_hub(i + 1, r, backbone, hub, pos, segs - k, pends - m,
                                         max(runmax, m - pos),
                                         max(best, m + pos + runmax, m + backbone - pos), ks, ms)
                ks.pop()
                ms.pop()

    def cycle_hub(self, i, c, r, mcap, state, at, gaps, remaining, best, top, ks, ms, pos):
        """Pick the gap ks[i - 1] before branch vertex i, then its pendant
        ms[i]; at the last branch vertex, ms[r - 1] and the last gap ks[r - 1]
        are what is left. state is the cycle state at position `at`, just
        before the gap (branch vertex i - 1); gaps and remaining count the gap
        and pendant vertices left; pos holds the earlier branch vertices'
        positions on the cycle 0..c-1.

        The farthest pair is the cycle antipode, a tip to its antipode, or
        two tips through the shorter arc. Every such distance is capped at d
        on the way down and the largest one, best, is carried along with
        top, the longest pendant so far; a prefix is cut as soon as no
        completion can reach d."""
        d, half = self.d, c // 2
        # later pendants are each >= ms[0], so none of the remaining ones
        # exceeds cap; two tips are at most their lengths plus half apart
        low = ms[0] if i else 1
        left = r - 1 - i
        cap = min(mcap, remaining - left * low)
        if max(best, half + cap + max(top, cap if left else 0)) < d:
            return
        if i == 0:  # ms[0] is the least of r pendants
            cap = min(cap, remaining // r)
        # the last gap ks[-1] is >= ks[0]
        kmax = 0 if i == 0 else gaps // 2 if i == 1 else gaps - ks[0]
        for k in range(kmax + 1):
            if k:  # the gap vertex at position at + k
                state = cycle_after(state, self.xs[1])
                if self.cycle_cut(state, c - 1 - at - k):
                    break
            here = at + k + 1
            row = [min(here - p, c - here + p) for p in pos]
            hcap = cap
            for j in range(i):
                hcap = min(hcap, d - ms[j] - row[j])
            if not left:
                m, last = remaining, gaps - k
                kt, mt = (*ks, k, last) if i else (last,), (*ms, m)
                if (low <= m <= hcap and max(
                        best, half + m, max((ms[j] + m + row[j] for j in range(i)), default=0)) == d
                        and tuple(zip(mt, kt)) == min(_closed_pair_candidates(kt, mt))):
                    yield from self.finish(ClosedQuipu(kt, mt), self.cycle_sign(state, m, last))
                continue
            if i:
                ks.append(k)
            for m in range(low, hcap + 1):
                x = self.diagonal(m)
                if x is None:
                    break
                hub = cycle_after(state, x)
                if self.cycle_cut(hub, c - 1 - here):
                    break
                ms.append(m)
                pos.append(here)
                yield from self.cycle_hub(
                    i + 1, c, r, mcap, hub, here, gaps - k, remaining - m,
                    max(best, half + m, max((ms[j] + m + row[j] for j in range(i)), default=0)),
                    max(top, m), ks, ms, pos)
                ms.pop()
                pos.pop()
            if i:
                ks.pop()


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
