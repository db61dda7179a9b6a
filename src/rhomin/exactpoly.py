"""Exact characteristic polynomials and certified spectral radii.

All arithmetic is exact: integer polynomials, rational evaluation points,
Sturm-chain root counting. charpoly is the one dispatcher for characteristic
polynomials: it multiplies over connected components and takes two routes.
A tree or unicyclic component's is the elimination of x*I - A over Z[x]
along its leaf peel, the same steps (pivot_after, cycle_after, cycle_close)
that the inertia test below runs over Z at a rational: there they are
Schwenk's bridge and cycle rules. Any other component goes through
charpoly_dense, which counts its closed walks, tr(A^k), on rows of A^k
packed into one int each, and turns them into coefficients by Newton's
identities.

The largest root of a polynomial, a graph's spectral radius among them, is
delivered as an immutable isolating interval with exact sign evidence;
refining it yields a narrower copy. Every such interval comes out of one
routine, _isolate(side, isolated, hint), with side(x) an exact ordering of
rho against a rational x: one integer bracket, two probes around a float
hint when there is one, and one halving loop (_halve). Three side oracles
feed it, and each root names the polynomial whose sign refine() bisects on
(CertifiedRoot.bisection):

- rho_certified, for any polynomial (a dense graph, a forest, a composed
  polynomial, 2x^2 - 9): the Sturm count of its square-free part, whose
  chain comes from one remainder sequence, of p and p', with a Newton hint
  (_newton_hint). The square-free part is the bisection polynomial.
- _locate, for a connected tree or unicyclic graph: the signs of the pivots
  of lam*I - A (_inertia, which compare_rho_to also runs), with a float
  hint. Cauchy interlacing makes p = charpoly(g) itself the bisection
  polynomial: no Sturm chain is built, and p only when something reads it.
- CertifiedRoot.refine: the sign of the bisection polynomial.

Two radii are compared by their isolating sets, and a tie is decided by
the sign of the gcd of the two bisection polynomials, never by floating
point. The one cache is a bounded lru_cache holding the root of each graph
at DEFAULT_TOL; the threshold 3/sqrt(2) is isolated once, at import. The
module imports no numpy. Floats appear in three places: CertifiedRoot.as_float,
for display, the locator's hint (_float_hint), a safeguarded Newton
iteration in floats, and rho_certified's (_newton_hint), Newton steps in
floats on the square-free part closed by one exact Newton step. A hint only
chooses where two exact probes go. Every endpoint is set by an exact sign,
so a wrong or non-finite hint costs halvings, never correctness.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, connected_components, delete_vertices, peel_leaves

Rational = Fraction

DEFAULT_TOL = Fraction(1, 10**12)


# ---------------------------------------------------------------------------
# integer polynomials (coefficients lowest degree first)

@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, coefficients lowest degree first.

    The zero polynomial is the empty coefficient tuple.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = self.coeffs
        if c and c[-1] == 0:
            while c and c[-1] == 0:
                c = c[:-1]
            object.__setattr__(self, "coeffs", c)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(tuple(out))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if self.is_zero or other.is_zero:
            return ZERO
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(tuple(out))

    def shift(self, k: int) -> "IntPoly":
        """Multiply by x^k."""
        if self.is_zero:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def eval_at(self, x: Rational) -> Rational:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sign_at(self, x: Rational) -> int:
        """Exact sign at a rational point, via the homogenized integer value."""
        if self.is_zero:
            return 0
        a, b = x.numerator, x.denominator
        acc = 0
        pw = 1
        for c in reversed(self.coeffs):
            acc = acc * a + c * pw
            pw *= b
        return (acc > 0) - (acc < 0)

    def content(self) -> int:
        return math.gcd(*self.coeffs)

    def primitive(self) -> "IntPoly":
        """Divide by the content; sign is preserved."""
        if self.is_zero:
            return self
        c = self.content()
        return IntPoly(tuple(k // c for k in self.coeffs))


ZERO = IntPoly(())
ONE = IntPoly((1,))
X = IntPoly((0, 1))


def poly_to_json(p: IntPoly) -> list[str]:
    """Decimal coefficient strings, lowest degree first."""
    return [str(c) for c in p.coeffs]


def _prem_positive(f: IntPoly, g: IntPoly) -> IntPoly:
    """Pseudo-remainder of f by g, scaled so it equals a *positive* rational
    multiple of the true remainder, reduced to primitive form. Each step
    scales by |lead(g)|, dividing by -g when lead(g) < 0: the remainder is
    the same."""
    if g.lead < 0:
        g = -g
    r = list(f.coeffs)
    dg = g.degree
    gl = g.lead
    while True:
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < dg:
            break
        shift = len(r) - 1 - dg
        top = r[-1]
        r = [c * gl for c in r]
        for i, c in enumerate(g.coeffs):
            r[i + shift] -= top * c
        r.pop()
    return IntPoly(tuple(r)).primitive()


def _remainders(a: IntPoly, b: IntPoly) -> list[IntPoly]:
    """The signed remainder sequence a, b, -rem(a, b), ... up to its last
    nonzero entry, each entry a positive multiple of the Euclidean one."""
    seq = [a, b] if not b.is_zero else [a]
    while len(seq) > 1 and seq[-1].degree > 0:
        nxt = -_prem_positive(seq[-2], seq[-1])
        if nxt.is_zero:
            break
        seq.append(nxt)
    return seq


def _normal(p: IntPoly) -> IntPoly:
    """p divided by its content, with a positive leading coefficient."""
    p = p.primitive()
    return -p if not p.is_zero and p.lead < 0 else p


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd over the integers, positive leading coefficient."""
    return _normal(_remainders(a, b)[-1])


def poly_div_exact(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact quotient a / b by integer long division; raises ValueError
    unless b divides a with an integer quotient."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    db = b.degree
    q = [0] * max(1, len(rem) - db)
    for shift in range(len(rem) - 1 - db, -1, -1):
        coef, r = divmod(rem[shift + db], b.lead)
        if r:
            raise ValueError("inexact polynomial division")
        q[shift] = coef
        for i, c in enumerate(b.coeffs):
            rem[shift + i] -= coef * c
    if any(rem[:db]):
        raise ValueError("inexact polynomial division")
    return IntPoly(tuple(q))


# ---------------------------------------------------------------------------
# Sturm chains

def sturm_chain(p: IntPoly) -> tuple[IntPoly, ...]:
    """Sturm chain of the square-free part of a nonzero p: the remainder
    sequence of p and p', each entry divided by its last, g = gcd(p, p')
    (Basu, Pollack & Roy, section 2.2). The first entry is the square-free
    part, primitive with a positive leading coefficient."""
    p = _normal(p)
    seq = _remainders(p, p.derivative())
    g = _normal(seq[-1])
    return tuple(poly_div_exact(q, g) for q in seq)


def _variations(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _var_at(chain, x: Rational) -> int:
    return _variations([q.sign_at(x) for q in chain])


def _var_at_inf(chain) -> int:
    return _variations([(q.lead > 0) - (q.lead < 0) for q in chain])


# ---------------------------------------------------------------------------
# one isolation routine for every certified root

class Ordering(enum.Enum):
    LESS = "Less"
    EQUAL = "Equal"
    GREATER = "Greater"


# _isolate's two exact probes lie on the grid of multiples of
# 1/_PROBE_GRID = 2^-42, at least a quarter cell (2^-44) either side of the
# float hint, so at most two cells (2^-41 < DEFAULT_TOL) apart. Either
# hint's Newton iteration stops at a step below 2^-48, a sixteenth of that
# margin; rho_certified's takes at most _NEWTON_STEPS float steps.
_PROBE_GRID = 2**42
_HINT_STEP = 2.0**-48
_NEWTON_STEPS = 100


def _isolate(side, isolated, hint=None) -> tuple[Rational, Rational, bool]:
    """(lo, hi, exact): an interval (lo, hi] around rho, or the point {rho}
    when exact, with side(x) the exact ordering of rho against a rational x.

    The least integer m >= rho comes first: from (0, 1], the bracket doubles
    away from 0 until it holds rho, then halves over the integers. side(m)
    EQUAL makes rho = m exact. Otherwise rho lies in (m - 1, m). When
    hint(m) gives a finite float, two exact probes on the 2^-42 grid, a
    quarter cell either side of it, narrow that bracket: a probe below rho
    raises lo to it, one above lowers hi, so a hint on the wrong side moves
    the other end, as a halving would. A probe that side finds EQUAL is rho,
    exactly: a polynomial that is not monic (2x - 1, 2x^2 - 9) can have a
    rational root that is not an integer. _halve then runs until
    isolated(lo, hi). Every end is set by side, so the hint decides nothing.
    """
    below, m = 0, 1
    s = side(Fraction(m))
    if s is Ordering.GREATER:  # double m until rho <= m
        while s is Ordering.GREATER:
            below, m = m, 2 * m
            s = side(Fraction(m))
    else:  # double -below until rho > below
        while s is not Ordering.EQUAL and (t := side(Fraction(below))) is not Ordering.GREATER:
            below, m, s = min(2 * below, -1), below, t
    while s is not Ordering.EQUAL and m - below > 1:
        mid = (below + m) // 2
        t = side(Fraction(mid))
        if t is Ordering.GREATER:
            below = mid
        else:
            m, s = mid, t
    if s is Ordering.EQUAL:
        return Fraction(m), Fraction(m), True
    lo, hi = Fraction(m - 1), Fraction(m)
    x = hint(m) if hint else math.nan
    if math.isfinite(x):
        u = Fraction(x) * _PROBE_GRID
        quarter = Fraction(1, 4)
        for k in (math.ceil(u + quarter), math.floor(u - quarter)):
            probe = Fraction(k, _PROBE_GRID)
            if lo < probe < hi:
                s = side(probe)
                if s is Ordering.EQUAL:
                    return probe, probe, True
                lo, hi = (probe, hi) if s is Ordering.GREATER else (lo, probe)
    return _halve(side, lo, hi, isolated)


def _halve(side, lo: Rational, hi: Rational, done) -> tuple[Rational, Rational, bool]:
    """(lo, hi, exact): halve (lo, hi] until done(lo, hi), keeping the half
    side puts rho in; a midpoint that side finds EQUAL is rho, exactly."""
    while not done(lo, hi):
        mid = (lo + hi) / 2
        s = side(mid)
        if s is Ordering.EQUAL:
            return mid, mid, True
        if s is Ordering.GREATER:
            lo = mid
        else:
            hi = mid
    return lo, hi, False


# ---------------------------------------------------------------------------
# certified roots

class _OnDemand:
    """The characteristic polynomial of a tree or unicyclic graph, built
    from its leaf peel by _bridge_phi the first time it is read, then kept.
    The locator makes one per graph, and every refined copy of its root
    shares it."""

    __slots__ = ("peel", "value")

    def __init__(self, peel):
        self.peel, self.value = peel, None

    def __call__(self) -> IntPoly:
        if self.value is None:
            self.value = _bridge_phi(*self.peel)
        return self.value


@dataclass(frozen=True)
class CertifiedRoot:
    """Isolating rational interval for the largest real root of `poly`.

    Invariants: `bisection`, a polynomial with the same largest root, has
    exactly one root in (lo, hi], a simple one, and none above hi; hi is not
    a root, but lo may be a smaller one. So its sign changes once in (lo,
    hi], at the root: refine() reads only that sign, and compare_roots reads
    a tie off the gcd of two bisection polynomials. rho_certified stores the
    square-free part of `poly`, the first entry of its Sturm chain. The
    inertia locator of a tree or unicyclic graph stores `poly` itself: it
    stops only once every other root is <= lo, and a connected graph's
    radius is a simple root. There `poly` is built on first read
    (compare_roots' gcd, refine() below DEFAULT_TOL, to_json), once for the
    root and every refined copy of it; the constructor takes either
    polynomial as an IntPoly or as an _OnDemand.
    `exact` marks a degenerate point interval.
    A root is an immutable value: refine() returns a narrower copy, so no
    caller can narrow the interval another caller holds.
    """

    _poly: IntPoly | _OnDemand
    _bisection: IntPoly | _OnDemand
    lo: Rational
    hi: Rational
    exact: bool

    @property
    def poly(self) -> IntPoly:
        p = self._poly
        return p if isinstance(p, IntPoly) else p()

    @property
    def bisection(self) -> IntPoly:
        b = self._bisection
        return b if isinstance(b, IntPoly) else b()

    @property
    def width(self) -> Rational:
        return self.hi - self.lo

    def midpoint(self) -> Rational:
        return (self.lo + self.hi) / 2

    def as_float(self) -> float:
        return float(self.midpoint())

    def contains(self, x: Rational) -> bool:
        if self.exact:
            return x == self.lo
        return self.lo < x <= self.hi

    def refine(self, tol: Rational) -> "CertifiedRoot":
        """This root with its interval shrunk to width <= tol: self when it
        is exact or already that narrow, a narrower copy otherwise.

        _halve's side is the bisection polynomial's sign against its sign at
        hi: a midpoint of that sign has no root in (mid, hi], so rho is
        below it; any other nonzero sign leaves rho in (mid, hi]. The sign
        at lo would not do, since lo may be a root.

        Raises ValueError unless tol > 0: an irrational root never reaches
        width 0, so bisection would not end.
        """
        _check_tol(tol)
        if self.exact or self.width <= tol:
            return self
        b = self.bisection
        s_hi = b.sign_at(self.hi)

        def side(x):
            s = b.sign_at(x)
            if s == 0:
                return Ordering.EQUAL
            return Ordering.LESS if s == s_hi else Ordering.GREATER

        lo, hi, exact = _halve(side, self.lo, self.hi, lambda lo, hi: hi - lo <= tol)
        return CertifiedRoot(self._poly, self._bisection, lo, hi, exact)

    def to_json(self) -> dict:
        return {
            "lo": str(self.lo),
            "hi": str(self.hi),
            "exact": self.exact,
            "poly": poly_to_json(self.poly),
        }


def _check_tol(tol: Rational) -> None:
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")


def rho_certified(p: IntPoly, tol: Rational = DEFAULT_TOL) -> CertifiedRoot:
    """Certified isolating interval for the largest real root of p.

    _isolate with the Sturm chain of p's square-free part sf as its side and
    _newton_hint as its hint: rho > x exactly when V(x) > V(+inf), V the
    sign-variation count of the chain, since V(x) - V(+inf) roots of sf lie
    in (x, +inf); at V(x) = V(+inf), rho = x when sf(x) = 0. Each step
    evaluates the chain once, and V is kept at every point, so the isolation
    test V(lo) - V(+inf) = 1, with no root above hi, reads it. Then sf, the
    bisection polynomial, has rho as its one root in (lo, hi], a simple one,
    and refine() takes the interval down to tol by its sign alone. A hint
    within 2^-44 of rho leaves the probes at most 2^-41 < DEFAULT_TOL apart,
    so refine() at DEFAULT_TOL halves nothing.
    """
    _check_tol(tol)
    if p.is_zero:
        raise ValueError("zero polynomial has no roots")
    if p.degree == 0:
        raise ValueError("constant polynomial has no roots")
    chain = sturm_chain(p)
    sf = chain[0]
    vinf = _var_at_inf(chain)
    # V(-inf): each entry's sign there is its leading sign times (-1)^degree
    if _variations([(-1) ** q.degree * ((q.lead > 0) - (q.lead < 0)) for q in chain]) <= vinf:
        raise ValueError("polynomial has no real roots in range")
    var = {}

    def side(x):
        v = var[x] = _var_at(chain, x)
        if v > vinf:
            return Ordering.GREATER
        return Ordering.EQUAL if sf.sign_at(x) == 0 else Ordering.LESS

    lo, hi, exact = _isolate(side, lambda lo, hi: var[lo] - vinf == 1,
                             lambda m: _newton_hint(sf, m))
    return CertifiedRoot(p, sf, lo, hi, exact).refine(tol)


def _newton_hint(sf: IntPoly, m: int) -> float:
    """A float near the largest root rho of sf in (m - 1, m], or NaN: Newton
    steps in floats from x = m, then one exact Newton step. It only places
    rho_certified's probes and decides nothing.

    From above the largest root of a real-rooted polynomial, such as a
    graph's, Newton steps descend to it, and the float iteration stops at
    the first step that is not > _HINT_STEP. Float Horner cancels heavily
    near rho at high degree, and leaves x more than the probes' 2^-44 margin
    away for spiders from k = 9 and for most dense graphs at n = 60. So x
    is rounded to the 2^-64 grid, X / 2^64, and one Newton step is taken
    from there with sf and sf' evaluated exactly by integer Horner (scaled
    by 2^(64 deg sf) and 2^(64 (deg sf - 1))); it squares the error, and its
    one rounding is to the nearest float. A float that overflows, a step
    that leaves (m - 1, m] or a zero derivative gives NaN.
    """
    try:
        cs = [float(c) for c in reversed(sf.coeffs)]
    except OverflowError:
        return math.nan
    x = float(m)
    for _ in range(_NEWTON_STEPS):
        p = dp = 0.0
        for c in cs:
            dp = dp * x + p
            p = p * x + c
        if not dp:
            return math.nan
        step = p / dp
        x -= step
        if not m - 1 < x <= m:
            return math.nan
        if not step > _HINT_STEP:
            break
    big_x = round(x * 2.0**64)
    p = dp = shift = 0
    for c in reversed(sf.coeffs):
        dp = dp * big_x + p
        p = p * big_x + (c << shift)
        shift += 64
    if not dp:
        return math.nan
    try:
        x = (big_x * dp - p) / (dp << 64)
    except OverflowError:
        return math.nan
    return x if m - 1 < x <= m else math.nan


# ---------------------------------------------------------------------------
# characteristic polynomials

def charpoly(g: Graph) -> IntPoly:
    """Exact characteristic polynomial det(xI - A), the product over the
    connected components. Each component takes one of two routes, chosen by
    its edge count. A tree or unicyclic component takes Schwenk's bridge
    rule in one pass of _bridge_phi over its leaf peel. A component with
    two or more independent cycles takes charpoly_dense, by closed walks."""
    result = ONE
    for comp in connected_components(g):
        edges = sum(g.degree(v) for v in comp) // 2
        if edges <= len(comp):
            phi = _bridge_phi(*peel_leaves(g, comp))
        else:
            sub = g if len(comp) == g.n else delete_vertices(g, set(range(g.n)).difference(comp))
            phi = charpoly_dense(sub)
        result = result * phi
    return result


def _bridge_phi(order: list[int], parent: list[int], core: list[int]) -> IntPoly:
    """Characteristic polynomial of a tree or unicyclic component from its
    leaf peel (graphs.peel_leaves): the peeled vertices in order, their
    parents, and the tree's last vertex or the cycle in cyclic order.

    _inertia's elimination of x*I - A over Z[x], from (x, 1) at every
    vertex: a vertex's pair (a, b) is (phi(T_v), phi(T_v - v)) for the tree
    T_v hanging below it, and pivot_after adds each peeled vertex's tree to
    its parent's, which is Schwenk's bridge rule phi(G) = phi(G - uv) -
    phi(G - u - v). A tree's polynomial is its last vertex's a; a cycle's
    is cycle_close's value, which is Schwenk's cycle rule.
    """
    piv = [(X, ONE)] * len(parent)
    for v in order:
        w = parent[v]
        piv[w] = pivot_after(piv[w], piv[v])
    if len(core) == 1:
        return piv[core[0]][0]
    state = (ONE, ZERO, ZERO, ONE, ONE)
    for v in core[:-1]:
        state = cycle_after(state, piv[v])
    return cycle_close(state, piv[core[-1]])


def charpoly_dense(g: Graph) -> IntPoly:
    """det(xI - A) of any graph from its closed walks: p_k = tr(A^k), the
    number of closed walks of length k, gives the coefficients by Newton's
    identities, k c_{n-k} = -sum_{j<=k} p_j c_{n-k+j} for k = 1..n
    (Cvetkovic, Doob & Sachs, Spectra of Graphs, 1980). Row u of A^k is one
    int of n fields of W = n bitlen(Delta) + 1 bits, field v the number of
    walks of length k from u to v, at most Delta^k < 2^(W - 1): no field
    carries into the next. Row u of A^(k+1) is the sum of the rows of A^k at
    u's neighbours, so A is never built, and p_k is the sum of the rows'
    diagonal fields. charpoly routes only components with two or more
    independent cycles here."""
    n = g.n
    width = n * max(map(len, g.adj), default=0).bit_length() + 1
    mask = (1 << width) - 1
    shifts = range(0, n * width, width)
    rows = [1 << s for s in shifts]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    sums = []
    for k in range(1, n + 1):
        rows = [sum([rows[w] for w in nbrs]) for nbrs in g.adj]
        sums.append(sum([(r >> s) & mask for r, s in zip(rows, shifts)]))
        coeffs[n - k] = -sum([p * c for p, c in zip(sums, coeffs[n - k + 1:])]) // k
    return IntPoly(tuple(coeffs))


# ---------------------------------------------------------------------------
# exact comparison of spectral radii

@dataclass(frozen=True)
class EqualityWitness:
    """Common integer factor with a shared isolating interval."""

    factor: IntPoly
    lo: Rational
    hi: Rational


@functools.lru_cache(maxsize=20000)
def _graph_root(g: Graph) -> CertifiedRoot:
    """rho(g) at DEFAULT_TOL: by the inertia locator for a connected tree
    or unicyclic graph, by rho_certified of its charpoly for any other."""
    peel = peel_leaves(g, range(g.n))
    if peel[2] is None:
        return rho_certified(charpoly(g))
    return _locate(peel)


def rho_certified_graph(g: Graph, tol: Rational = DEFAULT_TOL) -> CertifiedRoot:
    """Certified spectral radius of g, of width <= tol. The root at
    DEFAULT_TOL is cached per graph; a coarser tol gets that interval."""
    _check_tol(tol)
    return _graph_root(g).refine(tol)


def compare_roots(r1: CertifiedRoot, r2: CertifiedRoot):
    """Exact ordering of two certified largest roots.

    Returns (Ordering, EqualityWitness | None). Each radius lies in its
    isolating set, {lo} when exact and (lo, hi] otherwise; disjoint sets
    give the order. Otherwise the radii are equal exactly when g, the gcd of
    the two bisection polynomials, has a root in the intersection (lo, hi]:
    it is a root of each inside its set there, so both radii. Like them, g
    has at most one root in (lo, hi], a simple one, so it has one exactly
    when g(hi) = 0 or g changes sign from lo to hi. g(lo) = 0 leaves that
    open, and both roots are refined, as they are for distinct radii until
    both widths are less than half their distance.
    """
    gcd = None
    while True:
        if r1.hi < r2.lo or (r1.hi == r2.lo and not r2.exact):
            return Ordering.LESS, None
        if r2.hi < r1.lo or (r2.hi == r1.lo and not r1.exact):
            return Ordering.GREATER, None
        if gcd is None:
            gcd = poly_gcd(r1.bisection, r2.bisection)
        lo, hi = max(r1.lo, r2.lo), min(r1.hi, r2.hi)
        s_hi = gcd.sign_at(hi)
        if s_hi == 0 or (lo < hi and gcd.sign_at(lo) == -s_hi):
            return Ordering.EQUAL, EqualityWitness(gcd, lo, hi)
        r1 = r1 if r1.exact else r1.refine(r1.width / 256)
        r2 = r2 if r2.exact else r2.refine(r2.width / 256)


def compare_rho(g1: Graph, g2: Graph) -> Ordering:
    """Exact ordering of the spectral radii of two connected graphs."""
    order, _ = compare_roots(rho_certified_graph(g1), rho_certified_graph(g2))
    return order


def equal_rho_certificate(g1: Graph, g2: Graph):
    """(equal?, witness): provable equality of two spectral radii.

    The witness is the common integer polynomial factor together with an
    interval in which both certified radii and a root of the factor live.
    """
    order, witness = compare_roots(rho_certified_graph(g1), rho_certified_graph(g2))
    return order is Ordering.EQUAL, witness


# ---------------------------------------------------------------------------
# the elimination of lam*I - A, one vertex at a time

# pivot_after, cycle_after and cycle_close are the one statement of the
# steps of the elimination of lam*I - A, one vertex at a time (Jacobs &
# Trevisan, LAA 434, 2011). _inertia folds them over a leaf peel in integer
# pairs at a rational lam, the sparse oracle (search._parts_order) up the
# rooted trees a member hangs on its centres or cycle, both ending in
# core_order, and _bridge_phi in pairs of polynomials at x,
# where they are Schwenk's bridge and cycle rules. The pivot walk over a
# parametric family (families._PivotWalk) carries them along a path or a
# cycle whose vertices carry pendant paths (arms), and reads each sign as it
# goes. A pivot there and in _inertia is an
# integer pair (num, den) with den > 0, not reduced: its size grows by
# about that of lam's pair per vertex either way, and on a 2-core host a
# gcd per step made the walk at (3k+1, 2k) take 1.5 times as long at
# k = 10 and 2.2 times at k = 11, and _locate 4 times as long over the 480
# tree and unicyclic radii of a `certify` benchmark pass (n = 20..60).
# (1, 0) is +infinity, the pivot before a path's first vertex, whose
# reciprocal is 0.
#
# The cut rule. Let a connected graph G contain as a proper subgraph a tree
# or unicyclic graph H whose elimination has reached a vertex v with
# positive pivots, p at v, and has t >= 1 bare vertices of a path left after
# v (and, around a cycle, the closing edge). If lam*I - A(H) is not positive
# definite, rho(H) >= lam, so rho(G) > lam: a connected graph's radius grows
# strictly with each vertex or edge added (Perron-Frobenius). On a path,
# the bare vertices eliminated first hand v the term -1/x_t of arm_pivots,
# so this is the case when p <= 1/x_t or no x_t is positive; for t = 1,
# when p <= 1/lam. Around a cycle, given p > 1/x_t, which keeps the bare
# vertices' pivots positive, it is also the case when they close the cycle
# (bare_paths, cycle_then) with a last pivot <= 0 by Schwenk's rule
# (cycle_close). Pivots computed under a larger lam describe a matrix >=
# lam*I - A(H), so the rule holds for them too.


def arm_pivots(lam: Rational, length: int) -> tuple[tuple[int, int], ...]:
    """The pivots x_0, x_1, ... of lam*I - A at the top of an arm of j
    vertices eliminated from its leaf: x_0 = +infinity, x_1 = lam and
    x_j = lam - 1/x_{j-1}. x_{m+1} is also the diagonal left at a vertex
    once its arm of m vertices is eliminated. The table stops at j = length
    or at the first x_j <= 0; an arm of j or more vertices then has a pivot
    <= 0 below its top, and the vertex it hangs at is eliminated later, so
    rho > lam."""
    lam = Fraction(lam)
    l, m = lam.numerator, lam.denominator
    xs = [(1, 0)]
    while len(xs) <= length and xs[-1][0] > 0:
        num, den = xs[-1]
        a, b = l * num - m * den, m * num
        k = math.gcd(a, b)
        xs.append((a // k, b // k))
    return tuple(xs)


def pivot_after(x: tuple, p: tuple) -> tuple:
    """x - 1/p: the pivot at a vertex whose diagonal is x once its arms are
    eliminated, and whose one eliminated neighbour has pivot p > 0 (or p =
    +infinity for none). The pair is not reduced."""
    return x[0] * p[0] - x[1] * p[1], x[1] * p[0]


def at_most_inverse(p: tuple[int, int], x: tuple[int, int]) -> bool:
    """Whether the pivot p is <= 1/x, for a pair x > 0."""
    return p[0] * x[0] <= p[1] * x[1]


# Around a cycle v_1 ... v_c, whose diagonal entries are D_v and whose other
# entries are -1 between neighbours: with K_v = [[D_v, -1], [1, 0]], the
# leading i-by-i minor is (K_1 ... K_i)[0][0] for i < c, and the determinant
# is tr(K_1 ... K_c) - 2 (Schwenk's cycle rule). Each pivot is the ratio of
# its minor to the one before. The state is (r00, r01, r10, r11, scale): r
# the product of the integer matrices den_v * K_v, scale that of the den_v,
# so r00 has the sign of the minor, and r00 / -r01 is the pivot at the last
# vertex taken. The leading minors ignore the closing edge (v_c, v_1).
# _bridge_phi starts from the same identity in polynomials.
CYCLE_START = (1, 0, 0, 1, 1)


def cycle_after(state: tuple, x: tuple) -> tuple:
    """The cycle state once the next vertex, of diagonal x, is taken."""
    r00, r01, r10, r11, scale = state
    a, b = x
    return r00 * a + r01 * b, -r00 * b, r10 * a + r11 * b, -r10 * b, scale * b


def bare_paths(lam: Rational, length: int) -> tuple[tuple, ...]:
    """The cycle states of j vertices of diagonal lam each, j = 0..length:
    what cycle_after applies for j bare vertices in a row."""
    x = (lam.numerator, lam.denominator)
    out = [CYCLE_START]
    for _ in range(length):
        out.append(cycle_after(out[-1], x))
    return tuple(out)


def cycle_then(state: tuple, run: tuple) -> tuple:
    """The state once a run of vertices, given by its own state from
    CYCLE_START, follows `state`."""
    r00, r01, r10, r11, scale = state
    a00, a01, a10, a11, s = run
    return (r00 * a00 + r01 * a10, r00 * a01 + r01 * a11,
            r10 * a00 + r11 * a10, r10 * a01 + r11 * a11, scale * s)


def cycle_pivot(state: tuple) -> tuple[int, int]:
    """The pivot at the last vertex taken, as a pair (not reduced)."""
    return state[0], -state[1]


def cycle_close(state: tuple, x: tuple):
    """tr(r) - 2 * scale once the last vertex, of diagonal x, is taken:
    Schwenk's cycle rule for the determinant times the scale. Given
    positive pivots at all the other vertices, it has the sign of the last
    pivot."""
    r00, r01, r10, _, scale = state
    a, b = x
    return r00 * a + (r01 - r10 - scale - scale) * b


# ---------------------------------------------------------------------------
# the radius against a rational, and its location, by inertia

def _inertia(peel, lam: Rational) -> Ordering:
    """rho against lam for the tree or unicyclic graph whose leaf peel
    (graphs.peel_leaves) is `peel`, by the signs of the pivots of lam*I - A.

    Gaussian elimination from the leaves inward (Jacobs & Trevisan, LAA
    434, 2011), then around the cycle, in pivot pairs: no polynomial. By
    Sylvester's law of inertia, rho > lam exactly when lam*I - A is not
    positive semidefinite. So the first pivot that is negative, or zero
    while its vertex still has a nonzero entry to a vertex not yet
    eliminated, means GREATER: in the second case what is left keeps the
    2-by-2 block [[0, t], [t, s]] there, of determinant -t^2 < 0. A peeled
    vertex has its parent, at -1, and each cycle vertex but the last has its
    successor, at -1, or, for the second-to-last, the last, at -1 - 1/P
    with P > 0 the minor before. Positive pivots throughout mean LESS;
    positive ones and a zero last pivot mean lam*I - A is semidefinite and
    singular, so rho = lam, EQUAL. The peel's order may leave out vertices
    that come first in it: the result is then that of the graph without
    them.
    """
    order, parent, core = peel
    # each vertex's diagonal entry of what is left to eliminate, as a pair
    # (num, den > 0); lam at first. Leaves inward, a peeled vertex's pivot is
    # lam - sum 1/pivot over its children, and 1/pivot comes off its
    # parent's diagonal
    piv = [(lam.numerator, lam.denominator)] * len(parent)
    for v in order:
        p = piv[v]
        if p[0] <= 0:
            return Ordering.GREATER
        w = parent[v]
        piv[w] = pivot_after(piv[w], p)
    return core_order([piv[v] for v in core])


def core_order(piv: list[tuple]) -> Ordering:
    """The last step of _inertia: rho against lam once every vertex off the
    core is eliminated with positive pivots, from the diagonal pairs `piv`
    left on the core, a tree's one last vertex or a cycle in cyclic order.
    The one vertex's sign, or the cycle's leading minors and Schwenk's rule
    for its determinant; the ordering by the rules _inertia states."""
    if len(piv) == 1:
        last = piv[0][0]
    else:
        # around the cycle, whose state's r00 has the sign of each leading
        # minor; the determinant by Schwenk's cycle rule
        state = CYCLE_START
        for x in piv[:-1]:
            state = cycle_after(state, x)
            if state[0] <= 0:
                return Ordering.GREATER
        last = cycle_close(state, piv[-1])
    if last < 0:
        return Ordering.GREATER
    return Ordering.EQUAL if last == 0 else Ordering.LESS


def compare_rho_to(g: Graph, lam: Rational) -> Ordering:
    """Exact ordering of rho(g) against a rational lam, for a connected tree
    or unicyclic graph; any other graph raises ValueError. One pass of
    _inertia over g's leaf peel: O(n) integer steps, no float and no
    polynomial."""
    peel = peel_leaves(g, range(g.n))
    if peel[2] is None:
        raise ValueError("compare_rho_to needs a connected tree or unicyclic graph")
    return _inertia(peel, Fraction(lam))


# _float_pivot rescales the cycle's product once it passes 2^300, far inside
# the float range
_FLOAT_RESCALE = 2.0**300


def _float_pivot(peel, x: float):
    """The elimination of _inertia at x in Python floats, each pivot d_v
    carried with its derivative in x, d'_v = 1 + sum d'_c / d_c^2 over the
    children c, and the cycle's 2x2 product with its own (product rule).
    Returns (d, d', s): the last pivot, its derivative and the sum of
    d'_v / d_v over the other pivots, so that p'/p = s + d'/d for p =
    det(x*I - A). None when one of the other pivots is not > 0: then x <
    rho(G - v) for the last vertex v, or a float went astray. For _float_hint
    only; nothing here is exact.
    """
    order, parent, core = peel
    piv = [x] * len(parent)
    dpiv = [1.0] * len(parent)
    s = 0.0
    for v in order:
        p = piv[v]
        if not p > 0:
            return None
        w = parent[v]
        t = dpiv[v] / p
        s += t
        piv[w] -= 1 / p
        dpiv[w] += t / p
    if len(core) == 1:
        v = core[0]
        return piv[v], dpiv[v], s
    # CYCLE_START's product with each K_v = [[d_v, -1], [1, 0]], and its
    # derivative, rescaled together (so their ratios hold) before they
    # overflow on a long cycle
    r00, r01, r10, r11, scale = 1.0, 0.0, 0.0, 1.0, 1.0
    e00 = e01 = e10 = e11 = 0.0
    for v in core[:-1]:
        p, dp = piv[v], dpiv[v]
        e00, e01, e10, e11 = e00 * p + r00 * dp + e01, -e00, e10 * p + r10 * dp + e11, -e10
        r00, r01, r10, r11 = r00 * p + r01, -r00, r10 * p + r11, -r10
        if not r00 > 0:
            return None
        if r00 > _FLOAT_RESCALE:
            k = 1 / _FLOAT_RESCALE
            r00, r01, r10, r11, scale = r00 * k, r01 * k, r10 * k, r11 * k, scale * k
            e00, e01, e10, e11 = e00 * k, e01 * k, e10 * k, e11 * k
    v = core[-1]
    p, dp = piv[v], dpiv[v]
    # Schwenk's cycle rule for the determinant; the last pivot is its ratio
    # to the leading minor r00
    det = r00 * p + r01 - r10 - 2 * scale
    ddet = e00 * p + r00 * dp + e01 - e10
    d = det / r00
    return d, (ddet - d * e00) / r00, s + e00 / r00


def _float_hint(peel, m: int) -> float:
    """A float near rho in (m - 1, m]: a safeguarded Newton iteration on
    the last pivot d of x*I - A (_float_pivot), from x = m. It only places
    _locate's probes and decides nothing.

    Each evaluation's sign keeps a float bracket (lo, hi] of rho: a pivot
    before the last that is not > 0, or a last one < 0, puts x below rho.
    Above rho, x - p/p' >= rho for p = det(x*I - A), a real-rooted
    polynomial, lowers hi further. Above the pole rho(G - v), d is
    increasing and concave (v the last vertex), so Newton steps from below
    rho climb to it, and one from above lands below it. A step that leaves
    the bracket, or none (an earlier pivot not > 0, or d' not > 0), gives
    way to bisection. The iteration ends at a step below _HINT_STEP or a
    bracket with no float inside.
    """
    lo, hi = float(m - 1), float(m)
    x = hi
    while True:
        got = _float_pivot(peel, x)
        nxt = None
        if got is None:
            lo = x
        else:
            d, dd, s = got
            if d > 0:
                hi = x
                q = s + dd / d
                if q > 0 and lo < x - 1 / q < hi:
                    hi = x - 1 / q
            else:  # d <= 0, or not a number
                lo = x
            if 0 < dd < math.inf:
                step = d / dd
                nxt = x - step
                if abs(step) < _HINT_STEP:
                    return nxt
        if nxt is None or not lo < nxt < hi:
            nxt = (lo + hi) / 2
            if not lo < nxt < hi:  # lo and hi are adjacent floats
                return nxt
        x = nxt


def _locate(peel, tol: Rational = DEFAULT_TOL) -> CertifiedRoot:
    """rho of the tree or unicyclic graph with leaf peel `peel`, of width
    <= tol: _isolate with _inertia as its side and _float_hint as its hint.
    Its characteristic polynomial p is built from the peel only when the
    root's `poly` is read.

    The isolation test asks for width <= tol and rho(g - v) <= lo for the
    first leaf v of the peel, for which g - v is a connected tree or
    unicyclic graph whose peel is the rest of the order. By Cauchy
    interlacing lambda_2(g) <= rho(g - v), so every root of p but rho is <=
    lo, and rho, simple since g is connected, is p's one root in (lo, hi]:
    p serves as the bisection polynomial. A non-integer rho rules out a
    cycle and K_1, the graphs with no leaf, so v exists whenever the test
    runs.
    """
    p = _OnDemand(peel)
    order, parent, core = peel
    minor = (order[1:], parent, core)
    lo, hi, exact = _isolate(
        lambda x: _inertia(peel, x),
        lambda lo, hi: hi - lo <= tol and _inertia(minor, lo) is not Ordering.GREATER,
        lambda m: _float_hint(peel, m))
    return CertifiedRoot(p, p, lo, hi, exact)


# 3/sqrt(2), the largest root of 2x^2 - 9
_THREE_OVER_SQRT2 = rho_certified(IntPoly((-9, 0, 2)))


def below_3_over_sqrt2(root: CertifiedRoot) -> bool:
    """Exact decision of root < 3/sqrt(2). A root equal to it is not below;
    compare_roots decides equality by its gcd witness."""
    return compare_roots(root, _THREE_OVER_SQRT2)[0] is Ordering.LESS
