"""Exact characteristic polynomials and certified spectral radii.

All arithmetic is exact: integer polynomials, rational evaluation points,
Sturm-chain root counting. charpoly is the one dispatcher for characteristic
polynomials: it multiplies over connected components and takes two routes.
A tree or unicyclic component goes through Schwenk's bridge recursion: one
post-order pass carries (phi(T_v), phi(T_v - v)) for each rooted subtree and
maps it across the edge to each child c by (a, b) -> (a*a_c - b*b_c, b*a_c);
a unicyclic component is first cut at an edge of its cycle. Any other
component goes through the Faddeev-LeVerrier recurrence of charpoly_dense,
which sums neighbours' rows in place of a matrix product.

The spectral radius of a graph is delivered as an immutable isolating
interval with exact sign evidence; refining it yields a narrower copy. One
Sturm bisection isolates every largest root. Its invariant: no root lies
above hi, and V(lo) - V(+inf) roots of the square-free part lie in (lo, hi],
where V counts the sign variations of the Sturm chain. lo may itself be a
smaller root, so refinement keys its bisection on the sign at hi, which is
never 0. Comparisons between two radii are decided by interval refinement
plus an integer polynomial gcd certificate for equality, never by floating
point. The one cache is a bounded lru_cache holding the root of each graph
at DEFAULT_TOL; the threshold 3/sqrt(2) is isolated once, at import. The
module imports no numpy; its one float is CertifiedRoot.as_float, for display.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .graphs import (
    Graph,
    connected_components,
    delete_edge,
    delete_vertices,
    two_core_cycle,
)

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

    def scale(self, k: int) -> "IntPoly":
        return IntPoly(tuple(k * c for c in self.coeffs))

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
        return math.gcd(*(abs(c) for c in self.coeffs)) if self.coeffs else 0

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
    multiple of the true remainder, reduced to primitive form."""
    r = list(f.coeffs)
    dg = g.degree
    gl = g.lead
    flips = 0
    while len(r) - 1 >= dg and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < dg:
            break
        shift = len(r) - 1 - dg
        top = r[-1]
        r = [c * gl for c in r]
        flips += 1
        for i, c in enumerate(g.coeffs):
            r[i + shift] -= top * c
        r.pop()
    p = IntPoly(tuple(r))
    if gl < 0 and flips % 2 == 1:
        p = -p
    return p.primitive() if not p.is_zero else ZERO


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd over the integers, positive leading coefficient."""
    a, b = a.primitive() if not a.is_zero else ZERO, b.primitive() if not b.is_zero else ZERO
    while not b.is_zero:
        a, b = b, _prem_positive(a, b)
    if a.is_zero:
        return ZERO
    return a if a.lead > 0 else -a


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


def square_free_part(p: IntPoly) -> IntPoly:
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return ONE
    g = poly_gcd(p, p.derivative())
    sf = poly_div_exact(p.primitive(), g)
    return sf if sf.lead > 0 else -sf


# ---------------------------------------------------------------------------
# Sturm chains

def sturm_chain(p: IntPoly) -> tuple[IntPoly, ...]:
    """Sturm chain of a square-free polynomial (positive rescaling allowed)."""
    chain = [p, p.derivative()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        nxt = -_prem_positive(chain[-2], chain[-1])
        if nxt.is_zero:
            break
        chain.append(nxt)
    return tuple(chain)


def _variations(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _var_at(chain, x: Rational) -> int:
    return _variations([q.sign_at(x) for q in chain])


def _var_at_inf(chain) -> int:
    return _variations([(q.lead > 0) - (q.lead < 0) for q in chain])


def count_roots_halfopen(chain, a: Rational, b: Rational) -> int:
    """Number of distinct real roots in (a, b] of the chain's first entry."""
    return _var_at(chain, a) - _var_at(chain, b)


def cauchy_root_bound(p: IntPoly) -> Rational:
    return 1 + max(Fraction(abs(c), abs(p.lead)) for c in p.coeffs)


# ---------------------------------------------------------------------------
# certified roots

@dataclass(frozen=True)
class CertifiedRoot:
    """Isolating rational interval for the largest real root of a polynomial.

    Invariants: exactly one root of the square-free part lies in (lo, hi]
    and none lies above hi; hi is not a root, but lo may be a smaller one.
    `exact` marks a degenerate point interval.
    A root is an immutable value: refine() returns a narrower copy, so no
    caller can narrow the interval another caller holds.
    """

    poly: IntPoly
    square_free: IntPoly
    lo: Rational
    hi: Rational
    exact: bool

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

        Bisection keys on the sign at hi: a midpoint of that sign has no
        root in (mid, hi], so it becomes hi; any other sign leaves the root
        in (mid, hi]. The sign at lo would not do, since lo may be a root.

        Raises ValueError unless tol > 0: an irrational root never reaches
        width 0, so bisection would not end.
        """
        _check_tol(tol)
        lo, hi = self.lo, self.hi
        if self.exact or hi - lo <= tol:
            return self
        sf = self.square_free
        s_hi = sf.sign_at(hi)
        while hi - lo > tol:
            mid = (lo + hi) / 2
            s = sf.sign_at(mid)
            if s == 0:
                return CertifiedRoot(self.poly, sf, mid, mid, True)
            if s == s_hi:
                hi = mid
            else:
                lo = mid
        return CertifiedRoot(self.poly, sf, lo, hi, False)

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

    One Sturm bisection: no root lies above hi, and V(lo) - V(+inf) roots
    of the square-free part lie in (lo, hi], with V the sign-variation count
    of its Sturm chain. Each step evaluates the chain once, at the midpoint;
    a midpoint that is itself a root needs no special case, as the count
    over (lo, hi] holds there too. lo starts at minus the Cauchy bound, below
    every root, where V is V(-inf). One probe at -upper tells whether any
    root lies at or below it; if none does, every midpoint <= -upper moves
    lo without an evaluation.
    """
    _check_tol(tol)
    if p.is_zero:
        raise ValueError("zero polynomial has no roots")
    if p.degree == 0:
        raise ValueError("constant polynomial has no roots")
    sf = square_free_part(p)
    chain = sturm_chain(sf)
    vinf = _var_at_inf(chain)
    upper = Fraction(max(1, p.degree))
    if _var_at(chain, upper) != vinf:
        upper = cauchy_root_bound(sf)
    lo, hi = -cauchy_root_bound(sf), upper
    # V(-inf): each entry's sign there is its leading sign times (-1)^degree
    v_lo = _variations([(-1) ** q.degree * ((q.lead > 0) - (q.lead < 0)) for q in chain])
    if v_lo <= vinf:
        raise ValueError("polynomial has no real roots in range")
    floor = -upper if _var_at(chain, -upper) == v_lo else lo
    # bisect until (lo, hi] isolates exactly the largest root
    while v_lo - vinf > 1:
        mid = (lo + hi) / 2
        v_mid = v_lo if mid <= floor else _var_at(chain, mid)
        if v_mid > vinf:
            lo, v_lo = mid, v_mid
        else:
            hi = mid
    if sf.sign_at(hi) == 0:
        return CertifiedRoot(p, sf, hi, hi, True)
    # Rational roots of a monic integer polynomial are integers; once the
    # interval is narrower than 1 it can hold at most one integer, so a
    # single sign test decides whether the root is exactly rational.
    root = CertifiedRoot(p, sf, lo, hi, False).refine(Fraction(1, 2))
    if not root.exact:
        m = Fraction(math.floor(root.hi))
        if root.lo < m <= root.hi and sf.sign_at(m) == 0:
            return CertifiedRoot(p, sf, m, m, True)
    return root.refine(tol)


# ---------------------------------------------------------------------------
# characteristic polynomials

def charpoly(g: Graph) -> IntPoly:
    """Exact characteristic polynomial det(xI - A), the product over the
    connected components. Each component takes one of two routes, chosen by
    its edge count. A tree or unicyclic component takes Schwenk's bridge
    recursion: _tree_phi maps (phi(T_v), phi(T_v - v)) across the edge to
    each child c by (a, b) -> (a*a_c - b*b_c, b*a_c), and _unicyclic_phi
    first cuts an edge of the cycle. A component with two or more
    independent cycles takes charpoly_dense."""
    result = ONE
    for comp in connected_components(g):
        edges = sum(g.degree(v) for v in comp) // 2
        if edges == len(comp) - 1:
            phi = _tree_phi(g, comp[0])
        else:
            sub = g if len(comp) == g.n else delete_vertices(g, set(range(g.n)).difference(comp))
            phi = _unicyclic_phi(sub) if edges == len(comp) else charpoly_dense(sub)
        result = result * phi
    return result


def _tree_phi(g: Graph, root: int) -> IntPoly:
    """Characteristic polynomial of the tree component of g holding root.

    One post-order pass carries (a, b) = (phi(T_v), phi(T_v - v)) for the
    subtree T_v below each vertex v, starting from (x, 1). Schwenk's bridge
    rule phi(G) = phi(G - uv) - phi(G - u - v) adds each child c's subtree
    across the edge vc: (a, b) -> (a*a_c - b*b_c, b*a_c).
    """
    parent = {root: root}
    order = [root]
    for v in order:
        for w in g.adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    a: dict[int, IntPoly] = {}
    b: dict[int, IntPoly] = {}
    for v in reversed(order):
        av, bv = X, ONE
        for c in g.adj[v]:
            if c != parent[v]:
                av, bv = av * a[c] - bv * b[c], bv * a[c]
        a[v], b[v] = av, bv
    return a[root]


def _unicyclic_phi(g: Graph) -> IntPoly:
    """Characteristic polynomial of a connected unicyclic graph, through an
    edge uv of its cycle C: phi(G - uv) - phi(G - u - v) - 2 phi(G - C)."""
    cycle = two_core_cycle(g)
    u, v = cycle[0], cycle[1]
    phi_tree = _tree_phi(delete_edge(g, u, v), u)
    phi_uv = charpoly(delete_vertices(g, [u, v]))
    phi_rest = charpoly(delete_vertices(g, cycle))
    return phi_tree - phi_uv - phi_rest.scale(2)


def charpoly_dense(g: Graph) -> IntPoly:
    """det(xI - A) of any graph by the exact integer Faddeev-LeVerrier
    recurrence: M_0 = I, c_k = -tr(A M_{k-1}) / k, M_k = A M_{k-1} + c_k I.
    Row i of A M is the sum of M's rows at the neighbours of i, so A is
    never built. charpoly routes only components with two or more
    independent cycles here."""
    n = g.n
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    for k in range(1, n + 1):
        M = [[sum(col) for col in zip([0] * n, *(M[t] for t in nbrs))] for nbrs in g.adj]
        ck = -sum(M[i][i] for i in range(n)) // k
        coeffs[n - k] = ck
        for i in range(n):
            M[i][i] += ck
    return IntPoly(tuple(coeffs))


# ---------------------------------------------------------------------------
# exact comparison of spectral radii

class Ordering(enum.Enum):
    LESS = "Less"
    EQUAL = "Equal"
    GREATER = "Greater"


@dataclass(frozen=True)
class EqualityWitness:
    """Common integer factor with a shared isolating interval."""

    factor: IntPoly
    lo: Rational
    hi: Rational


@functools.lru_cache(maxsize=20000)
def _graph_root(g: Graph) -> CertifiedRoot:
    return rho_certified(charpoly(g))


def rho_certified_graph(g: Graph, tol: Rational = DEFAULT_TOL) -> CertifiedRoot:
    """Certified spectral radius of g, of width <= tol. The root at
    DEFAULT_TOL is cached per graph; a coarser tol gets that interval."""
    _check_tol(tol)
    return _graph_root(g).refine(tol)


_EQUAL_GATE = Fraction(1, 10**4)


def compare_roots(r1: CertifiedRoot, r2: CertifiedRoot):
    """Exact ordering of two certified largest roots.

    Returns (Ordering, EqualityWitness | None). Intervals are refined until
    disjoint; overlap triggers a gcd certificate for provable equality.
    """
    r1, r2 = r1.refine(_EQUAL_GATE), r2.refine(_EQUAL_GATE)
    gcd = None
    # Terminates. Equal radii are a root of the gcd lying in both intervals,
    # hence in their overlap, and the loop returns EQUAL on the first pass.
    # Conversely a gcd root in the overlap is a root of each square-free part
    # inside that part's isolating interval, so it is both radii: EQUAL is
    # never returned for distinct radii. Distinct radii are separated once
    # refinement makes both widths less than half their distance.
    while True:
        if r1.hi < r2.lo or (r1.exact and not r2.exact and r1.hi <= r2.lo):
            return Ordering.LESS, None
        if r2.hi < r1.lo or (r2.exact and not r1.exact and r2.hi <= r1.lo):
            return Ordering.GREATER, None
        if r1.exact and r2.exact:
            if r1.lo == r2.lo:
                w = EqualityWitness(poly_gcd(r1.poly, r2.poly), r1.lo, r1.hi)
                return Ordering.EQUAL, w
            return (Ordering.LESS, None) if r1.lo < r2.lo else (Ordering.GREATER, None)
        if r1.exact or r2.exact:
            a, b = (r1, r2) if r1.exact else (r2, r1)
            if b.square_free.sign_at(a.lo) == 0 and b.contains(a.lo):
                w = EqualityWitness(poly_gcd(r1.poly, r2.poly), a.lo, a.lo)
                return Ordering.EQUAL, w
        else:
            if gcd is None:
                gcd = poly_gcd(r1.poly, r2.poly)
            if gcd.degree >= 1:
                lo = max(r1.lo, r2.lo)
                hi = min(r1.hi, r2.hi)
                chain = sturm_chain(square_free_part(gcd))
                if lo < hi and count_roots_halfopen(chain, lo, hi) >= 1:
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


# 3/sqrt(2), the largest root of 2x^2 - 9
_THREE_OVER_SQRT2 = rho_certified(IntPoly((-9, 0, 2)))


def below_3_over_sqrt2(root: CertifiedRoot) -> bool:
    """Exact decision of root < 3/sqrt(2). A root equal to it is not below;
    compare_roots decides equality by its gcd witness."""
    return compare_roots(root, _THREE_OVER_SQRT2)[0] is Ordering.LESS
