"""Rooted-graph transfer calculus over quadratic number fields.

Characteristic polynomials of a rooted graph (G, v) evaluated at a rational
lambda > 2 decompose as phi = p + q where p, q live in Q(sqrt(lambda^2 - 4))
and appending a pendant path of length i at the root multiplies them by
x1^i and x2^i, the roots of x^2 - lambda*x + 1. This module implements that
arithmetic exactly; the three-branch composition graph, whose spectral radius
is the largest root of the alpha-equation cleared of its denominators and is
certified by one exact isolation of that root; and the pendant-path
edge-transfer comparator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt

from .exactpoly import (
    CertifiedRoot,
    IntPoly,
    Ordering,
    Rational,
    DEFAULT_TOL,
    _descartes_root,
    charpoly,
    compare_rho,
    rho_certified,
)
from .graphs import (Graph, add_pendant_path, build_graph, delete_vertex, distances,
                     is_connected)


class PoleError(ZeroDivisionError):
    """A transfer quantity was requested at a pole (zero denominator)."""


def _rational_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class QuadNum:
    """Exact element a + b*sqrt(D) of Q(sqrt(D)), D = lambda^2 - 4 > 0.

    When D is the square of a rational the surd is folded into the rational
    part on construction, so b == 0 characterizes rational values in every
    case and equality tests stay sound.
    """

    a: Fraction
    b: Fraction
    D: Fraction

    def __post_init__(self):
        a, b, d = Fraction(self.a), Fraction(self.b), Fraction(self.D)
        if d <= 0:
            raise ValueError("need D > 0")
        r = _rational_sqrt(d)
        if r is not None and b:
            a, b = a + b * r, Fraction(0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "D", d)

    def _coerce(self, other) -> "QuadNum":
        if isinstance(other, QuadNum):
            if other.D != self.D:
                raise ValueError("mixed fields")
            return other
        return QuadNum(Fraction(other), Fraction(0), self.D)

    def __add__(self, other):
        o = self._coerce(other)
        return QuadNum(self.a + o.a, self.b + o.b, self.D)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return QuadNum(self.a - o.a, self.b - o.b, self.D)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return QuadNum(-self.a, -self.b, self.D)

    def __mul__(self, other):
        o = self._coerce(other)
        return QuadNum(
            self.a * o.a + self.b * o.b * self.D,
            self.a * o.b + self.b * o.a,
            self.D,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadNum":
        norm = self.a * self.a - self.b * self.b * self.D
        if norm == 0:
            raise PoleError("division by zero in quadratic field")
        return QuadNum(self.a / norm, -self.b / norm, self.D)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = QuadNum(Fraction(1), Fraction(0), self.D)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(D)."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        # opposite signs: compare a^2 against b^2 D; the larger magnitude wins
        lhs, rhs = self.a * self.a, self.b * self.b * self.D
        if lhs == rhs:
            return 0
        if lhs > rhs:
            return 1 if self.a > 0 else -1
        return 1 if self.b > 0 else -1

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def to_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self!r} is irrational")
        return self.a

    def as_float(self) -> float:
        return float(self.a) + float(self.b) * float(self.D) ** 0.5


def root_pair(lam: Rational) -> tuple[QuadNum, QuadNum]:
    """The roots x1 < 1 < x2 of x^2 - lambda*x + 1 for rational lambda > 2."""
    lam = Fraction(lam)
    if lam <= 2:
        raise ValueError("need lambda > 2")
    d = lam * lam - 4
    half = Fraction(1, 2)
    x1 = QuadNum(lam * half, -half, d)
    x2 = QuadNum(lam * half, half, d)
    return x1, x2


@dataclass(frozen=True)
class RootedGraph:
    """A graph G with a root vertex v. Every transfer quantity of (G, v) is
    read off phi = phi_G and phi_minus_root = phi_{G-v}, each computed on
    first read and at most once."""

    graph: Graph
    root: int

    def __post_init__(self):
        if not 0 <= self.root < self.graph.n:
            raise ValueError("root out of range")

    @cached_property
    def phi(self) -> IntPoly:
        return charpoly(self.graph)

    @cached_property
    def phi_minus_root(self) -> IntPoly:
        return charpoly(delete_vertex(self.graph, self.root))


@dataclass(frozen=True)
class PQPair:
    """The transfer pair of a rooted graph at a fixed rational lambda > 2:
    p + q = phi_G(lambda) and x2*p + x1*q = phi_{G-v}(lambda)."""

    p: QuadNum
    q: QuadNum
    lam: Fraction

    @property
    def phi(self) -> Fraction:
        return (self.p + self.q).to_rational()

    @property
    def phi_minus_root(self) -> Fraction:
        x1, x2 = root_pair(self.lam)
        return (x2 * self.p + x1 * self.q).to_rational()


def pq_decompose(rg: RootedGraph, lam: Rational) -> PQPair:
    """Invert the defining 2x2 system for (p, q) at rational lambda > 2."""
    lam = Fraction(lam)
    x1, x2 = root_pair(lam)
    phi_g = rg.phi.eval_at(lam)
    phi_gv = rg.phi_minus_root.eval_at(lam)
    den = x2 - x1
    p = (-x1 * phi_g + phi_gv) / den
    q = (x2 * phi_g - phi_gv) / den
    return PQPair(p, q, lam)


def t_value(rg: RootedGraph, lam: Rational) -> QuadNum:
    """t = q/p of a rooted graph; raises PoleError when p vanishes."""
    pair = pq_decompose(rg, lam)
    if pair.p.a == 0 and pair.p.b == 0:
        raise PoleError("p vanishes at this lambda")
    return pair.q / pair.p


def pendant_extend(pq: PQPair, i: int) -> PQPair:
    """Transfer pair after appending a length-i pendant path at the root
    (rooted at the new path end): (p, q) -> (x1^i p, x2^i q)."""
    if i < 0:
        raise ValueError("need i >= 0")
    x1, x2 = root_pair(pq.lam)
    return PQPair(x1**i * pq.p, x2**i * pq.q, pq.lam)


def extended_phi(rg: RootedGraph, i: int, lam: Rational) -> Fraction:
    """phi of the rooted graph with a length-i pendant path, by the linear
    recurrence phi_{i+1} = lambda*phi_i - phi_{i-1}."""
    lam = Fraction(lam)
    prev, cur = rg.phi_minus_root.eval_at(lam), rg.phi.eval_at(lam)
    for _ in range(i):
        prev, cur = cur, lam * cur - prev
    return cur


def alpha(rg: RootedGraph, i: int, lam: Rational) -> Fraction:
    """The rational ratio phi_{(G,v,i+1)} / phi_{(G,v,i)} at lambda > 2, as a
    direct ratio of polynomial evaluations. In the quadratic field it is
    (x1^{i+1} p + x2^{i+1} q)/(x1^i p + x2^i q)."""
    lam = Fraction(lam)
    den = extended_phi(rg, i, lam)
    if den == 0:
        raise PoleError("phi_(G,v,i) vanishes at this lambda")
    return extended_phi(rg, i + 1, lam) / den


def odd_path_center_pq(k: int, lam: Rational) -> PQPair:
    """Transfer pair of the odd path P_{2k+1} rooted at its center, via the
    closed form in powers of x1, x2 (k >= 0)."""
    if k < 0:
        raise ValueError("need k >= 0")
    lam = Fraction(lam)
    x1, x2 = root_pair(lam)
    scale = (x2 ** (k + 1) - x1 ** (k + 1)) / (x2 - x1) ** 3
    p = scale * (x2 ** (k - 1) - 2 * x1 ** (k + 1) + x1 ** (k + 3))
    q = scale * (x1 ** (k - 1) - 2 * x2 ** (k + 1) + x2 ** (k + 3))
    return PQPair(p, q, lam)


# ---------------------------------------------------------------------------
# the three-branch composition graph

def t_compose(
    g1: RootedGraph | None,
    g2: RootedGraph,
    g3: RootedGraph | None,
) -> Graph:
    """Compose a graph from up to three rooted branches: a new center c is
    adjacent to the root of g2, and joined to the roots of g1 and g3 by
    paths of length two (one new vertex per present side). Vertex layout:
    g1, g2, g3 blocks in order, then w1, c, w3."""
    edges = []
    offs = []
    n = 0
    for b in (g1, g2, g3):
        offs.append(n)
        if b is not None:
            edges.extend((u + n, v + n) for u, v in b.graph.edges())
            n += b.graph.n
    c = n + (g1 is not None)
    edges.append((c, offs[1] + g2.root))
    for b, off, w in ((g1, offs[0], c - 1), (g3, offs[2], c + 1)):
        if b is not None:
            edges += [(c, w), (w, off + b.root)]
    return build_graph(c + 1 + (g3 is not None), edges)


def compose_charpoly(g1: RootedGraph, g2: RootedGraph, g3: RootedGraph) -> IntPoly:
    """Characteristic polynomial of t_compose(g1, g2, g3) from the branch
    polynomials: A*B1*C - A*B*C0 - A0*B*C with A = phi_{(G1,v1,1)} etc.
    A branch with one pendant vertex at its root has x*phi_G - phi_{G-v}."""
    A0, B, C0 = (rg.phi for rg in (g1, g2, g3))
    A, B1, C = (rg.phi.shift(1) - rg.phi_minus_root for rg in (g1, g2, g3))
    return A * B1 * C - A * B * C0 - A0 * B * C


def t_compose_rho(
    g1: RootedGraph,
    g2: RootedGraph,
    g3: RootedGraph,
    tol: Rational = DEFAULT_TOL,
) -> CertifiedRoot:
    """Certified spectral radius of t_compose(g1, g2, g3), isolated to width
    at most tol as the largest root of compose_charpoly: the alpha-equation
    B1/B = A0/A + C0/C multiplied through by A*B*C. It is the
    characteristic polynomial of the composition graph, connected when the
    three branches are: then its largest root is simple and it is
    real-rooted, and _descartes_root isolates it with no Sturm chain. Any
    other takes rho_certified. Raises ValueError unless tol > 0."""
    p = compose_charpoly(g1, g2, g3)
    if all(is_connected(rg.graph) for rg in (g1, g2, g3)):
        return _descartes_root(p, tol)
    return rho_certified(p, tol)


# ---------------------------------------------------------------------------
# pendant-path edge transfer

@dataclass(frozen=True)
class EdgeTransferResult:
    """Predicted comparison of the spectral radii of G with pendant paths of
    lengths (k, l) versus (k+1, l-1) at u, v, and whether the certified
    comparison confirms it."""

    predicted: Ordering
    left: Graph
    right: Graph
    verified: bool


def attach_pendant_paths(g: Graph, u: int, v: int, k: int, l: int) -> Graph:
    out, _ = add_pendant_path(g, u, k)
    out, _ = add_pendant_path(out, v, l)
    return out


def edge_transfer_compare(
    g: Graph, u: int, v: int, j: int, k: int, l: int
) -> EdgeTransferResult:
    """Compare rho of g with pendant paths (k at u, l at v) against the
    transferred pair (k+1 at u, l-1 at v).

    Preconditions: u and v have degree >= 2 in g and are at distance j
    (u == v exactly when j == 0), l > 0, and k - l >= j - 1. The predicted
    ordering is Equal when j == 0 and k == l - 1 (the two graphs are then
    isomorphic) and Greater otherwise; compare_rho certifies it exactly.
    """
    if g.degree(u) < 2 or g.degree(v) < 2:
        raise ValueError("u and v must have degree >= 2")
    if (u == v) != (j == 0):
        raise ValueError("u == v exactly when j == 0")
    if j > 0 and distances(g, u)[v] != j:
        raise ValueError("u and v are not at distance j")
    if l <= 0:
        raise ValueError("need l > 0")
    if k - l < j - 1:
        raise ValueError("hypothesis violated: need k - l >= j - 1")
    left = attach_pendant_paths(g, u, v, k, l)
    right = attach_pendant_paths(g, u, v, k + 1, l - 1)
    predicted = Ordering.EQUAL if (j == 0 and k == l - 1) else Ordering.GREATER
    return EdgeTransferResult(predicted, left, right, compare_rho(left, right) is predicted)
