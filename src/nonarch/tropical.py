"""Min-plus piecewise-linear functions, skeleton polytopes, exact
maximality loci, and the skeleton retraction.

Tropicalizing a pluriform in identity-chart coordinates keeps one term
(val(a), I) per monomial a*t^I of each coefficient, merged by minimal
constant; evaluating the resulting min-plus polynomial at rational radii
reproduces the Kahler norm at the corresponding monomial point, exactly.

Minimizing a min-plus polynomial over a rational polytope needs no LP
when the polytope has a vertex: the vertex pass shows it nonempty, exact
solves over the constraint rows show its recession cone is zero, and
every term's minimum is read off the exact vertex list.  One feasibility
LP names the failure when there is no vertex.  Every affine term
dominates the minimum on the whole polytope, so each term attaining the
optimum does so exactly on a face; the locus of minimality (maximality of
the multiplicative norm) is the union of those faces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul

from .errors import DomainError
from .forms import MonomialChart, Pluriform, _int_det
from .laurent import gauss_val
from .lp import INFEASIBLE, lp_min
from .values import INF, Val

__all__ = [
    "TropPoly",
    "RationalPolytope",
    "Face",
    "FaceComplex",
    "tropicalize",
    "trop_eval",
    "semistable_skeleton",
    "min_locus",
    "retract",
    "polytope_vertices",
    "bounded_vertices",
]


class TropPoly:
    """A min-plus polynomial: finitely many affine terms c + <I, rho> with
    rational constants and integer slopes; the value at rho is the minimum
    over the terms.  Duplicate slopes keep the minimal constant."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms):
        self.n = int(n)
        best = {}
        for c, exps in terms:
            c = Fraction(c)
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.n:
                raise DomainError(f"slope vector {exps} has wrong length (expected {self.n})")
            if exps not in best or c < best[exps]:
                best[exps] = c
        self.terms = tuple(sorted((c, e) for e, c in best.items()))

    def __eq__(self, other):
        if not isinstance(other, TropPoly):
            return NotImplemented
        return (self.n, self.terms) == (other.n, other.terms)

    def __hash__(self):
        return hash((self.n, self.terms))

    def __repr__(self):
        body = ", ".join(f"({c}, {e})" for c, e in self.terms)
        return f"<TropPoly n={self.n} [{body}]>"


def tropicalize(phi: Pluriform) -> TropPoly:
    """Min-plus shadow of a pluriform in identity-chart coordinates: one
    term (val(a), I) for every monomial of every coefficient.  The zero
    form tropicalizes to the empty term list (value INF everywhere)."""
    terms = []
    for coeff in phi.coeffs.values():
        for exps, a in coeff.terms.items():
            terms.append((a.val().fraction, exps))
    return TropPoly(phi.n, terms)


def trop_eval(poly: TropPoly, rho) -> Val:
    """Value at rational radii: min over terms of c + <I, rho>; INF for an
    empty term list."""
    rho = tuple(Fraction(r) for r in rho)
    if len(rho) != poly.n:
        raise DomainError(f"point has length {len(rho)}, expected {poly.n}")
    best = INF
    for c, exps in poly.terms:
        v = Val(c + sum(e * r for e, r in zip(exps, rho)))
        if v < best:
            best = v
    return best


class RationalPolytope:
    """A polyhedron { rho : <a_i, rho> <= b_i } with exact rational data.
    Boundedness and nonemptiness are not construction invariants; they are
    checked where required (bounded_vertices)."""

    __slots__ = ("n", "constraints")

    def __init__(self, n: int, constraints):
        self.n = int(n)
        rows = []
        for a, b in constraints:
            a = tuple(Fraction(x) for x in a)
            if len(a) != self.n:
                raise DomainError(f"constraint row {a} has wrong length (expected {self.n})")
            rows.append((a, Fraction(b)))
        self.constraints = tuple(rows)

    def contains(self, point) -> bool:
        point = tuple(Fraction(x) for x in point)
        if len(point) != self.n:
            raise DomainError("point dimension mismatch")
        return all(
            sum(ai * xi for ai, xi in zip(a, point)) <= b for a, b in self.constraints
        )

    def tight_set(self, point) -> tuple:
        """Indices of constraints active at the point."""
        point = tuple(Fraction(x) for x in point)
        out = []
        for i, (a, b) in enumerate(self.constraints):
            if sum(ai * xi for ai, xi in zip(a, point)) == b:
                out.append(i)
        return tuple(out)

    def __repr__(self):
        return f"<RationalPolytope n={self.n}, {len(self.constraints)} constraints>"


def semistable_skeleton(n: int, va) -> RationalPolytope:
    """The standard skeleton simplex { rho_i >= 0, sum rho_i <= v(a) } of
    the one-relation semistable chart in dimension n."""
    n = int(n)
    if n < 1:
        raise DomainError("skeleton dimension must be >= 1")
    va = Fraction(va)
    if va <= 0:
        raise DomainError("the chart constant must have positive valuation")
    constraints = []
    for i in range(n):
        row = tuple(Fraction(-1) if j == i else Fraction(0) for j in range(n))
        constraints.append((row, Fraction(0)))
    constraints.append((tuple(Fraction(1) for _ in range(n)), va))
    return RationalPolytope(n, constraints)


def _solve_square(rows, rhs):
    """Solve an n x n rational system; None when singular."""
    n = len(rhs)
    a = [list(r) + [v] for r, v in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(a[r][n] for r in range(n))


def polytope_vertices(p: RationalPolytope) -> tuple:
    """All vertices, by exact enumeration of n-subsets of constraints.
    Sorted for determinism."""
    seen = set()
    cons = p.constraints
    for subset in combinations(range(len(cons)), p.n):
        rows = [cons[i][0] for i in subset]
        rhs = [cons[i][1] for i in subset]
        point = _solve_square(rows, rhs)
        if point is not None and p.contains(point):
            seen.add(point)
    return tuple(sorted(seen))


def bounded_vertices(p: RationalPolytope) -> tuple:
    """The vertices of p, once p is shown nonempty and bounded (DomainError
    otherwise).

    A vertex makes p nonempty and its constraint matrix A of rank n, so
    the recession cone {d : A d <= 0} is pointed.  If the cone holds some
    d != 0, the simplex method run from a vertex towards -d ends on an
    unbounded edge: a ray whose direction is spanned by n - 1 independent
    rows tight at that vertex.  So p is bounded unless, for such rows, the
    d they span has d or -d in the cone.  Without a vertex, p is empty or
    holds a line, and one feasibility LP tells which."""
    verts = polytope_vertices(p)
    if verts and not (p.n and _has_unbounded_edge(p, verts)):
        return verts
    # in dimension 0 the point () is a vertex whenever p is nonempty
    if not verts and (not p.n or lp_min([0] * p.n, [list(a) for a, _ in p.constraints],
                                        [b for _, b in p.constraints])[0] == INFEASIBLE):
        raise DomainError("empty polytope")
    raise DomainError("unbounded polyhedron; a bounded polytope is required")


def _has_unbounded_edge(p: RationalPolytope, verts) -> bool:
    """Whether an edge of p leaves one of its vertices along a direction of
    the recession cone (p.n >= 1).  Rows are scaled to integers, which
    keeps the cone, and the direction d spanned by n - 1 of them is their
    generalized cross product: d_j = (-1)^j * (the minor without column
    j), zero exactly when the rows are dependent."""
    rows = []
    for a, _ in p.constraints:
        s = lcm(*(x.denominator for x in a))
        rows.append([int(x * s) for x in a])
    seen = set()
    for v in verts:
        for subset in combinations(p.tight_set(v), p.n - 1):
            if subset in seen:
                continue
            seen.add(subset)
            edge = [rows[i] for i in subset]
            d = [(-1) ** j * _int_det([r[:j] + r[j + 1:] for r in edge]) for j in range(p.n)]
            if not any(d):
                continue
            dots = [sum(map(mul, a, d)) for a in rows]
            if all(x <= 0 for x in dots) or all(x >= 0 for x in dots):
                return True
    return False


@dataclass(frozen=True)
class Face:
    """A face of the ambient polytope: the constraints tight on all of it,
    plus its vertex list (vertices of the ambient polytope)."""

    tight: tuple
    vertices: tuple


@dataclass(frozen=True)
class FaceComplex:
    faces: tuple

    def __iter__(self):
        return iter(self.faces)

    def __len__(self):
        return len(self.faces)


def min_locus(poly: TropPoly, p: RationalPolytope):
    """Exact minimum of the min-plus polynomial over the polytope, with the
    locus where it is attained.

    Once bounded_vertices has shown P nonempty and bounded (by linear
    algebra on the vertex pass; an LP runs only when P has no vertex),
    every affine term attains its minimum over P at a vertex, so one pass
    over the exact vertex list gives each term's minimum and m_star.
    Since each term bounds the function from above and m_star bounds it
    from below on all of P, the attainment set of each optimal term is the
    face of P exposed by that term.  Faces are reported by their tight constraint sets with vertex
    lists, deduplicated, in lexicographic tight-set order."""
    if poly.n != p.n:
        raise DomainError("tropical polynomial and polytope dimensions disagree")
    if not poly.terms:
        raise DomainError("empty tropical polynomial has no minimum")
    verts = bounded_vertices(p)
    values = [
        [c + sum(e * x for e, x in zip(exps, v)) for v in verts]
        for c, exps in poly.terms
    ]
    m_star = min(min(row) for row in values)

    faces = {}
    for row in values:
        attain = tuple(v for v, value in zip(verts, row) if value == m_star)
        if not attain:
            continue
        tight = sorted(
            set(p.tight_set(attain[0])).intersection(*(p.tight_set(v) for v in attain))
        )
        faces[tuple(tight)] = Face(tuple(tight), attain)
    ordered = tuple(faces[k] for k in sorted(faces))
    return m_star, FaceComplex(ordered)


def prune_never_minimal(poly: TropPoly, p: RationalPolytope) -> TropPoly:
    """Optional normalization: drop terms that are nowhere minimal on the
    polytope (one feasibility LP per term).  Evaluated values on the
    polytope are unchanged; this is never applied implicitly."""
    if poly.n != p.n:
        raise DomainError("tropical polynomial and polytope dimensions disagree")
    base_a = [list(row) for row, _ in p.constraints]
    base_b = [bb for _, bb in p.constraints]
    kept = []
    for idx, (c, exps) in enumerate(poly.terms):
        a = [row[:] for row in base_a]
        b = base_b[:]
        for jdx, (c2, exps2) in enumerate(poly.terms):
            if jdx == idx:
                continue
            a.append([e - e2 for e, e2 in zip(exps, exps2)])
            b.append(c2 - c)
        status, _, _ = lp_min([0] * poly.n, a, b)
        if status != INFEASIBLE:
            kept.append((c, exps))
    return TropPoly(poly.n, kept)


def retract(chart: MonomialChart) -> tuple:
    """Skeleton coordinates of the image of the chart's point under the
    standard retraction: the Gauss valuations of the substituted
    coordinates t_i = g_i(s) at the chart radii."""
    out = []
    for g in chart.substitutions:
        v = gauss_val(g, chart.rho)
        out.append(v.fraction)
    return tuple(out)
