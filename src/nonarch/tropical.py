"""Min-plus piecewise-linear functions, skeleton polytopes, exact
maximality loci, and the skeleton retraction.

Tropicalizing a pluriform in identity-chart coordinates keeps one term
(val(a), I) per monomial a*t^I of each coefficient, merged by minimal
constant; evaluating the resulting min-plus polynomial at rational radii
reproduces the Kahler norm at the corresponding monomial point, exactly.

Minimizing a min-plus polynomial over a rational polytope needs no LP,
only one fraction-free integer solver: a vertex pass over the n-subsets
of constraint rows shows the polytope nonempty, a solve at each basis of
rows tight at a vertex shows that no edge is a ray (so it is bounded),
and every term is scored at every vertex as one integer over a common
denominator.  Every affine term dominates the minimum on the whole
polytope, so each term attaining the optimum does so exactly on a face;
the locus of minimality (maximality of the multiplicative norm) is the
union of those faces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import itemgetter, mul

from .errors import DomainError
from .fields import _as_int, _as_rationals, _scale_to_ints
from .forms import MonomialChart, Pluriform
from .lattices import _bareiss, _flat, _int_step
from .laurent import gauss_val
from .lp import INFEASIBLE, _pivot, lp_min
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

_UNBOUNDED = "unbounded polyhedron; a bounded polytope is required"


class TropPoly:
    """A min-plus polynomial: finitely many affine terms c + <I, rho> with
    rational constants and integer slopes; the value at rho is the minimum
    over the terms.  Duplicate slopes keep the minimal constant."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms):
        self.n = _as_int(n, "dimension")
        terms = list(terms)
        consts = _as_rationals([c for c, _ in terms], None, "term constants")
        best = {}
        for c, (_, exps) in zip(consts, terms):
            exps = tuple(map(_as_int, exps))
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
    return TropPoly(phi.n, [(a._int_val(), exps) for coeff in phi.coeffs.values()
                            for exps, a in coeff.terms.items()])


def trop_eval(poly: TropPoly, rho) -> Val:
    """Value at rational radii: min over terms of c + <I, rho>; INF for an
    empty term list."""
    rho = _as_rationals(rho, poly.n, "point")
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
        self.n = _as_int(n, "dimension")
        constraints = list(constraints)
        bounds = _as_rationals([b for _, b in constraints], None, "constraint bounds")
        rows = []
        for (a, _), b in zip(constraints, bounds):
            a = _as_rationals(a, None, "constraint row")
            if len(a) != self.n:
                raise DomainError(f"constraint row {a} has wrong length (expected {self.n})")
            rows.append((a, b))
        self.constraints = tuple(rows)

    def contains(self, point) -> bool:
        point = _as_rationals(point, self.n, "point")
        return all(
            sum(ai * xi for ai, xi in zip(a, point)) <= b for a, b in self.constraints
        )

    def tight_set(self, point) -> tuple:
        """Indices of constraints active at the point."""
        point = _as_rationals(point, self.n, "point")
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
    n = _as_int(n, "dimension")
    if n < 1:
        raise DomainError("skeleton dimension must be >= 1")
    va, = _as_rationals((va,), 1, "chart constant")
    if va <= 0:
        raise DomainError("the chart constant must have positive valuation")
    constraints = []
    for i in range(n):
        row = tuple(Fraction(-1) if j == i else Fraction(0) for j in range(n))
        constraints.append((row, Fraction(0)))
    constraints.append((tuple(Fraction(1) for _ in range(n)), va))
    return RationalPolytope(n, constraints)


def _integer_rows(p: RationalPolytope) -> list:
    """Each constraint (a, b) of p scaled by the lcm of its denominators to
    an integer row (A, B); the scaling keeps the polyhedron and the tight
    sets."""
    rows = []
    for a, b in p.constraints:
        _, ints = _scale_to_ints((*a, b))
        rows.append((ints[:-1], ints[-1]))
    return rows


def _vertex_pass(p: RationalPolytope):
    """The integer vertex pass behind polytope_vertices, bounded_vertices
    and min_locus.

    Each constraint (a, b) is scaled once to an integer row (A, B)
    (_integer_rows).  Each n-subset of rows is solved by fraction-free
    Gauss-Jordan elimination (_solve_int), giving the candidate as
    nums / den with den > 0.  The same integer dots A . nums, set against
    B * den, decide containment and give the tight set, so every distinct
    vertex is tested once, keyed by its gcd-normalised (nums, den).

    Returns (rows, found): the integer rows, and for each vertex in sorted
    order the tuple (vertex as Fractions, nums, den, tight set)."""
    n = p.n
    rows = _integer_rows(p)
    seen = set()
    found = []
    for subset in combinations(rows, n):
        solved = _solve_int([a + [b] for a, b in subset], n)
        if solved is None:
            continue
        sol, den = solved
        nums = [r[0] for r in sol]
        g = gcd(den, *nums)
        if g > 1:
            nums, den = [x // g for x in nums], den // g
        key = (den, *nums)
        if key in seen:
            continue
        seen.add(key)
        tight = []
        for i, (a, b) in enumerate(rows):
            dot, bound = sum(map(mul, a, nums)), b * den
            if dot > bound:
                break
            if dot == bound:
                tight.append(i)
        else:
            found.append((tuple(Fraction(x, den) for x in nums), nums, den, tuple(tight)))
    found.sort(key=itemgetter(0))
    return rows, found


def _solve_int(m, n):
    """Solve A X = den R in place for the rows [A_i | R_i] of m (n columns
    of A, any number of R) by fraction-free Gauss-Jordan elimination: one
    lp._pivot per column of A, on its diagonal entry once a row swap has
    made that nonzero.  Returns (X as a list of rows, den > 0), or None
    when A is singular."""
    prev = 1
    for k in range(n):
        piv = k if m[k][k] else next((r for r in range(k + 1, n) if m[r][k]), None)
        if piv is None:
            return None
        m[k], m[piv] = m[piv], m[k]
        prev = _pivot(m, k, k, prev)
    if prev < 0:
        return [[-x for x in row[n:]] for row in m], -prev
    return [row[n:] for row in m], prev


def polytope_vertices(p: RationalPolytope) -> tuple:
    """All vertices, by exact enumeration of n-subsets of constraints.
    Sorted for determinism."""
    return tuple(v[0] for v in _vertex_pass(p)[1])


def bounded_vertices(p: RationalPolytope) -> tuple:
    """The vertices of p, once p is shown nonempty and bounded (DomainError
    otherwise).

    A vertex gives the constraint matrix A rank n, and then p is unbounded
    exactly when an edge is a ray.  Its n - 1 rows tight along the ray and
    one more tight at the vertex form a basis T, and the ray runs along -x
    for a column x of X, where A_T X = den I and den > 0.  So p is bounded
    unless some such x has A x >= 0; for the rows N outside T, one solve of
    A_T^T Y = den A_N^T gives Y = (A_N X)^T.  Without a vertex, p is empty
    or holds a line along ker A, and a vertex pass on the pivot columns of
    A (lattices._bareiss), a complement of ker A, tells which."""
    return tuple(v[0] for v in _bounded_pass(p))


def _bounded_pass(p: RationalPolytope) -> list:
    """The vertex pass of a polytope shown nonempty and bounded, as
    bounded_vertices describes."""
    n = p.n
    rows, found = _vertex_pass(p)
    if found:
        columns = list(zip(*(a for a, _ in rows)))
        for *_, tight in found:
            for basis in combinations(tight, n):
                order = [*basis, *(i for i in range(len(rows)) if i not in basis)]
                solved = _solve_int([[c[i] for i in order] for c in columns], n)
                if solved is not None and any(all(y >= 0 for y in row) for row in solved[0]):
                    raise DomainError(_UNBOUNDED)
        return found
    cols = [c for _, c in _bareiss([a[:] for a, _ in rows], _int_step, _flat)[0]]
    if len(cols) == n or not _vertex_pass(
            RationalPolytope(len(cols), [([a[c] for c in cols], b) for a, b in rows]))[1]:
        raise DomainError("empty polytope")
    raise DomainError(_UNBOUNDED)


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

    Once the vertex pass has shown P nonempty and bounded (by integer
    linear algebra alone, as bounded_vertices describes), every affine
    term attains its minimum over P at a vertex, so one pass over the
    vertex list gives each term's minimum and m_star.  Each term is scored
    at each vertex nums / den as one integer over the common denominator
    C * D, where C clears the term constants and D the vertex
    denominators.  Since each term bounds the function from above and
    m_star bounds it from below on all of P, the attainment set of each
    optimal term is the face of P exposed by that term; its tight set is
    the intersection of the tight sets the vertex pass stored for the
    attaining vertices.  Faces are reported by their tight constraint sets
    with vertex lists, deduplicated, in lexicographic tight-set order."""
    if poly.n != p.n:
        raise DomainError("tropical polynomial and polytope dimensions disagree")
    if not poly.terms:
        raise DomainError("empty tropical polynomial has no minimum")
    found = _bounded_pass(p)
    big_c = lcm(*(c.denominator for c, _ in poly.terms))
    big_d = lcm(*(den for _, _, den, _ in found))
    weights = [(big_d // den * big_c, nums) for _, nums, den, _ in found]
    scores = [
        [c.numerator * (big_c // c.denominator) * big_d + w * sum(map(mul, exps, nums))
         for w, nums in weights]
        for c, exps in poly.terms
    ]
    low = min(min(row) for row in scores)

    faces = {}
    for row in scores:
        attain = [v for v, score in zip(found, row) if score == low]
        if not attain:
            continue
        tight = tuple(sorted(set(attain[0][3]).intersection(*(v[3] for v in attain[1:]))))
        faces[tight] = Face(tight, tuple(v[0] for v in attain))
    ordered = tuple(faces[k] for k in sorted(faces))
    return Fraction(low, big_c * big_d), FaceComplex(ordered)


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
