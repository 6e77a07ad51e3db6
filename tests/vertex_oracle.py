"""The vertex pass as it was before it ran on integers: every n-subset
of rows solved over Fractions, each candidate re-checked with
RationalPolytope.contains, and tight sets recomputed with
RationalPolytope.tight_set wherever they are needed.  Kept as the oracle
the comparisons in test_tropical.py hold polytope_vertices,
bounded_vertices and min_locus to (results, error messages and repr).
Its emptiness test runs the Fraction simplex of lp_oracle.py, so it
shares no pivot step with the vertex pass it checks."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul

from lp_oracle import INFEASIBLE, lp_min
from nonarch.errors import DomainError
from nonarch.tropical import Face, FaceComplex, RationalPolytope, TropPoly


def _int_det(rows) -> int:
    """Exact integer determinant (Bareiss elimination with row swaps)."""
    a = [list(map(int, r)) for r in rows]
    size = len(a)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


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


def polytope_vertices_oracle(p: RationalPolytope) -> tuple:
    seen = set()
    cons = p.constraints
    for subset in combinations(range(len(cons)), p.n):
        rows = [cons[i][0] for i in subset]
        rhs = [cons[i][1] for i in subset]
        point = _solve_square(rows, rhs)
        if point is not None and p.contains(point):
            seen.add(point)
    return tuple(sorted(seen))


def bounded_vertices_oracle(p: RationalPolytope, verts=None) -> tuple:
    """verts, when given, is polytope_vertices_oracle(p), computed once by
    a caller that needs it too."""
    if verts is None:
        verts = polytope_vertices_oracle(p)
    if verts and not (p.n and _has_unbounded_edge(p, verts)):
        return verts
    if not verts and (not p.n or lp_min([0] * p.n, [list(a) for a, _ in p.constraints],
                                        [b for _, b in p.constraints])[0] == INFEASIBLE):
        raise DomainError("empty polytope")
    raise DomainError("unbounded polyhedron; a bounded polytope is required")


def _has_unbounded_edge(p: RationalPolytope, verts) -> bool:
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


def min_locus_oracle(poly: TropPoly, p: RationalPolytope, verts=None):
    if poly.n != p.n:
        raise DomainError("tropical polynomial and polytope dimensions disagree")
    if not poly.terms:
        raise DomainError("empty tropical polynomial has no minimum")
    verts = bounded_vertices_oracle(p, verts)
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
