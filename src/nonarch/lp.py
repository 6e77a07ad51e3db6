"""Exact rational linear programming by the two-phase simplex method on an
integer tableau.

Solves  min c.x  subject to  A x <= b  with free variables.  A and b are
scaled to integers by one common lcm and c by its own, so Fractions occur
only in the input, the value and the point.  The right-hand side is the
last column and the reduced costs the last row, and each pivot is one
fraction-free Gauss-Jordan step on all of it (_pivot): the stored tableau
is D > 0 times the rational one, and every division is exact.

Entering and leaving variables follow Bland's rule, which reads only signs
and the order of ratios (compared by cross-multiplication).  One positive
scale for all rows, slacks, artificials and the objective changes neither,
so the pivots and the results are those of the Fraction simplex kept as
the test oracle; a scale per row would reweight the phase-1 sum of the
artificials.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, InvariantError
from .fields import _as_rationals, _scale_to_ints

__all__ = ["lp_min", "OPTIMAL", "UNBOUNDED", "INFEASIBLE"]

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


def _pivot(rows, r, j, prev):
    """One fraction-free Gauss-Jordan step on the integer rows at entry
    (r, j), in place: with p = rows[r][j], every row i != r becomes
    (p * row_i - row_i[j] * row_r) // prev, and p is returned as the new
    common denominator.  prev is the denominator the rows are stored over
    (1 for the initial rows); every entry is then a minor of the initial
    rows, so each division is exact."""
    top = rows[r]
    p = top[j]
    for i, row in enumerate(rows):
        if i != r:
            f = row[j]
            if f:
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
            elif p != prev:
                rows[i] = [p * x // prev for x in row]
    return p


def _cost_row(rows, basis, cost, d):
    """The reduced costs of the cost vector over the denominator d of the
    constraint rows, with minus d times the objective value last."""
    out = [d * x for x in cost]
    for row, j in zip(rows, basis):
        f = cost[j]
        if f:
            out = [x - f * y for x, y in zip(out, row)]
    return out


def _simplex(rows, basis, d):
    """Bland's rule on the tableau rows over the denominator d, the cost
    row last: (OPTIMAL or UNBOUNDED, the final denominator)."""
    while True:
        enter = next((j for j, cj in enumerate(rows[-1][:-1]) if cj < 0), None)
        if enter is None:
            return OPTIMAL, d
        leave = None
        for i, row in enumerate(rows[:-1]):
            a = row[enter]
            if a > 0:
                if leave is not None:
                    x, y = row[-1] * best, rows[leave][-1] * a
                    if x > y or (x == y and basis[i] > basis[leave]):
                        continue
                leave, best = i, a
        if leave is None:
            return UNBOUNDED, d
        d = _pivot(rows, leave, enter, d)
        basis[leave] = enter


def lp_min(c, A, b):
    """Minimize c.x over {x : A x <= b}, x free.

    Returns (status, value, point); value and point are None unless the
    status is OPTIMAL.  All data are read as rationals (fields._as_rationals),
    so data that is no vector of them is a DomainError."""
    c = _as_rationals(c, None, "objective")
    A = [_as_rationals(row, None, "constraint row") for row in A]
    b = _as_rationals(b, None, "right-hand side")
    n = len(c)
    m = len(A)
    if any(len(row) != n for row in A):
        raise DomainError("objective and constraint dimensions disagree")
    if len(b) != m:
        raise DomainError("constraint and right-hand side lengths disagree")

    # columns: x+ (n), x- (n), slacks (m), artificials, right-hand side
    _, ints = _scale_to_ints([v for row in (*A, b) for v in row])
    art = 2 * n + m
    width = art + sum(v < 0 for v in b) + 1
    rows = []
    basis = []
    k = art
    for i in range(m):
        a = ints[i * n:i * n + n]
        row = a + [-x for x in a] + [0] * (width - 2 * n)
        row[2 * n + i] = 1
        row[-1] = ints[m * n + i]
        if row[-1] < 0:
            row = [-x for x in row]
            row[k] = 1
            basis.append(k)
            k += 1
        else:
            basis.append(2 * n + i)
        rows.append(row)

    d = 1
    if k > art:
        rows.append(_cost_row(rows, basis, [0] * art + [1] * (k - art) + [0], d))
        status, d = _simplex(rows, basis, d)
        if status != OPTIMAL:
            raise InvariantError("phase 1 is bounded below by 0 but read unbounded")
        if rows[-1][-1]:
            return INFEASIBLE, None, None
        # pivot lingering artificials (each at 0) out of the basis; a row is
        # negated to keep the denominator positive.  Each constraint has its
        # own slack column, so the slack block is d B^-1 times a signed
        # identity, invertible, and no row is zero before the artificials
        for i in range(m - 1, -1, -1):
            if basis[i] < art:
                continue
            j = next((j for j in range(art) if rows[i][j]), None)
            if j is None:
                raise InvariantError("phase 1 left a row that is zero before the artificials")
            if rows[i][j] < 0:
                rows[i] = [-x for x in rows[i]]
            d = _pivot(rows, i, j, d)
            basis[i] = j
        rows = [row[:art] + row[-1:] for row in rows[:-1]]

    scale, cost = _scale_to_ints(c)
    rows.append(_cost_row(rows, basis, cost + [-x for x in cost] + [0] * (m + 1), d))
    status, d = _simplex(rows, basis, d)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None

    point = [Fraction(0)] * n
    for row, j in zip(rows, basis):
        if j < 2 * n:
            v = Fraction(row[-1], d)
            point[j % n] += v if j < n else -v
    return OPTIMAL, Fraction(-rows[-1][-1], d * scale), tuple(point)
