"""Exact rational linear programming as it was before the integer
tableau: the two-phase simplex method on a dense Fraction tableau, with
its own pivot and cost-row updates.

Solves  min c.x  subject to  A x <= b  with free variables, entirely in
Fraction arithmetic.  Entering and leaving variables follow Bland's rule.
Kept as the oracle test_tropical.py holds nonarch.lp.lp_min to (identical
status, value and point), and as the LP behind the vertex and min-locus
oracles, so that none of them shares the pivot step (lp._pivot) with the
vertex pass it checks.
"""

from __future__ import annotations

from fractions import Fraction

from nonarch.errors import InvariantError

__all__ = ["lp_min", "OPTIMAL", "UNBOUNDED", "INFEASIBLE"]

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"

_ZERO = Fraction(0)
_ONE = Fraction(1)


class _Tableau:
    def __init__(self, rows, rhs, basis):
        self.rows = rows      # m x cols, Fractions
        self.rhs = rhs        # m Fractions, >= 0
        self.basis = basis    # m column indices

    def pivot(self, r, j):
        row = self.rows[r]
        inv = _ONE / row[j]
        if inv != _ONE:
            self.rows[r] = row = [x * inv for x in row]
            self.rhs[r] *= inv
        for i, other in enumerate(self.rows):
            if i == r:
                continue
            f = other[j]
            if f:
                self.rows[i] = [x - f * y for x, y in zip(other, row)]
                self.rhs[i] -= f * self.rhs[r]
        self.basis[r] = j

    def minimize(self, cost):
        """Run simplex with Bland's rule on the canonical tableau; cost is
        mutated into the reduced-cost row.  Returns OPTIMAL or UNBOUNDED."""
        value = _ZERO
        for i, b in enumerate(self.basis):
            f = cost[b]
            if f:
                cost[:] = [x - f * y for x, y in zip(cost, self.rows[i])]
                value -= f * self.rhs[i]
        while True:
            enter = next((j for j, cj in enumerate(cost) if cj < 0), None)
            if enter is None:
                self.value = -value
                return OPTIMAL
            leave = None
            best = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    ratio = self.rhs[i] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave is None:
                return UNBOUNDED
            f = cost[enter]
            self.pivot(leave, enter)
            if f:
                cost[:] = [x - f * y for x, y in zip(cost, self.rows[leave])]
                value -= f * self.rhs[leave]


def lp_min(c, A, b):
    """Minimize c.x over {x : A x <= b}, x free.

    Returns (status, value, point); value and point are None unless the
    status is OPTIMAL.  All data may be ints or Fractions."""
    c = [Fraction(v) for v in c]
    A = [[Fraction(v) for v in row] for row in A]
    b = [Fraction(v) for v in b]
    n = len(c)
    m = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("objective and constraint dimensions disagree")

    cols = 2 * n + m
    rows = []
    rhs = []
    need_art = []
    for i in range(m):
        row = [_ZERO] * cols
        for j, a in enumerate(A[i]):
            if a:
                row[j] = a
                row[n + j] = -a
        row[2 * n + i] = _ONE
        bi = b[i]
        if bi < 0:
            row = [-x for x in row]
            bi = -bi
            need_art.append(i)
        rows.append(row)
        rhs.append(bi)

    basis = [2 * n + i for i in range(m)]
    art_start = cols
    for i in need_art:
        for r in range(m):
            rows[r].append(_ONE if r == i else _ZERO)
        basis[i] = cols
        cols += 1

    tab = _Tableau(rows, rhs, basis)

    if need_art:
        cost1 = [_ZERO] * cols
        for j in range(art_start, cols):
            cost1[j] = _ONE
        if tab.minimize(cost1) != OPTIMAL:
            raise InvariantError("phase 1 is bounded below by 0 but read unbounded")
        if tab.value != 0:
            return INFEASIBLE, None, None
        # pivot lingering artificials out of the basis, drop redundant rows
        for i in range(m - 1, -1, -1):
            if tab.basis[i] < art_start:
                continue
            j = next((j for j in range(art_start) if tab.rows[i][j] != 0), None)
            if j is None:
                del tab.rows[i]
                del tab.rhs[i]
                del tab.basis[i]
            else:
                tab.pivot(i, j)
        tab.rows = [row[:art_start] for row in tab.rows]

    cost2 = [_ZERO] * art_start
    for j in range(n):
        cost2[j] = c[j]
        cost2[n + j] = -c[j]
    status = tab.minimize(cost2)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None

    point = [_ZERO] * n
    for i, bj in enumerate(tab.basis):
        if bj < n:
            point[bj] += tab.rhs[i]
        elif bj < 2 * n:
            point[bj - n] -= tab.rhs[i]
    return OPTIMAL, tab.value, tuple(point)
