"""Smith forms and determinants as they were computed before the
fraction-free kernel: for field entries, elimination in the base field
(field_smith, field_det_val); for Laurent entries, elimination in the
fraction field, each entry an unreduced ratio of Laurent polynomials
(_Ratio); and determinants of Laurent matrices by cofactor expansion.
Kept as the oracle test_lattices.py holds smith, det_val and the kernel's
minors to."""

from __future__ import annotations

from nonarch.errors import InvariantError
from nonarch.lattices import ElementaryDivisors, PresentationMatrix, _coerce_entry
from nonarch.laurent import LaurentPoly, gauss_val_rational
from nonarch.values import INF, Val

_ZERO = Val(0)


class _Ratio:
    """Exact ratio of two Laurent polynomials.  A single-term denominator
    is folded into the numerator."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if len(den.terms) == 1:
            (exps, coeff), = den.terms.items()
            if any(exps) or coeff != num.model.one():
                num = num.shift(tuple(-e for e in exps)).scale(num.model.one() / coeff)
            den = LaurentPoly.one(num.model, num.n)
        self.num = num
        self.den = den

    @property
    def is_zero(self):
        return self.num.is_zero

    def val(self, rho) -> Val:
        if self.num.is_zero:
            return INF
        return gauss_val_rational(self.num, self.den, rho)

    def __sub__(self, other):
        if self.den is other.den or self.den == other.den:
            return _Ratio(self.num - other.num, self.den)
        return _Ratio(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return _Ratio(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("division by zero ratio")
        return _Ratio(self.num * other.den, self.den * other.num)


def smith(presentation: PresentationMatrix) -> ElementaryDivisors:
    """Elementary divisors of a presentation with Laurent entries
    (nvars > 0): least-valuation pivots, Schur complements in _Ratio."""
    one = LaurentPoly.one(presentation.model, presentation.nvars)
    work = [[_Ratio(e, one) for e in row] for row in presentation.entries]
    rho = presentation.rho
    vals = [[e.val(rho) for e in row] for row in work]
    live_rows = list(range(presentation.rows))
    live_cols = list(range(presentation.cols))
    divisors = []
    while live_rows and live_cols:
        pr = pc = -1
        pivot_val = INF
        for r in live_rows:
            for c in live_cols:
                if vals[r][c] < pivot_val:
                    pivot_val = vals[r][c]
                    pr, pc = r, c
        if pivot_val.is_inf:
            break
        divisors.append(pivot_val)
        piv = work[pr][pc]
        for r in live_rows:
            if r == pr or vals[r][pc].is_inf:
                continue
            factor = work[r][pc] / piv
            for c in live_cols:
                if c == pc or vals[pr][c].is_inf:
                    continue
                work[r][c] = work[r][c] - factor * work[pr][c]
                vals[r][c] = work[r][c].val(rho)
        live_rows.remove(pr)
        live_cols.remove(pc)
    divisors.sort()
    return ElementaryDivisors(tuple(divisors), presentation.rows - len(divisors))


def det_val(entries, model, nvars, rho) -> Val:
    """Valuation of the determinant of a square Laurent-entry matrix by
    Gaussian elimination in _Ratio; INF for a singular matrix."""
    one = LaurentPoly.one(model, nvars)
    work = [[_Ratio(_coerce_entry(e, model, nvars), one) for e in row] for row in entries]
    size = len(work)
    total = _ZERO
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if not work[r][col].is_zero), None)
        if pivot_row is None:
            return INF
        work[col], work[pivot_row] = work[pivot_row], work[col]
        piv = work[col][col]
        total = total + piv.val(rho)
        for r in range(col + 1, size):
            if work[r][col].is_zero:
                continue
            factor = work[r][col] / piv
            for c in range(col + 1, size):
                work[r][c] = work[r][c] - factor * work[col][c]
    return total


def det_laurent(rows) -> LaurentPoly:
    """Determinant of a small square matrix of Laurent polynomials by
    cofactor expansion."""
    size = len(rows)
    if size == 1:
        return rows[0][0]
    model, n = rows[0][0].model, rows[0][0].n
    total = LaurentPoly.zero(model, n)
    for j, head in enumerate(rows[0]):
        if head.is_zero:
            continue
        minor = [[row[c] for c in range(size) if c != j] for row in rows[1:]]
        cof = head * det_laurent(minor)
        total = total + (cof if j % 2 == 0 else -cof)
    return total


def field_smith(presentation: PresentationMatrix) -> ElementaryDivisors:
    """Elementary divisors of a presentation with field entries (nvars ==
    0): least-valuation pivots, Schur complements in the base field."""
    work = [list(row) for row in presentation.entries]
    valfn = lambda e: e.val()  # noqa: E731
    vals = [[valfn(e) for e in row] for row in work]
    live_rows = list(range(presentation.rows))
    live_cols = list(range(presentation.cols))
    divisors = []

    while live_rows and live_cols:
        pr = pc = -1
        pivot_val = INF
        for r in live_rows:
            vr = vals[r]
            for c in live_cols:
                if vr[c] < pivot_val:
                    pivot_val = vr[c]
                    pr, pc = r, c
        if pivot_val.is_inf:
            break
        if pivot_val < _ZERO:
            raise InvariantError("Smith pivot left the valuation ring")
        divisors.append(pivot_val)
        piv = work[pr][pc]
        pivot_row = work[pr]
        for r in live_rows:
            if r == pr or vals[r][pc].is_inf:
                continue
            factor = work[r][pc] / piv
            row = work[r]
            vrow = vals[r]
            for c in live_cols:
                if c == pc or vals[pr][c].is_inf:
                    continue
                row[c] = row[c] - factor * pivot_row[c]
                v = valfn(row[c])
                if v < _ZERO:
                    raise InvariantError("Smith elimination left the valuation ring")
                vrow[c] = v
        live_rows.remove(pr)
        live_cols.remove(pc)

    divisors.sort()
    return ElementaryDivisors(tuple(divisors), presentation.rows - len(divisors))


def field_det_val(entries, model) -> Val:
    """Valuation of the determinant of a square matrix of field entries by
    partial-pivot Gaussian elimination in the base field; INF for a
    singular matrix."""
    rows = [[_coerce_entry(e, model, 0) for e in row] for row in entries]
    size = len(rows)
    work = rows
    total = _ZERO
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if not work[r][col].is_zero), None)
        if pivot_row is None:
            return INF
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
        piv = work[col][col]
        total = total + piv.val()
        for r in range(col + 1, size):
            if work[r][col].is_zero:
                continue
            factor = work[r][col] / piv
            for c in range(col + 1, size):
                work[r][c] = work[r][c] - factor * work[col][c]
    return total
