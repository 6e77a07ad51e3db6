"""Smith normal form over valuation rings, elementary divisors, content of
finitely presented modules, semilattice index, and the adic seminorm.

Over a valuation ring the ideals are totally ordered, so any entry of
minimal valuation divides every other entry.  Diagonalization therefore
needs a single pass: pick the minimal-valuation entry as pivot, clear its
column by exact field division, and recurse on the Schur complement (the
pivot row is cleared implicitly, since column operations on a cleared
column no longer touch the complement).

Matrix entries may be plain base-field elements or Laurent polynomials in
auxiliary variables carrying fixed Gauss radii; in the latter case entry
valuations are generalized Gauss valuations and intermediate entries are
exact ratios of Laurent polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InvariantError
from .fields import BaseFieldModel, FieldElement
from .laurent import LaurentPoly, gauss_val, gauss_val_rational
from .values import INF, Val, vsum

__all__ = [
    "PresentationMatrix",
    "ElementaryDivisors",
    "smith",
    "content",
    "semilattice_index",
    "det_val",
    "adic_norm",
]

_ZERO = Val(0)


class _Ratio:
    """Exact ratio of two Laurent polynomials, the working ring of the
    elimination when auxiliary Gauss variables are present.  A single-term
    denominator is folded into the numerator."""

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


def _coerce_entry(value, model: BaseFieldModel, nvars: int):
    """Normalize an entry: FieldElement when nvars == 0, LaurentPoly else."""
    if isinstance(value, LaurentPoly):
        if value.model != model:
            raise DomainError("matrix entry over a different base field")
        if nvars == 0:
            if value.n != 0:
                raise DomainError("matrix entry has auxiliary variables but nvars = 0")
            return value.terms.get((), model.zero())
        if value.n != nvars:
            raise DomainError(f"matrix entry has {value.n} variables, expected {nvars}")
        return value
    if isinstance(value, (FieldElement, int, Fraction)):
        elem = model.elem(value)
        if nvars == 0:
            return elem
        return LaurentPoly.constant(model, nvars, elem)
    raise DomainError(f"cannot use {type(value).__name__} as a matrix entry")


class PresentationMatrix:
    """An m x l matrix over the valuation ring K°, presenting the module
    K°^m / (column span).  Entry valuations must be >= 0; this is checked
    at construction."""

    def __init__(self, model: BaseFieldModel, entries, nvars: int = 0, rho=()):
        self.model = model
        self.nvars = int(nvars)
        self.rho = tuple(Fraction(r) for r in rho)
        if len(self.rho) != self.nvars:
            raise DomainError("one Gauss radius per auxiliary variable is required")
        rows = [tuple(_coerce_entry(e, model, self.nvars) for e in row) for row in entries]
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        if any(len(r) != self.cols for r in rows):
            raise DomainError("ragged matrix")
        valfn = self._valfn()
        for r in rows:
            for entry in r:
                if valfn(entry) < _ZERO:
                    raise DomainError(
                        "presentation entries must lie in the valuation ring (valuation >= 0)"
                    )
        self.entries = tuple(rows)

    def _valfn(self):
        if self.nvars == 0:
            return lambda e: e.val()
        rho = self.rho
        return lambda e: gauss_val(e, rho)

    @classmethod
    def from_rows(cls, model, entries) -> "PresentationMatrix":
        """Presentation with plain base-field entries."""
        return cls(model, entries, nvars=0, rho=())


@dataclass(frozen=True)
class ElementaryDivisors:
    """Valuations of a diagonal form: ascending, finite, >= 0; free_rank
    counts the diagonal-free directions."""

    divisors: tuple
    free_rank: int

    def __post_init__(self):
        object.__setattr__(self, "divisors", tuple(Val(d) for d in self.divisors))
        if any(d.is_inf or d < _ZERO for d in self.divisors):
            raise DomainError("elementary divisors must be finite and >= 0")
        if list(self.divisors) != sorted(self.divisors):
            raise DomainError("elementary divisors must be ascending")
        if self.free_rank < 0:
            raise DomainError("free rank must be >= 0")

    @property
    def rank(self) -> int:
        return self.free_rank + len(self.divisors)


def _working_matrix(presentation: PresentationMatrix):
    """Elimination ring elements plus a valuation callback."""
    if presentation.nvars == 0:
        work = [list(row) for row in presentation.entries]
        return work, (lambda e: e.val())
    one = LaurentPoly.one(presentation.model, presentation.nvars)
    work = [[_Ratio(e, one) for e in row] for row in presentation.entries]
    rho = presentation.rho
    return work, (lambda e: e.val(rho))


def smith(presentation: PresentationMatrix) -> ElementaryDivisors:
    """Elementary divisors of the presented module.

    Pivots are chosen with minimal valuation, ties broken by row-major
    position; every intermediate entry provably stays in K° (checked)."""
    work, valfn = _working_matrix(presentation)
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


def content(presentation: PresentationMatrix) -> Val:
    """Content of the presented module: the sum of the elementary divisors
    for a torsion module, INF otherwise (a free direction survives)."""
    d = smith(presentation)
    if d.free_rank > 0:
        return INF
    return vsum(d.divisors)


def det_val(entries, model: BaseFieldModel, nvars: int = 0, rho=()) -> Val:
    """Valuation of the determinant of a square matrix over the field,
    via exact Gaussian elimination; INF for a singular matrix."""
    rho = tuple(Fraction(r) for r in rho)
    if len(rho) != nvars:
        raise DomainError("one Gauss radius per auxiliary variable is required")
    rows = [[_coerce_entry(e, model, nvars) for e in row] for row in entries]
    size = len(rows)
    if any(len(r) != size for r in rows):
        raise DomainError("determinant requires a square matrix")
    if nvars == 0:
        work = rows
        valfn = lambda e: e.val()  # noqa: E731
    else:
        one = LaurentPoly.one(model, nvars)
        work = [[_Ratio(e, one) for e in row] for row in rows]
        valfn = lambda e: e.val(rho)  # noqa: E731
    total = _ZERO
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if not work[r][col].is_zero), None)
        if pivot_row is None:
            return INF
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
        piv = work[col][col]
        total = total + valfn(piv)
        for r in range(col + 1, size):
            if work[r][col].is_zero:
                continue
            factor = work[r][col] / piv
            for c in range(col + 1, size):
                work[r][c] = work[r][c] - factor * work[col][c]
    return total


def semilattice_index(m_entries, l_entries, model: BaseFieldModel, nvars: int = 0, rho=()) -> Val:
    """Index [M:L] of the semilattices spanned by the columns of two square
    nonsingular matrices: v(det M) - v(det L)."""
    vm = det_val(m_entries, model, nvars, rho)
    vl = det_val(l_entries, model, nvars, rho)
    if vm.is_inf or vl.is_inf:
        raise DomainError("semilattice index requires nonsingular matrices")
    return vm - vl


def adic_norm(divisors: ElementaryDivisors, coords, model: BaseFieldModel) -> Val:
    """Adic seminorm of an element of K°^free_rank + sum K°/pi_i, given by
    coordinates (free part first).  INF exactly when the element is
    divisible, i.e. zero in the free part and zero in every torsion
    component."""
    coords = [model.elem(c) for c in coords]
    if len(coords) != divisors.rank:
        raise DomainError(
            f"expected {divisors.rank} coordinates (free part first), got {len(coords)}"
        )
    best = INF
    for x in coords[: divisors.free_rank]:
        v = x.val()
        if v < _ZERO:
            raise DomainError("coordinates must lie in the valuation ring")
        best = min(best, v)
    for x, d in zip(coords[divisors.free_rank:], divisors.divisors):
        v = x.val()
        if v < _ZERO:
            raise DomainError("coordinates must lie in the valuation ring")
        if v < d:
            best = min(best, v)
    return best
