"""Smith normal form over valuation rings, elementary divisors, content of
finitely presented modules, semilattice index, and the adic seminorm.

Over a valuation ring the ideals are totally ordered, so an entry of
minimal valuation divides every other entry.  One elimination kernel
(_bareiss, fraction-free with least-valuation pivots) serves every
matrix: each intermediate entry is a minor of the input, the k-th pivot
d_k has the least valuation of any k x k minor, and each elementary
divisor is the difference v(d_k) - v(d_(k-1)) of two successive pivots.
So the content of a torsion module, the sum of its divisors, is v(d_r),
the last pivot's valuation (r the number of rows), and content builds no
divisors.  The kernel keeps no valuations: each step's pivot search reads
those of the live entries once.  PresentationMatrix runs it once and keeps
only the pivot valuations; det_val reads v(d_n) from the same pass.

Matrix entries may be plain base-field elements or Laurent polynomials in
auxiliary variables carrying fixed Gauss radii; in the latter case entry
valuations are generalized Gauss valuations.  The kernel runs on ints for
the rational models (each row scaled by the lcm of its denominators), on
int tuples, the coefficients of polynomials in Z[pi] or F_p[pi], for the
pi-adic ones (each row scaled by the product of its distinct
denominators), where every division is an exact polynomial division and
no gcd runs, and on Laurent polynomials otherwise (_kernel_rows).  Each
ring has one step callable for the kernel's update, and no field element
is built in the loop.  Every valuation read is an int, over the radii's
common denominator for Laurent entries.  The kernel also gives forms exact
determinants of 4 x 4 and larger matrices (_det) and tropical the pivot
columns of constraint matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DomainError, InvariantError
from .fields import (BaseFieldModel, FieldElement, _as_int, _int_padic, _pdiv_exact, _pmul,
                     _pord, _psub)
from .laurent import LaurentPoly, _exact_quotient, _level, _radii
from .values import INF, Val

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


def _coerce_entry(value, model: BaseFieldModel, nvars: int):
    """Normalize an entry: FieldElement when nvars == 0, LaurentPoly else."""
    if nvars == 0 and type(value) is FieldElement and value.model is model:
        return value
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


def _coerce_rows(entries, model: BaseFieldModel, nvars, rho):
    """(nvars, rho, rows): the checked input of PresentationMatrix and
    det_val, rows as lists of coerced entries the kernel may overwrite."""
    nvars = _as_int(nvars, "number of variables")
    if nvars < 0:
        raise DomainError("number of variables must be nonnegative")
    try:
        rho = tuple(Fraction(r) for r in rho)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"radii {rho!r} are not a vector of rational numbers") from exc
    if len(rho) != nvars:
        raise DomainError("one Gauss radius per auxiliary variable is required")
    try:
        rows = [list(row) for row in entries]
    except TypeError as exc:
        raise DomainError(f"matrix {entries!r} is not a sequence of rows of entries") from exc
    return nvars, rho, [[_coerce_entry(e, model, nvars) for e in row] for row in rows]


class PresentationMatrix:
    """An m x l matrix over the valuation ring K°, presenting the module
    K°^m / (column span).  Construction runs the kernel once and keeps its
    pivot valuations.  An entry outside K° shows as a row scaling of positive
    valuation (field entries are in lowest terms) or a negative first pivot."""

    def __init__(self, model: BaseFieldModel, entries, nvars: int = 0, rho=()):
        self.model = model
        self.nvars, self.rho, rows = _coerce_rows(entries, model, nvars, rho)
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        if any(len(r) != self.cols for r in rows):
            raise DomainError("ragged matrix")
        self.entries = tuple(map(tuple, rows))
        work, step, valfn, shift, self._d = _kernel_rows(rows, model, self.rho)
        self._vals = vals = _bareiss(work, step, valfn)[2]
        if shift or vals and vals[0] < 0:
            raise DomainError("presentation entries must lie in the valuation ring (valuation >= 0)")
        if any(v < last for v, last in zip(vals[1:], vals)):
            raise InvariantError("Smith pivot left the valuation ring")

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
        qs = [None if d.is_inf else d.fraction for d in self.divisors]
        if any(q is None or q < 0 for q in qs):
            raise DomainError("elementary divisors must be finite and >= 0")
        if qs != sorted(qs):
            raise DomainError("elementary divisors must be ascending")
        object.__setattr__(self, "free_rank", _as_int(self.free_rank, "free rank"))
        if self.free_rank < 0:
            raise DomainError("free rank must be >= 0")

    @property
    def rank(self) -> int:
        return self.free_rank + len(self.divisors)


def _bareiss(work, step, valfn=None):
    """Fraction-free Gaussian elimination (Bareiss, 1968) with full
    pivoting, in place on a matrix over one ring: ints, int tuples (the
    polynomials of _poly_step) or Laurent polynomials.

    Step k picks a pivot d_k in the live block, retires its row and column
    and sets every other live entry a_ij to step(d_k, a_ij, a_ip, a_pj,
    d_(k-1)) = (d_k a_ij - a_ip a_pj) / d_(k-1), with d_(k-1) None for
    k = 1 (no division).  A live entry is then the minor on the retired
    rows and columns plus its own, so every division is exact (an inexact
    one raises InvariantError in step) and d_k is a k x k minor.  With
    valfn, the int valuation of a nonzero entry (_pord of a tuple, a
    Laurent entry's laurent._level), the pivot is the nonzero live entry
    of least valfn value (ties by row-major position), so v(d_k) is the
    least valuation of any k x k minor; each step calls valfn once on
    every nonzero live entry.  Without valfn the pivot is the first
    nonzero live entry.

    Returns (positions, sign, vals): the pivot positions (row, col) until
    the live block is zero or empty, the sign of the row and column
    permutations, so that sign * d_n is the determinant of a nonsingular
    n x n matrix, and with valfn the pivot valuations v(d_k) (else [])."""
    live_rows = list(range(len(work)))
    live_cols = list(range(len(work[0]))) if work else []
    positions, vals = [], []
    prev = None
    sign = 1
    while live_rows and live_cols:
        if valfn is None:
            at = next(((r, c) for r in live_rows for c in live_cols if work[r][c]), None)
            if at is None:
                break
            pr, pc = at
        else:
            best, pr, pc = None, -1, -1
            for r in live_rows:
                row = work[r]
                for c in live_cols:
                    x = row[c]
                    if x:
                        v = valfn(x)
                        if best is None or v < best:
                            best, pr, pc = v, r, c
            if best is None:
                break
            vals.append(best)
        i, j = live_rows.index(pr), live_cols.index(pc)
        if (i + j) & 1:
            sign = -sign
        del live_rows[i], live_cols[j]
        positions.append((pr, pc))
        top = work[pr]
        piv = top[pc]
        for r in live_rows:
            row = work[r]
            a = row[pc]
            for c in live_cols:
                row[c] = step(piv, row[c], a, top[c], prev)
        prev = piv
    return positions, sign, vals


def _int_step(piv, x, a, y, prev):
    """The kernel's step over Z."""
    new = piv * x - a * y
    if prev is None:
        return new
    new, rem = divmod(new, prev)
    if rem:
        raise InvariantError("inexact integer division in the elimination kernel")
    return new


def _poly_step(p):
    """The kernel's step over Z[pi] (p = 0) or F_p[pi], on coefficient
    tuples (fields._pstrip form, () for 0); _pdiv_exact refuses an
    inexact division."""
    def step(piv, x, a, y, prev):
        new = _pmul(piv, x, p)
        if a and y:
            new = _psub(new, _pmul(a, y, p), p)
        if prev is None or not new:
            return new
        return _pdiv_exact(new, prev, p)
    return step


def _laurent_step(piv, x, a, y, prev):
    """The kernel's step over Laurent polynomials; _exact_quotient refuses
    an inexact division."""
    new = piv * x if x else x
    if a and y:
        new = new - a * y
    if prev is None or not new:
        return new
    return _exact_quotient(new, prev)


def _kernel_rows(rows, model: BaseFieldModel, rho):
    """(work, step, valfn, shift, d): the kernel's rows (those of rows
    where no scale applies) and its step over their ring, and as ints over
    d the valuation of a nonzero entry and the one the row scaling adds to
    every n x n minor.

    Rows over trivial_q and p_adic_q become ints, each scaled by the lcm
    of its denominators.  Over the pi-adic models each row is scaled by
    the product of its distinct denominators, so every entry is a
    polynomial in Z[pi] or F_p[pi], kept as its int coefficient tuple (a
    row without denominators as its numerators) and valued by _pord.  For
    entries in K° every scale is a unit, and d = 1.  Laurent entries (rho
    nonempty) stay Laurent polynomials, unscaled, valued by laurent._level
    at the radii prepared here once, over their common denominator d."""
    if rho:
        d, steps = _radii(rho, len(rho))
        return rows, _laurent_step, lambda e: _level(e, d, steps), 0, d
    work, shift = [], 0
    if model.has_pi:
        p = model._char
        for row in rows:
            dens = dict.fromkeys(e.den for e in row if e.den != (1,))
            if dens:
                work.append([_cofactor_num(e, dens, p) for e in row])
                shift += sum(_pord(d) for d in dens)
            else:
                work.append([e.num for e in row])
        return work, _poly_step(p), _pord, shift, 1
    p = model.p
    for row in rows:
        scale = lcm(*(e.den[0] for e in row))
        work.append([e.num[0] * (scale // e.den[0]) if e.num else 0 for e in row])
        if p:
            shift += _int_padic(scale, p)
    if p:
        return work, _int_step, lambda n: _int_padic(n, p), shift, 1
    return work, _int_step, lambda n: 0, 0, 1


def _cofactor_num(e: FieldElement, dens, p):
    """e times the product of the distinct denominators dens (e's own among
    them unless e.den == (1,)), as a polynomial: e's numerator times every
    other denominator."""
    num = e.num
    for d in dens:
        if num and d != e.den:
            num = _pmul(num, d, p)
    return num


def _det(rows):
    """Exact determinant of a square matrix of ints, or of a nonempty one
    of Laurent polynomials: up to 3 x 3 by cofactor expansion, larger by
    the kernel."""
    if len(rows) < 2:
        return rows[0][0] if rows else 1
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if len(rows) == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    work = [list(r) for r in rows]
    positions, sign, _ = _bareiss(work, _int_step if isinstance(rows[0][0], int) else _laurent_step)
    if len(positions) < len(work):
        return work[0][0] - work[0][0]  # the zero of the entries' ring
    r, c = positions[-1]
    return work[r][c] if sign > 0 else -work[r][c]


def smith(presentation: PresentationMatrix) -> ElementaryDivisors:
    """Elementary divisors of the presented module: the differences of the
    kernel's successive pivot valuations, ascending.  Construction has
    checked that the first pivot is >= 0 and that none falls below its
    predecessor, so the divisors skip ElementaryDivisors' re-validation."""
    vals, d = presentation._vals, presentation._d
    out = object.__new__(ElementaryDivisors)
    object.__setattr__(out, "divisors", tuple(
        Val(Fraction(v, d)) for v in sorted(v - last for v, last in zip(vals, [0, *vals]))))
    object.__setattr__(out, "free_rank", presentation.rows - len(vals))
    return out


def content(presentation: PresentationMatrix) -> Val:
    """Content of the presented module: for a torsion module the sum of
    the elementary divisors, which telescopes to v(d_r), the valuation of
    the last pivot (r the number of rows; 0 for no rows); INF otherwise (a
    free direction survives)."""
    vals = presentation._vals
    if len(vals) < presentation.rows:
        return INF
    return Val(Fraction(vals[-1], presentation._d)) if vals else _ZERO


def det_val(entries, model: BaseFieldModel, nvars: int = 0, rho=()) -> Val:
    """Valuation of the determinant of a square matrix over the field: the
    last pivot's v(d_n) from the kernel's pass, less the row scaling's
    valuation; INF for a singular matrix (fewer than n pivots)."""
    nvars, rho, rows = _coerce_rows(entries, model, nvars, rho)
    size = len(rows)
    if any(len(r) != size for r in rows):
        raise DomainError("determinant requires a square matrix")
    work, step, valfn, shift, d = _kernel_rows(rows, model, rho)
    vals = _bareiss(work, step, valfn)[2]
    if len(vals) < size:
        return INF
    return Val(Fraction(vals[-1] - shift, d)) if vals else _ZERO


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
    for x, d in zip(coords, (INF,) * divisors.free_rank + divisors.divisors):
        v = x.val()
        if v < _ZERO:
            raise DomainError("coordinates must lie in the valuation ring")
        if v < d:
            best = min(best, v)
    return best
