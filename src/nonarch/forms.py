"""Pluriforms in logarithmic coordinates and their norms at monomial points.

A pluriform of type (l, m) on the n-torus is written in the logarithmic
basis: phi = sum over e of phi_e * (dt/t)^e, where e is an m-tuple of
strictly increasing l-subsets of {1..n} and (dt/t)^e is the tensor product
over slots of the wedge of dt_i/t_i for i in the subset.

At a monomial point presented by a chart t_i = g_i(s) with Gauss radii
rho, the logarithmic basis of the s-coordinates is orthonormal, so the
norm of a pulled-back form is the minimum of the Gauss valuations of its
coefficients.  The Gauss valuation is multiplicative, so that minimum is
read from the levels and initial parts of the substitutions and of the
Jacobian minors; the pulled-back coefficients are expanded in full only
when those initial parts cancel.  Both pullback and the norm read the
nonzero minors of the logarithmic Jacobian from one table (_minor_table),
and the full expansion (_expand) reuses the table the norm built.  The
value is the geometric Kahler seminorm whenever the chart is residually
tame; otherwise it is reported as the chart-basis value together with
the certificate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import mul

from .errors import DomainError
from .fields import PI_ADIC_FP, BaseFieldModel, _as_int
from .lattices import _det
from .laurent import LaurentPoly, _add_term, _level, _radii
from .values import INF, Val

__all__ = [
    "MonomialChart",
    "Pluriform",
    "PullbackResult",
    "TameStatus",
    "pullback",
    "kahler_norm_at",
    "tame_certificate",
    "differential",
]


class TameStatus(enum.Enum):
    TAME = "tame"
    WILD = "wild"
    UNKNOWN = "unknown"


class MonomialChart:
    """A monomial point presented through a chart: the substitution
    t_i = g_i(s_1..s_n) together with the Gauss radii of the s-coordinates.
    The g_i must be nonzero, so every t_i is nonzero at the point."""

    __slots__ = ("model", "n", "substitutions", "rho")

    def __init__(self, model: BaseFieldModel, substitutions, rho):
        self.model = model
        subs = tuple(substitutions)
        self.n = len(subs)
        for g in subs:
            if not isinstance(g, LaurentPoly) or g.model != model or g.n != self.n:
                raise DomainError("each substitution must be a Laurent polynomial in the s-variables")
            if g.is_zero:
                raise DomainError("chart substitutions must be nonzero")
        self.substitutions = subs
        self.rho = tuple(Fraction(r) for r in rho)
        if len(self.rho) != self.n:
            raise DomainError("one radius per variable is required")

    @classmethod
    def identity(cls, model, n, rho) -> "MonomialChart":
        n = _as_int(n, "dimension")
        subs = [LaurentPoly.variable(model, n, i) for i in range(1, n + 1)]
        return cls(model, subs, rho)

    def __repr__(self):
        subs = ", ".join(g.to_string("s") for g in self.substitutions)
        return f"<MonomialChart t=({subs}) at rho={self.rho}>"


def _check_subset(s, l, n):
    s = tuple(_as_int(i, "basis index entry") for i in s)
    if len(s) != l or any(not 1 <= i <= n for i in s) or list(s) != sorted(set(s)):
        raise DomainError(f"basis subset {s} is not a strictly increasing {l}-subset of 1..{n}")
    return s


class Pluriform:
    """An element of (Omega^l)^{tensor m} in the logarithmic basis."""

    __slots__ = ("model", "n", "l", "m", "coeffs")

    def __init__(self, model: BaseFieldModel, n: int, l: int, m: int, coeffs):
        n, l, m = _as_int(n, "dimension"), _as_int(l, "wedge degree"), _as_int(m, "tensor power")
        if not 0 <= l <= n:
            raise DomainError(f"wedge degree l={l} out of range 0..{n}")
        if m < 1:
            raise DomainError("tensor power m must be >= 1")
        self.model = model
        self.n = n
        self.l = l
        self.m = m
        clean = {}
        for e, coeff in coeffs.items():
            e = tuple(_check_subset(s, l, n) for s in e)
            if len(e) != m:
                raise DomainError(f"basis index {e} must have {m} tensor slots")
            if not isinstance(coeff, LaurentPoly):
                coeff = LaurentPoly.constant(model, n, coeff)
            if coeff.model != model or coeff.n != n:
                raise DomainError("coefficient ring does not match the form")
            _add_term(clean, e, coeff)
        self.coeffs = clean

    @classmethod
    def canonical(cls, model, n, m=1, coefficient=1) -> "Pluriform":
        """coefficient * (dt_1/t_1 ^ ... ^ dt_n/t_n)^{tensor m}."""
        e = (tuple(range(1, n + 1)),) * m
        return cls(model, n, n, m, {e: LaurentPoly.constant(model, n, coefficient)})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, Pluriform):
            return NotImplemented
        return (
            (self.model, self.n, self.l, self.m) == (other.model, other.n, other.l, other.m)
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        body = ", ".join(f"{e}: {c}" for e, c in sorted(self.coeffs.items()))
        return f"<Pluriform l={self.l} m={self.m} {{{body}}}>"


@dataclass(frozen=True)
class PullbackResult:
    """A pulled-back form with rational-function coefficients, stored as a
    numerator form over one common Laurent denominator."""

    form: Pluriform
    denominator: LaurentPoly


def differential(f: LaurentPoly) -> Pluriform:
    """df as a 1-form in the logarithmic basis: sum_i (t_i df/dt_i) dt_i/t_i."""
    return Pluriform(f.model, f.n, 1, 1, {((i,),): f.log_derivative(i) for i in range(1, f.n + 1)})


def pullback(phi: Pluriform, chart: MonomialChart) -> PullbackResult:
    """Express phi in the logarithmic basis of the chart coordinates.

    Substitutes t_i = g_i(s), rewrites dt_i/t_i via logarithmic derivatives
    as sum_j (s_j dg_i/ds_j / g_i) ds_j/s_j, expands wedges and tensors
    multilinearly, and clears all denominators into one common Laurent
    denominator.  Pullback along the identity chart is the identity, and
    pullback along a composition agrees with composed pullbacks."""
    if phi.model != chart.model or phi.n != chart.n:
        raise DomainError("form and chart live on different tori")
    return _expand(phi, chart, _minor_table(chart, {s for e in phi.coeffs for s in e}, phi.l))


def _slot_counts(e, n) -> list:
    """w_e,i for i = 1..n: the number of slots of the basis index e holding i."""
    return [sum(1 for subset in e if i in subset) for i in range(1, n + 1)]


def _minor_table(chart: MonomialChart, sources, l) -> dict:
    """The nonzero l x l minors of the chart's logarithmic Jacobian
    (s_j dg_i/ds_j), rows from each source subset: {source: [(target,
    minor), ...]} with the target column subsets in lexicographic order.
    The 0 x 0 minor is 1."""
    model, n = chart.model, chart.n
    logd = [[g.log_derivative(j) for j in range(1, n + 1)] for g in chart.substitutions]
    targets = list(combinations(range(1, n + 1), l))
    table = {}
    for source in sources:
        table[source] = []
        for target in targets:
            d = (_det([[logd[i - 1][j - 1] for j in target] for i in source])
                 if l else LaurentPoly.one(model, n))
            if not d.is_zero:
                table[source].append((target, d))
    return table


def _expand(phi: Pluriform, chart: MonomialChart, table) -> PullbackResult:
    """The pullback of phi, given the minor table of its source subsets.
    Over the common denominator prod g_i^(d_i + max_e w_e,i), with d_i the
    largest power of 1/t_i in the coefficients of phi, the coefficient at
    a chart index is the sum, over basis indices e of phi and choices of
    one nonzero minor per slot, of
    phi_e(g) * prod g_i^(d_i + max_e w_e,i - w_e,i) * prod(minors)."""
    model, n = phi.model, phi.n
    slots = {e: _slot_counts(e, n) for e in phi.coeffs}
    w_max = [max(w) for w in zip([0] * n, *slots.values())]
    low, high = [0] * n, [0] * n
    for coeff in phi.coeffs.values():
        for exps in coeff.terms:
            low = list(map(min, low, exps))
            high = list(map(max, high, exps))
    d_sub = [-x for x in low]
    powers = []
    for i, g in enumerate(chart.substitutions):
        pw = [LaurentPoly.one(model, n)]
        for _ in range(d_sub[i] + max(w_max[i], high[i])):
            pw.append(pw[-1] * g)
        powers.append(pw)

    out = {}
    for e, coeff in phi.coeffs.items():
        numerator = LaurentPoly.zero(model, n)
        for exps, a in coeff.terms.items():
            term = LaurentPoly.constant(model, n, a)
            for i, ex in enumerate(exps):
                term = term * powers[i][ex + d_sub[i]]
            numerator = numerator + term
        if numerator.is_zero:
            continue
        fill = LaurentPoly.one(model, n)
        for i, w in enumerate(slots[e]):
            if w_max[i] > w:
                fill = fill * powers[i][w_max[i] - w]
        base = numerator * fill
        for choice in product(*(table[subset] for subset in e)):
            det_prod = base
            for _, d in choice:
                det_prod = det_prod * d
            _add_term(out, tuple(target for target, _ in choice), det_prod)

    denominator = LaurentPoly.one(model, n)
    for i in range(n):
        if d_sub[i] + w_max[i]:
            denominator = denominator * powers[i][d_sub[i] + w_max[i]]

    if len(denominator.terms) == 1:
        (exps, coeff), = denominator.terms.items()
        inv_shift = tuple(-x for x in exps)
        inv_coeff = model.one() / coeff
        out = {e: c.shift(inv_shift).scale(inv_coeff) for e, c in out.items()}
        denominator = LaurentPoly.one(model, n)
    return PullbackResult(Pluriform(model, n, phi.l, phi.m, out), denominator)


def kahler_norm_at(phi: Pluriform, chart: MonomialChart) -> Val:
    """Norm of phi at the monomial point of the chart: the minimum over
    chart basis indices of the Gauss valuation of the pulled-back
    coefficient.  INF exactly for the zero form.

    The coefficient at a chart index is a sum of summands
    a * prod g_i^(I_i - w_e,i) * prod(minors of the logarithmic Jacobian),
    one for each basis index e of phi, term a*t^I of its coefficient and
    choice of nonzero minors (w_e,i counts the slots of e holding i).  The
    minors come from the same table pullback expands.  The Gauss valuation
    is multiplicative, so each summand has an exact level
    val(a) + sum k_i v(g_i) + sum v(minor), an int over the radii's common
    denominator, and the least level L over all chart indices bounds the
    norm from below.  The norm is L unless, at every index attaining L,
    the initial parts of the summands at level L cancel: products of the
    terms at minimal level of the g_i and of the minors, shifted by powers
    of the initial parts of the g_i to clear negative exponents (the
    graded ring is a domain, so neither the products nor the shift can
    vanish).  A single summand at level L needs no product at all.  Only
    when every such sum cancels is phi pulled back in full, from that
    table, to read the norm."""
    if phi.model != chart.model or phi.n != chart.n:
        raise DomainError("form and chart live on different tori")
    n = phi.n
    d, steps = _radii(chart.rho, n)
    initial = [_initial(g, d, steps) for g in chart.substitutions]
    g_level = [level for level, _ in initial]
    g_init = [init for _, init in initial]
    table = _minor_table(chart, {s for e in phi.coeffs for s in e}, phi.l)
    # (target, level, initial part) of each nonzero minor, by source subset
    minors = {source: [(target,) + _initial(minor, d, steps) for target, minor in row]
              for source, row in table.items()}

    low, attaining = None, {}
    for e, coeff in phi.coeffs.items():
        w_e = _slot_counts(e, n)
        terms = []
        for exps, a in coeff.terms.items():
            k = [x - w for x, w in zip(exps, w_e)]
            terms.append((a._int_val() * d + sum(map(mul, k, g_level)), k, a))
        base = min(level for level, _, _ in terms)
        lowest = [(k, a) for level, k, a in terms if level == base]
        for choice in product(*(minors[subset] for subset in e)):
            level = base + sum(c[1] for c in choice)
            if low is None or level < low:
                low, attaining = level, {}
            if level == low:
                combo = tuple(c[0] for c in choice)
                attaining.setdefault(combo, []).append((lowest, [c[2] for c in choice]))
    if low is None:
        return INF
    for summands in attaining.values():
        if ((len(summands) == 1 and len(summands[0][0]) == 1)
                or _initial_sum_survives(summands, g_level, g_init, low, d, steps)):
            return Val(Fraction(low, d))

    pulled = _expand(phi, chart, table)
    if pulled.form.is_zero:
        return INF
    low = min(_level(c, d, steps) for c in pulled.form.coeffs.values())
    return Val(Fraction(low - _level(pulled.denominator, d, steps), d))


def _initial(f: LaurentPoly, d, steps) -> tuple:
    """The level _level(f, d, steps) of a nonzero f, and its initial part:
    the terms of f at that level."""
    levels = {exps: c._int_val() * d + sum(map(mul, exps, steps)) for exps, c in f.terms.items()}
    low = min(levels.values())
    return low, LaurentPoly._of(f.model, f.n, {
        exps: f.terms[exps] for exps, level in levels.items() if level == low})


def _initial_sum_survives(summands, g_level, g_init, low, d, steps) -> bool:
    """Whether the level-`low` initial parts of the summands of one chart
    index add up to a nonzero initial form.  Each summand is a * prod
    in(g_i)^(k_i + s_i) * prod in(minor); the shift s_i clears the negative
    powers of the multi-term in(g_i) and raises every product by the same
    sum s_i v(g_i)."""
    shift = [0] * len(g_init)
    for lowest, _ in summands:
        for k, _ in lowest:
            for i, (x, g) in enumerate(zip(k, g_init)):
                if len(g.terms) > 1:
                    shift[i] = max(shift[i], -x)
    total = None
    for lowest, inits in summands:
        tail = reduce(mul, inits)
        for k, a in lowest:
            f = tail.scale(a)
            for x, s, g in zip(k, shift, g_init):
                if x + s:
                    f = f * g ** (x + s)
            total = f if total is None else total + f
    return not total.is_zero and _initial(total, d, steps)[0] == low + sum(map(mul, shift, g_level))


def tame_certificate(chart: MonomialChart) -> TameStatus:
    """Residual-tameness certificate for the chart.

    For a purely monomial substitution t_i = c_i * s^{L_i} the norm of the
    canonical wedge is |det L|, so the chart is tame iff val(det L) = 0; a
    singular exponent matrix is rejected (not a chart) in every residue
    characteristic.  Otherwise residue characteristic zero is always tame,
    and for general substitutions in positive residue characteristic no
    decision procedure is attempted.  Over a base field of characteristic
    zero a general substitution whose logarithmic Jacobian determinant
    det(s_j dg_i/ds_j) is identically zero is rejected too.  Over F_p(pi)
    that determinant also vanishes for wild monomial charts (det L = 0 mod
    p), so there it is not taken as a test."""
    model = chart.model
    tame_char = model.residue_char == 0
    subs = chart.substitutions
    if any(len(g.terms) != 1 for g in subs):
        full = tuple(range(1, chart.n + 1))
        if model.kind != PI_ADIC_FP and not _minor_table(chart, [full], chart.n)[full]:
            raise DomainError(
                "degenerate substitution: the logarithmic Jacobian determinant is identically zero")
        return TameStatus.TAME if tame_char else TameStatus.UNKNOWN
    exps = [list(next(iter(g.terms))) for g in subs]
    det = _det(exps)
    if det == 0:
        raise DomainError("degenerate monomial substitution: exponent matrix is singular")
    if tame_char:
        return TameStatus.TAME
    v = chart.model.elem(det).val()
    return TameStatus.TAME if v == Val(0) else TameStatus.WILD
