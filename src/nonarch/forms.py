"""Pluriforms in logarithmic coordinates and their norms at monomial points.

A pluriform of type (l, m) on the n-torus is written in the logarithmic
basis: phi = sum over e of phi_e * (dt/t)^e, where e is an m-tuple of
strictly increasing l-subsets of {1..n} and (dt/t)^e is the tensor product
over slots of the wedge of dt_i/t_i for i in the subset.

At a monomial point presented by a chart t_i = g_i(s) with Gauss radii
rho, the logarithmic basis of the s-coordinates is orthonormal, so the
norm of a pulled-back form is the minimum of the Gauss valuations of its
coefficients.  Both pullback and the norm expand those coefficients
(_expand) from one table of the nonzero minors of the logarithmic
Jacobian (_minor_table).  The norm expands them capped: the Gauss
valuation is multiplicative, so at a level margin M only terms that can
reach below the least summand level plus M are kept, and M doubles until
one is kept or nothing was cut.  The value is the geometric Kahler
seminorm whenever the chart is residually tame; otherwise it is reported
as the chart-basis value together with the certificate.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import inf, prod
from operator import mul

from .errors import DomainError
from .fields import PI_ADIC_FP, BaseFieldModel, _as_int, _as_rationals
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
        self.rho = _as_rationals(rho, self.n, "radii")

    @classmethod
    def identity(cls, model, n, rho) -> "MonomialChart":
        n = _as_int(n, "dimension")
        if n < 0:
            raise DomainError("dimension must be nonnegative")
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
    model, n = phi.model, phi.n
    out, den, _ = _expand(phi, chart, _minor_table(chart, {s for e in phi.coeffs for s in e}, phi.l))
    denominator = prod([g ** k for g, k in zip(chart.substitutions, den) if k], start=LaurentPoly.one(model, n))
    if len(denominator.terms) == 1:
        (exps, coeff), = denominator.terms.items()
        shift, inv = tuple(-x for x in exps), model.one() / coeff
        out = {e: c.shift(shift).scale(inv) for e, c in out.items()}
        denominator = LaurentPoly.one(model, n)
    return PullbackResult(Pluriform(model, n, phi.l, phi.m, out), denominator)


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


def _expand(phi: Pluriform, chart: MonomialChart, table, margin=None, radii=None) -> tuple:
    """The pullback of phi, given the minor table of its source subsets, as
    (numerators, den, cap): the coefficients over the common denominator
    prod g_i^den_i, den_i = d_i + max_e w_e,i with d_i the largest power of
    1/t_i in the coefficients of phi.  The coefficient at a chart index
    sums a * prod g_i^(I_i - w_e,i) * prod(minors) over the basis indices
    e of phi, the terms a*t^I of phi_e (added up before the products they
    share) and the choices of one nonzero minor per slot.

    At a margin M, levels are ints over the radii (d, steps) from _radii, and
    each factor has a bound: its level for a product (the graded ring is a
    domain), a lower bound for a sum.  With L the least summand bound and
    cap N = L + M, summands of bound >= N are skipped, and each factor and
    partial product of bound b keeps only its terms below b + M, so the
    coefficients are exact below N (relative to the denominator).  An
    index where a single summand sits at L has level L, since every other
    summand there lies above it: then no product is built and (None, None,
    L) is returned.  The cap is None when nothing was cut or skipped, as
    without a margin."""
    model, n = phi.model, phi.n
    # without a margin d = 0 reads every level as 0: nothing is cut or skipped
    d, steps = (0, [0] * n) if margin is None else radii
    g_level = [_level(g, d, steps) for g in chart.substitutions]
    rows = {source: [(target, minor, _level(minor, d, steps)) for target, minor in row]
            for source, row in table.items()}
    slots, plan = [], []
    for e, coeff in phi.coeffs.items():
        w_e = _slot_counts(e, n)
        slots.append(w_e)
        choices = [(sum([c[2] for c in choice]), choice) for choice in product(*(rows[s] for s in e))]
        if choices:
            shift = sum(map(mul, w_e, g_level))
            terms = [(a._int_val() * d + sum(map(mul, exps, g_level)) - shift, exps, a)
                     for exps, a in coeff.terms.items()]
            plan.append((w_e, terms, min([c[0] for c in choices]), choices))
    cap = inf
    if margin is not None and plan:
        least = min([min([t[0] for t in terms]) + first for _, terms, first, _ in plan])
        cap = least + margin
        at_least = Counter(tuple([c[0] for c in choice]) for _, terms, _, choices in plan
                           for bound, choice in choices for t in terms if t[0] + bound == least)
        if 1 in at_least.values():
            return None, None, least
    w_max = [max(w) for w in zip([0] * n, *slots)]
    low = [min(x) for x in zip([0] * n, *(exps for c in phi.coeffs.values() for exps in c.terms))]
    exact = True

    def cut(f, bound):
        """f without its terms at or above bound + margin; one term is kept."""
        nonlocal exact
        if margin is None or len(f.terms) < 2:
            return f
        kept = {x: c for x, c in f.terms.items() if c._int_val() * d + sum(map(mul, x, steps)) < bound + margin}
        if len(kept) == len(f.terms):
            return f
        exact = False
        return LaurentPoly._of(model, n, kept)

    def times(f, g, bound):
        """f * g, cut at its bound: a product with one term needs no cut."""
        return f * g if len(f.terms) < 2 or len(g.terms) < 2 else cut(f * g, bound)

    g_cut = [cut(g, level) for g, level in zip(chart.substitutions, g_level)]
    powers = {}

    def power(i, k):
        """g_i^k, cut at its level."""
        if (i, k) not in powers:
            powers[i, k] = cut(g_cut[i] ** k, k * g_level[i])
        return powers[i, k]

    out = {}
    for w_e, terms, first, choices in plan:
        kept = [t for t in terms if t[0] + first < cap]
        exact = exact and len(kept) == len(terms)
        if not kept:
            continue
        numerator, bound = LaurentPoly.zero(model, n), inf
        for _, exps, a in kept:
            term, b = LaurentPoly.constant(model, n, a), a._int_val() * d
            for i, x in enumerate(exps):
                if x > low[i]:
                    b += (x - low[i]) * g_level[i]
                    term = times(term, power(i, x - low[i]), b)
            numerator, bound = numerator + term, min(bound, b)
        for i, (w_m, w) in enumerate(zip(w_max, w_e)):
            if w_m > w:
                bound += (w_m - w) * g_level[i]
                numerator = times(numerator, power(i, w_m - w), bound)
        least = min(t[0] for t in kept)
        for level, choice in choices:
            if least + level >= cap:
                exact = False
                continue
            det_prod, b = numerator, bound
            for _, minor, minor_level in choice:
                b += minor_level
                det_prod = times(det_prod, minor, b)
            _add_term(out, tuple(c[0] for c in choice), det_prod)
    return out, [w - x for x, w in zip(low, w_max)], None if exact else cap


def kahler_norm_at(phi: Pluriform, chart: MonomialChart) -> Val:
    """Norm of phi at the monomial point of the chart: the minimum over
    chart basis indices of the Gauss valuation of the pulled-back
    coefficient.  INF exactly for the zero form.

    The coefficient at a chart index is a sum of summands
    a * prod g_i^(I_i - w_e,i) * prod(minors of the logarithmic Jacobian),
    one for each basis index e of phi, term a*t^I of its coefficient and
    choice of nonzero minors (w_e,i counts the slots of e holding i).  The
    Gauss valuation is multiplicative, so each summand has an exact level,
    and the least, L, bounds the norm from below.  _expand at the margins
    M = 1, 2, 4, ... is exact below L + M, so the first margin with a term
    below L + M gives the norm.  Margin 1 keeps the initial parts, and
    reads L with no product where one summand sits alone at L at an index.
    A margin that cut and skipped nothing is the full pullback, where the
    ladder ends, at INF if it is empty.  One minor table serves every
    margin."""
    if phi.model != chart.model or phi.n != chart.n:
        raise DomainError("form and chart live on different tori")
    radii = d, steps = _radii(chart.rho, phi.n)
    table = _minor_table(chart, {s for e in phi.coeffs for s in e}, phi.l)
    margin = 1
    while True:
        out, den, cap = _expand(phi, chart, table, margin, radii)
        if out is None:
            return Val(Fraction(cap, d))
        low = min((_level(f, d, steps) for f in out.values()), default=inf) - sum(
            k * _level(g, d, steps) for g, k in zip(chart.substitutions, den))
        if cap is None or low < cap:
            return INF if low == inf else Val(Fraction(low, d))
        margin *= 2


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
