"""Weight norm versus Kahler norm on a family of divisorial points.

The family is Kummer-over-Gauss: over a discretely valued base k, take
l = k(t_1..t_n) with the Gauss valuation at unit radii and adjoin roots
s_j with s_j^{e_j} = t_j for a set of Kummer indices j.  The resulting
field K is discretely valued with the same uniformizer as k, its residue
field is the rational function field over k~, and the coordinates
(s_j for Kummer j, t_i otherwise) are Gauss coordinates at unit radii.

For an m-canonical form phi = g * (dt_1 ^ .. ^ dt_n)^{tensor m}:

* the weight norm is v_K(g) + m * (v(Delta) + v(pi_K)), where Delta is
  the Jacobian determinant of the defining relations, here the product of
  e_j * s_j^{e_j - 1};
* the Kahler norm rewrites dt_j = e_j t_j (ds_j/s_j) and reads the value
  off the orthonormal logarithmic basis: v_K(g) + m * sum v(e_j);
* the two norms differ exactly by m * (1 + log-different of K over k),
  and the latter vanishes on this family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DomainError, InvariantError
from .fields import BaseFieldModel, _as_int
from .laurent import LaurentPoly, _add_term
from .lattices import PresentationMatrix, content
from .values import Val, vmin, vsum

__all__ = [
    "KummerDivisorialSpec",
    "ComparisonReport",
    "weight_norm",
    "kahler_norm_divisorial",
    "log_different",
    "different_kummer_ramified",
    "compare",
]


class KummerDivisorialSpec:
    """The divisorial datum: a discretely valued base model, the dimension
    n, and the Kummer layers (j, e_j) with distinct indices and e_j >= 1.

    Elements of K are written as Laurent polynomials in 2n variables:
    indices 1..n are t_1..t_n and indices n+1..2n are s_1..s_n.  Only the
    s_j with j a Kummer index are meaningful; s-exponents are canonically
    reduced modulo e_j through s_j^{e_j} = t_j."""

    __slots__ = ("model", "n", "kummer")

    def __init__(self, model: BaseFieldModel, n: int, kummer):
        if not model.is_discrete:
            raise DomainError("the weight norm needs a discretely valued base field")
        n = _as_int(n, "dimension")
        if n < 1:
            raise DomainError("dimension must be >= 1")
        pairs = []
        seen = set()
        for j, e in kummer:
            j, e = _as_int(j, "Kummer index"), _as_int(e, "Kummer degree")
            if not 1 <= j <= n:
                raise DomainError(f"Kummer index {j} out of range 1..{n}")
            if j in seen:
                raise DomainError(f"duplicate Kummer index {j}")
            if e < 1:
                raise DomainError(f"Kummer exponent must be >= 1, got {e}")
            seen.add(j)
            pairs.append((j, e))
        self.model = model
        self.n = n
        self.kummer = tuple(sorted(pairs))

    # -- element plumbing ---------------------------------------------------

    def t(self, i: int) -> LaurentPoly:
        if not 1 <= i <= self.n:
            raise DomainError(f"t-index {i} out of range 1..{self.n}")
        return LaurentPoly.variable(self.model, 2 * self.n, i)

    def s(self, j: int) -> LaurentPoly:
        if not any(j == jj for jj, _ in self.kummer):
            raise DomainError(f"s_{j} is undefined: {j} is not a Kummer index")
        return LaurentPoly.variable(self.model, 2 * self.n, self.n + j)

    def one(self) -> LaurentPoly:
        return LaurentPoly.one(self.model, 2 * self.n)

    def reduce(self, g: LaurentPoly) -> LaurentPoly:
        """Canonical form of g in the Gauss coordinates of K: substitute
        t_j = s_j^{e_j} backwards so every s_j-exponent lies in [0, e_j)."""
        if g.model != self.model or g.n != 2 * self.n:
            raise DomainError("element must live in the 2n-variable t,s-ring of this Kummer datum")
        exp_of = dict(self.kummer)
        terms = {}
        for exps, coeff in g.terms.items():
            exps = list(exps)
            for j in range(1, self.n + 1):
                se = exps[self.n + j - 1]
                if se == 0:
                    continue
                if j not in exp_of:
                    raise DomainError(f"s_{j} appears but {j} is not a Kummer index")
                q, r = divmod(se, exp_of[j])
                exps[self.n + j - 1] = r
                exps[j - 1] += q
            _add_term(terms, tuple(exps), coeff)
        return LaurentPoly._of(self.model, 2 * self.n, terms)

    def value(self, g: LaurentPoly) -> Val:
        """v_K(g): all Gauss coordinates have unit radius, so the value is
        the minimal coefficient valuation of the canonical form."""
        reduced = self.reduce(g)
        return vmin(c.val() for c in reduced.terms.values())

    def jacobian_val(self) -> Val:
        """v(Delta) for Delta = prod e_j s_j^{e_j - 1}: the s_j are units,
        so this is the sum of the valuations of the e_j in the base."""
        return vsum(self.model.elem(e).val() for _, e in self.kummer)


@dataclass(frozen=True)
class ComparisonReport:
    wt: Val
    omega: Val
    delta_log_k: Val
    identity_holds: bool


def _nonzero_value(spec: KummerDivisorialSpec, g: LaurentPoly) -> Val:
    v = spec.value(g)
    if v.is_inf:
        raise DomainError("the form coefficient g vanishes in K")
    return v


def weight_norm(spec: KummerDivisorialSpec, g: LaurentPoly, m: int = 1) -> Val:
    """Weight norm of g * (dt_1 ^ .. ^ dt_n)^{tensor m}:
    v_K(g) + m * (v(Delta) + v(pi_K)) with v(pi_K) = 1."""
    m = _as_int(m, "tensor power")
    if m < 1:
        raise DomainError("tensor power m must be >= 1")
    return _nonzero_value(spec, g) + (spec.jacobian_val() + Val(1)) * m


def kahler_norm_divisorial(spec: KummerDivisorialSpec, g: LaurentPoly, m: int = 1) -> Val:
    """Kahler norm of g * (dt_1 ^ .. ^ dt_n)^{tensor m} at the divisorial
    point: rewriting dt_j = e_j t_j (ds_j/s_j) over each Kummer index puts
    the form in the orthonormal logarithmic basis, so the value is
    v_K(g) + m * sum v(e_j) (the t_i are units)."""
    m = _as_int(m, "tensor power")
    if m < 1:
        raise DomainError("tensor power m must be >= 1")
    return _nonzero_value(spec, g) + spec.jacobian_val() * m


def log_different(spec: KummerDivisorialSpec, over: str = "l") -> Val:
    """Content of (the torsion of) the module of logarithmic differentials.

    over='l': the module is presented by the diagonal log-Jacobian
    relations e_j s_j^{e_j} delta(s_j) = 0, and its content is computed by
    the Smith form machinery (independent of the closed form sum v(e_j)).
    over='k': the module is free on this family, so the log different
    vanishes."""
    if over == "k":
        return Val(0)
    if over != "l":
        raise DomainError("over must be 'l' or 'k'")
    layers = spec.kummer
    if not layers:
        return Val(0)
    size = len(layers)
    rows = []
    for a, (j, e) in enumerate(layers):
        row = []
        for b in range(size):
            if a == b:
                exps = tuple(e if k == a else 0 for k in range(size))
                row.append(LaurentPoly.monomial(spec.model, size, exps, e))
            else:
                row.append(LaurentPoly.zero(spec.model, size))
        rows.append(row)
    pres = PresentationMatrix(spec.model, rows, nvars=size, rho=(0,) * size)
    return content(pres)


def different_kummer_ramified(model: BaseFieldModel, e: int) -> Val:
    """Different of the tame totally ramified Kummer layer adjoining an
    e-th root of the uniformizer (gcd(e, p) = 1, e >= 2): the content of
    the one-relation presentation (e * s^{e-1}) with v(s) = 1/e, computed
    through the Smith form.  The result equals (e-1)/e, the additive form
    of the tame-different closed formula."""
    if model.kind != "p-adic-q":
        raise DomainError("this ramified family is defined over the p-adic model")
    e = _as_int(e, "ramification index")
    if e < 2:
        raise DomainError("a ramified Kummer layer needs e >= 2")
    if gcd(e, model.p) != 1:
        raise DomainError(f"gcd(e, p) must be 1, got e={e}, p={model.p}")
    s = LaurentPoly.variable(model, 1, 1)
    pres = PresentationMatrix(model, [[s ** (e - 1) * e]], nvars=1, rho=(Fraction(1, e),))
    result = content(pres)
    if result != Val(Fraction(e - 1, e)):
        raise InvariantError(f"Smith content {result} differs from the closed form 1 - 1/{e}")
    return result


def compare(spec: KummerDivisorialSpec, g: LaurentPoly, m: int = 1) -> ComparisonReport:
    """Verify the weight/Kahler comparison on this family:
    wt = m * (1 + delta_log_k) + omega, exactly."""
    m = _as_int(m, "tensor power")
    wt = weight_norm(spec, g, m)
    omega = kahler_norm_divisorial(spec, g, m)
    delta = log_different(spec, over="k")
    rhs = (Val(1) + delta) * m + omega
    return ComparisonReport(wt, omega, delta, wt == rhs)
