"""Pullbacks of pluriforms and their norms at monomial points, computed
in sympy from the definitions.  Kept as the oracle test_forms_oracle.py
holds nonarch.forms.pullback and nonarch.forms.kahler_norm_at to.

Polynomials live in sympy's ring in s_1..s_n (and pi on the pi-adic
models) over QQ, or over GF(p) for F_p(pi).  A rational function is a
_Quotient: a numerator over a product of powers of polynomial factors,
never put in lowest terms, because sympy's multivariate gcd over GF(p)
can take a minute on one small example.  Two functions are equal when
the numerator of their difference is zero.  The substitutions
t_i = g_i(s) are read from their terms; the logarithmic Jacobian
s_j dg_i/ds_j / g_i is taken with sympy's derivative, its minors are
sympy determinants, and each pulled-back coefficient is the rational
function

    sum over basis indices e of phi_e(g(s)) * prod over slots of
    det(J[source subset, target subset]).

Its Gauss level is written out here: the least ord(c) + <e, rho> over the
terms c*s^e of the numerator less the same over each denominator factor,
with ord the p-adic order over Q_p, the least pi-degree over Q(pi) and
F_p(pi), and 0 over the trivially valued Q.  That difference is the level
in or out of lowest terms, since the Gauss valuation is multiplicative.
Nothing here reads nonarch.forms, nonarch.laurent's levels or
nonarch.lattices.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

import sympy
from sympy.polys.matrices import DomainMatrix

from nonarch.values import INF, Val

__all__ = ["Oracle"]


def _lcm(dens):
    """The least common multiple of factored denominators, taken factor
    by factor: {f: k} stands for prod f ** k."""
    out = {}
    for den in dens:
        for f, k in den.items():
            out[f] = max(out.get(f, 0), k)
    return out


class _Quotient:
    """num / prod(f ** k for f, k in den.items()) for polynomials num, f."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=()):
        self.num, self.den = num, dict(den)

    def over(self, den):
        """The numerator over den, a multiple of this denominator."""
        num = self.num
        for f, k in den.items():
            num *= f ** (k - self.den.get(f, 0))
        return num

    def __add__(self, other):
        den = _lcm([self.den, other.den])
        return _Quotient(self.over(den) + other.over(den), den)

    def __mul__(self, other):
        den = dict(self.den)
        for f, k in other.den.items():
            den[f] = den.get(f, 0) + k
        return _Quotient(self.num * other.num, den)

    def __pow__(self, k):
        """A power, negative only for a nonzero quotient."""
        num, den = self.num, self.den
        if k < 0:
            num, den, k = _Quotient(num.ring.one).over(den), {num: 1}, -k
        return _Quotient(num ** k, {f: e * k for f, e in den.items()})

    def diff(self, x):
        """The derivative in x, by the quotient rule."""
        den = _Quotient(self.num.ring.one).over(self.den)
        return _Quotient(self.num.diff(x) * den - self.num * den.diff(x),
                         {f: 2 * k for f, k in self.den.items()})


class Oracle:
    """The pullback of phi along the chart, one rational function per
    chart basis index (every m-tuple of l-subsets of 1..n)."""

    def __init__(self, phi, chart):
        model, n = chart.model, chart.n
        self.model, self.n, self.rho = model, n, [Fraction(r) for r in chart.rho]
        names = [f"s{i}" for i in range(1, n + 1)] + (["pi"] if model.has_pi else [])
        domain = sympy.GF(model.p) if model.kind == "pi-adic-fp" else sympy.QQ
        self.ring, *gens = sympy.ring(",".join(names), domain)
        self.s, self.pi = gens[:n], (gens[n] if model.has_pi else None)
        g = [self.laurent(gi) for gi in chart.substitutions]
        # row i of the Jacobian as numerators over one denominator
        jac = []
        for g_i in g:
            row = [_Quotient(s_j) * g_i.diff(s_j) * g_i ** -1 for s_j in self.s]
            den = _lcm([q.den for q in row])
            jac.append(([q.over(den) for q in row], den))
        minors = {}

        def minor(source, target):
            if (source, target) not in minors:
                rows = [[jac[i - 1][0][j - 1] for j in target] for i in source]
                det = _Quotient(DomainMatrix(rows, (len(source),) * 2, self.ring.to_domain()).det()
                                if source else self.ring.one)
                for i in source:
                    det *= _Quotient(self.ring.one, jac[i - 1][1])
                minors[source, target] = det
            return minors[source, target]

        subsets = list(combinations(range(1, n + 1), phi.l))
        zero = _Quotient(self.ring.zero)
        self.coeffs = {index: zero for index in product(subsets, repeat=phi.m)}
        for e, coeff in phi.coeffs.items():
            value = zero
            for exps, a in coeff.terms.items():
                term = self.element(a)
                for g_i, x in zip(g, exps):
                    term *= g_i ** x
                value += term
            for index in self.coeffs:
                term = value
                for source, target in zip(e, index):
                    term *= minor(source, target)
                self.coeffs[index] += term

    def element(self, c):
        """A field element from its int payload: num(pi)/den(pi)."""
        num, den = (sum((a * self.pi ** k if k else self.ring(a) for k, a in enumerate(part)), self.ring.zero)
                    for part in (c.num, c.den))
        return _Quotient(num, {den: 1})

    def laurent(self, f):
        out = _Quotient(self.ring.zero)
        for exps, c in f.terms.items():
            term = self.element(c)
            for s_j, x in zip(self.s, exps):
                term *= _Quotient(s_j) ** x
            out += term
        return out

    def _level(self, poly):
        """The least ord(c) + <e, rho> over the terms of a nonzero
        polynomial, the pi-degree counted in ord on the pi-adic models."""
        n, best = self.n, None
        for monom, c in poly.terms():
            level = sum(Fraction(x) * r for x, r in zip(monom[:n], self.rho))
            if self.model.has_pi:
                level += monom[n]
            elif self.model.kind == "p-adic-q":
                level += _padic(int(c.numerator), self.model.p) - _padic(int(c.denominator), self.model.p)
            best = level if best is None else min(best, level)
        return best

    def level(self, f) -> Val:
        """The Gauss valuation of a rational function; INF for 0."""
        if not f.num:
            return INF
        return Val(self._level(f.num) - sum(k * self._level(factor) for factor, k in f.den.items()))

    def norm(self) -> Val:
        """The least Gauss valuation over the pulled-back coefficients."""
        return min((self.level(f) for f in self.coeffs.values()), default=INF)

    def agrees_with(self, result) -> bool:
        """Whether a PullbackResult holds these coefficients: each numerator
        coefficient over its denominator equals the oracle's function."""
        den = self.laurent(result.denominator) * _Quotient(-self.ring.one)
        got = result.form.coeffs
        return set(got) <= set(self.coeffs) and not any(
            ((self.laurent(got[index]) if index in got else _Quotient(self.ring.zero)) + f * den).num
            for index, f in self.coeffs.items())


def _padic(k, p) -> int:
    v = 0
    while k % p == 0:
        k //= p
        v += 1
    return v
