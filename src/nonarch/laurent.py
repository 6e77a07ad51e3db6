"""Laurent polynomials over a base-field model, and generalized Gauss
(monomial) valuations.

A Laurent polynomial is a finite map from exponent vectors in Z^n to
nonzero field elements.  The generalized Gauss valuation attached to a
tuple of rational radii ``rho`` evaluates term-wise:

    gauss_val(sum a_I t^I, rho) = min over I of ( val(a_I) + <I, rho> ),

which is the additive form of ``|sum a_i t^i|_r = max |a_i| r^i``.  The
valuation is multiplicative on products, so it extends to ratios of
Laurent polynomials by subtraction.

Laurent polynomials, the parser's partial sums, Kummer reductions and the
coefficients of pluriforms are all term dicts under one rule: a repeated
key adds, and a zero is never stored, so ``==``, ``hash``, ``is_zero`` and
``gauss_val`` may read a dict as it stands.  _add_term is the one place
that applies the rule.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul, sub

from .errors import DomainError, InvariantError
from .fields import BaseFieldModel, FieldElement, _as_int, _scale_to_ints
from .values import INF, Val

__all__ = ["LaurentPoly", "gauss_val", "gauss_val_rational", "log_derivative"]


def _add_term(terms: dict, key, value) -> None:
    """Add value at key in a term dict: a zero is never stored, and a key
    whose sum cancels is deleted."""
    acc = terms.get(key)
    if acc is not None:
        value = acc + value
    if value.is_zero:
        terms.pop(key, None)
    else:
        terms[key] = value


class LaurentPoly:
    """Finite-support Laurent polynomial in n variables.

    Terms are held as a dict from exponent tuples (length n, ints, may be
    negative) to nonzero FieldElement coefficients, built by _add_term.
    Non-integral exponents are refused, not truncated.
    """

    __slots__ = ("model", "n", "terms")

    def __init__(self, model: BaseFieldModel, n: int, terms=None):
        n = _as_int(n, "number of variables")
        if n < 0:
            raise DomainError("number of variables must be nonnegative")
        self.model = model
        self.n = n
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(map(_as_int, exps))
            if len(exps) != n:
                raise DomainError(f"exponent vector {exps} has wrong length (expected {n})")
            _add_term(clean, exps, model.elem(coeff))
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, model, n, value) -> "LaurentPoly":
        return cls(model, n, {(0,) * n: model.elem(value)})

    @classmethod
    def zero(cls, model, n) -> "LaurentPoly":
        return cls(model, n, {})

    @classmethod
    def _of(cls, model, n, terms: dict) -> "LaurentPoly":
        """Wrap a terms dict that is already clean (exponent tuples of
        length n, nonzero coefficients of the model); no copy, no check."""
        out = cls.__new__(cls)
        out.model = model
        out.n = n
        out.terms = terms
        return out

    @classmethod
    def one(cls, model, n) -> "LaurentPoly":
        return cls.constant(model, n, 1)

    @classmethod
    def variable(cls, model, n, i) -> "LaurentPoly":
        """The i-th variable (1-based)."""
        if not 1 <= i <= n:
            raise DomainError(f"variable index {i} out of range 1..{n}")
        exps = tuple(1 if k == i - 1 else 0 for k in range(n))
        return cls(model, n, {exps: model.elem(1)})

    @classmethod
    def monomial(cls, model, n, exps, coeff=1) -> "LaurentPoly":
        return cls(model, n, {tuple(exps): model.elem(coeff)})

    # -- ring operations ----------------------------------------------------

    def _check(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction, FieldElement)):
            return LaurentPoly.constant(self.model, self.n, other)
        if not isinstance(other, LaurentPoly):
            raise TypeError(f"cannot combine LaurentPoly with {type(other).__name__}")
        if other.model != self.model or other.n != self.n:
            raise DomainError("mixed Laurent rings")
        return other

    def __add__(self, other):
        other = self._check(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            _add_term(terms, exps, coeff)
        return LaurentPoly._of(self.model, self.n, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._of(self.model, self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _add_term(terms, tuple(map(add, e1, e2)), c1 * c2)
        return LaurentPoly._of(self.model, self.n, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        k = _as_int(k)
        if len(self.terms) == 1:
            # c*t^I goes straight to c^k*t^(kI), for every integer k
            (exps, coeff), = self.terms.items()
            return LaurentPoly._of(self.model, self.n, {tuple(k * e for e in exps): coeff ** k})
        if k < 0:
            raise DomainError("negative powers require a single-term Laurent polynomial")
        result = LaurentPoly.one(self.model, self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, (LaurentPoly, int, Fraction, FieldElement)):
            return NotImplemented
        try:
            other = self._check(other)
        except DomainError:
            if not isinstance(other, (int, Fraction)):
                raise
            return False  # a rational with no image in F_p
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.model, self.n, frozenset(self.terms.items())))

    # -- calculus ----------------------------------------------------------

    def log_derivative(self, i: int) -> "LaurentPoly":
        """The logarithmic derivative t_i * d/dt_i (1-based index):
        sum a_I t^I  |->  sum I_i a_I t^I.  Satisfies the Leibniz rule."""
        if not 1 <= i <= self.n:
            raise DomainError(f"variable index {i} out of range 1..{self.n}")
        terms = {}
        for exps, coeff in self.terms.items():
            _add_term(terms, exps, coeff * exps[i - 1])
        return LaurentPoly._of(self.model, self.n, terms)

    def shift(self, exps) -> "LaurentPoly":
        """Multiply by the monomial t^exps (exact, always invertible)."""
        exps = tuple(map(_as_int, exps))
        if len(exps) != self.n:
            raise DomainError("shift vector has wrong length")
        return LaurentPoly._of(
            self.model, self.n, {tuple(a + b for a, b in zip(e, exps)): c for e, c in self.terms.items()}
        )

    def scale(self, coeff) -> "LaurentPoly":
        coeff = self.model.elem(coeff)
        if coeff.is_zero:
            return LaurentPoly.zero(self.model, self.n)
        return LaurentPoly._of(self.model, self.n, {e: c * coeff for e, c in self.terms.items()})

    # -- rendering -----------------------------------------------------------

    def to_string(self, family: str = "t") -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms):
            coeff = self.terms[exps]
            factors = []
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                name = f"{family}{i + 1}"
                factors.append(name if e == 1 else f"{name}^{e}")
            cs = str(coeff)
            if not factors:
                parts.append(cs)
            elif cs == "1":
                parts.append("*".join(factors))
            else:
                body = cs if "/" not in cs and "+" not in cs and " " not in cs else f"({cs})"
                parts.append("*".join([body] + factors))
        return " + ".join(parts)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"<LaurentPoly {self} over {self.model.kind}>"


def _as_radii(rho, n) -> tuple:
    rho = tuple(r if type(r) is Fraction else Fraction(r) for r in rho)
    if len(rho) != n:
        raise DomainError(f"radius vector has length {len(rho)}, expected {n}")
    return rho


def gauss_val(f: LaurentPoly, rho) -> Val:
    """Generalized Gauss valuation of f at rational radii rho: the minimum
    over terms of val(coefficient) + <exponents, rho>.  INF iff f = 0.
    Every model's value group is Z, so the sums run in integer levels: with
    d the common denominator of the radii, a term's level is
    val(coefficient) * d + <exponents, d * rho>, and the least is divided
    by d once."""
    rho = _as_radii(rho, f.n)
    if not f.terms:
        return INF
    d, steps = _scale_to_ints(rho)
    level = min(coeff.val().fraction.numerator * d + sum(map(mul, exps, steps))
                for exps, coeff in f.terms.items())
    return Val(Fraction(level, d))


def _exact_quotient(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """f / g for a nonzero g that divides f in the Laurent ring; an
    InvariantError otherwise (never an assert, so it holds under -O).

    A monomial g is a shift and a scaling.  Otherwise terms are divided
    off by lex-leading terms.  In each variable the highest and the
    lowest exponent are additive under multiplication, so every exponent
    of an exact quotient lies in the box from low(f) - low(g) to
    high(f) - high(g).  The remainder's lex-leading exponent strictly
    falls at each step, so the loop raises as soon as a quotient exponent
    leaves that finite box, or ends with a zero remainder."""
    gt = g.terms
    if len(gt) == 1:
        (shift, c), = gt.items()
        inv = f.model.one() / c
        return LaurentPoly._of(f.model, f.n, {
            tuple(map(sub, e, shift)): a * inv for e, a in f.terms.items()})
    if not f.terms:
        return f
    low = list(map(sub, map(min, zip(*f.terms)), map(min, zip(*gt))))
    high = list(map(sub, map(max, zip(*f.terms)), map(max, zip(*gt))))
    lead = max(gt)
    head = gt[lead]
    tail = [(e, c) for e, c in gt.items() if e != lead]
    rem = dict(f.terms)
    quot = {}
    while rem:
        e = max(rem)
        q = tuple(map(sub, e, lead))
        if any(x < lo or x > hi for x, lo, hi in zip(q, low, high)):
            raise InvariantError("inexact Laurent division in the elimination kernel")
        c = rem.pop(e) / head
        quot[q] = c
        for ge, gc in tail:
            _add_term(rem, tuple(map(add, q, ge)), -(c * gc))
    return LaurentPoly._of(f.model, f.n, quot)


def gauss_val_rational(f: LaurentPoly, g: LaurentPoly, rho) -> Val:
    """Gauss valuation of the ratio f/g: gauss_val(f) - gauss_val(g).
    Rejects g = 0; returns INF iff f = 0."""
    if g.is_zero:
        raise DomainError("denominator of a Gauss ratio must be nonzero")
    vf = gauss_val(f, rho)
    if vf.is_inf:
        return INF
    return vf - gauss_val(g, rho)


def log_derivative(f: LaurentPoly, i: int) -> LaurentPoly:
    """Module-level alias for LaurentPoly.log_derivative."""
    return f.log_derivative(i)
