"""Exact base-field models and their elements.

Four computable models of a valued field k are supported:

* ``trivial_q``   -- Q with the trivial valuation (v(x) = 0 for x != 0);
* ``p_adic_q(p)`` -- Q with the p-adic valuation, v(p) = 1;
* ``pi_adic_q``   -- Q(pi) with the pi-adic valuation, residue field Q;
* ``pi_adic_fp(p)`` -- F_p(pi) with the pi-adic valuation, residue field F_p.

Elements of the pi-adic models are ratios of polynomials in the
uniformizer pi, stored as two tuples of ints in one canonical form: lowest
terms, zero as 0/1.  Over F_p the coefficients lie in ``range(p)`` and the
denominator is monic.  Over Q the denominator leads positive and the
coefficients of numerator and denominator together have gcd 1, so a
rational content lives in the ints and no coefficient is a ``Fraction``.
Every operation returns that form, so equality and hashing read the stored
payload; printing shows the monic form, each coefficient divided by the
leading one of the denominator.  Elements of the rational models are
stored as degree-zero ratios a/b, so one arithmetic code path serves all
four models.  Every operation is exact.

The polynomial helpers combine int coefficients with + - * and reduce each
result coefficient mod p once, before stripping zeros.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError, InvariantError
from .values import INF, Val

__all__ = ["BaseFieldModel", "FieldElement", "trivial_q", "p_adic_q", "pi_adic_q", "pi_adic_fp"]

TRIVIAL_Q = "trivial-q"
P_ADIC_Q = "p-adic-q"
PI_ADIC_Q = "pi-adic-q"
PI_ADIC_FP = "pi-adic-fp"


# Miller-Rabin on the first thirteen primes as bases is exact below
# 3 317 044 064 679 887 385 961 981, the least strong pseudoprime to all of
# them (OEIS A014233); a larger p is refused rather than guessed at.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin; raises DomainError
    for n at or above _PRIME_LIMIT."""
    if n >= _PRIME_LIMIT:
        raise DomainError(f"p = {n} is not below {_PRIME_LIMIT}, where the primality test is exact")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# -- polynomial helpers (int tuples, lowest degree first) -------------------
# p is the characteristic of the coefficients, 0 for Q.  Besides the
# reduction mod p in _pstrip, only the embedding of a rational (_embed) and
# the canonical form (_full_reduce, FieldElement._reduced) depend on it.

def _embed(q, p):
    """The scalar an int or Fraction maps to: itself as a Fraction over Q,
    an int in range(p) over F_p (DomainError when p divides its
    denominator)."""
    q = Fraction(q)
    if not p:
        return q
    if q.denominator % p == 0:
        raise DomainError(f"rational {q} has no image in F_{p}")
    return q.numerator * pow(q.denominator, -1, p) % p


def _pstrip(cs, p=0):
    """cs without trailing zeros, as a tuple; each coefficient is first
    reduced mod p when p is set."""
    if p:
        cs = [c % p for c in cs]
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def _padd(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _pstrip(out, p)


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [a[0] * cb for cb in b] + [0] * (len(a) - 1)
    for i, ca in enumerate(a[1:], 1):
        for j, cb in enumerate(b, i):
            out[j] += ca * cb
    return _pstrip(out, p)


def _monic(num, den, p):
    """(num/lead, den/lead) over F_p, for lead the leading coefficient of
    den."""
    inv = pow(den[-1], -1, p)
    return _pstrip([c * inv for c in num], p), _pstrip([c * inv for c in den], p)


# -- gcds: Euclid over F_p[pi], primitive remainder sequences over Z[pi] ----
# Euclid directly over Q suffers severe coefficient swell; clearing
# denominators and running a primitive PRS over Z keeps everything in fast
# machine/long integer arithmetic.

def _pdivmod(a, b, p):
    """Quotient and remainder of a by a nonzero b over F_p."""
    inv = pow(b[-1], -1, p)
    a = list(a)
    db = len(b) - 1
    q = [0] * max(0, len(a) - db)
    for shift in range(len(a) - 1 - db, -1, -1):
        factor = q[shift] = a[shift + db] * inv % p
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
    return _pstrip(q), _pstrip(a[:db], p)


def _euclid(a, b, p):
    """A gcd over F_p, not made monic."""
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    return a


def _full_reduce(num, den, p):
    """Lowest terms in the canonical form: a monic denominator over F_p;
    over Q a denominator leading positive and joint integer content 1."""
    if p:
        g = _euclid(num, den, p)
        if len(g) > 1:
            num = _pdiv_exact(num, g, p)
            den = _pdiv_exact(den, g, p)
        return _monic(num, den, p)
    cn, num = _primitive(num)
    cd, den = _primitive(den)
    h = _zgcd(num, den)
    if len(h) > 1:
        num = _pdiv_exact(num, h, 0)
        den = _pdiv_exact(den, h, 0)
    # num/den = (cn/cd) * prim/prim, both primitive parts leading positive
    cn, cd = _primitive((cn, cd))[1]
    return tuple(cn * c for c in num), tuple(cd * c for c in den)


def _primitive(f):
    """(content, primitive part) of a nonzero stripped int tuple, the
    content signed so that the primitive part leads positive."""
    g = gcd(*f)
    if f[-1] < 0:
        g = -g
    return g, tuple(c // g for c in f)


def _scale_to_ints(qs):
    """(scale, ints): the lcm of the denominators of the rationals qs, and
    the list of the qs times that scale."""
    scale = lcm(*(q.denominator for q in qs))
    return scale, [q.numerator * (scale // q.denominator) for q in qs]


def _z_pseudo_rem(a, b):
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while True:
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db or not a:
            return tuple(a)
        shift = len(a) - 1 - db
        la = a[-1]
        a = [lb * c for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= la * c


def _zgcd(a, b):
    """The primitive gcd, leading positive, of two primitive int tuples."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _z_pseudo_rem(a, b)
        if b:
            b = _primitive(b)[1]
    return a


def _pdiv_exact(a, b, p):
    """a / b for a nonzero b dividing a, over Z (p = 0) or F_p; an
    InvariantError when b does not divide a."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    inv = pow(lb, -1, p) if p else 0
    out = [0] * max(0, len(a) - db)
    for shift in range(len(a) - 1 - db, -1, -1):
        if p:
            q = a[shift + db] * inv % p
        else:
            q, r = divmod(a[shift + db], lb)
            if r:
                raise InvariantError("inexact polynomial division")
        out[shift] = q
        if q:
            for i, c in enumerate(b):
                a[shift + i] -= q * c
    if any(c % p if p else c for c in a[:db]):
        raise InvariantError("polynomial division leaves a remainder")
    return tuple(out)


def _pord(a) -> int:
    """Index of the lowest nonzero coefficient (a must be nonzero)."""
    for i, c in enumerate(a):
        if c:
            return i
    raise ValueError("zero polynomial has no order")


class BaseFieldModel:
    """One of the four exact models of a valued base field."""

    __slots__ = ("kind", "p", "_char")

    def __init__(self, kind: str, p: int | None = None):
        if kind not in (TRIVIAL_Q, P_ADIC_Q, PI_ADIC_Q, PI_ADIC_FP):
            raise DomainError(f"unknown base field kind {kind!r}")
        if kind in (P_ADIC_Q, PI_ADIC_FP):
            if p is None or not _is_prime(p):
                raise DomainError(f"{kind} requires a prime p, got {p!r}")
        elif p is not None:
            raise DomainError(f"{kind} takes no prime parameter")
        self.kind = kind
        self.p = p
        # coefficients are ints, reduced mod _char over F_p(pi)
        self._char = p if kind == PI_ADIC_FP else 0

    # -- structure ----------------------------------------------------------

    @property
    def residue_char(self) -> int:
        """Characteristic of the residue field k~."""
        if self.kind in (P_ADIC_Q, PI_ADIC_FP):
            return self.p
        return 0

    @property
    def is_discrete(self) -> bool:
        """True when the value group is Z (uniformizer of valuation 1)."""
        return self.kind != TRIVIAL_Q

    @property
    def has_pi(self) -> bool:
        """True when the symbol pi denotes an element of the field."""
        return self.kind in (PI_ADIC_Q, PI_ADIC_FP)

    def __eq__(self, other):
        return isinstance(other, BaseFieldModel) and (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"BaseFieldModel({self.kind!r})" if self.p is None else f"BaseFieldModel({self.kind!r}, p={self.p})"

    # -- element constructors ------------------------------------------------

    def elem(self, value) -> "FieldElement":
        """Embed an int or Fraction; pass FieldElement through unchanged."""
        if isinstance(value, FieldElement):
            if value.model is not self and value.model != self:
                raise DomainError("field element belongs to a different base field")
            return value
        c = _embed(value, self._char)
        return FieldElement(self, (c.numerator,) if c else (), (c.denominator,))

    def zero(self) -> "FieldElement":
        return FieldElement(self, (), (1,))

    def one(self) -> "FieldElement":
        return self.elem(1)

    def uniformizer(self) -> "FieldElement":
        """A generator of the maximal ideal: pi for pi-adic models, p for
        the p-adic one."""
        if self.has_pi:
            return FieldElement._monomial(self, 1, 1)
        if self.kind == P_ADIC_Q:
            return self.elem(self.p)
        raise DomainError("the trivially valued field has no uniformizer")

    def from_pi_polys(self, num, den=(1,)) -> "FieldElement":
        """Build an element from coefficient sequences in pi (lowest degree
        first); coefficients are ints or Fractions, taken mod p over F_p
        (a denominator divisible by p raises DomainError)."""
        p = self._char
        # over Q, num/den = (a/sa)/(b/sb) = (a*sb)/(b*sa) in ints; over F_p
        # both scales are 1
        sa, a = _scale_to_ints([_embed(c, p) for c in num])
        sb, b = _scale_to_ints([_embed(c, p) for c in den])
        return FieldElement._reduced(self, [c * sb for c in a], [c * sa for c in b])


def trivial_q() -> BaseFieldModel:
    return BaseFieldModel(TRIVIAL_Q)


def p_adic_q(p: int) -> BaseFieldModel:
    return BaseFieldModel(P_ADIC_Q, p)


def pi_adic_q() -> BaseFieldModel:
    return BaseFieldModel(PI_ADIC_Q)


def pi_adic_fp(p: int) -> BaseFieldModel:
    return BaseFieldModel(PI_ADIC_FP, p)


class FieldElement:
    """An exact element of a base-field model, in canonical form.

    The payload is the ratio num/den of int tuples, polynomials in pi in
    lowest terms: over F_p the denominator is monic, over Q it leads
    positive and all the ints of num and den together have gcd 1.  So equal
    elements have equal payloads.  For the rational models both polynomials
    have degree zero, and the element a/b is ((a,), (b,)).
    """

    __slots__ = ("model", "num", "den")

    def __init__(self, model, num, den):
        self.model = model
        self.num = num
        self.den = den

    @classmethod
    def _reduced(cls, model, num, den) -> "FieldElement":
        """The canonical form of num/den, int coefficients already reduced
        mod p: strip zeros, cancel common pi powers and divide out a
        constant denominator (its inverse over F_p, its gcd with the
        numerator over Q); any longer denominator goes through the full gcd
        reduction (_full_reduce)."""
        num = _pstrip(num)
        den = _pstrip(den)
        if not den:
            raise ZeroDivisionError("zero denominator in field element")
        if not num:
            return cls(model, (), (1,))
        shift = min(_pord(num), _pord(den))
        if shift:
            num = num[shift:]
            den = den[shift:]
        p = model._char
        if len(den) > 1:
            num, den = _full_reduce(num, den, p)
        elif den[0] != 1:
            if p:
                num, den = _monic(num, den, p)
            else:
                d = den[0]
                g = gcd(d, *num)
                if d < 0:
                    g = -g
                if g != 1:
                    num = tuple(c // g for c in num)
                    den = (d // g,)
        return cls(model, num, den)

    @classmethod
    def _monomial(cls, model, c, k: int) -> "FieldElement":
        """c*pi^k for a nonzero coefficient c (an int or Fraction over Q, an
        int in range(p) over F_p), in canonical form (k is 0 in the models
        without pi)."""
        zeros = (0,) * abs(k)
        if k >= 0:
            return cls(model, zeros + (c.numerator,), (c.denominator,))
        return cls(model, (c.numerator,), zeros + (c.denominator,))

    # -- ring/field operations ------------------------------------------------

    def _check(self, other) -> "FieldElement":
        if not isinstance(other, FieldElement):
            other = self.model.elem(other)
        elif other.model is not self.model and other.model != self.model:
            raise DomainError("mixed base-field arithmetic")
        return other

    def __add__(self, other):
        if not isinstance(other, (FieldElement, int, Fraction)):
            return NotImplemented
        other = self._check(other)
        p = self.model._char
        if self.den == other.den:
            num = _padd(self.num, other.num, p)
            if self.den == (1,):
                return FieldElement(self.model, num, self.den)
            return FieldElement._reduced(self.model, num, self.den)
        num = _padd(_pmul(self.num, other.den, p), _pmul(other.num, self.den, p), p)
        return FieldElement._reduced(self.model, num, _pmul(self.den, other.den, p))

    __radd__ = __add__

    def __neg__(self):
        num = _pstrip([-c for c in self.num], self.model._char)
        return FieldElement(self.model, num, self.den)

    def __sub__(self, other):
        if not isinstance(other, (FieldElement, int, Fraction)):
            return NotImplemented
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        if not isinstance(other, (FieldElement, int, Fraction)):
            return NotImplemented
        other = self._check(other)
        p = self.model._char
        if self.den == (1,) and other.den == (1,):
            return FieldElement(self.model, _pmul(self.num, other.num, p), self.den)
        return FieldElement._reduced(
            self.model, _pmul(self.num, other.num, p), _pmul(self.den, other.den, p)
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (FieldElement, int, Fraction)):
            return NotImplemented
        other = self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero field element")
        p = self.model._char
        return FieldElement._reduced(
            self.model, _pmul(self.num, other.den, p), _pmul(self.den, other.num, p)
        )

    def __rtruediv__(self, other):
        return self._check(other) / self

    def __pow__(self, k: int):
        k = _as_int(k)
        if k < 0:
            return (self.model.one() / self) ** (-k)
        if k == 0:
            return self.model.one()
        num, den = self.num, self.den
        # a*pi^i/b and a/(b*pi^j) go straight to (a/b)^k*pi^((i - j)k)
        if num and not any(num[:-1]) and not any(den[:-1]):
            p = self.model._char
            c = pow(num[-1], k, p) if p else Fraction(num[-1], den[-1]) ** k
            return FieldElement._monomial(self.model, c, (len(num) - len(den)) * k)
        result = self.model.one()
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
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, (FieldElement, int, Fraction)):
            return NotImplemented
        try:
            other = self._check(other)
        except DomainError:
            if isinstance(other, FieldElement):
                raise
            return False  # a rational with no image in F_p
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.model, self.num, self.den))

    # -- the valuation ---------------------------------------------------------

    def val(self) -> Val:
        """The additive valuation; INF exactly for the zero element."""
        return INF if self.is_zero else Val(self._int_val())

    def _int_val(self) -> int:
        """The valuation of a nonzero element as an int: every model's
        value group lies in Z."""
        kind = self.model.kind
        if kind == TRIVIAL_Q:
            return 0
        if kind == P_ADIC_Q:
            return _int_padic(self.num[0], self.model.p) - _int_padic(self.den[0], self.model.p)
        return _pord(self.num) - _pord(self.den)

    # -- rendering ---------------------------------------------------------------

    def _poly_str(self, coeffs) -> str:
        lead = self.den[-1]
        parts = []
        for i, c in enumerate(coeffs):
            if not c:
                continue
            cs = str(Fraction(c, lead))
            if i == 0:
                parts.append(cs)
            else:
                head = "" if cs == "1" else f"{cs}*"
                parts.append(f"{head}pi" if i == 1 else f"{head}pi^{i}")
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        num_s = self._poly_str(self.num)
        if len(self.den) == 1:
            return num_s
        return f"({num_s})/({self._poly_str(self.den)})"

    def __repr__(self):
        return f"<{self} in {self.model.kind}>"


def _as_int(x, what="exponent") -> int:
    """x as an int, as int() reads it; a DomainError naming x as what where
    int() would truncate a number (2.7 is not 2)."""
    if type(x) is int:
        return x
    k = int(x)
    if k != x and not isinstance(x, str):
        raise DomainError(f"{what} {x} is not an integer")
    return k


def _int_padic(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("p-adic order of zero")
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k
