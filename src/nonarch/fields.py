"""Exact base-field models and their elements.

Four computable models of a valued field k are supported:

* ``trivial_q``   -- Q with the trivial valuation (v(x) = 0 for x != 0);
* ``p_adic_q(p)`` -- Q with the p-adic valuation, v(p) = 1;
* ``pi_adic_q``   -- Q(pi) with the pi-adic valuation, residue field Q;
* ``pi_adic_fp(p)`` -- F_p(pi) with the pi-adic valuation, residue field F_p.

Elements of the pi-adic models are ratios of polynomials in the
uniformizer pi, stored in one canonical form: lowest terms, monic
denominator, zero as 0/1.  Every operation returns that form, so equality,
hashing and printing read the stored payload.  Elements of the rational
models are plain ``Fraction`` values stored as degree-zero ratios, so one
arithmetic code path serves all four models.  Every operation is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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


class _RationalCoeffs:
    """Coefficient arithmetic in Q."""

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def is_zero(a):
        return a == 0

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def div(a, b):
        return a / b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def pow(a, k):
        return a ** k

    @staticmethod
    def from_fraction(q):
        return Fraction(q)

    @staticmethod
    def render(a):
        return str(a)


class _PrimeFieldCoeffs:
    """Coefficient arithmetic in F_p (ints in [0, p))."""

    def __init__(self, p: int):
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def is_zero(self, a):
        return a % self.p == 0

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def div(self, a, b):
        b %= self.p
        if b == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return (a * pow(b, -1, self.p)) % self.p

    def neg(self, a):
        return (-a) % self.p

    def pow(self, a, k):
        return pow(a, k, self.p)

    def from_fraction(self, q):
        q = Fraction(q)
        if q.denominator % self.p == 0:
            raise DomainError(f"rational {q} has no image in F_{self.p}")
        return self.div(q.numerator % self.p, q.denominator % self.p)

    def render(self, a):
        return str(a % self.p)


# -- polynomial helpers (coefficient tuples, lowest degree first) -----------

def _pstrip(cs, cf):
    n = len(cs)
    while n and cf.is_zero(cs[n - 1]):
        n -= 1
    return tuple(cs[:n])


def _padd(a, b, cf):
    n = max(len(a), len(b))
    out = [cf.zero] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = cf.add(out[i], c)
    return _pstrip(out, cf)


def _pneg(a, cf):
    return tuple(cf.neg(c) for c in a)


def _pmul(a, b, cf):
    if not a or not b:
        return ()
    out = [cf.zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = cf.add(out[i + j], cf.mul(ca, cb))
    return _pstrip(out, cf)


def _pdivmod(a, b, cf):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [cf.zero] * max(0, len(a) - len(b) + 1)
    inv_lead = b[-1]
    while len(a) >= len(b) and _pstrip(a, cf):
        a = list(_pstrip(a, cf))
        if len(a) < len(b):
            break
        shift = len(a) - len(b)
        factor = cf.div(a[-1], inv_lead)
        q[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] = cf.sub(a[shift + i], cf.mul(factor, c))
    return _pstrip(q, cf), _pstrip(a, cf)


def _euclid(a, b, cf):
    """Monic gcd of two coefficient tuples."""
    while b:
        _, r = _pdivmod(a, b, cf)
        a, b = b, r
    if not a:
        return ()
    lead = a[-1]
    return tuple(cf.div(c, lead) for c in a)  # monic


def _full_reduce(num, den, cf):
    """Lowest terms with a monic denominator."""
    if isinstance(cf, _RationalCoeffs):
        return _full_reduce_q(num, den)
    g = _euclid(num, den, cf)
    if len(g) > 1:
        num, _ = _pdivmod(num, g, cf)
        den, _ = _pdivmod(den, g, cf)
    lead = den[-1]
    if not cf.is_zero(cf.sub(lead, cf.one)):
        num = tuple(cf.div(c, lead) for c in num)
        den = tuple(cf.div(c, lead) for c in den)
    return num, den


# -- gcd over Q[pi] via primitive integer remainder sequences ---------------
# Euclid directly over Q suffers severe coefficient swell; clearing
# denominators and running a primitive PRS over Z keeps everything in fast
# machine/long integer arithmetic.

def _q_to_z(f):
    """Fraction tuple -> (content, primitive int tuple) with f = content*prim."""
    common = 1
    for c in f:
        common = common * c.denominator // gcd(common, c.denominator)
    ints = [int(c * common) for c in f]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    if ints[-1] < 0:
        g = -g
    return Fraction(g, common), tuple(c // g for c in ints)


def _z_primitive(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    if not f:
        return ()
    g = 0
    for c in f:
        g = gcd(g, abs(c))
    if f[-1] < 0:
        g = -g
    return tuple(c // g for c in f)


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
    a, b = _z_primitive(a), _z_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _z_pseudo_rem(a, b)
        a, b = b, _z_primitive(r)
    return a


def _z_div_exact(a, b):
    """Exact division of integer polynomials (b must divide a)."""
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    lb = b[-1]
    for shift in range(len(a) - len(b), -1, -1):
        q, r = divmod(a[shift + len(b) - 1], lb)
        if r:
            raise InvariantError("inexact integer polynomial division")
        out[shift] = q
        if q:
            for i, c in enumerate(b):
                a[shift + i] -= q * c
    if any(a[:len(b) - 1]):
        raise InvariantError("integer polynomial division leaves a remainder")
    return tuple(out)


def _full_reduce_q(num, den):
    cn, zn = _q_to_z(num)
    cd, zd = _q_to_z(den)
    h = _zgcd(zn, zd)
    if len(h) > 1:
        zn = _z_div_exact(zn, h)
        zd = _z_div_exact(zd, h)
    scale = cn / cd
    lead = zd[-1]
    den_out = tuple(Fraction(c, lead) for c in zd)
    num_out = tuple(Fraction(c, lead) * scale for c in zn)
    return num_out, den_out


def _pord(a) -> int:
    """Index of the lowest nonzero coefficient (a must be nonzero)."""
    for i, c in enumerate(a):
        if c:
            return i
    raise ValueError("zero polynomial has no order")


class BaseFieldModel:
    """One of the four exact models of a valued base field."""

    __slots__ = ("kind", "p", "_cf")

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
        self._cf = _PrimeFieldCoeffs(p) if kind == PI_ADIC_FP else _RationalCoeffs()

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
            if value.model != self:
                raise DomainError("field element belongs to a different base field")
            return value
        cf = self._cf
        c = cf.from_fraction(value)
        return FieldElement(self, () if cf.is_zero(c) else (c,), (cf.one,))

    def zero(self) -> "FieldElement":
        return FieldElement(self, (), (self._cf.one,))

    def one(self) -> "FieldElement":
        return self.elem(1)

    def uniformizer(self) -> "FieldElement":
        """A generator of the maximal ideal: pi for pi-adic models, p for
        the p-adic one."""
        if self.has_pi:
            cf = self._cf
            return FieldElement(self, (cf.zero, cf.one), (cf.one,))
        if self.kind == P_ADIC_Q:
            return self.elem(self.p)
        raise DomainError("the trivially valued field has no uniformizer")

    def from_pi_polys(self, num, den=(1,)) -> "FieldElement":
        """Build an element from coefficient sequences in pi (lowest degree
        first); coefficients are ints or Fractions, taken mod p over F_p
        (a denominator divisible by p raises DomainError)."""
        embed = self._cf.from_fraction
        return FieldElement._reduced(self, tuple(map(embed, num)), tuple(map(embed, den)))


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

    The payload is the ratio num/den of polynomials in pi in lowest terms
    with a monic denominator, so equal elements have equal payloads; for
    the rational models both polynomials have degree zero, so the element
    is just a Fraction.
    """

    __slots__ = ("model", "num", "den")

    def __init__(self, model, num, den):
        self.model = model
        self.num = num
        self.den = den

    @classmethod
    def _reduced(cls, model, num, den) -> "FieldElement":
        """The canonical form of num/den: strip zeros, cancel common pi
        powers and fold a constant denominator; any longer denominator goes
        through the full gcd reduction (_full_reduce)."""
        cf = model._cf
        num = _pstrip(num, cf)
        den = _pstrip(den, cf)
        if not den:
            raise ZeroDivisionError("zero denominator in field element")
        if not num:
            return cls(model, (), (cf.one,))
        shift = min(_pord(num), _pord(den))
        if shift:
            num = num[shift:]
            den = den[shift:]
        if len(den) == 1:
            c = den[0]
            if not cf.is_zero(cf.sub(c, cf.one)):
                num = tuple(cf.div(a, c) for a in num)
            return cls(model, num, (cf.one,))
        return cls(model, *_full_reduce(num, den, cf))

    @classmethod
    def _monomial(cls, model, c, k: int) -> "FieldElement":
        """c*pi^k for a nonzero c of the model's coefficient ring, in
        canonical form (k is 0 in the models without pi)."""
        cf = model._cf
        if k >= 0:
            return cls(model, (cf.zero,) * k + (c,), (cf.one,))
        return cls(model, (c,), (cf.zero,) * -k + (cf.one,))

    # -- ring/field operations ------------------------------------------------

    def _check(self, other) -> "FieldElement":
        if not isinstance(other, FieldElement):
            other = self.model.elem(other)
        elif other.model != self.model:
            raise DomainError("mixed base-field arithmetic")
        return other

    def __add__(self, other):
        if not isinstance(other, (FieldElement, int, Fraction)):
            return NotImplemented
        other = self._check(other)
        cf = self.model._cf
        if self.den == other.den:
            num = _padd(self.num, other.num, cf)
            if len(self.den) == 1:
                return FieldElement(self.model, num, self.den)
            return FieldElement._reduced(self.model, num, self.den)
        num = _padd(_pmul(self.num, other.den, cf), _pmul(other.num, self.den, cf), cf)
        return FieldElement._reduced(self.model, num, _pmul(self.den, other.den, cf))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.model, _pneg(self.num, self.model._cf), self.den)

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
        cf = self.model._cf
        if len(self.den) == 1 and len(other.den) == 1:
            return FieldElement(self.model, _pmul(self.num, other.num, cf), self.den)
        return FieldElement._reduced(
            self.model, _pmul(self.num, other.num, cf), _pmul(self.den, other.den, cf)
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (FieldElement, int, Fraction)):
            return NotImplemented
        other = self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero field element")
        cf = self.model._cf
        return FieldElement._reduced(
            self.model, _pmul(self.num, other.den, cf), _pmul(self.den, other.num, cf)
        )

    def __rtruediv__(self, other):
        return self._check(other) / self

    def __pow__(self, k: int):
        k = int(k)
        if k < 0:
            return (self.model.one() / self) ** (-k)
        if k == 0:
            return self.model.one()
        num, den = self.num, self.den
        # c*pi^i and c/pi^j (the monic denominator of a monomial is a power
        # of pi) go straight to c^k*pi^((i - j)k)
        if num and not any(num[:-1]) and not any(den[:-1]):
            c = self.model._cf.pow(num[-1], k)
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
        other = self._check(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.model, self.num, self.den))

    # -- the valuation ---------------------------------------------------------

    def val(self) -> Val:
        """The additive valuation; INF exactly for the zero element."""
        if self.is_zero:
            return INF
        kind = self.model.kind
        if kind == TRIVIAL_Q:
            return _SMALL_VALS[0]
        if kind == P_ADIC_Q:
            q = self.num[0]
            k = _int_padic(q.numerator, self.model.p) - _int_padic(q.denominator, self.model.p)
        else:
            k = _pord(self.num) - _pord(self.den)
        return _SMALL_VALS[k] if 0 <= k < len(_SMALL_VALS) else Val(k)

    # -- rendering ---------------------------------------------------------------

    def _poly_str(self, coeffs) -> str:
        cf = self.model._cf
        parts = []
        for i, c in enumerate(coeffs):
            if cf.is_zero(c):
                continue
            cs = cf.render(c)
            if i == 0:
                parts.append(cs)
            else:
                head = "" if cs == "1" else f"{cs}*"
                parts.append(f"{head}pi" if i == 1 else f"{head}pi^{i}")
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        num_s = self._poly_str(self.num)
        if self.den == (self.model._cf.one,):
            return num_s
        return f"({num_s})/({self._poly_str(self.den)})"

    def __repr__(self):
        return f"<{self} in {self.model.kind}>"


# one shared Val per small valuation (Val is immutable)
_SMALL_VALS = tuple(Val(k) for k in range(64))


def _int_padic(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("p-adic order of zero")
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k
