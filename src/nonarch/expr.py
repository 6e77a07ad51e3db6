"""Expression grammar for Laurent polynomials with exact coefficients.

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | power
    power  := atom ['^' ['-'] INT]
    atom   := NUMBER | 'pi' | VAR | '(' expr ')'
    NUMBER := INT ['/' INT]          (an exact rational literal)
    VAR    := t1..t9 | s1..s9

'^' binds tightest and its exponent is an integer literal; a negative
exponent is accepted only when the base is a single-term monomial (other
inverses are not Laurent polynomials).  'pi' denotes the uniformizer and
needs a pi-adic base field.  Errors carry the line and column of the
offending token.

A term's numbers, pi, variables and their powers multiply into one
monomial c*pi^k*t^I, with c in the model's coefficient ring, which
becomes a single coefficient when the term ends; only parenthesised sums
(and their powers) go through LaurentPoly arithmetic.  The terms of a sum
are added into one dict in place.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import DomainError, ParseError
from .fields import BaseFieldModel, FieldElement
from .laurent import LaurentPoly

__all__ = ["parse_poly", "poly_to_expr"]

_SYMBOLS = "+-*^()/"


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(("int", int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("end", None, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens, model: BaseFieldModel, n: int, variables: str):
        self.tokens = tokens
        self.pos = 0
        self.model = model
        self.cf = model._cf
        self.n = n
        # map from variable prefix to index offset in the exponent vector
        if variables == "t":
            self.prefixes = {"t": 0}
            self.width = n
        elif variables == "s":
            self.prefixes = {"s": 0}
            self.width = n
        elif variables == "ts":
            self.prefixes = {"t": 0, "s": n}
            self.width = 2 * n
        else:
            raise ValueError(f"unknown variable family {variables!r}")

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def parse(self) -> LaurentPoly:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2], tok[3])
        return value

    def expr(self) -> LaurentPoly:
        terms = {}
        self.term(terms, False)
        while self.peek()[0] in ("+", "-"):
            self.term(terms, self.take()[0] == "-")
        return LaurentPoly._of(self.model, self.width, terms)

    def term(self, terms: dict, negate: bool) -> None:
        """Add one product of factors to terms, in place.  Numbers, pi,
        variables and their powers multiply into c*pi^k*t^exps (c in the
        coefficient ring); only parenthesised sums are LaurentPolys."""
        cf = self.cf
        c = cf.neg(cf.one) if negate else cf.one
        k, exps, poly = 0, [0] * self.width, None
        while True:
            while self.peek()[0] == "-":
                self.take()
                c = cf.neg(c)
            kind, value, line, col = self.take()
            if kind == "int":
                q = Fraction(value)
                if self.peek()[0] == "/":
                    self.take()
                    den_tok = self.expect("int")
                    if den_tok[1] == 0:
                        raise ParseError("zero denominator in rational literal", den_tok[2], den_tok[3])
                    q = Fraction(value, den_tok[1])
                try:
                    a = cf.from_fraction(q)
                except DomainError as exc:
                    raise ParseError(str(exc), line, col) from exc
                e, tok = self.exponent()
                if e < 0 and cf.is_zero(a):
                    raise _not_monomial(tok)
                c = cf.mul(c, a if e == 1 else cf.pow(a, e))
            elif kind == "name" and value == "pi":
                if not self.model.has_pi:
                    raise ParseError("symbol 'pi' requires a pi-adic base field", line, col)
                k += self.exponent()[0]
            elif kind == "name":
                if not (len(value) == 2 and value[0] in self.prefixes and value[1].isdecimal()):
                    raise ParseError(f"unknown symbol {value!r}", line, col)
                idx = int(value[1])
                if not 1 <= idx <= 9:
                    raise ParseError(f"variable index in {value!r} must be 1..9", line, col)
                if idx > self.n:
                    raise ParseError(
                        f"variable {value!r} exceeds the declared dimension n={self.n}", line, col
                    )
                exps[self.prefixes[value[0]] + idx - 1] += self.exponent()[0]
            elif kind == "(":
                inner = self.expr()
                closing = self.take()
                if closing[0] != ")":
                    raise ParseError("expected ')'", closing[2], closing[3])
                e, tok = self.exponent()
                if e < 0 and len(inner.terms) != 1:
                    raise _not_monomial(tok)
                if e != 1:
                    inner = inner ** e
                poly = inner if poly is None else poly * inner
            else:
                raise ParseError(f"unexpected token {value!r}", line, col)
            if self.peek()[0] != "*":
                break
            self.take()
        if cf.is_zero(c):
            return
        coeff = FieldElement._monomial(self.model, c, k)
        exps = tuple(exps)
        if poly is None:
            items = ((exps, coeff),)
        else:
            items = ((tuple(map(add, e, exps)), a * coeff) for e, a in poly.terms.items())
        for e, a in items:
            acc = terms.get(e)
            if acc is not None:
                a = acc + a
                if a.is_zero:
                    del terms[e]
                    continue
            terms[e] = a

    def exponent(self):
        """The integer after an optional '^' (1 without one), and its
        token."""
        if self.peek()[0] != "^":
            return 1, None
        self.take()
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        tok = self.expect("int")
        return sign * tok[1], tok


def _not_monomial(tok) -> ParseError:
    return ParseError("negative exponent requires a single-term monomial base", tok[2], tok[3])


def parse_poly(text: str, model: BaseFieldModel, n: int, variables: str = "t") -> LaurentPoly:
    """Parse an expression into a LaurentPoly.

    variables='t' or 's' reads a single family mapped to indices 1..n;
    variables='ts' reads both (t_i -> i, s_i -> n+i, a 2n-variable ring)."""
    return _Parser(_tokenize(text), model, n, variables).parse()


def _coeff_factors(elem) -> list:
    """Grammar factors multiplying to the coefficient; raises when the
    coefficient is not expressible (non-monomial pi denominator)."""
    num, den, cf = elem.num, elem.den, elem.model._cf
    if any(den[:-1]):
        raise DomainError(
            "coefficient has a non-monomial pi denominator; not expressible in the grammar"
        )
    shift = len(den) - 1
    parts = []
    for i, c in enumerate(num):
        if not c:
            continue
        e = i - shift
        cs = cf.render(c)
        if e == 0:
            parts.append(cs)
        else:
            pi = "pi" if e == 1 else f"pi^{e}"
            parts.append(pi if cs == "1" else f"{cs}*{pi}")
    if not parts:
        return ["0"]
    if len(parts) == 1:
        return [parts[0]]
    return ["(" + " + ".join(parts) + ")"]


def poly_to_expr(f: LaurentPoly, variables: str = "t") -> str:
    """Render a LaurentPoly as a grammar expression that reparses to an
    identical polynomial."""
    if f.is_zero:
        return "0"
    if variables == "ts":
        half = f.n // 2
        names = [f"t{i + 1}" for i in range(half)] + [f"s{i + 1}" for i in range(half)]
    else:
        names = [f"{variables}{i + 1}" for i in range(f.n)]
    rendered = []
    for exps in sorted(f.terms):
        coeff = f.terms[exps]
        factors = []
        for name, e in zip(names, exps):
            if e == 0:
                continue
            factors.append(name if e == 1 else f"{name}^{e}")
        cparts = _coeff_factors(coeff)
        if factors and cparts == ["1"]:
            rendered.append("*".join(factors))
        else:
            rendered.append("*".join(cparts + factors))
    return " + ".join(rendered)
