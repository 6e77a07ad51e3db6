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

The scanner is one regex: each match is a factor, an atom together with
its '^' ['-'] INT exponent, or a single symbol.  Tokens keep no
positions; an error scans the text again for the offset of its token and
turns that into a line and column.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add

from .errors import DomainError, ParseError
from .fields import BaseFieldModel, FieldElement, _embed
from .laurent import LaurentPoly, _add_term

__all__ = ["parse_poly", "poly_to_expr"]

# One token per match, as the strings (digits, name, ')', '-', exponent,
# other): an atom -- a decimal run, a name or ')' -- with its optional
# '^' ['-'] INT exponent, or any other non-space character, a symbol or an
# error.  \d, \w and \s are str.isdecimal, str.isalnum-or-'_' and
# str.isspace on every code point.
_TOKEN = re.compile(r"(?:(\d+)|([^\W\d]\w*)|(\)))(?:\s*\^\s*(-)?\s*(\d+))?|(\S)")
_END = ("",) * 6
_SYMBOLS = "+-*^(/"
_NOT_MONOMIAL = "negative exponent requires a single-term monomial base"


def _position(text: str, at: int):
    """The 1-based (line, column) of offset at; only '\n' ends a line."""
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


def _scan_error(text: str):
    """The ParseError of the first character that starts no token (one
    outside the grammar, or a name that starts with no letter) or integer
    literal too long for int(), or None.  These errors come before any
    parse error."""
    for m in _TOKEN.finditer(text):
        _, name, _, _, _, other = m.groups()
        if other and other not in _SYMBOLS or name and not name[0].isalpha():
            return ParseError(f"unexpected character {(other or name)[0]!r}",
                              *_position(text, m.start()))
        for group in (1, 5):  # the atom's digits, then the exponent's
            try:
                int(m[group] or 0)
            except ValueError:
                return ParseError(f"integer literal of {len(m[group])} digits is too long",
                                  *_position(text, m.start(group)))
    return None


def _value(tok):
    """A token as messages show it: an int, a name, a symbol, or None at
    the end."""
    digits, name, close, _, _, other = tok
    return int(digits) if digits else name or close or other or None


class _Parser:
    """Recursive descent over the tokens of _TOKEN.findall.  Only the error
    path looks at positions: it scans the text again for the offset."""

    def __init__(self, text, model: BaseFieldModel, n: int, variables: str):
        self.text = text
        self.tokens = _TOKEN.findall(text)
        self.tokens.append(_END)
        self.pos = 0
        self.model = model
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

    def error(self, message: str, index: int, exponent: bool = False) -> ParseError:
        """The error at token index (at its exponent with exponent set),
        unless the scan of the whole text meets an error first."""
        found = _scan_error(self.text)
        if found is not None:
            return found
        at = len(self.text)
        for i, m in enumerate(_TOKEN.finditer(self.text)):
            if i == index:
                at = m.start(5 if exponent else 0)
                break
        return ParseError(message, *_position(self.text, at))

    def exponent(self, minus: str, power: str, pos: int) -> int:
        """The exponent scanned with an atom, 1 without one.  The scanner
        joins every '^' ['-'] INT to its atom, so a '^' token at pos has no
        integer after it: raise the error that gives."""
        if power:
            return -int(power) if minus else int(power)
        if self.tokens[pos][5] != "^":
            return 1
        i = pos + (2 if self.tokens[pos + 1][5] == "-" else 1)
        raise self.error(f"expected 'int', found {_value(self.tokens[i])!r}", i)

    def parse(self) -> LaurentPoly:
        try:
            value = self.expr()
            tok = self.tokens[self.pos]
            if tok is not _END:
                raise self.error(f"unexpected trailing input {_value(tok)!r}", self.pos)
        except ValueError as exc:  # int() refused a literal before any parse error
            if type(exc) is not ValueError or (found := _scan_error(self.text)) is None:
                raise
            raise found from None
        return value

    def expr(self) -> LaurentPoly:
        terms = {}
        self.term(terms, False)
        while True:
            op = self.tokens[self.pos][5]
            if op != "+" and op != "-":
                return LaurentPoly._of(self.model, self.width, terms)
            self.pos += 1
            self.term(terms, op == "-")

    def term(self, terms: dict, negate: bool) -> None:
        """Add one product of factors to terms, in place.  Numbers, pi,
        variables and their powers multiply into c*pi^k*t^exps (c a
        coefficient of the model, None for 1); only parenthesised sums are
        LaurentPolys."""
        p, tokens = self.model._char, self.tokens
        c, k, exps, poly = None, 0, [0] * self.width, None
        pos = self.pos
        while True:
            while tokens[pos][5] == "-":
                pos += 1
                negate = not negate
            i = pos
            digits, name, _, minus, power, other = tokens[i]
            pos += 1
            if digits:
                q, j = int(digits), i  # j: the token that holds the exponent
                if not power and tokens[pos][5] == "/":
                    j = pos + 1
                    pos = j + 1
                    den, _, _, minus, power, _ = tokens[j]
                    if not den:
                        raise self.error(f"expected 'int', found {_value(tokens[j])!r}", j)
                    if int(den) == 0:
                        raise self.error("zero denominator in rational literal", j)
                    q = Fraction(q, int(den))
                try:
                    a = _embed(q, p)
                except DomainError as exc:
                    raise self.error(str(exc), i) from exc
                e = self.exponent(minus, power, pos)
                if e < 0 and not a:
                    raise self.error(_NOT_MONOMIAL, j, exponent=True)
                if e != 1:
                    a = pow(a, e, p) if p else a ** e
                c = a if c is None else c * a
            elif name:
                if name == "pi":
                    if not self.model.has_pi:
                        raise self.error("symbol 'pi' requires a pi-adic base field", i)
                    slot = None
                elif not (len(name) == 2 and name[0] in self.prefixes and name[1].isdecimal()):
                    raise self.error(f"unknown symbol {name!r}", i)
                else:
                    idx = int(name[1])
                    if not 1 <= idx <= 9:
                        raise self.error(f"variable index in {name!r} must be 1..9", i)
                    if idx > self.n:
                        raise self.error(f"variable {name!r} exceeds the declared dimension n={self.n}", i)
                    slot = self.prefixes[name[0]] + idx - 1
                e = self.exponent(minus, power, pos)
                if slot is None:
                    k += e
                else:
                    exps[slot] += e
            elif other == "(":
                self.pos = pos
                inner = self.expr()
                i = self.pos
                pos = i + 1
                _, _, close, minus, power, _ = tokens[i]
                if not close:
                    raise self.error("expected ')'", i)
                e = self.exponent(minus, power, pos)
                if e < 0 and len(inner.terms) != 1:
                    raise self.error(_NOT_MONOMIAL, i, exponent=True)
                if e != 1:
                    inner = inner ** e
                poly = inner if poly is None else poly * inner
            else:
                raise self.error(f"unexpected token {_value(tokens[i])!r}", i)
            if tokens[pos][5] != "*":
                break
            pos += 1
        self.pos = pos
        if c is None:
            c = 1
        if negate:
            c = -c
        if p:
            c %= p
        if not c:
            return
        coeff = FieldElement._monomial(self.model, c, k)
        exps = tuple(exps)
        if poly is None:
            _add_term(terms, exps, coeff)
        else:
            for e, a in poly.terms.items():
                _add_term(terms, tuple(map(add, e, exps)), a * coeff)


def parse_poly(text: str, model: BaseFieldModel, n: int, variables: str = "t") -> LaurentPoly:
    """Parse an expression into a LaurentPoly.

    variables='t' or 's' reads a single family mapped to indices 1..n;
    variables='ts' reads both (t_i -> i, s_i -> n+i, a 2n-variable ring)."""
    return _Parser(text, model, n, variables).parse()


def _coeff_factors(elem) -> list:
    """Grammar factors multiplying to the coefficient; raises when the
    coefficient is not expressible (non-monomial pi denominator)."""
    num, den = elem.num, elem.den
    if any(den[:-1]):
        raise DomainError(
            "coefficient has a non-monomial pi denominator; not expressible in the grammar"
        )
    shift, lead = len(den) - 1, den[-1]
    parts = []
    for i, c in enumerate(num):
        if not c:
            continue
        e = i - shift
        cs = str(Fraction(c, lead))
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
