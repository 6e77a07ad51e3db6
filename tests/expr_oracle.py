"""The expression parser as it was before products of atoms were built as
single monomials: every factor a LaurentPoly, multiplied and added out.
Kept as the oracle the grammar fuzz in test_expr.py compares parse_poly
with (value, str, hash, term order and errors).  Its tokenizer is the
character-by-character one parse_poly used before its scanner read one
factor per regex match, so the oracle shares no code with that scanner."""

from __future__ import annotations

from fractions import Fraction

from nonarch.errors import DomainError, ParseError
from nonarch.fields import BaseFieldModel
from nonarch.laurent import LaurentPoly


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
            try:
                tokens.append(("int", int(text[i:j]), line, col))
            except ValueError:  # more digits than int() converts
                raise ParseError(f"integer literal of {j - i} digits is too long", line, col) from None
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
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> LaurentPoly:
        value = self.factor()
        while self.peek()[0] == "*":
            self.take()
            value = value * self.factor()
        return value

    def factor(self) -> LaurentPoly:
        if self.peek()[0] == "-":
            self.take()
            return -self.factor()
        return self.power()

    def power(self) -> LaurentPoly:
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        self.take()
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        tok = self.expect("int")
        exponent = sign * tok[1]
        if exponent < 0 and len(base.terms) != 1:
            raise ParseError(
                "negative exponent requires a single-term monomial base", tok[2], tok[3]
            )
        return base ** exponent

    def atom(self) -> LaurentPoly:
        tok = self.take()
        kind, value, line, col = tok
        if kind == "int":
            q = Fraction(value)
            if self.peek()[0] == "/":
                self.take()
                den_tok = self.expect("int")
                if den_tok[1] == 0:
                    raise ParseError("zero denominator in rational literal", den_tok[2], den_tok[3])
                q = Fraction(value, den_tok[1])
            try:
                return LaurentPoly.constant(self.model, self.width, q)
            except DomainError as exc:
                raise ParseError(str(exc), line, col) from exc
        if kind == "name":
            if value == "pi":
                if not self.model.has_pi:
                    raise ParseError("symbol 'pi' requires a pi-adic base field", line, col)
                return LaurentPoly.constant(self.model, self.width, self.model.uniformizer())
            if len(value) == 2 and value[0] in self.prefixes and value[1].isdecimal():
                idx = int(value[1])
                if not 1 <= idx <= 9:
                    raise ParseError(f"variable index in {value!r} must be 1..9", line, col)
                if idx > self.n:
                    raise ParseError(
                        f"variable {value!r} exceeds the declared dimension n={self.n}", line, col
                    )
                return LaurentPoly.variable(self.model, self.width, self.prefixes[value[0]] + idx)
            raise ParseError(f"unknown symbol {value!r}", line, col)
        if kind == "(":
            inner = self.expr()
            closing = self.take()
            if closing[0] != ")":
                raise ParseError("expected ')'", closing[2], closing[3])
            return inner
        raise ParseError(f"unexpected token {value!r}", line, col)


def parse_poly_oracle(text: str, model: BaseFieldModel, n: int, variables: str = "t") -> LaurentPoly:
    return _Parser(_tokenize(text), model, n, variables).parse()
