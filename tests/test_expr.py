import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from expr_oracle import parse_poly_oracle
from nonarch.errors import ParseError
from nonarch.expr import parse_poly, poly_to_expr
from nonarch.fields import p_adic_q, pi_adic_fp, pi_adic_q, trivial_q
from nonarch.laurent import LaurentPoly


def test_parse_basics():
    k = pi_adic_q()
    t = LaurentPoly.variable(k, 2, 1)
    u = LaurentPoly.variable(k, 2, 2)
    assert parse_poly("t1 + t2", k, 2) == t + u
    assert parse_poly("3/4*t1^2", k, 2) == t ** 2 * Fraction(3, 4)
    assert parse_poly("t1^-2*t2", k, 2) == t ** -2 * u
    assert parse_poly("(1+t1)*(1+t1)", k, 2) == (1 + t) * (1 + t)
    assert parse_poly("-t1 + 2", k, 2) == -t + 2
    assert parse_poly("pi^2*t1", k, 2) == t.scale(k.uniformizer() ** 2)
    assert parse_poly("2^3", k, 1) == LaurentPoly.constant(k, 1, 8)


def test_parse_s_family_and_ts():
    k = p_adic_q(3)
    s1 = LaurentPoly.variable(k, 2, 1)
    assert parse_poly("1+s1", k, 2, variables="s") == 1 + s1
    g = parse_poly("t1 + s1^2", k, 1, variables="ts")
    assert g.n == 2
    assert g == LaurentPoly.variable(k, 2, 1) + LaurentPoly.variable(k, 2, 2) ** 2


def test_parse_errors_carry_position():
    k = pi_adic_q()
    with pytest.raises(ParseError) as err:
        parse_poly("t1 + $", k, 1)
    assert err.value.column == 6
    with pytest.raises(ParseError):
        parse_poly("t3", k, 2)  # exceeds n
    with pytest.raises(ParseError):
        parse_poly("x1", k, 2)
    with pytest.raises(ParseError):
        parse_poly("(1+t1)^-1", k, 1)  # inverse is not Laurent
    with pytest.raises(ParseError):
        parse_poly("1/0", k, 1)
    with pytest.raises(ParseError):
        parse_poly("pi", p_adic_q(5), 1)  # no pi in the p-adic model
    with pytest.raises(ParseError):
        parse_poly("t1 t2", k, 2)  # missing operator


def test_negative_power_of_monomial_with_pi():
    k = pi_adic_q()
    f = parse_poly("(pi*t1)^-1", k, 1)
    t = LaurentPoly.variable(k, 1, 1)
    assert f * (t.scale(k.uniformizer())) == LaurentPoly.one(k, 1)
    # printable via a negative pi power
    assert parse_poly(poly_to_expr(f), k, 1) == f


def _random_printable_poly(rng, model, n):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exps = tuple(rng.randint(-3, 3) for _ in range(n))
        den = rng.randint(1, 9)
        if model.residue_char and den % model.residue_char == 0:
            den = 1
        q = Fraction(rng.randint(-9, 9), den)
        coeff = model.elem(q)
        if model.has_pi:
            coeff = coeff * model.uniformizer() ** rng.randint(0, 3)
        terms[exps] = coeff
    return LaurentPoly(model, n, terms)


@pytest.mark.parametrize("model", [trivial_q(), p_adic_q(2), pi_adic_q(), pi_adic_fp(5)])
def test_round_trip(model):
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 3)
        f = _random_printable_poly(rng, model, n)
        text = poly_to_expr(f)
        assert parse_poly(text, model, n) == f


@pytest.mark.parametrize("text, column", [
    ("\u00b2", 1), ("t\u00b2", 1), ("t1^\u00b2", 4), ("3*t1\u00b2", 3), ("1 + \u00b9", 5),
])
def test_non_decimal_digits_are_parse_errors(text, column):
    # superscripts pass str.isdigit() but not int(); they must not escape
    # as a bare ValueError
    with pytest.raises(ParseError) as err:
        parse_poly(text, pi_adic_q(), 2)
    assert (err.value.line, err.value.column) == (1, column)


def test_other_decimal_digits_still_parse():
    k = pi_adic_q()
    assert parse_poly("\u0663*t\u0661", k, 1) == LaurentPoly.variable(k, 1, 1) * 3


_LONG = "9" * 5001  # past int()'s default limit of 4300 digits


@pytest.mark.parametrize("text, line, column", [
    (_LONG, 1, 1), ("t1 + 3/" + _LONG, 1, 8), ("t1^" + _LONG, 1, 4), ("2*\n (t1)^-" + _LONG, 2, 8),
    ("x + " + _LONG, 1, 5), (_LONG + " $", 1, 1), ("$ " + _LONG, 1, 1), ("(t1 " + _LONG, 1, 5),
    ("t1 " + _LONG, 1, 4),
], ids=["atom", "denominator", "exponent", "paren exponent", "after a name", "before a bad char",
        "after a bad char", "after an unclosed paren", "trailing"])
def test_overlong_integer_literals_are_parse_errors(text, line, column):
    with pytest.raises(ParseError) as err:
        parse_poly(text, pi_adic_q(), 1)
    assert (err.value.line, err.value.column) == (line, column)
    assert _outcome(parse_poly, text, pi_adic_q(), 1, "t") == \
        _outcome(parse_poly_oracle, text, pi_adic_q(), 1, "t")


_MODELS = [trivial_q(), p_adic_q(2), p_adic_q(5), pi_adic_q(), pi_adic_fp(2), pi_adic_fp(3)]
_exponents = st.sampled_from(["", "", "", "", "^0", "^1", "^2", "^3", "^-1", "^-2"])
_JUNK = [")", "(", "^", "*", " t1", "/", "\n", "+", "0^-1", "pi", "$", "9" * 5001, "^-" + "9" * 5001]


@lru_cache(maxsize=None)
def _texts(names, junk):
    """The strategy for an expression's text over the atom names, built
    once per (names, junk flag), since building it costs more than drawing
    from it.  With junk, rare zero denominators and unknown or out-of-range
    variables join the atoms."""
    atoms = st.one_of(
        st.integers(1, 12).map(str),
        st.tuples(st.integers(0, 12), st.integers(1, 6)).map(lambda q: f"{q[0]}/{q[1]}"),
        *([st.sampled_from(names)] * 3 if names else []),
    )
    if junk:
        atoms = st.one_of(atoms, st.sampled_from(["0", "1/0", "t0", "t4", "s1", "x1", "pi"]))
    powers = st.tuples(atoms, _exponents).map("".join)
    ops = st.sampled_from(["+", "-", " - ", " + "])

    def sums(term):
        return st.tuples(term, st.lists(st.tuples(ops, term), max_size=4)).map(
            lambda sum_: sum_[0] + "".join(op + t for op, t in sum_[1]))

    return sums(st.recursive(powers, lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=4).map("*".join),
        inner.map(lambda term: "-" + term),
        st.tuples(sums(inner), _exponents).map(lambda pair: f"({pair[0]}){pair[1]}"),
    ), max_leaves=8))


@st.composite
def _expressions(draw):
    """A model, a ring (n, variable family) and an expression over it:
    mostly well formed, with rare zero denominators, unknown or out-of-range
    variables, and one optional junk token spliced in."""
    model = draw(st.sampled_from(_MODELS))
    n = draw(st.integers(0, 3))
    variables = draw(st.sampled_from(["t", "s", "ts"]))
    names = [f"{f}{i}" for f in ("t", "s") if f in variables for i in range(1, n + 1)]
    names += ["pi"] * (2 if model.has_pi else 0)
    text = draw(_texts(tuple(names), draw(st.integers(0, 3)) == 0))
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_JUNK)) + text[at:]
    return model, n, variables, text


def _outcome(parse, text, model, n, variables):
    try:
        f = parse(text, model, n, variables)
    except ValueError as exc:  # ParseError, or any other error escaping the parser
        return ("error", type(exc).__name__, str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    return ("ok", f, str(f), hash(f), list(f.terms), [str(c) for c in f.terms.values()])


@settings(max_examples=300, deadline=None)
@given(_expressions())
def test_parse_matches_the_factorwise_oracle(case):
    model, n, variables, text = case
    assert _outcome(parse_poly, text, model, n, variables) == \
        _outcome(parse_poly_oracle, text, model, n, variables)


@pytest.mark.parametrize("model", _MODELS)
@pytest.mark.parametrize("text", [
    "0^-1", "0^0", "2^-1", "3/2*t1", "-2^2*-t1", "t1*(t1 - t1)", "(t1 - t1)^-1",
    "t1 - t1 + t1", "pi^-3*t1^-1*(1 + t1)^2*pi^2", "(pi*t1)^-2 + 1", "1/4 + 3/4",
    "pi*5/3", "-(t1 + 1)*2", "2*t1*3*t1^-1 - 6",
])
def test_parse_matches_the_oracle_on_edge_cases(model, text):
    assert _outcome(parse_poly, text, model, 1, "t") == _outcome(parse_poly_oracle, text, model, 1, "t")


def test_multi_term_coefficients_and_the_ts_family_render_and_reparse():
    k = pi_adic_q()
    pi = k.uniformizer()
    f = LaurentPoly(k, 1, {(1,): 1 + pi, (0,): pi / 2})
    assert poly_to_expr(f) == "1/2*pi + (1 + pi)*t1"
    assert parse_poly(poly_to_expr(f), k, 1) == f
    g = LaurentPoly(k, 4, {(1, 0, 0, 0): 1, (0, 0, 0, 2): 3 + pi ** 2, (0, 1, -1, 0): 1})
    assert poly_to_expr(g, "ts") == "(3 + pi^2)*s2^2 + t2*s1^-1 + t1"
    assert parse_poly(poly_to_expr(g, "ts"), k, 2, "ts") == g
