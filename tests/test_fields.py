import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nonarch.errors import DomainError, InvariantError
from nonarch.fields import (
    _PRIME_LIMIT, BaseFieldModel, FieldElement, _is_prime, _pdiv_exact, p_adic_q, pi_adic_fp,
    pi_adic_q, trivial_q,
)
from nonarch.values import INF, Val

MODELS = [trivial_q(), p_adic_q(2), p_adic_q(3), pi_adic_q(), pi_adic_fp(3)]


def test_val_examples():
    assert p_adic_q(2).elem(12).val() == Val(2)
    for model in MODELS:
        assert model.zero().val() == INF
    assert trivial_q().elem(5).val() == Val(0)


def test_p_adic_val_of_fractions():
    k = p_adic_q(3)
    assert k.elem(Fraction(9, 2)).val() == Val(2)
    assert k.elem(Fraction(1, 27)).val() == Val(-3)
    assert k.elem(Fraction(6, 3)).val() == Val(0)
    assert k.elem(Fraction(6, 1)).val() == Val(1)


def test_pi_adic_elements_reduce():
    k = pi_adic_q()
    pi = k.uniformizer()
    x = (pi * pi + pi) / pi  # pi(pi+1)/pi = pi + 1
    assert x == pi + 1
    assert x.val() == Val(0)
    assert (pi ** 3 / (pi + 1)).val() == Val(3)
    assert (k.one() / pi).val() == Val(-1)


def test_pi_adic_fp_arithmetic():
    k = pi_adic_fp(3)
    assert k.elem(3).is_zero
    assert k.elem(4) == k.elem(1)
    pi = k.uniformizer()
    assert (pi * 2 + pi).val() == INF or (pi * 2 + pi).is_zero  # 3*pi = 0
    assert ((1 + pi) * (1 + 2 * pi)).val() == Val(0)


def test_uniformizer_valuations():
    assert p_adic_q(5).uniformizer().val() == Val(1)
    assert pi_adic_q().uniformizer().val() == Val(1)
    assert pi_adic_fp(2).uniformizer().val() == Val(1)
    with pytest.raises(DomainError):
        trivial_q().uniformizer()


def test_rational_without_an_image_in_f_p_equals_nothing():
    from nonarch.laurent import LaurentPoly

    k = pi_adic_fp(3)
    for q in (Fraction(1, 3), Fraction(-2, 9)):
        assert not k.one() == q and k.one() != q and not q == k.zero()
        assert not LaurentPoly.one(k, 2) == q and LaurentPoly.zero(k, 2) != q
    # a rational that has an image compares by it: 1/2 is 2 in F_3
    assert k.elem(2) == Fraction(1, 2) and LaurentPoly.constant(k, 1, 2) == Fraction(1, 2)
    # comparing elements of two models stays an error
    with pytest.raises(DomainError):
        k.one() == pi_adic_fp(5).one()
    with pytest.raises(DomainError):
        LaurentPoly.one(k, 1) == pi_adic_fp(5).one()
    with pytest.raises(DomainError):
        LaurentPoly.one(k, 1) == LaurentPoly.one(pi_adic_fp(5), 1)


def test_model_validation():
    with pytest.raises(DomainError):
        p_adic_q(4)
    with pytest.raises(DomainError):
        pi_adic_fp(1)


@given(
    st.sampled_from(MODELS),
    st.fractions(min_value=-50, max_value=50),
    st.fractions(min_value=-50, max_value=50),
)
def test_valuation_axioms_on_rationals(model, a, b):
    # skip rationals which do not embed in F_p models
    try:
        x, y = model.elem(a), model.elem(b)
    except DomainError:
        return
    assert (x * y).val() == x.val() + y.val()
    assert (x + y).val() >= min(x.val(), y.val())
    if x.val() != y.val():
        assert (x + y).val() == min(x.val(), y.val())


@given(
    st.sampled_from([pi_adic_q(), pi_adic_fp(3)]),
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.integers(0, 4),
    st.integers(0, 4),
)
def test_pi_adic_field_axioms(k, a, b, i, j):
    pi = k.uniformizer()
    x = k.elem(a) * pi ** i + 1
    y = k.elem(b) * pi ** j
    assert (x * y).val() == x.val() + y.val()
    assert x * y - y * x == k.zero()
    assert (x + y).val() >= min(x.val(), y.val())
    if not y.is_zero:
        assert (x / y) * y == x


def test_equal_elements_hash_equal():
    k = pi_adic_q()
    pi = k.uniformizer()
    x = (pi * pi + pi) / pi
    y = pi + 1
    assert x == y and hash(x) == hash(y)
    # unreduced ratio versus folded representation
    u = (1 + pi) / (1 + pi) ** 2
    v = k.one() / (1 + pi)
    assert u == v and hash(u) == hash(v)


FOUR_MODELS = [trivial_q(), p_adic_q(2), pi_adic_q(), pi_adic_fp(3)]


def _repeated_power(x, k):
    """x**k by |k| multiplications, of x or of its inverse."""
    base = x if k >= 0 else x.model.one() / x
    out = x.model.one()
    for _ in range(abs(k)):
        out = out * base
    return out


def _power_cases(model):
    coeffs = [model.elem(c) for c in (1, -1, 2, Fraction(-5, 7))]
    if not model.is_discrete:
        return coeffs + [model.elem(3) + 1]
    u = model.uniformizer()
    cases = []
    for c in coeffs:
        for i in (1, 2, 5, 11):
            cases += [c * u ** i, c / u ** i]
    # a/(b*pi^j) and a ratio with a common factor, both reduced on entry
    if model.has_pi:
        cases += [model.from_pi_polys((1,), (0, 0, 2)), model.from_pi_polys((1, 1), (0, 2))]
    return coeffs + cases + [u + 1, model.zero()]


@pytest.mark.parametrize("model", FOUR_MODELS, ids=lambda m: m.kind)
def test_closed_form_powers_match_repeated_multiplication(model):
    for x in _power_cases(model):
        for k in range(-6, 13):
            if x.is_zero and k < 0:
                continue
            got, want = x ** k, _repeated_power(x, k)
            assert got == want, (x, k)
            assert hash(got) == hash(want) and str(got) == str(want), (x, k)
            # the very payload repeated multiplication leaves
            assert (got.num, got.den) == (want.num, want.den), (x, k)


def test_from_pi_polys_embeds_rational_coefficients_mod_p():
    k = pi_adic_fp(3)
    assert k.from_pi_polys((Fraction(1, 2),)) == k.elem(2)
    assert k.from_pi_polys((0, Fraction(-1, 2)), (1, Fraction(1, 4))) == (
        k.uniformizer() / (1 + k.uniformizer())
    )
    for num, den in [((Fraction(1, 3),), (1,)), ((1,), (1, Fraction(2, 3)))]:
        with pytest.raises(DomainError):
            k.from_pi_polys(num, den)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_from_pi_polys_int_coefficients_unchanged(p):
    """Int coefficients, negative ones too, give the element the former
    int(c) % p embedding built."""
    k = pi_adic_fp(p)
    rng = random.Random(p)
    for _ in range(200):
        num = [rng.randint(-7, 7) for _ in range(rng.randint(0, 4))]
        den = [rng.randint(-7, 7) for _ in range(rng.randint(1, 4))]
        if all(c % p == 0 for c in den):
            den[0] = 1
        got = k.from_pi_polys(num, den)
        want = FieldElement._reduced(k, tuple(c % p for c in num), tuple(c % p for c in den))
        assert (got.num, got.den) == (want.num, want.den), (num, den)


# -- the canonical form -------------------------------------------------------

PI_MODELS = [pi_adic_q(), pi_adic_fp(2), pi_adic_fp(3)]


def _cross_equal(x, y):
    """Equality as decided before payloads were canonical: a/b == c/d
    exactly when a*d == c*b.  Needs no reduced form, and multiplies by its
    own schoolbook product, reduced mod p over F_p."""
    p = x.model.p

    def times(f, g):
        out = [0] * (len(f) + len(g))
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] += a * b
        out = [c % p for c in out] if p else out
        while out and not out[-1]:
            out.pop()
        return out

    return times(x.num, y.den) == times(y.num, x.den)


@st.composite
def _pi_poly(draw, model):
    coeffs = draw(st.lists(st.integers(-3, 3), max_size=4))
    return model.from_pi_polys(coeffs)


@st.composite
def _element(draw, model, depth=3):
    """A field element built by + - * / and negation from small
    pi-polynomials."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(_pi_poly(model))
    x = draw(_element(model, depth - 1))
    y = draw(_element(model, depth - 1))
    op = draw(st.sampled_from("+-*/n"))
    if op == "/" and y.is_zero:
        op = "*"
    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
           "n": lambda x, y: -x}
    return ops[op](x, y)


def _sympy_coprime(num, den, model):
    """True when sympy's gcd of the two pi-polynomials over QQ or GF(p)
    is a constant."""
    from sympy import GF, QQ, Poly, gcd, symbols

    domain = QQ if model.p is None else GF(model.p)
    x = symbols("x")
    return gcd(*(Poly(list(reversed(c)) or [0], x, domain=domain) for c in (num, den))).degree() == 0


def _assert_canonical(z):
    """The payload of z is the one canonical form: int coefficients, zero
    as 0/1, in lowest terms (by sympy for the pi-adic models); over F_p in
    range(p) with a monic denominator, over Q a denominator leading
    positive and joint integer content 1."""
    model = z.model
    assert all(type(c) is int for c in z.num + z.den), z
    if not z.num:
        assert z.den == (1,), z
    if model.kind == "pi-adic-fp":
        assert all(0 <= c < model.p for c in z.num + z.den) and z.den[-1] == 1, z
    else:
        assert z.den[-1] > 0 and math.gcd(*z.num, *z.den) == 1, z
    if model.has_pi:
        assert _sympy_coprime(z.num, z.den, model), z
    else:
        assert len(z.num) <= 1 and len(z.den) == 1, z


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_canonical_form_is_unique(data):
    model = data.draw(st.sampled_from(PI_MODELS))
    x = data.draw(_element(model))
    y = data.draw(st.one_of(
        _element(model),
        # the same value by another route: x*c/c and x + c - c
        _element(model).filter(bool).map(lambda c: x * c / c),
        _element(model).map(lambda c: x + c - c),
    ))
    assert (x == y) == _cross_equal(x, y)
    if x == y:
        assert (x.num, x.den) == (y.num, y.den)
        assert hash(x) == hash(y) and str(x) == str(y)

    a, b, c = x, data.draw(_element(model)), data.draw(_element(model))
    if b and c:
        got, want = (a * c) / (b * c), a / b
        assert (got.num, got.den) == (want.num, want.den)

    # an unreduced payload would break == and hash
    for z in (x, y, got, want) if b and c else (x, y):
        _assert_canonical(z)


# -- an independent oracle for the int payload: sympy and Fraction ----------

def _to_sympy(x):
    """The payload of x as two sympy Polys over QQ or GF(p)."""
    from sympy import GF, QQ, Poly, symbols

    domain = QQ if x.model.p is None else GF(x.model.p)
    t = symbols("t")
    return tuple(Poly(list(reversed(c)) or [0], t, domain=domain) for c in (x.num, x.den))


def _sympy_monic(num, den):
    """num/den in lowest terms with a monic denominator, by sympy."""
    g = num.gcd(den)
    num, den = num.quo(g), den.quo(g)
    lead = den.LC()
    return num.quo_ground(lead), den.quo_ground(lead)


def _sympy_coeffs(f, p):
    """The coefficients of a sympy Poly, lowest degree first: Fractions over
    QQ, ints in range(p) over GF(p)."""
    coeffs = [] if f.is_zero else list(reversed(f.all_coeffs()))
    if p:
        return [int(c) % p for c in coeffs]
    return [Fraction(int(c.p), int(c.q)) for c in coeffs]


def _render(coeffs):
    """A pi-polynomial as FieldElement prints it, written out from scratch."""
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            pi = "pi" if i == 1 else f"pi^{i}"
            parts.append(pi if c == 1 else f"{c}*{pi}")
    return " + ".join(parts) or "0"


def _monic_coeffs(z):
    """The payload of z made monic, as the oracle's coefficients are."""
    lead = z.den[-1]
    if z.model.p is not None:
        assert lead == 1, z
        return list(z.num), list(z.den)
    return [Fraction(c, lead) for c in z.num], [Fraction(c, lead) for c in z.den]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pi_adic_arithmetic_matches_sympy(data):
    model = data.draw(st.sampled_from(PI_MODELS))
    p = model.p
    x, y = data.draw(_element(model)), data.draw(_element(model))
    (xn, xd), (yn, yd) = _to_sympy(x), _to_sympy(y)
    cases = [(x + y, xn * yd + yn * xd, xd * yd), (x - y, xn * yd - yn * xd, xd * yd),
             (x * y, xn * yn, xd * yd)]
    if y:
        cases.append((x / y, xn * yd, xd * yn))
    for k in range(-3, 4):
        if x or k >= 0:
            cases.append((x ** k, xn ** k, xd ** k) if k >= 0 else (x ** k, xd ** -k, xn ** -k))
    for got, num, den in cases:
        num, den = _sympy_monic(num, den)
        want = _sympy_coeffs(num, p), _sympy_coeffs(den, p)
        assert _monic_coeffs(got) == want, (x, y, got)
        rendered = _render(want[0]) if want[1] == [1] else f"({_render(want[0])})/({_render(want[1])})"
        assert str(got) == rendered


def _p_order(q, p):
    """The p-adic order of a nonzero Fraction, written out."""
    k, a, b = 0, q.numerator, q.denominator
    while a % p == 0:
        a, k = a // p, k + 1
    while b % p == 0:
        b, k = b // p, k - 1
    return k


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([trivial_q(), p_adic_q(2), p_adic_q(3)]),
       st.fractions(min_value=-60, max_value=60, max_denominator=50),
       st.fractions(min_value=-60, max_value=60, max_denominator=50),
       st.integers(-3, 3))
def test_rational_arithmetic_matches_fractions(model, a, b, k):
    x, y = model.elem(a), model.elem(b)
    cases = [(x + y, a + b), (x - y, a - b), (x * y, a * b)]
    if b:
        cases.append((x / y, a / b))
    if a or k >= 0:
        cases.append((x ** k, a ** k))
    for got, want in cases:
        # the payload is the Fraction's own lowest terms, zero as 0/1
        assert got.num == ((want.numerator,) if want else ()), (a, b, got)
        assert got.den == (want.denominator,), (a, b, got)
        assert str(got) == str(want)
        if not want:
            assert got.val() == INF
        elif model.p is None:
            assert got.val() == Val(0)
        else:
            assert got.val() == Val(_p_order(want, model.p))


def test_invariant_checks_run_under_optimize_flag():
    # an exactness invariant is an explicit check, not an assert that
    # python -O would strip
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "from nonarch.errors import InvariantError\n"
        "from nonarch.fields import _pdiv_exact\n"
        "try:\n"
        "    _pdiv_exact((1, 1), (2,), 0)\n"
        "except InvariantError as exc:\n"
        "    print('raised:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised:")


def test_is_prime_matches_sympy():
    from sympy import isprime

    assert [n for n in range(-3, 10 ** 4) if _is_prime(n)] == \
        [n for n in range(-3, 10 ** 4) if isprime(n)]
    rng = random.Random(61)
    for _ in range(200):
        n = rng.getrandbits(60) | 1 << 59
        assert _is_prime(n) == isprime(n), n
    assert _is_prime(2 ** 61 - 1) and not _is_prime(2 ** 67 - 1)
    # a strong pseudoprime to the first twelve prime bases: base 41 is needed
    assert not _is_prime(318665857834031151167461)
    assert not isprime(318665857834031151167461)


def test_primes_past_the_exact_limit_are_refused():
    from sympy import isprime

    assert _is_prime(_PRIME_LIMIT - 2) == isprime(_PRIME_LIMIT - 2)
    for p in (_PRIME_LIMIT, 2 ** 127 - 1):
        with pytest.raises(DomainError, match="where the primality test is exact"):
            p_adic_q(p)
        with pytest.raises(DomainError, match="where the primality test is exact"):
            pi_adic_fp(p)
    assert p_adic_q(2 ** 61 - 1).p == 2 ** 61 - 1


def test_z_div_exact_checks_the_remainder():
    # one exact division serves Z[pi] (p = 0) and F_p[pi]
    assert _pdiv_exact((-1, 0, 1), (1, 1), 0) == (-1, 1)
    assert _pdiv_exact((2, 4), (1, 2), 0) == (2,)
    with pytest.raises(InvariantError):
        _pdiv_exact((1, 0, 1), (1, 1), 0)  # (t^2 + 1) = (t - 1)(t + 1) + 2
    with pytest.raises(InvariantError):
        _pdiv_exact((1, 2, 1, 1), (1, 1, 1), 0)
    assert _pdiv_exact((1, 0, 1), (1, 1), 2) == (1, 1)  # t^2 + 1 = (t + 1)^2 over F_2
    assert _pdiv_exact((2, 0, 1), (1, 2), 3) == (2, 2)  # t^2 + 2 = (1 + 2t)(2 + 2t) over F_3
    assert _pdiv_exact((), (1, 1), 2) == ()
    with pytest.raises(InvariantError):
        _pdiv_exact((0, 1), (1, 1), 2)
    with pytest.raises(InvariantError):
        _pdiv_exact((1,), (0, 1), 3)


# -- subtraction, in every model ----------------------------------------------

ALL_MODELS = [trivial_q(), p_adic_q(2), p_adic_q(3), pi_adic_q(), pi_adic_fp(2), pi_adic_fp(3)]
# rationals with an image in every model
_SCALARS = st.one_of(st.integers(-20, 20), st.builds(Fraction, st.integers(-20, 20),
                                                     st.sampled_from([1, 5, 7])))


def _any_element(model):
    if model.has_pi:
        return _element(model)
    return st.fractions(min_value=-60, max_value=60, max_denominator=50).map(model.elem)


def _rational(z):
    """The Fraction a rational-model element stands for."""
    return Fraction(z.num[0], z.den[0]) if z.num else Fraction(0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_subtraction_matches_negated_addition_and_the_oracles(data):
    model = data.draw(st.sampled_from(ALL_MODELS))
    x = data.draw(_any_element(model))
    # y on x's denominator (x plus a polynomial) or on its own
    same = data.draw(st.booleans())
    if same:
        c = data.draw(_pi_poly(model) if model.has_pi else st.integers(-20, 20).map(model.elem))
        y = x + c
        assert y.den == x.den
    else:
        y = data.draw(_any_element(model))
    q = data.draw(_SCALARS)
    cases = [(x - y, x + (-y)), (y - x, y + (-x)), (x - q, x + (-model.elem(q))),
             (q - x, model.elem(q) + (-x)), (x - x, model.zero())]
    for got, want in cases:
        _assert_canonical(got)
        assert (got.num, got.den) == (want.num, want.den)
        assert got == want and hash(got) == hash(want) and str(got) == str(want)
    assert q - x == -(x - q)
    # independent oracles: sympy over QQ[t] or GF(p)[t], Fraction arithmetic
    if model.has_pi:
        (xn, xd), (yn, yd) = _to_sympy(x), _to_sympy(y)
        num, den = _sympy_monic(xn * yd - yn * xd, xd * yd)
        assert _monic_coeffs(x - y) == (_sympy_coeffs(num, model.p), _sympy_coeffs(den, model.p))
    else:
        assert _rational(x - y) == _rational(x) - _rational(y)
        assert _rational(q - x) == q - _rational(x)
    # an equal model held by another object is the same field; another
    # model is refused on either side
    twin = FieldElement(BaseFieldModel(model.kind, model.p), y.num, y.den)
    assert (x - twin).num == (x - y).num and (x - twin).den == (x - y).den
    other = pi_adic_q() if model.kind != "pi-adic-q" else pi_adic_fp(2)
    for a, b in ((x, other.one()), (other.one(), x)):
        with pytest.raises(DomainError, match="mixed base-field arithmetic"):
            a - b


@pytest.mark.parametrize("model", MODELS, ids=lambda m: repr(m))
def test_division_by_zero_and_reflected_division(model):
    x = model.elem(6) + (model.uniformizer() if model.has_pi else 0)
    for zero in (0, Fraction(0), model.zero()):
        with pytest.raises(ZeroDivisionError):
            x / zero
    for q in (0, 1, Fraction(-2, 5)):
        with pytest.raises(ZeroDivisionError):
            q / model.zero()
    # a rational over an element, by hand: (q / x) * x == q, and 1/4 is 1/4
    for q in (1, Fraction(-2, 5)):
        assert (q / x) * x == q and q / x == model.elem(q) / x
    assert 1 / model.elem(4) == model.elem(Fraction(1, 4))
    assert 0 / x == model.zero()
