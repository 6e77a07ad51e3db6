import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from nonarch.errors import DomainError
from nonarch.fields import PI_ADIC_FP, p_adic_q, pi_adic_fp, pi_adic_q, trivial_q
from nonarch.laurent import LaurentPoly, gauss_val, gauss_val_rational, log_derivative
from nonarch.values import INF, Val


def poly(model, n, entries):
    return LaurentPoly(model, n, {tuple(e): c for e, c in entries.items()})


def test_gauss_val_examples():
    k2 = p_adic_q(2)
    f = poly(k2, 1, {(0,): 4, (1,): 2, (3,): 1})
    assert gauss_val(f, (Fraction(1, 3),)) == Val(1)
    assert gauss_val(LaurentPoly.one(k2, 1), (Fraction(7, 5),)) == Val(0)
    g = poly(k2, 1, {(0,): 2, (1,): 1})
    assert gauss_val(g, (Fraction(1, 2),)) == Val(Fraction(1, 2))


def test_gauss_val_rational_examples():
    k = pi_adic_q()
    t = LaurentPoly.variable(k, 1, 1)
    assert gauss_val_rational(t, 1 + t, (1,)) == Val(1)
    f = 1 + t * t
    assert gauss_val_rational(f, f, (Fraction(2, 7),)) == Val(0)
    assert gauss_val_rational(LaurentPoly.zero(k, 1), t, (1,)) == INF
    with pytest.raises(DomainError):
        gauss_val_rational(t, LaurentPoly.zero(k, 1), (1,))


def test_gauss_val_dimension_mismatch():
    k = pi_adic_q()
    t = LaurentPoly.variable(k, 2, 1)
    with pytest.raises(DomainError):
        gauss_val(t, (1,))


def test_log_derivative_examples():
    k = pi_adic_q()
    t1 = LaurentPoly.variable(k, 2, 1)
    t2 = LaurentPoly.variable(k, 2, 2)
    assert log_derivative(t1 ** 3, 1) == t1 ** 3 * 3
    assert log_derivative(1 + t1, 1) == t1
    assert log_derivative(t1 * t2 ** -1, 2) == -(t1 * t2 ** -1)
    with pytest.raises(DomainError):
        log_derivative(t1, 3)


def test_log_derivative_leibniz():
    k = p_adic_q(3)
    rng = random.Random(7)
    for _ in range(25):
        f = _random_poly(rng, k, 2)
        g = _random_poly(rng, k, 2)
        for i in (1, 2):
            assert log_derivative(f * g, i) == f * log_derivative(g, i) + g * log_derivative(f, i)


def _random_poly(rng, model, n, max_terms=8):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(-3, 3) for _ in range(n))
        terms[exps] = model.elem(rng.randint(-20, 20))
    return LaurentPoly(model, n, terms)


def _random_radii(rng, n):
    return tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))


@pytest.mark.parametrize("model", [p_adic_q(2), p_adic_q(3), pi_adic_q()])
def test_gauss_multiplicative_and_ultrametric(model):
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(1, 3)
        f, g = _random_poly(rng, model, n), _random_poly(rng, model, n)
        rho = _random_radii(rng, n)
        if f.is_zero or g.is_zero:
            continue
        assert gauss_val(f * g, rho) == gauss_val(f, rho) + gauss_val(g, rho)
        vf, vg = gauss_val(f, rho), gauss_val(g, rho)
        vs = gauss_val(f + g, rho)
        assert vs >= min(vf, vg)
        if vf != vg:
            assert vs == min(vf, vg)


# the six models of the benchmark
_GAUSS_MODELS = [trivial_q(), p_adic_q(2), p_adic_q(3), pi_adic_q(), pi_adic_fp(2), pi_adic_fp(3)]


@st.composite
def _gauss_cases(draw):
    model = draw(st.sampled_from(_GAUSS_MODELS))
    n = draw(st.integers(0, 3))
    terms = {}
    for exps in draw(st.lists(st.tuples(*[st.integers(-4, 4)] * n), max_size=5)):
        if model.kind == PI_ADIC_FP:  # a constant of F_p(pi); one divisible by p is dropped
            coeff = model.elem(draw(st.integers(-12, 12)))
        else:
            coeff = model.elem(draw(st.fractions(min_value=-12, max_value=12, max_denominator=9)))
        if model.is_discrete:
            coeff = coeff * model.uniformizer() ** draw(st.integers(-3, 3))
        terms[exps] = coeff
    # negative, zero, integral and fractional radii, an integral one as an
    # int or as a Fraction
    rho = []
    for _ in range(n):
        r = draw(st.fractions(min_value=-3, max_value=3, max_denominator=6))
        rho.append(int(r) if r.denominator == 1 and draw(st.booleans()) else r)
    return LaurentPoly(model, n, terms), tuple(rho)


@given(_gauss_cases())
@example((LaurentPoly.zero(pi_adic_q(), 2), (Fraction(1, 2), -1)))
@settings(max_examples=300, deadline=None)
def test_gauss_val_matches_the_termwise_fraction_minimum(case):
    f, rho = case
    if f.is_zero:
        assert gauss_val(f, rho) == INF
        return
    want = min(Fraction(c.val().fraction) + sum(Fraction(i) * r for i, r in zip(e, rho))
               for e, c in f.terms.items())
    assert gauss_val(f, rho) == Val(want)


def test_ring_axioms_random():
    k = pi_adic_q()
    rng = random.Random(3)
    for _ in range(40):
        f, g, h = (_random_poly(rng, k, 2, 4) for _ in range(3))
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert f + (g + h) == (f + g) + h
        assert f - f == LaurentPoly.zero(k, 2)


@pytest.mark.parametrize("model", [trivial_q(), p_adic_q(2), pi_adic_q(), pi_adic_fp(3)],
                         ids=lambda m: m.kind)
def test_single_term_powers_match_repeated_multiplication(model):
    coeffs = [model.elem(1), model.elem(-2)]
    if model.is_discrete:
        u = model.uniformizer()
        coeffs += [u ** 3, model.elem(2) / u ** 2]
    for coeff in coeffs:
        for exps in [(0, 0), (1, -2), (3, 0)]:
            f = LaurentPoly.monomial(model, 2, exps, coeff)
            for k in range(-6, 13):
                base = f if k >= 0 else LaurentPoly.monomial(
                    model, 2, tuple(-e for e in exps), model.one() / coeff)
                want = LaurentPoly.one(model, 2)
                for _ in range(abs(k)):
                    want = want * base
                got = f ** k
                assert got == want and hash(got) == hash(want) and str(got) == str(want)
                (e1, c1), = got.terms.items()
                (e2, c2), = want.terms.items()
                assert e1 == e2 and (c1.num, c1.den) == (c2.num, c2.den)
    # several terms: nonnegative powers still multiply out, negative ones are refused
    g = LaurentPoly.monomial(model, 2, (1, 0)) + 1
    assert g ** 3 == g * g * g
    with pytest.raises(DomainError):
        g ** -1


def test_non_integral_powers_and_exponents_are_refused():
    # int() would truncate each of these (pi ** 0.5 to 1, 2.9 to 2): they are refused
    from nonarch.forms import Pluriform
    from nonarch.lattices import PresentationMatrix
    from nonarch.seminorms import DiagSeminorm, sym_power, wedge_power
    from nonarch.tropical import RationalPolytope, TropPoly, semistable_skeleton
    from nonarch.weights import KummerDivisorialSpec, different_kummer_ramified

    k = pi_adic_q()
    k3 = p_adic_q(3)
    pi = k.uniformizer()
    t1 = LaurentPoly.variable(k, 1, 1)
    w = DiagSeminorm(("a", "b", "c"), (0, 1, 2))
    refused = [
        lambda: pi ** 0.5,
        lambda: pi ** Fraction(3, 2),
        lambda: (t1 + 1) ** 2.7,
        lambda: t1 ** Fraction(-1, 2),
        lambda: LaurentPoly(k, 1, {(1.5,): 1}),
        lambda: LaurentPoly.monomial(k, 1, (2.9,)),
        lambda: t1.shift((Fraction(1, 3),)),
        lambda: TropPoly(1, [(0, (0.5,))]),
        # non-integral counts and indices, which int() would truncate too
        lambda: Pluriform(k3, 2, 1, 1, {((1.5,),): 1}),
        lambda: KummerDivisorialSpec(k3, 3, [(1.7, 2.5)]),
        lambda: wedge_power(w, 1.5),
        lambda: sym_power(w, 2.9),
        lambda: semistable_skeleton(2.7, 1),
        lambda: PresentationMatrix(k3, [[1]], nvars=1.9, rho=(0,)),
        lambda: different_kummer_ramified(k3, 2.5),
        lambda: TropPoly(1.5, [(0, (1,))]),
        lambda: RationalPolytope(1.5, [((1,), 0)]),
        # non-integral dimensions and degrees
        lambda: LaurentPoly(k3, 1.5, {}),
        lambda: Pluriform(k3, 2, 1.5, 1, {}),
        lambda: Pluriform(k3, 2, 1, 1.5, {}),
        lambda: Pluriform(k3, 2.5, 1, 1, {((1,),): 1}),
        lambda: KummerDivisorialSpec(k3, 2.5, [(1, 2)]),
    ]
    for make in refused:
        with pytest.raises(DomainError):
            make()
    # integral values of any type are still read as ints
    assert pi ** 2.0 == pi ** 2 and (t1 + 1) ** Fraction(4, 2) == (t1 + 1) ** 2
    assert LaurentPoly.monomial(k, 1, (2.0,)) == t1 ** 2 == t1.shift((Fraction(1),))
    assert TropPoly(1, [(0, (1.0,))]) == TropPoly(1, [(0, (1,))])
    assert Pluriform(k3, 2, 1, 1, {((2.0,),): 1}).coeffs == Pluriform(k3, 2, 1, 1, {((2,),): 1}).coeffs
    assert KummerDivisorialSpec(k3, 3, [(1.0, 2.0)]).kummer == ((1, 2),)
    assert wedge_power(w, 2.0) == wedge_power(w, 2) and sym_power(w, Fraction(2)) == sym_power(w, 2)
    assert semistable_skeleton(2.0, 1).n == 2 and RationalPolytope(1.0, [((1,), 0)]).n == 1
    assert PresentationMatrix(k3, [[1]], nvars=1.0, rho=(0,)).nvars == 1
    assert different_kummer_ramified(k3, 2.0) == Val(Fraction(1, 2))
    assert LaurentPoly(k3, 2.0, {(1.0, 0): 1}) == LaurentPoly(k3, 2, {(1, 0): 1})
    phi = Pluriform(k3, 2.0, 1.0, 2.0, {((1,), (2,)): 1})
    dims = (LaurentPoly(k3, 2.0, {}).n, KummerDivisorialSpec(k3, 2.0, [(1, 2)]).n, phi.n, phi.l, phi.m)
    assert dims == (2, 2, 2, 1, 2) and all(type(d) is int for d in dims)
    assert phi == Pluriform(k3, 2, 1, 2, {((1,), (2,)): 1})


def test_non_integral_indices_and_tensor_powers_are_refused():
    # each of these once read 1.5 as a float: a variable index matched no
    # slot (so t_1.5 was the constant 1), a chart of dimension 1.5 or a log
    # derivative at 1.5 escaped as a TypeError, and compare scaled by 3/2
    from nonarch.forms import MonomialChart
    from nonarch.weights import KummerDivisorialSpec, compare, kahler_norm_divisorial, weight_norm

    k = pi_adic_q()
    spec = KummerDivisorialSpec(p_adic_q(2), 2, [(1, 2)])
    g = spec.one()
    t1 = LaurentPoly.variable(k, 2, 1)
    refused = [
        lambda: LaurentPoly.variable(k, 2, 1.5),
        lambda: spec.t(1.5),
        lambda: t1.log_derivative(1.5),
        lambda: log_derivative(t1, Fraction(3, 2)),
        lambda: MonomialChart.identity(k, 1.5, (0,)),
        lambda: weight_norm(spec, g, 1.5),
        lambda: kahler_norm_divisorial(spec, g, 1.5),
        lambda: compare(spec, g, 1.5),
    ]
    for make in refused:
        with pytest.raises(DomainError, match="is not an integer"):
            make()
    # integral values of any type are still read as ints
    assert LaurentPoly.variable(k, 2, 2.0) == LaurentPoly.variable(k, 2, 2)
    assert spec.t(Fraction(2)) == spec.t(2)
    assert (t1 * 3).log_derivative(1.0) == t1 * 3
    assert MonomialChart.identity(k, 2.0, (0, 1)).n == 2
    assert compare(spec, g, 2.0) == compare(spec, g, 2)
    assert weight_norm(spec, g, 2.0) == weight_norm(spec, g, 2)
    assert kahler_norm_divisorial(spec, g, 2.0) == kahler_norm_divisorial(spec, g, 2)


# (model, its sympy domain, the characteristic of its coefficients)
_ORACLE_MODELS = [(trivial_q(), "QQ", 0), (p_adic_q(2), "QQ", 0), (pi_adic_fp(3), "GF(3)", 3)]


@st.composite
def _oracle_pairs(draw):
    model, domain, char = draw(st.sampled_from(_ORACLE_MODELS))
    n = draw(st.integers(1, 3))
    if char:
        coeff = st.integers(-4, 4)  # constants of F_3(pi)
    else:
        coeff = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    exps = st.tuples(*[st.integers(-3, 3)] * n)
    f, g = (LaurentPoly(model, n, draw(st.dictionaries(exps, coeff, max_size=6))) for _ in range(2))
    return domain, n, f, g


def _to_sympy(f, shift, gens, domain):
    """f times (t1...tn)^shift as a sympy Poly: every exponent nonnegative."""
    from sympy import Poly

    terms = {}
    for exps, c in f.terms.items():
        assert len(c.num) == len(c.den) == 1  # a constant of the base field
        a, b = c.num[0], c.den[0]
        # in canonical form: ints in lowest terms, b > 0, and b = 1 over F_p
        assert type(a) is type(b) is int and b > 0 and gcd(a, b) == 1
        assert b == 1 or c.model.kind != PI_ADIC_FP
        terms[tuple(e + shift for e in exps)] = a if b == 1 else Fraction(a, b)
    return Poly.from_dict(terms, *gens, domain=domain)


@settings(max_examples=80, deadline=None)
@given(_oracle_pairs())
def test_laurent_arithmetic_matches_sympy(case):
    # independent oracle: sympy's Poly over QQ (trivial, Q_2) or GF(3)
    # (F_3(pi), constant coefficients), after shifting every exponent of
    # an operand by 3 and of a product by 6
    from sympy import GF, QQ, symbols

    from nonarch.laurent import _exact_quotient

    domain, n, f, g = case
    gens = symbols(f"x1:{n + 1}")
    domain = {"QQ": QQ, "GF(3)": GF(3)}[domain]
    pf, pg = (_to_sympy(h, 3, gens, domain) for h in (f, g))
    assert _to_sympy(f + g, 3, gens, domain) == pf + pg
    assert _to_sympy(f - g, 3, gens, domain) == pf - pg
    product_ = f * g
    assert _to_sympy(product_, 6, gens, domain) == pf * pg
    if not g.is_zero:
        quotient = _exact_quotient(product_, g)
        assert quotient == f
        q, r = _to_sympy(product_, 6, gens, domain).div(pg)
        assert r.is_zero and _to_sympy(quotient, 3, gens, domain) == q
    for h in (f, g, f + g, f - g, product_):
        assert all(not c.is_zero for c in h.terms.values())


def test_every_term_dict_producer_drops_cancelled_terms():
    # one cancelling input per producer of a term dict: the cancelled key is
    # gone, and no stored coefficient is zero
    from nonarch.expr import parse_poly
    from nonarch.forms import MonomialChart, Pluriform, pullback
    from nonarch.weights import KummerDivisorialSpec

    def clean(terms):
        return all(not c.is_zero for c in terms.values())

    k = p_adic_q(3)
    t1, t2 = LaurentPoly.variable(k, 2, 1), LaurentPoly.variable(k, 2, 2)
    parsed = parse_poly("t1 - t1 + t2", k, 2)
    assert parsed.terms == t2.terms and clean(parsed.terms)

    spec = KummerDivisorialSpec(k, 1, [(1, 2)])
    reduced = spec.reduce(spec.s(1) ** 2 - spec.t(1) + spec.one())
    assert reduced.terms == spec.one().terms and clean(reduced.terms)

    # two spellings of one basis index, whose t1 terms cancel
    form = Pluriform(k, 2, 1, 1, {((1,),): t1 + t2, (("1",),): -t1})
    assert form.coeffs == {((1,),): t2} and clean(form.coeffs)

    # t1 = s1*s2, t2 = s1: dt1/t1 - dt2/t2 = ds2/s2, and the ds1/s1 sum cancels
    s1, s2 = t1, t2
    phi = Pluriform(k, 2, 1, 1, {((1,),): 1, ((2,),): -1})
    pulled = pullback(phi, MonomialChart(k, [s1 * s2, s1], rho=(1, 1)))
    assert pulled.form.coeffs == {((2,),): LaurentPoly.one(k, 2)}
    assert pulled.denominator == 1 and clean(pulled.form.coeffs)
