import random
from fractions import Fraction

import pytest

from nonarch.errors import DomainError
from nonarch.fields import p_adic_q, pi_adic_fp, pi_adic_q, trivial_q
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
