import random
from fractions import Fraction
from itertools import product

import pytest

from nonarch.errors import DomainError
from nonarch.fields import p_adic_q, pi_adic_q, trivial_q
from nonarch.values import Val
from nonarch.weights import (
    KummerDivisorialSpec,
    compare,
    different_kummer_ramified,
    kahler_norm_divisorial,
    log_different,
    weight_norm,
)


def spec_1d(model, e):
    return KummerDivisorialSpec(model, 1, [(1, e)])


def test_weight_norm_examples():
    sp = spec_1d(p_adic_q(3), 2)
    assert weight_norm(sp, sp.one(), 1) == Val(1)
    sp2 = spec_1d(p_adic_q(2), 2)
    assert weight_norm(sp2, sp2.one(), 1) == Val(2)
    sp = spec_1d(p_adic_q(3), 2)
    assert weight_norm(sp, sp.t(1) * 3, 1) == Val(2)


def test_kahler_norm_examples():
    assert kahler_norm_divisorial(spec_1d(p_adic_q(3), 2), spec_1d(p_adic_q(3), 2).one(), 1) == Val(0)
    assert kahler_norm_divisorial(spec_1d(p_adic_q(2), 2), spec_1d(p_adic_q(2), 2).one(), 1) == Val(1)
    sp = KummerDivisorialSpec(p_adic_q(5), 3, [(1, 1), (2, 1)])
    assert kahler_norm_divisorial(sp, sp.one(), 2) == Val(0)


def test_reduction_and_vanishing():
    sp = spec_1d(p_adic_q(3), 2)
    # s^2 - t is the defining relation: it vanishes in K
    g = sp.s(1) ** 2 - sp.t(1)
    with pytest.raises(DomainError):
        weight_norm(sp, g, 1)
    # s^3 = s * t after reduction
    h = sp.s(1) ** 3 - sp.s(1) * sp.t(1)
    assert sp.reduce(h).is_zero
    # non-Kummer s-variable is rejected
    from nonarch.laurent import LaurentPoly

    sp2 = KummerDivisorialSpec(p_adic_q(3), 2, [(1, 2)])
    stray = LaurentPoly.variable(sp2.model, 4, 4)  # s_2, but 2 is not Kummer
    with pytest.raises(DomainError):
        sp2.value(sp2.t(2) + stray)


def test_log_different_examples():
    assert log_different(spec_1d(p_adic_q(2), 2), over="l") == Val(1)
    assert log_different(spec_1d(p_adic_q(3), 2), over="l") == Val(0)
    for e in (1, 2, 5):
        assert log_different(spec_1d(p_adic_q(5), e), over="k") == Val(0)


def test_log_different_without_kummer_layers_is_zero():
    # no layers: the module has no torsion, so its content is the empty
    # sum of v(e_j), over l and over k alike
    for model in (p_adic_q(2), pi_adic_q()):
        spec = KummerDivisorialSpec(model, 2, [])
        assert log_different(spec, over="l") == log_different(spec, over="k") == Val(0)


def test_log_different_matches_closed_form_and_adds_on_towers():
    for p in (2, 3, 5):
        model = p_adic_q(p)
        for e in range(1, 7):
            sp = spec_1d(model, e)
            assert log_different(sp, over="l") == model.elem(e).val()
        # tower e then e' on the same variable multiplies the exponents
        for e1, e2 in product((2, 3, 4), repeat=2):
            total = log_different(spec_1d(model, e1 * e2), over="l")
            assert total == log_different(spec_1d(model, e1), over="l") + log_different(
                spec_1d(model, e2), over="l"
            )


def test_tame_iff_log_different_vanishes():
    for p in (2, 3, 5):
        model = p_adic_q(p)
        for exps in [(1,), (2,), (3,), (2, 3), (4, 5), (6,)]:
            n = len(exps)
            sp = KummerDivisorialSpec(model, n, list(enumerate(exps, start=1)))
            prod_e = 1
            for e in exps:
                prod_e *= e
            from math import gcd

            tame = gcd(prod_e, p) == 1
            assert (log_different(sp, over="l") == Val(0)) == tame
    # residue characteristic zero: always tame
    sp = spec_1d(pi_adic_q(), 6)
    assert log_different(sp, over="l") == Val(0)


def test_different_kummer_examples():
    assert different_kummer_ramified(p_adic_q(3), 2) == Val(Fraction(1, 2))
    assert different_kummer_ramified(p_adic_q(5), 4) == Val(Fraction(3, 4))
    assert different_kummer_ramified(p_adic_q(2), 3) == Val(Fraction(2, 3))
    with pytest.raises(DomainError):
        different_kummer_ramified(p_adic_q(3), 6)
    with pytest.raises(DomainError):
        different_kummer_ramified(p_adic_q(3), 1)


def test_compare_examples():
    sp = spec_1d(p_adic_q(3), 2)
    rep = compare(sp, sp.one(), 1)
    assert (rep.wt, rep.omega, rep.delta_log_k, rep.identity_holds) == (Val(1), Val(0), Val(0), True)

    sp = spec_1d(p_adic_q(2), 2)
    rep = compare(sp, sp.one(), 1)
    assert (rep.wt, rep.omega, rep.identity_holds) == (Val(2), Val(1), True)

    sp = spec_1d(pi_adic_q(), 2)
    rep = compare(sp, sp.one(), 3)
    assert (rep.wt, rep.omega, rep.identity_holds) == (Val(3), Val(0), True)


def test_spec_validation():
    with pytest.raises(DomainError):
        KummerDivisorialSpec(trivial_q(), 1, [(1, 2)])
    with pytest.raises(DomainError):
        KummerDivisorialSpec(p_adic_q(3), 2, [(1, 2), (1, 3)])
    with pytest.raises(DomainError):
        KummerDivisorialSpec(p_adic_q(3), 1, [(1, 0)])
    with pytest.raises(DomainError):
        KummerDivisorialSpec(p_adic_q(3), 1, [(2, 2)])


def _random_unit(spec, rng):
    """A random unit of K°: unit constant plus higher-valuation junk."""
    units = [u for u in (1, 2, 5, 7, -1, -3) if spec.model.elem(u).val() == Val(0)]
    g = spec.one() * rng.choice(units)
    while True:
        # mix in terms with positive valuation or unit monomials
        if rng.random() < 0.5:
            break
        i = rng.randint(1, spec.n)
        mono = spec.t(i) ** rng.randint(-2, 2)
        pi_pow = spec.model.uniformizer() ** rng.randint(1, 2)
        g = g + mono * rng.randint(-4, 4) * pi_pow
    return g


def test_comparison_grid_sample():
    rng = random.Random(33)
    for p in (2, 3, 5):
        model = p_adic_q(p)
        for layers in [(1,), (2,), (3,), (2, 4), (5, 6), (1, 2, 3)]:
            n = len(layers)
            sp = KummerDivisorialSpec(model, n, list(enumerate(layers, start=1)))
            for m in (1, 2, 3):
                g = _random_unit(sp, rng)
                rep = compare(sp, g, m)
                assert rep.identity_holds
                assert rep.wt == (Val(1) + rep.delta_log_k) * m + rep.omega
