"""pullback and kahler_norm_at against the sympy oracle of forms_oracle.py,
which builds the pulled-back coefficients from the definitions and shares
no code with nonarch.forms."""

import pytest
from hypothesis import given, settings

from forms_oracle import Oracle
from nonarch.fields import p_adic_q, pi_adic_q
from nonarch.forms import MonomialChart, Pluriform, kahler_norm_at, pullback
from nonarch.laurent import LaurentPoly
from nonarch.values import INF, Val
from test_forms import _form_and_chart, one_form


def _check(phi, chart):
    oracle = Oracle(phi, chart)
    assert oracle.agrees_with(pullback(phi, chart))
    value = kahler_norm_at(phi, chart)
    assert value == oracle.norm()
    return value


@settings(max_examples=100, deadline=None)
@given(_form_and_chart())
def test_pullback_and_norm_match_the_sympy_oracle(case):
    _check(*case)


def _initial_forms_cancel():
    """t1 - 1 on the chart t1 = 1 + s1 at radius 1: norm 1."""
    k = pi_adic_q()
    t = LaurentPoly.variable(k, 1, 1)
    chart = MonomialChart(k, [1 + LaurentPoly.variable(k, 1, 1)], rho=(1,))
    return Pluriform(k, 1, 0, 1, {((),): t - 1}), chart, Val(1)


def _off_the_least_level(model):
    """(t1 - 1) dt1/t1 + c dt2/t2 on t = (1 + s1, s2) at rho = (2, 0):
    norm 3, read at the index off the least level."""
    c = model.uniformizer() ** 3 if model.has_pi else model.elem(8)
    t1 = LaurentPoly.variable(model, 2, 1)
    s1, s2 = (LaurentPoly.variable(model, 2, i) for i in (1, 2))
    phi = one_form(model, 2, {1: t1 - 1, 2: LaurentPoly.constant(model, 2, c)})
    return phi, MonomialChart(model, [1 + s1, s2], rho=(2, 0)), Val(3)


def _three_rungs(inverse):
    """t1 - 1 or t1^-1 - 1 on t1 = 1 + pi^3*s1 at rho = (0,): norm 3."""
    k = pi_adic_q()
    t = LaurentPoly.variable(k, 1, 1)
    g = 1 + LaurentPoly.variable(k, 1, 1).scale(k.uniformizer() ** 3)
    f = t ** -1 - 1 if inverse else t - 1
    return Pluriform(k, 1, 0, 1, {((),): f}), MonomialChart(k, [g], rho=(0,)), Val(3)


def _vanishing_pullback():
    """t1 - t2 on t1 = t2 = 1 + s1 + s2 at rho = (1, 2): the pullback is 0."""
    k = pi_adic_q()
    t1, t2 = (LaurentPoly.variable(k, 2, i) for i in (1, 2))
    g = 1 + LaurentPoly.variable(k, 2, 1) + LaurentPoly.variable(k, 2, 2)
    return Pluriform(k, 2, 0, 1, {((),): t1 - t2}), MonomialChart(k, [g, g], rho=(1, 2)), INF


@pytest.mark.parametrize("case", [
    _initial_forms_cancel(),
    _off_the_least_level(pi_adic_q()),
    _off_the_least_level(p_adic_q(2)),
    _three_rungs(False),
    _three_rungs(True),
    _vanishing_pullback(),
], ids=["initial-forms-cancel", "off-least-level-Q(pi)", "off-least-level-Q_2",
        "three-rungs", "three-rungs-inverse", "vanishing-pullback"])
def test_named_cancellation_cases_match_the_sympy_oracle(case):
    phi, chart, want = case
    assert _check(phi, chart) == want
