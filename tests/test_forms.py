import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from nonarch.errors import DomainError
from nonarch.fields import p_adic_q, pi_adic_fp, pi_adic_q, trivial_q
from nonarch.forms import (
    MonomialChart,
    Pluriform,
    TameStatus,
    differential,
    kahler_norm_at,
    pullback,
    tame_certificate,
)
from nonarch.laurent import LaurentPoly, gauss_val
from nonarch.tropical import retract, trop_eval, tropicalize
from nonarch.values import INF, Val


def one_form(model, n, coeffs):
    return Pluriform(model, n, 1, 1, {((i,),): c for i, c in coeffs.items()})


def test_pullback_translated_disc():
    k = pi_adic_q()
    phi = one_form(k, 1, {1: LaurentPoly.one(k, 1)})  # dt/t
    s = LaurentPoly.variable(k, 1, 1)
    chart = MonomialChart(k, [1 + s], rho=(1,))
    pulled = pullback(phi, chart)
    assert pulled.denominator == 1 + s
    assert pulled.form.coeffs == {((1,),): s}


def test_pullback_identity_is_identity():
    k = p_adic_q(2)
    t1 = LaurentPoly.variable(k, 2, 1)
    t2 = LaurentPoly.variable(k, 2, 2)
    phi = Pluriform(k, 2, 1, 2, {((1,), (2,)): 1 + t1, ((2,), (2,)): t2 ** -3})
    chart = MonomialChart.identity(k, 2, rho=(1, 2))
    pulled = pullback(phi, chart)
    assert pulled.denominator == LaurentPoly.one(k, 2)
    assert pulled.form == phi


def test_pullback_power_chart():
    k = pi_adic_q()
    phi = one_form(k, 1, {1: LaurentPoly.one(k, 1)})  # dt/t
    s = LaurentPoly.variable(k, 1, 1)
    chart = MonomialChart(k, [s ** 2], rho=(1,))
    pulled = pullback(phi, chart)
    assert pulled.denominator == LaurentPoly.one(k, 1)
    assert pulled.form.coeffs == {((1,),): LaurentPoly.constant(k, 1, 2)}


def test_pullback_functorial_on_monomial_charts():
    k = p_adic_q(3)
    rng = random.Random(4)
    for _ in range(10):
        n = 2
        phi = Pluriform(
            k, n, 1, 1,
            {((1,),): LaurentPoly(k, n, {(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(1, 9)}),
             ((2,),): LaurentPoly.one(k, n)},
        )
        sub1 = [
            LaurentPoly.monomial(k, n, (1, 1), 1),
            LaurentPoly.monomial(k, n, (0, 1), 1),
        ]
        sub2 = [
            LaurentPoly.monomial(k, n, (1, 0), 2),
            LaurentPoly.monomial(k, n, (1, 1), 1),
        ]
        rho = (Fraction(1, 2), Fraction(2))
        chart2 = MonomialChart(k, sub2, rho)
        # compose: t_i = sub1_i evaluated at s = sub2
        comp = []
        for g in sub1:
            acc = LaurentPoly.zero(k, n)
            for exps, c in g.terms.items():
                term = LaurentPoly.constant(k, n, c)
                for j, e in enumerate(exps):
                    term = term * sub2[j] ** e
                acc = acc + term
            comp.append(acc)
        once = pullback(phi, MonomialChart(k, comp, rho))
        twice = pullback(pullback(phi, MonomialChart(k, sub1, rho)).form, chart2)
        assert once.denominator == LaurentPoly.one(k, n)
        assert twice.denominator == LaurentPoly.one(k, n)
        assert once.form == twice.form


def test_pullback_value_functorial_through_general_charts():
    # t = 1 + s, then s = pi + u, composed directly as a polynomial
    # substitution; values must agree chart by chart.
    k = pi_adic_q()
    rng = random.Random(5)
    pi = k.uniformizer()
    for _ in range(12):
        m = rng.randint(1, 2)
        if rng.random() < 0.5:
            coeff = LaurentPoly(k, 1, {(rng.randint(-2, 2),): k.elem(rng.randint(1, 9))})
        else:
            coeff = 1 + LaurentPoly.variable(k, 1, 1)
        phi = Pluriform(k, 1, 1, m, {((1,),) * m: coeff})
        s = LaurentPoly.variable(k, 1, 1)
        g = 1 + s
        h = s + LaurentPoly.constant(k, 1, pi)
        rho = (Fraction(rng.randint(1, 5), rng.randint(1, 3)),)

        # direct: t = g(h(u)) = 1 + pi + u
        comp = 1 + h
        direct = kahler_norm_at(phi, MonomialChart(k, [comp], rho))

        # staged: phi = N/D in s-coordinates, then pull N and D through h
        staged = pullback(phi, MonomialChart(k, [g], rho))
        n2 = pullback(staged.form, MonomialChart(k, [h], rho))
        d_comp = _substitute(staged.denominator, h)
        value = kahler_norm_at_pair(n2, rho) - gauss_val(d_comp, rho)
        assert direct == value


def _substitute(f, g):
    out = LaurentPoly.zero(g.model, g.n)
    for exps, c in f.terms.items():
        term = LaurentPoly.constant(g.model, g.n, c)
        for e in exps:
            assert e >= 0
            term = term * g ** e
        out = out + term
    return out


def kahler_norm_at_pair(pulled, rho):
    from nonarch.values import vmin

    best = vmin(gauss_val(c, rho) for c in pulled.form.coeffs.values())
    return best - gauss_val(pulled.denominator, rho)


def test_kahler_norm_examples():
    # canonical form on the torus has norm 1 (additively 0) on the skeleton
    for n in (1, 2, 3):
        k = pi_adic_q()
        chart = MonomialChart.identity(k, n, rho=tuple(Fraction(i + 1, 3) for i in range(n)))
        assert kahler_norm_at(Pluriform.canonical(k, n, m=2), chart) == Val(0)

    # the norm of dT is the radius
    k = pi_adic_q()
    t = LaurentPoly.variable(k, 1, 1)
    dT = one_form(k, 1, {1: t})
    for rho in (Fraction(1), Fraction(5, 7), Fraction(-2)):
        chart = MonomialChart.identity(k, 1, rho=(rho,))
        assert kahler_norm_at(dT, chart) == Val(rho)

    # off-skeleton translated chart
    s = LaurentPoly.variable(k, 1, 1)
    chart = MonomialChart(k, [1 + s], rho=(1,))
    assert kahler_norm_at(one_form(k, 1, {1: LaurentPoly.one(k, 1)}), chart) == Val(1)


def test_kahler_norm_zero_form():
    k = pi_adic_q()
    phi = Pluriform(k, 1, 1, 1, {})
    assert kahler_norm_at(phi, MonomialChart.identity(k, 1, (1,))) == INF


def test_tame_certificate_examples():
    s = LaurentPoly.variable(pi_adic_q(), 1, 1)
    assert tame_certificate(MonomialChart.identity(p_adic_q(5), 1, (1,))) == TameStatus.TAME

    k3 = p_adic_q(3)
    s3 = LaurentPoly.variable(k3, 1, 1)
    assert tame_certificate(MonomialChart(k3, [s3 ** 3], (1,))) == TameStatus.WILD
    assert tame_certificate(MonomialChart(pi_adic_q(), [s ** 3], (1,))) == TameStatus.TAME

    # non-monomial substitution in positive residue characteristic
    assert tame_certificate(MonomialChart(k3, [1 + s3], (1,))) == TameStatus.UNKNOWN

    # equal characteristic: p-th power map is inseparable, certified wild
    kf = pi_adic_fp(2)
    sf = LaurentPoly.variable(kf, 1, 1)
    assert tame_certificate(MonomialChart(kf, [sf ** 2], (1,))) == TameStatus.WILD

    # a singular exponent matrix is not a chart, in every residue characteristic
    for model in (p_adic_q(2), pi_adic_q(), trivial_q()):
        s2a = LaurentPoly.variable(model, 2, 1)
        s2b = LaurentPoly.variable(model, 2, 2)
        with pytest.raises(DomainError, match="exponent matrix is singular"):
            tame_certificate(MonomialChart(model, [s2a * s2b, s2a * s2b], (1, 1)))


def test_singular_non_monomial_chart_is_refused():
    # t1 = t2 = s1 + s2: the logarithmic Jacobian determinant is 0, not a chart
    for model in (p_adic_q(2), p_adic_q(3), pi_adic_q(), trivial_q()):
        s1, s2 = LaurentPoly.variable(model, 2, 1), LaurentPoly.variable(model, 2, 2)
        for subs in ([s1 + s2, s1 + s2], [s1 + s2, (s1 + s2) ** 3 * 2], [s1 * s2 + 1, s1 ** 2 * s2 ** 2]):
            with pytest.raises(DomainError, match="identically zero"):
                tame_certificate(MonomialChart(model, subs, (1, 1)))
        # a nonsingular non-monomial chart keeps its certificate
        expected = TameStatus.TAME if model.residue_char == 0 else TameStatus.UNKNOWN
        assert tame_certificate(MonomialChart(model, [s1 + s2, s2], (1, 1))) == expected

    # over F_p(pi) the same determinant vanishes on a wild monomial chart,
    # so it is not taken as a test there
    kf = pi_adic_fp(3)
    f1, f2 = LaurentPoly.variable(kf, 2, 1), LaurentPoly.variable(kf, 2, 2)
    assert tame_certificate(MonomialChart(kf, [f1 ** 3, f2], (1, 1))) == TameStatus.WILD
    assert tame_certificate(MonomialChart(kf, [f1 + f2, f1 + f2], (1, 1))) == TameStatus.UNKNOWN


def test_chart_refuses_a_negative_dimension_and_radii_that_are_not_rational():
    """As LaurentPoly and Pluriform refuse a negative dimension, so does
    MonomialChart.identity; radii that Fraction cannot read are a
    DomainError with a message, not a ValueError, OverflowError or
    TypeError."""
    k = pi_adic_q()
    with pytest.raises(DomainError, match="dimension must be nonnegative"):
        MonomialChart.identity(k, -1, ())
    for rho in (["x"], [float("inf")], [float("nan")], 1, [None]):
        with pytest.raises(DomainError, match="not a vector of rational numbers"):
            MonomialChart.identity(k, 1, rho)
        with pytest.raises(DomainError, match="not a vector of rational numbers"):
            MonomialChart(k, [1 + LaurentPoly.variable(k, 1, 1)], rho)
    assert MonomialChart.identity(k, 0, ()).n == 0
    assert MonomialChart.identity(k, 1, ["1/2"]).rho == (Fraction(1, 2),)


def test_determinant_criterion_matches_norm():
    rng = random.Random(17)
    k3 = p_adic_q(3)
    for _ in range(30):
        n = rng.randint(1, 3)
        exps = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        subs = [LaurentPoly.monomial(k3, n, tuple(row), 1) for row in exps]
        rho = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n))
        chart = MonomialChart(k3, subs, rho)
        det = _det_int(exps)
        if det == 0:
            with pytest.raises(DomainError):
                tame_certificate(chart)
            continue
        value = kahler_norm_at(Pluriform.canonical(k3, n), chart)
        assert value == k3.elem(det).val()
        cert = tame_certificate(chart)
        assert (cert == TameStatus.TAME) == (value == Val(0))


def _det_int(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det_int(minor)
    return total


def test_chart_independence_unimodular():
    rng = random.Random(18)
    k3 = p_adic_q(3)
    for _ in range(20):
        n = rng.randint(1, 3)
        # random unimodular integer matrix from elementary operations
        L = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(4 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-2, 2)
                for t in range(n):
                    L[i][t] += c * L[j][t]
        subs = [LaurentPoly.monomial(k3, n, tuple(row), 1) for row in L]
        rho = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
        chart = MonomialChart(k3, subs, rho)
        assert tame_certificate(chart) == TameStatus.TAME
        # transported point: radii of t at the chart point
        rho_t = tuple(gauss_val(g, rho).fraction for g in subs)
        ident = MonomialChart.identity(k3, n, rho_t)
        phi = Pluriform(
            k3, n, 1, 1,
            {((i,),): LaurentPoly.constant(k3, n, rng.randint(1, 20)) for i in range(1, n + 1)},
        )
        assert kahler_norm_at(phi, chart) == kahler_norm_at(phi, ident)


def test_swap_chart_keeps_canonical_norm():
    # t1 = s2, t2 = s1 has exponent determinant -1: tame, value 0, and the
    # pulled-back canonical coefficient is the unit -1
    k3 = p_adic_q(3)
    subs = [LaurentPoly.variable(k3, 2, 2), LaurentPoly.variable(k3, 2, 1)]
    chart = MonomialChart(k3, subs, (Fraction(1), Fraction(2)))
    assert tame_certificate(chart) == TameStatus.TAME
    phi = Pluriform.canonical(k3, 2)
    pulled = pullback(phi, chart)
    assert pulled.form.coeffs == {((1, 2),): LaurentPoly.constant(k3, 2, -1)}
    assert kahler_norm_at(phi, chart) == Val(0)


def test_concurrent_evaluation_matches_sequential():
    from concurrent.futures import ThreadPoolExecutor

    from nonarch.tropical import min_locus, semistable_skeleton, tropicalize

    k = pi_adic_q()
    rng = random.Random(77)
    forms = []
    for _ in range(12):
        n = rng.randint(1, 3)
        coeff = LaurentPoly(
            k, n,
            {tuple(rng.randint(-2, 2) for _ in range(n)): k.elem(rng.randint(1, 9))
             for _ in range(rng.randint(1, 4))},
        )
        forms.append((Pluriform(k, n, n, 1, {(tuple(range(1, n + 1)),): coeff}), n))

    def work(item):
        phi, n = item
        return min_locus(tropicalize(phi), semistable_skeleton(n, 3))

    sequential = [work(item) for item in forms]
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(work, forms * 3))
    assert concurrent == (sequential * 3)


def test_differential_submultiplicative():
    rng = random.Random(19)
    k2 = p_adic_q(2)
    for _ in range(40):
        n = rng.randint(1, 3)
        terms = {
            tuple(rng.randint(-3, 3) for _ in range(n)): rng.randint(-9, 9)
            for _ in range(rng.randint(1, 6))
        }
        f = LaurentPoly(k2, n, {e: k2.elem(c) for e, c in terms.items()})
        if f.is_zero:
            continue
        rho = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n))
        chart = MonomialChart.identity(k2, n, rho)
        assert kahler_norm_at(differential(f), chart) >= gauss_val(f, rho)


def _kahler_norm_by_pullback(phi, chart):
    """The norm by its definition: the whole pullback, then the least Gauss
    value of its coefficients over the denominator's."""
    pulled = pullback(phi, chart)
    return INF if pulled.form.is_zero else kahler_norm_at_pair(pulled, chart.rho)


_MODELS = [trivial_q(), p_adic_q(2), p_adic_q(5), pi_adic_q(), pi_adic_fp(2), pi_adic_fp(3)]


@st.composite
def _coefficient(draw, model):
    """A nonzero field element: a small rational unit or multiple of p,
    times a power of pi on the pi-adic models."""
    q = Fraction(draw(st.sampled_from([1, -1, 2, 3, 4, Fraction(1, 2), Fraction(-2, 3),
                                       Fraction(5, 4)])))
    if model.residue_char and model.has_pi and q.numerator * q.denominator % model.p == 0:
        q = Fraction(1)
    c = model.elem(q)
    if model.has_pi:
        c = c * model.uniformizer() ** draw(st.integers(-1, 2))
    return c


@st.composite
def _laurent(draw, model, n, max_terms, lo=-2, hi=2):
    exps = draw(st.lists(st.lists(st.integers(lo, hi), min_size=n, max_size=n).map(tuple),
                         min_size=1, max_size=max_terms, unique=True))
    return LaurentPoly(model, n, {e: draw(_coefficient(model)) for e in exps})


@st.composite
def _form_and_chart(draw, top=False):
    """A pluriform of type (l, m), l = 0..n (l = n when top) and m = 1..2,
    with one to three basis indices, and a chart: the identity, monomial
    c*s^L (singular L allowed), translated c + s_i, or a mix of those with
    general substitutions."""
    model = draw(st.sampled_from(_MODELS))
    n = draw(st.integers(1, 3))
    l = n if top else draw(st.integers(0, n))
    m = draw(st.integers(1, 2))
    subsets = list(combinations(range(1, n + 1), l))
    index = st.lists(st.sampled_from(subsets), min_size=m, max_size=m).map(tuple)
    coeffs = {e: draw(_laurent(model, n, 3)) for e in draw(st.lists(index, min_size=1, max_size=3))}
    phi = Pluriform(model, n, l, m, coeffs)
    rho = tuple(draw(st.lists(st.fractions(-3, 3, max_denominator=2), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["identity", "monomial", "translated", "mixed"]))
    subs = []
    for i in range(1, n + 1):
        pick = kind if kind != "mixed" else draw(st.sampled_from(["monomial", "translated", "general"]))
        s_i = LaurentPoly.variable(model, n, i)
        if pick == "identity":
            subs.append(s_i)
        elif pick == "monomial":
            subs.append(draw(_laurent(model, n, 1)))
        elif pick == "translated":
            subs.append(s_i + LaurentPoly.constant(model, n, draw(_coefficient(model))))
        else:
            subs.append(draw(_laurent(model, n, 3, -1, 2)))
    return phi, MonomialChart(model, subs, rho)


@settings(max_examples=300, deadline=None)
@given(_form_and_chart())
def test_kahler_norm_matches_the_pullback_oracle(case):
    phi, chart = case
    assert kahler_norm_at(phi, chart) == _kahler_norm_by_pullback(phi, chart)


@settings(max_examples=200, deadline=None)
@given(_form_and_chart(top=True))
def test_top_degree_norms_fall_under_retraction(case):
    """The norm at a chart point is at most the norm at its retraction to
    the skeleton: in valuations, at least trop_eval there.  Read by the
    initial-form fast path and by the whole pullback."""
    phi, chart = case
    bound = trop_eval(tropicalize(phi), retract(chart))
    assert kahler_norm_at(phi, chart) >= bound
    assert _kahler_norm_by_pullback(phi, chart) >= bound


def _margins(monkeypatch):
    """The margins of the _expand calls that follow, in order: (M,) at a
    margin M, () for a full expansion."""
    import nonarch.forms as forms

    margins, expand = [], forms._expand
    monkeypatch.setattr(forms, "_expand", lambda *args: margins.append(args[3:4]) or expand(*args))
    return margins


def test_kahler_norm_when_initial_forms_cancel(monkeypatch):
    """t1 - 1 on the chart t1 = 1 + s1 at radius 1: both summands t1 and -1
    sit at level 0 and their initial parts 1 and -1 cancel at margin 1, so
    the norm v(s1) = 1 is read at margin 2."""
    k = pi_adic_q()
    s = LaurentPoly.variable(k, 1, 1)
    t = LaurentPoly.variable(k, 1, 1)
    chart = MonomialChart(k, [1 + s], rho=(1,))
    phi = Pluriform(k, 1, 0, 1, {((),): t - 1})
    margins = _margins(monkeypatch)
    assert kahler_norm_at(phi, chart) == Val(1)
    assert margins == [(1,), (2,)]
    assert _kahler_norm_by_pullback(phi, chart) == Val(1)


@pytest.mark.parametrize("inverse", [False, True], ids=["t1-1", "1/t1-1"])
def test_kahler_norm_read_on_the_third_rung(monkeypatch, inverse):
    """On the chart t1 = 1 + pi^3*s1 at rho = (0,), t1 - 1 and 1/t1 - 1 pull
    back to pi^3*s1 and -pi^3*s1 over 1 + pi^3*s1: norm 3.  The margins 1
    and 2 keep only the initial part 1 of the substitution, whose sum
    cancels; margin 4 reads the norm."""
    k = pi_adic_q()
    t = LaurentPoly.variable(k, 1, 1)
    chart = MonomialChart(k, [1 + LaurentPoly.variable(k, 1, 1).scale(k.uniformizer() ** 3)], rho=(0,))
    phi = Pluriform(k, 1, 0, 1, {((),): t ** -1 - 1 if inverse else t - 1})
    margins = _margins(monkeypatch)
    assert kahler_norm_at(phi, chart) == Val(3)
    assert margins == [(1,), (2,), (4,)]
    assert _kahler_norm_by_pullback(phi, chart) == Val(3)


def test_kahler_norm_of_a_vanishing_pullback_is_read_on_the_last_rung(monkeypatch):
    """t1 - t2 on the chart t1 = t2 = 1 + s1 + s2 at rho = (1, 2) pulls back
    to 0.  Margins 1 and 2 cut the substitution; margin 4 cuts nothing, so
    its empty expansion is complete and the norm is INF."""
    k = pi_adic_q()
    t1, t2 = (LaurentPoly.variable(k, 2, i) for i in (1, 2))
    g = 1 + LaurentPoly.variable(k, 2, 1) + LaurentPoly.variable(k, 2, 2)
    phi = Pluriform(k, 2, 0, 1, {((),): t1 - t2})
    chart = MonomialChart(k, [g, g], rho=(1, 2))
    margins = _margins(monkeypatch)
    assert kahler_norm_at(phi, chart) == INF
    assert margins == [(1,), (2,), (4,)]
    assert pullback(phi, chart).form.is_zero


@settings(max_examples=150, deadline=None)
@given(_form_and_chart(), st.integers(1, 9))
def test_capped_expansion_is_exact_below_its_cap(case, margin):
    """At a margin, every coefficient of the capped expansion matches the
    full one below the cap, relative to the denominator: their difference
    has no term there (a term's coefficient in Q_p or Q(pi) may differ
    above it, as 2 against 2 + pi).  With no cap the two are equal.  Where
    one summand sits alone at the least level L, the expansion reads L,
    and that is the norm."""
    import nonarch.forms as forms
    from nonarch.laurent import _level, _radii

    phi, chart = case
    table = forms._minor_table(chart, {s for e in phi.coeffs for s in e}, phi.l)
    d, steps = _radii(chart.rho, phi.n)
    out, den, cap = forms._expand(phi, chart, table, margin, (d, steps))
    full, full_den, _ = forms._expand(phi, chart, table)
    if out is None:
        assert kahler_norm_at(phi, chart) == Val(Fraction(cap, d))
        return
    assert den == full_den
    shift = sum(k * _level(g, d, steps) for g, k in zip(chart.substitutions, den))
    zero = LaurentPoly.zero(phi.model, phi.n)
    for index in set(out) | set(full):
        diff = out.get(index, zero) - full.get(index, zero)
        if cap is None:
            assert diff.is_zero
        elif not diff.is_zero:
            assert _level(diff, d, steps) - shift >= cap


@pytest.mark.parametrize("model", [pi_adic_q(), p_adic_q(2)], ids=["Q(pi)", "Q_2"])
def test_kahler_norm_read_at_an_index_off_the_least_level(monkeypatch, model):
    """phi = (t1 - 1) dt1/t1 + c dt2/t2 with c = pi^3 (8 over Q_2), on the
    chart t = (1 + s1, s2) at rho = (2, 0).  Index (1,) attains the least
    level 2, but its initial parts cancel and its exact value is 4; index
    (2,) gives 3, and so does the norm.  The fallback expands the minor
    table read for the initial parts, so each of the four 1 x 1 minors is
    computed once."""
    import nonarch.forms as forms

    c = model.uniformizer() ** 3 if model.has_pi else model.elem(8)
    t1 = LaurentPoly.variable(model, 2, 1)
    s1, s2 = (LaurentPoly.variable(model, 2, i) for i in (1, 2))
    phi = one_form(model, 2, {1: t1 - 1, 2: LaurentPoly.constant(model, 2, c)})
    chart = MonomialChart(model, [1 + s1, s2], rho=(2, 0))
    pulled = pullback(phi, chart)
    at_index = {e: gauss_val(f, chart.rho) - gauss_val(pulled.denominator, chart.rho)
                for e, f in pulled.form.coeffs.items()}
    assert at_index == {((1,),): Val(4), ((2,),): Val(3)}
    assert _kahler_norm_by_pullback(phi, chart) == Val(3)
    calls, det = [], forms._det
    monkeypatch.setattr(forms, "_det", lambda rows: calls.append(rows) or det(rows))
    assert kahler_norm_at(phi, chart) == Val(3)
    assert len(calls) == 4


def test_kahler_norm_without_cancellation_skips_the_pullback(monkeypatch):
    """Identity charts, and forms with one basis index on monomial charts
    with a nonsingular exponent matrix, have summands that are distinct
    monomials, so their initial parts never cancel: every norm is read at
    margin 1.  The expansion builds no Laurent product exactly where a
    single summand sits at the least level at its chart index (a term of
    the pullback alone there) or where every minor vanishes (a wild chart
    over F_p(pi)); the rest hold ties at that level."""
    rng = random.Random(23)
    cases = []
    for model in _MODELS:
        for n in (1, 2, 3):
            for l in range(n + 1):
                subsets = list(combinations(range(1, n + 1), l))
                rho = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
                coeff = LaurentPoly(model, n, {
                    tuple(rng.randint(-2, 2) for _ in range(n)): model.elem(rng.choice([1, -1]))
                    for _ in range(4)})
                e = tuple(rng.choice(subsets) for _ in range(2))
                several = {tuple(rng.choice(subsets) for _ in range(2)): coeff for _ in range(3)}
                cases.append((Pluriform(model, n, l, 2, several), MonomialChart.identity(model, n, rho)))
                while True:
                    L = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                    if _det_int(L):
                        break
                subs = [LaurentPoly.monomial(model, n, row, model.elem(rng.choice([1, -1])))
                        for row in L]
                cases.append((Pluriform(model, n, l, 2, {e: coeff}), MonomialChart(model, subs, rho)))
    wants = [_kahler_norm_by_pullback(phi, chart) for phi, chart in cases]

    def alone_at_the_least_level(phi, chart):
        levels = {e: [gauss_val(LaurentPoly.monomial(phi.model, phi.n, x, c), chart.rho)
                      for x, c in f.terms.items()]
                  for e, f in pullback(phi, chart).form.coeffs.items()}
        least = min((v for vs in levels.values() for v in vs), default=INF)
        return any(vs.count(least) == 1 for vs in levels.values())

    alone = [alone_at_the_least_level(phi, chart) for phi, chart in cases]
    margins, products, mul = _margins(monkeypatch), [], LaurentPoly.__mul__

    def counted_mul(f, g):
        # the minor table is built before the first expansion
        if margins:
            products.append((f, g))
        return mul(f, g)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted_mul)
    for (phi, chart), want, single in zip(cases, wants, alone):
        margins.clear()
        products.clear()
        assert kahler_norm_at(phi, chart) == want
        assert margins == [(1,)]
        assert (products == []) == (single or want == INF)
    assert sum(alone) >= len(cases) // 3
