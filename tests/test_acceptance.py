"""Acceptance suite: exact (tolerance-zero) checks of the package-level
identities, one criterion per test, one pass/fail line each."""

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product
from math import gcd

from nonarch.fields import p_adic_q, pi_adic_fp, pi_adic_q, trivial_q
from nonarch.forms import (
    MonomialChart,
    Pluriform,
    TameStatus,
    kahler_norm_at,
    tame_certificate,
)
from nonarch.laurent import LaurentPoly, gauss_val
from nonarch.lattices import PresentationMatrix, content, det_val, semilattice_index, smith
from nonarch.seminorms import DiagSeminorm, norm_index
from nonarch.tropical import (
    min_locus,
    polytope_vertices,
    retract,
    semistable_skeleton,
    trop_eval,
    tropicalize,
)
from nonarch.values import Val, vsum
from nonarch.weights import KummerDivisorialSpec, compare, different_kummer_ramified, log_different

MODELS = [p_adic_q(2), p_adic_q(3), pi_adic_q()]


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")


def _random_poly(rng, model, n, max_terms=8):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(-3, 3) for _ in range(n))
        terms[exps] = model.elem(rng.randint(-30, 30))
    return LaurentPoly(model, n, terms)


def _random_radii(rng, n, lo=-6, hi=6):
    return tuple(Fraction(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(n))


def test_criterion_1_gauss_multiplicativity():
    rng = random.Random(101)
    with criterion(1, "Gauss multiplicativity on 1000 random pairs"):
        for k in range(1000):
            model = MODELS[k % len(MODELS)]
            n = rng.randint(1, 3)
            f = _random_poly(rng, model, n)
            g = _random_poly(rng, model, n)
            while f.is_zero:
                f = _random_poly(rng, model, n)
            while g.is_zero:
                g = _random_poly(rng, model, n)
            rho = _random_radii(rng, n)
            assert gauss_val(f * g, rho) == gauss_val(f, rho) + gauss_val(g, rho)


def _random_integral(rng, model, size):
    pi = model.uniformizer()
    units = [1, -1, 3, 5, 7, -3]
    return [
        [
            model.zero() if rng.random() < 0.15
            else model.elem(rng.choice(units)) * pi ** rng.randint(0, 3)
            for _ in range(size)
        ]
        for _ in range(size)
    ]


def _mat_mul(a, b, model):
    size = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(size)), model.zero()) for j in range(size)]
        for i in range(size)
    ]


def test_criterion_2_content_multiplicativity():
    rng = random.Random(102)
    with criterion(2, "content multiplicativity and divisor checksum, 500 pairs per model"):
        for model in MODELS:
            done = 0
            while done < 500:
                size = rng.randint(1, 5)
                x = _random_integral(rng, model, size)
                y = _random_integral(rng, model, size)
                dx = det_val(x, model)
                dy = det_val(y, model)
                if dx.is_inf or dy.is_inf:
                    continue
                cx = content(PresentationMatrix.from_rows(model, x))
                cy = content(PresentationMatrix.from_rows(model, y))
                cxy = content(PresentationMatrix.from_rows(model, _mat_mul(x, y, model)))
                assert cxy == cx + cy
                assert vsum(smith(PresentationMatrix.from_rows(model, x)).divisors) == dx
                assert vsum(smith(PresentationMatrix.from_rows(model, y)).divisors) == dy
                done += 1


def test_criterion_3_content_index_duality():
    rng = random.Random(103)
    with criterion(3, "content-index duality on 200 nested lattice pairs"):
        done = 0
        while done < 200:
            model = MODELS[done % len(MODELS)]
            size = rng.randint(1, 4)
            m = _random_integral(rng, model, size)
            t = _random_integral(rng, model, size)
            if det_val(m, model).is_inf or det_val(t, model).is_inf:
                continue
            l = _mat_mul(m, t, model)
            idx = semilattice_index(m, l, model)
            assert idx + content(PresentationMatrix.from_rows(model, t)) == Val(0)
            done += 1


def test_criterion_4_index_transitivity():
    rng = random.Random(104)
    with criterion(4, "index transitivity on 200 random triples"):
        for _ in range(200):
            dim = rng.randint(1, 6)
            a, b, c = (
                DiagSeminorm.from_weights(
                    [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(dim)]
                )
                for _ in range(3)
            )
            assert norm_index(a, b) + norm_index(b, c) == norm_index(a, c)


def test_criterion_5_torus_skeleton():
    rng = random.Random(105)
    with criterion(5, "canonical form: norm 1 on the skeleton, < 1 off it"):
        for _ in range(100):
            model = rng.choice(MODELS)
            n = rng.randint(1, 4)
            m = rng.randint(1, 2)
            rho = _random_radii(rng, n)
            chart = MonomialChart.identity(model, n, rho)
            assert kahler_norm_at(Pluriform.canonical(model, n, m), chart) == Val(0)
        for _ in range(100):
            model = rng.choice(MODELS)
            n = rng.randint(1, 4)
            m = rng.randint(1, 2)
            rho = tuple(Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(n))
            units = [a for a in (1, -1, 3, 5, 7, 11) if model.elem(a).val() == Val(0)]
            subs = []
            for i in range(1, n + 1):
                a = rng.choice(units)
                subs.append(LaurentPoly.variable(model, n, i) + model.elem(a))
            chart = MonomialChart(model, subs, rho)
            value = kahler_norm_at(Pluriform.canonical(model, n, m), chart)
            assert value > Val(0)


def test_criterion_6_disc_radius():
    rng = random.Random(106)
    with criterion(6, "norm of dT at radius rho equals rho, 50 radii"):
        model = pi_adic_q()
        t = LaurentPoly.variable(model, 1, 1)
        dT = Pluriform(model, 1, 1, 1, {((1,),): t})
        for _ in range(50):
            rho = Fraction(rng.randint(0, 40), rng.randint(1, 12))
            chart = MonomialChart.identity(model, 1, (rho,))
            assert kahler_norm_at(dT, chart) == Val(rho)


def _unimodular_like(rng, n, p):
    """Random integer matrix with determinant prime to p."""
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        det = _int_det(rows)
        if det != 0 and gcd(det, p) == 1:
            return rows, det


def _int_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _int_det(minor)
    return total


def test_criterion_7_tameness_determinant_criterion():
    rng = random.Random(107)
    with criterion(7, "determinant tameness criterion, 100 instances"):
        for k in range(100):
            p = [2, 3, 5][k % 3]
            model = p_adic_q(p)
            n = rng.randint(1, 3)
            rows, det = _unimodular_like(rng, n, p)
            rho = tuple(Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(n))
            subs = [LaurentPoly.monomial(model, n, tuple(r), 1) for r in rows]
            chart = MonomialChart(model, subs, rho)
            assert tame_certificate(chart) == TameStatus.TAME
            assert kahler_norm_at(Pluriform.canonical(model, n), chart) == Val(0)

            i = rng.randrange(n)
            wild_rows = [list(r) for r in rows]
            wild_rows[i] = [p * x for x in wild_rows[i]]
            wild_subs = [LaurentPoly.monomial(model, n, tuple(r), 1) for r in wild_rows]
            wild_chart = MonomialChart(model, wild_subs, rho)
            assert tame_certificate(wild_chart) == TameStatus.WILD
            value = kahler_norm_at(Pluriform.canonical(model, n), wild_chart)
            assert value == model.elem(p * det).val()
            assert value > Val(0)


def _random_form(rng, model, n):
    subsets_by_l = {l: list(combinations(range(1, n + 1), l)) for l in range(n + 1)}
    l = rng.randint(0, n)
    m = rng.randint(1, 2)
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.choice(subsets_by_l[l]) for _ in range(m))
        poly = _random_poly(rng, model, n, max_terms=4)
        if poly.is_zero:
            continue
        coeffs[e] = coeffs[e] + poly if e in coeffs else poly
    return Pluriform(model, n, l, m, {e: c for e, c in coeffs.items() if not c.is_zero})


def test_criterion_8_pl_restriction_consistency():
    rng = random.Random(108)
    with criterion(8, "tropicalization matches the norm at 1000 random (form, point)"):
        for k in range(1000):
            model = MODELS[k % len(MODELS)]
            n = rng.randint(1, 3)
            phi = _random_form(rng, model, n)
            rho = _random_radii(rng, n)
            got = trop_eval(tropicalize(phi), rho)
            want = kahler_norm_at(phi, MonomialChart.identity(model, n, rho))
            assert got == want


def test_criterion_9_face_structure():
    rng = random.Random(109)
    with criterion(9, "locus components are faces; optimum matches vertex enumeration"):
        for _ in range(50):
            model = rng.choice(MODELS)
            n = rng.randint(1, 3)
            va = Fraction(rng.randint(1, 4))
            skel = semistable_skeleton(n, va)
            phi = _random_form(rng, model, n)
            while phi.is_zero:
                phi = _random_form(rng, model, n)
            poly = tropicalize(phi)
            m_star, locus = min_locus(poly, skel)
            verts = polytope_vertices(skel)
            assert min(trop_eval(poly, v).fraction for v in verts) == m_star
            assert len(locus) >= 1
            for face in locus:
                assert set(face.vertices) <= set(verts)
                for v in face.vertices:
                    assert trop_eval(poly, v).fraction == m_star
                recovered = tuple(
                    v for v in verts if all(i in skel.tight_set(v) for i in face.tight)
                )
                assert recovered == face.vertices


def test_criterion_10_weight_comparison():
    rng = random.Random(110)
    with criterion(10, "weight/Kahler comparison grid and tame different closed form"):
        for p in (2, 3, 5):
            model = p_adic_q(p)
            for n in (1, 2, 3):
                for layers in product(range(1, 7), repeat=n):
                    spec = KummerDivisorialSpec(model, n, list(enumerate(layers, start=1)))
                    expected_delta = vsum(model.elem(e).val() for e in layers)
                    assert log_different(spec, over="l") == expected_delta
                    units = [u for u in (1, -1, 7, 11, 13) if model.elem(u).val() == Val(0)]
                    for m in (1, 2, 3):
                        g = spec.one() * rng.choice(units)
                        rep = compare(spec, g, m)
                        assert rep.identity_holds
                        assert rep.wt == (Val(1) + rep.delta_log_k) * m + rep.omega
            for e in range(2, 9):
                if gcd(e, p) != 1:
                    continue
                assert different_kummer_ramified(model, e) == Val(Fraction(e - 1, e))


def test_criterion_11_divisorial_max_sanity():
    rng = random.Random(111)
    with criterion(11, "optimum attained at a rational point listed in the locus"):
        for _ in range(20):
            model = rng.choice(MODELS)
            n = rng.randint(1, 3)
            skel = semistable_skeleton(n, Fraction(rng.randint(1, 4)))
            phi = _random_form(rng, model, n)
            while phi.is_zero:
                phi = _random_form(rng, model, n)
            poly = tropicalize(phi)
            m_star, locus = min_locus(poly, skel)
            witnesses = [v for face in locus for v in face.vertices]
            assert witnesses, "locus must expose at least one rational point"
            assert any(trop_eval(poly, v).fraction == m_star for v in witnesses)
            for v in witnesses:
                assert all(isinstance(x, Fraction) for x in v)


ALL_MODELS = [trivial_q(), p_adic_q(2), p_adic_q(3), pi_adic_q(), pi_adic_fp(2), pi_adic_fp(3)]


def _top_form(rng, model, n):
    """A nonzero top-degree pluriform f (dt1/t1 ^ ... ^ dtn/tn)^m, m = 1..2."""
    f = _random_poly(rng, model, n, max_terms=4)
    while f.is_zero:
        f = _random_poly(rng, model, n, max_terms=4)
    m = rng.randint(1, 2)
    return Pluriform(model, n, n, m, {(tuple(range(1, n + 1)),) * m: f})


def test_criterion_12_norms_fall_under_retraction():
    rng = random.Random(112)
    with criterion(12, "top-degree norms fall under retraction, strictly off the skeleton"):
        for k in range(900):
            model = ALL_MODELS[k % len(ALL_MODELS)]
            n = rng.randint(1, 3)
            phi = _top_form(rng, model, n)
            units = [a for a in (1, -1, 2, 3, 5, 7) if model.elem(a).val() == Val(0)]
            s = [LaurentPoly.variable(model, n, i) for i in range(1, n + 1)]
            kind = ("identity", "translated", "quadratic")[k // len(ALL_MODELS) % 3]
            if kind == "identity":
                subs = s
            elif kind == "translated":
                subs = [x + model.elem(rng.choice(units)) for x in s]
            else:
                subs = [x * model.elem(rng.choice(units)) + x * x for x in s]
            chart = MonomialChart(model, subs, _random_radii(rng, n, -4, 4))
            norm = kahler_norm_at(phi, chart)
            assert norm >= trop_eval(tropicalize(phi), retract(chart))

        # off the skeleton: a nonempty set of coordinates unit-translated at
        # positive radius; the retraction puts those at 0, so a point whose
        # remaining radii lie in the simplex retracts into the skeleton
        for k in range(300):
            model = ALL_MODELS[k % len(ALL_MODELS)]
            n = rng.randint(1, 3)
            phi = _top_form(rng, model, n)
            units = [a for a in (1, -1, 2, 3, 5, 7) if model.elem(a).val() == Val(0)]
            moved = set(rng.sample(range(n), rng.randint(1, n)))
            subs, rho = [], []
            for i in range(n):
                x = LaurentPoly.variable(model, n, i + 1)
                if i in moved:
                    subs.append(x + model.elem(rng.choice(units)))
                    rho.append(Fraction(rng.randint(1, 6), rng.randint(1, 3)))
                else:
                    subs.append(x)
                    rho.append(Fraction(rng.randint(0, 3), rng.randint(1, 3)))
            chart = MonomialChart(model, subs, rho)
            poly = tropicalize(phi)
            r = retract(chart)
            norm = kahler_norm_at(phi, chart)
            assert norm > trop_eval(poly, r)
            if k % 4 == 0:
                skel = semistable_skeleton(n, max(sum(r), Fraction(1)))
                m_star, _ = min_locus(poly, skel)
                assert skel.contains(r) and norm > Val(m_star)
