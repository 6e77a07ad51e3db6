import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

import lattice_oracle
from nonarch import lattices
from nonarch.errors import DomainError, InvariantError
from nonarch.fields import FieldElement, p_adic_q, pi_adic_fp, pi_adic_q, trivial_q
from nonarch.laurent import LaurentPoly, _exact_quotient, _level, _radii, gauss_val
from nonarch.lattices import (
    ElementaryDivisors,
    PresentationMatrix,
    _bareiss,
    _det,
    _flat,
    _int_step,
    _kernel_rows,
    _laurent_step,
    _poly_step,
    adic_norm,
    content,
    det_val,
    semilattice_index,
    smith,
)
from nonarch.values import INF, Val, vsum
from vertex_oracle import _int_det

MODELS = [p_adic_q(2), p_adic_q(3), pi_adic_q(), pi_adic_fp(2)]


def uniformize(model, k):
    return model.uniformizer() ** k


def test_smith_examples():
    k2 = p_adic_q(2)
    d = smith(PresentationMatrix.from_rows(k2, [[2, 1], [4, 8]]))
    assert d.divisors == (Val(0), Val(2))
    assert d.free_rank == 0

    k3 = p_adic_q(3)
    d = smith(PresentationMatrix.from_rows(k3, [[3, 0], [0, 9]]))
    assert d.divisors == (Val(1), Val(2))

    # one column, two rows: a single pivot and one free direction
    d = smith(PresentationMatrix.from_rows(k2, [[1], [0]]))
    assert d.divisors == (Val(0),) and d.free_rank == 1
    d = smith(PresentationMatrix.from_rows(k2, [[2], [0]]))
    assert d.divisors == (Val(1),) and d.free_rank == 1


def test_smith_rejects_negative_valuation():
    k2 = p_adic_q(2)
    with pytest.raises(DomainError):
        PresentationMatrix.from_rows(k2, [[Fraction(1, 2)]])


def test_content_examples():
    k2 = p_adic_q(2)
    assert content(PresentationMatrix.from_rows(k2, [[2, 0], [0, 4]])) == Val(3)
    assert content(PresentationMatrix(k2, [[]], nvars=0)) == INF  # K° with no relations
    assert content(PresentationMatrix(k2, [], nvars=0)) == Val(0)  # zero module


def test_semilattice_index_examples():
    k2 = p_adic_q(2)
    ident = [[1, 0], [0, 1]]
    twice = [[2, 0], [0, 2]]
    assert semilattice_index(ident, twice, k2) == Val(-2)
    assert semilattice_index(twice, twice, k2) == Val(0)
    assert semilattice_index([[1, 0], [0, 2]], [[2, 0], [0, 2]], k2) == Val(-1)
    with pytest.raises(DomainError):
        semilattice_index([[1, 1], [1, 1]], ident, k2)


def test_adic_norm_examples():
    k2 = p_adic_q(2)
    free2 = ElementaryDivisors((), 2)
    assert adic_norm(free2, [2, 3], k2) == Val(0)
    tors4 = ElementaryDivisors((Val(2),), 0)
    assert adic_norm(tors4, [2], k2) == Val(1)
    assert adic_norm(tors4, [4], k2) == INF
    with pytest.raises(DomainError):
        adic_norm(tors4, [1, 2], k2)


def test_adic_norm_mixed():
    k2 = p_adic_q(2)
    d = ElementaryDivisors((Val(1), Val(3)), 1)
    # free coord 4 (val 2), torsion coords: 2 mod pi^1 -> dead, 2 mod pi^3 -> val 1
    assert adic_norm(d, [4, 2, 2], k2) == Val(1)
    assert adic_norm(d, [0, 0, 0], k2) == INF


def _random_integral_matrix(rng, model, size, max_pow=3):
    pi = model.uniformizer()
    rows = []
    for _ in range(size):
        row = []
        for _ in range(size):
            if rng.random() < 0.15:
                row.append(model.zero())
            else:
                unit = model.elem(rng.choice([1, 1, 3, 5, -1, 7]))
                row.append(unit * pi ** rng.randint(0, max_pow))
        rows.append(row)
    return rows


def _mat_mul(a, b, model):
    size = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(size)), model.zero()) for j in range(size)]
        for i in range(size)
    ]


@pytest.mark.parametrize("model", MODELS)
def test_divisor_sum_is_det_val(model):
    rng = random.Random(21)
    for _ in range(60):
        size = rng.randint(1, 6)
        rows = _random_integral_matrix(rng, model, size)
        dv = det_val(rows, model)
        if dv.is_inf:
            continue
        d = smith(PresentationMatrix.from_rows(model, rows))
        assert d.free_rank == 0
        assert vsum(d.divisors) == dv


@pytest.mark.parametrize("model", MODELS)
def test_content_multiplicative(model):
    rng = random.Random(22)
    checked = 0
    while checked < 60:
        size = rng.randint(1, 5)
        x = _random_integral_matrix(rng, model, size)
        y = _random_integral_matrix(rng, model, size)
        if det_val(x, model).is_inf or det_val(y, model).is_inf:
            continue
        cx = content(PresentationMatrix.from_rows(model, x))
        cy = content(PresentationMatrix.from_rows(model, y))
        cxy = content(PresentationMatrix.from_rows(model, _mat_mul(x, y, model)))
        assert cxy == cx + cy
        checked += 1


@pytest.mark.parametrize("model", [p_adic_q(2), pi_adic_q()])
def test_content_index_duality(model):
    # L = M·T nested in M: index [M:L] = -content(T)
    rng = random.Random(23)
    checked = 0
    while checked < 40:
        size = rng.randint(1, 4)
        m = _random_integral_matrix(rng, model, size, max_pow=2)
        t = _random_integral_matrix(rng, model, size, max_pow=2)
        if det_val(m, model).is_inf or det_val(t, model).is_inf:
            continue
        l = _mat_mul(m, t, model)
        idx = semilattice_index(m, l, model)
        assert idx + content(PresentationMatrix.from_rows(model, t)) == Val(0)
        checked += 1


def _random_unimodular(rng, model, size):
    # product of elementary matrices: valuation-zero determinant
    rows = [[model.elem(1 if i == j else 0) for j in range(size)] for i in range(size)]
    for _ in range(size * 3):
        i, j = rng.randrange(size), rng.randrange(size)
        if i == j:
            continue
        c = model.elem(rng.randint(-3, 3)) * model.uniformizer() ** rng.randint(0, 2)
        for k in range(size):
            rows[i][k] = rows[i][k] + c * rows[j][k]
    return rows


@pytest.mark.parametrize("model", [p_adic_q(3), pi_adic_fp(2)])
def test_divisors_stable_under_unimodular(model):
    rng = random.Random(24)
    for _ in range(25):
        size = rng.randint(1, 4)
        a = _random_integral_matrix(rng, model, size)
        u = _random_unimodular(rng, model, size)
        v = _random_unimodular(rng, model, size)
        d0 = smith(PresentationMatrix.from_rows(model, a))
        d1 = smith(PresentationMatrix.from_rows(model, _mat_mul(u, _mat_mul(a, v, model), model)))
        assert d0 == d1


def test_smith_matches_integer_normal_form_oracle():
    # independent oracle: over Z the Smith form is computed by sympy, and
    # the p-adic elementary divisors are the p-parts of its diagonal
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(28)
    for _ in range(40):
        size = rng.randint(1, 4)
        ints = [[rng.randint(-12, 12) for _ in range(size)] for _ in range(size)]
        snf = smith_normal_form(Matrix(ints), domain=ZZ)
        diag = [int(snf[i, i]) for i in range(size)]
        for p in (2, 3, 5):
            model = p_adic_q(p)
            mine = smith(PresentationMatrix.from_rows(model, ints))
            expected = sorted(_vp(d, p) for d in diag if d != 0)
            assert [v.fraction for v in mine.divisors] == expected
            assert mine.free_rank == sum(1 for d in diag if d == 0)


def _vp(n, p):
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def test_diagonal_with_permutations():
    rng = random.Random(30)
    model = p_adic_q(2)
    pi = model.uniformizer()
    for _ in range(20):
        size = rng.randint(1, 5)
        vals = [rng.randint(0, 4) for _ in range(size)]
        perm_r = list(range(size))
        perm_c = list(range(size))
        rng.shuffle(perm_r)
        rng.shuffle(perm_c)
        rows = [
            [pi ** vals[i] if perm_c[j] == perm_r[i] else model.zero() for j in range(size)]
            for i in range(size)
        ]
        d = smith(PresentationMatrix.from_rows(model, rows))
        assert [v.fraction for v in d.divisors] == sorted(vals)


def test_gauss_ratio_multiplicative():
    from nonarch.laurent import LaurentPoly, gauss_val_rational

    k = pi_adic_q()
    rng = random.Random(31)
    t = LaurentPoly.variable(k, 1, 1)
    pi = LaurentPoly.constant(k, 1, k.uniformizer())
    for _ in range(25):
        f1, g1 = 1 + t * rng.randint(1, 5), t ** rng.randint(1, 3) + pi
        f2, g2 = pi * rng.randint(1, 4) + t, 1 + t
        rho = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)),)
        lhs = gauss_val_rational(f1 * f2, g1 * g2, rho)
        assert lhs == gauss_val_rational(f1, g1, rho) + gauss_val_rational(f2, g2, rho)


def test_norm_index_matches_lattice_index():
    # the diagonal lattice spanned by pi^{a_i} e_i induces the diagonal
    # norm with weights -a_i; the two index notions are inverse
    from nonarch.seminorms import DiagSeminorm, norm_index

    rng = random.Random(29)
    for model in (p_adic_q(2), pi_adic_q()):
        pi = model.uniformizer()
        for _ in range(25):
            size = rng.randint(1, 4)
            a = [rng.randint(0, 4) for _ in range(size)]
            b = [rng.randint(0, 4) for _ in range(size)]
            m_rows = [[pi ** a[i] if i == j else model.zero() for j in range(size)] for i in range(size)]
            l_rows = [[pi ** b[i] if i == j else model.zero() for j in range(size)] for i in range(size)]
            norm_m = DiagSeminorm.from_weights([-x for x in a])
            norm_l = DiagSeminorm.from_weights([-x for x in b])
            assert norm_index(norm_l, norm_m) == -semilattice_index(m_rows, l_rows, model)


def test_laurent_entries_with_gauss_radii():
    # 1x1 presentation (e * s^(e-1)) at radius 1/e: content (e-1)/e for p∤e
    k3 = p_adic_q(3)
    e = 4
    s = LaurentPoly.variable(k3, 1, 1)
    pres = PresentationMatrix(k3, [[s ** (e - 1) * e]], nvars=1, rho=(Fraction(1, e),))
    assert content(pres) == Val(Fraction(e - 1, e))


# -- the fraction-free kernel against the elimination in ratios --------------

KERNEL_MODELS = [p_adic_q(2), pi_adic_q(), pi_adic_fp(3), trivial_q()]


def _unit_times_pi(model, c, k):
    """c * pi^k, with 2 standing in for pi over Q_2 and 1 over the trivial
    field."""
    if model.has_pi:
        return model.elem(c) * model.uniformizer() ** k
    base = 2 if model.kind == "p-adic-q" else 1
    return model.elem(c * base ** k)


_term = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                  st.sampled_from([1, -1, 2, 3, -5]))


def _entry(model, nvars, terms):
    out = {}
    for a, b, k, c in terms:
        exps = (a, b)[:nvars]
        out[exps] = out.get(exps, model.zero()) + _unit_times_pi(model, c, k)
    return LaurentPoly(model, nvars, out)


@st.composite
def _laurent_matrices(draw, sizes=(2, 3)):
    model = draw(st.sampled_from(KERNEL_MODELS))
    nvars = draw(st.integers(1, 2))
    rows = draw(st.sampled_from(sizes))
    cols = draw(st.sampled_from(sizes))
    entries = [[_entry(model, nvars, draw(st.lists(_term, max_size=3))) for _ in range(cols)]
               for _ in range(rows)]
    # a row that is a multiple of another (rank deficiency) or the zero row
    kind = draw(st.sampled_from(["plain", "plain", "multiple", "zero"]))
    if kind == "multiple":
        factor = _entry(model, nvars, draw(st.lists(_term, min_size=1, max_size=2)))
        entries[-1] = [e * factor for e in entries[0]]
    elif kind == "zero":
        entries[-1] = [LaurentPoly.zero(model, nvars) for _ in range(cols)]
    rho = tuple(Fraction(draw(st.integers(0, 6)), draw(st.integers(1, 3))) for _ in range(nvars))
    return model, nvars, rho, entries


@settings(max_examples=80, deadline=None)
@given(_laurent_matrices())
def test_kernel_smith_and_det_val_match_the_ratio_oracle(case):
    model, nvars, rho, entries = case
    pres = PresentationMatrix(model, entries, nvars=nvars, rho=rho)
    assert smith(pres) == lattice_oracle.smith(pres)
    if len(entries) == len(entries[0]):
        assert det_val(entries, model, nvars, rho) == lattice_oracle.det_val(entries, model, nvars, rho)


def _found_matrix(seed, model=None, size=4):
    """The 4 x 4 Laurent matrices in two variables on which elimination in
    ratios blew up: 1-3 terms unit * pi^k * t1^a * t2^b, a, b, k in 0..2."""
    model = model or pi_adic_q()
    rng = random.Random(seed)
    rows = []
    for _ in range(size):
        row = []
        for _ in range(size):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                a, b, k = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
                terms[(a, b)] = _unit_times_pi(model, rng.choice([1, -1, 2, 3, -5]), k)
            row.append(LaurentPoly(model, 2, terms))
        rows.append(row)
    return rows


def _check_divisor_sum_is_cofactor_det(model, rows, rho):
    d = smith(PresentationMatrix(model, rows, nvars=2, rho=rho))
    det = lattice_oracle.det_laurent(rows)
    assert _det(rows) == det
    if det.is_zero:
        assert d.free_rank > 0 and det_val(rows, model, 2, rho) == INF
    else:
        assert d.free_rank == 0
        assert vsum(d.divisors) == gauss_val(det, rho) == det_val(rows, model, 2, rho)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_4x4_laurent_divisor_sum_is_the_cofactor_determinant(seed):
    _check_divisor_sum_is_cofactor_det(pi_adic_q(), _found_matrix(seed),
                                       (Fraction(1, 2), Fraction(1, 3)))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(KERNEL_MODELS), st.integers(3, 10**6),
       st.tuples(st.integers(0, 4), st.integers(1, 3)), st.tuples(st.integers(0, 4), st.integers(1, 3)))
def test_4x4_laurent_divisor_sum_random(model, seed, r1, r2):
    _check_divisor_sum_is_cofactor_det(model, _found_matrix(seed, model), (Fraction(*r1), Fraction(*r2)))


# 5 x 5 and 6 x 6 matrices whose zero diagonal entries, zero first row or
# zero leading block make the kernel swap rows and columns
_SWAPPING_DETS = [
    [[0, 1, 0, 0, 0], [0, 0, 2, 0, 0], [0, 0, 0, -3, 0], [0, 0, 0, 0, 1], [4, 0, 0, 0, 0]],
    [[0, 0, 0, 0, 0], [1, 2, 0, 0, 3], [0, 0, 1, -1, 0], [2, 0, 0, 1, 0], [0, 3, 4, 0, 0]],
    [[0, 0, 0, 1, 2], [0, 0, 0, 3, 4], [0, 0, 1, 0, 0], [5, 6, 0, 0, 0], [7, 8, 0, 0, 1]],
    [[0, 2, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 0, 0, -1, 0, 0], [0, 0, 3, 0, 0, 0],
     [0, 0, 0, 0, 0, 4], [0, 0, 0, 0, -2, 0]],
    [[0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 2, 0], [1, 0, 0, 0, 0, 1], [0, 3, 0, 0, 0, 0],
     [0, 0, 0, 4, 0, 0], [2, 0, 0, 0, 1, 0]],
]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)))
@example(_SWAPPING_DETS[0])
@example(_SWAPPING_DETS[1])
@example(_SWAPPING_DETS[2])
@example(_SWAPPING_DETS[3])
@example(_SWAPPING_DETS[4])
def test_kernel_integer_det_matches_the_oracle(rows):
    assert _det(rows) == _int_det(rows)


def _first_nonzero_bareiss(work, step):
    """The kernel's former valuation-free pivot rule, kept as a reference:
    each pivot is the first nonzero live entry in row-major order.
    Returns (positions, sign) as _bareiss does."""
    live_rows = list(range(len(work)))
    live_cols = list(range(len(work[0]))) if work else []
    positions, prev, sign = [], None, 1
    while live_rows and live_cols:
        at = next(((r, c) for r in live_rows for c in live_cols if work[r][c]), None)
        if at is None:
            break
        pr, pc = at
        i, j = live_rows.index(pr), live_cols.index(pc)
        if (i + j) & 1:
            sign = -sign
        del live_rows[i], live_cols[j]
        positions.append(at)
        top, piv = work[pr], work[pr][pc]
        for r in live_rows:
            a = work[r][pc]
            for c in live_cols:
                work[r][c] = step(piv, work[r][c], a, top[c], prev)
        prev = piv
    return positions, sign


def _sparse_laurent_matrix(rng, model, rows, cols):
    """A rows x cols matrix of Laurent polynomials in two variables, about
    half of its entries zero."""
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            terms = {}
            if rng.random() < 0.5:
                for _ in range(rng.randint(1, 2)):
                    exps = (rng.randint(-1, 2), rng.randint(0, 2))
                    terms[exps] = _unit_times_pi(model, rng.choice([1, -1, 2, 3]), rng.randint(0, 2))
            row.append(LaurentPoly(model, 2, terms))
        out.append(row)
    return out


def test_the_trivial_valuation_pivots_on_the_first_nonzero_entry():
    # under _flat the kernel takes the same pivots, with the same sign and
    # the same eliminated matrix, as the first-nonzero rule it replaced:
    # on sparse int matrices (zero diagonal entries, a zero first row,
    # rectangular and singular ones) and on sparse Laurent matrices
    fixed = [[[0, 1], [1, 0]], [[0, 0, 0], [0, 2, 1], [3, 0, 0]], [[0, 0], [0, 0]],
             [[0, 5, 0, 1], [0, 0, 0, 0], [2, 0, 0, 0]]] + _SWAPPING_DETS
    rng = random.Random(25)
    ints = fixed + [[[rng.choice([0, 0, 0, 1, -2, 3]) for _ in range(c)] for _ in range(r)]
                    for r, c in [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(200)]]
    for rows in ints:
        got, want = [r[:] for r in rows], [r[:] for r in rows]
        positions, sign, vals = _bareiss(got, _int_step, _flat)
        assert (positions, sign) == _first_nonzero_bareiss(want, _int_step) and got == want
        assert vals == [0] * len(positions)
    model = pi_adic_q()
    for size in (1, 2, 3, 3, 4, 4, 5):
        rows = _sparse_laurent_matrix(rng, model, size, size)
        rows[0] = [LaurentPoly.zero(model, 2)] * size  # a zero first row
        for shape in (rows, rows[::-1]):
            got, want = [r[:] for r in shape], [r[:] for r in shape]
            positions, sign, _ = _bareiss(got, _laurent_step, _flat)
            assert (positions, sign) == _first_nonzero_bareiss(want, _laurent_step) and got == want
        rows = _sparse_laurent_matrix(rng, model, size, size)
        assert _det(rows) == lattice_oracle.det_laurent(rows)


def test_exact_quotient_recovers_factors_and_refuses_remainders():
    k = pi_adic_q()
    t1, t2 = LaurentPoly.variable(k, 2, 1), LaurentPoly.variable(k, 2, 2)
    pi = k.uniformizer()
    f, g = t1 * t2 ** -1 + pi * t2 + 3, t1 ** 2 - t2 * pi + t1 * t2 ** -2
    assert _exact_quotient(f * g, g) == f
    assert _exact_quotient(f * g, f) == g
    assert _exact_quotient(f * 5 * t1 ** -3, t1 ** -3 * 5) == f
    one = LaurentPoly.one(k, 2)
    # t1 + t2^5 over 1 + t2^-1: lex-leading division alone would run down
    # t1*t2^-k for ever; the exponent box stops it at once
    for num, den in ((f * g + 1, g), (t1, t1 - t2), (one, 1 + t1 ** -1), (f, g),
                     (t1 + t2 ** 5, 1 + t2 ** -1)):
        with pytest.raises(InvariantError, match="inexact"):
            _exact_quotient(num, den)


def test_inexact_division_is_refused_under_python_O():
    # each division f / g goes through its ring's step as (1*f - 0*0) / g;
    # the tuple cases are polynomials, as _kernel_rows makes them:
    # (1 + pi) / 2 lies in Q(pi) but not in Z[pi], pi / (1 + pi) in F_2(pi)
    # but not in F_2[pi]
    code = ("from nonarch.fields import pi_adic_q\n"
            "from nonarch.laurent import LaurentPoly\n"
            "from nonarch.lattices import _int_step, _laurent_step, _poly_step\n"
            "from nonarch.errors import InvariantError\n"
            "k = pi_adic_q(); t = LaurentPoly.variable(k, 2, 1); s = LaurentPoly.variable(k, 2, 2)\n"
            "one, zero = LaurentPoly.one(k, 2), LaurentPoly.zero(k, 2)\n"
            "for step, f, g, unit, nil in (\n"
            "        (_laurent_step, t, t - s, one, zero),\n"
            "        (_laurent_step, t + s ** 5, 1 + s ** -1, one, zero), (_int_step, 7, 2, 1, 0),\n"
            "        (_poly_step(0), (1, 1), (2,), (1,), ()), (_poly_step(2), (0, 1), (1, 1), (1,), ())):\n"
            "    try:\n"
            "        step(unit, f, nil, nil, g)\n"
            "    except InvariantError:\n"
            "        continue\n"
            "    raise SystemExit(f'no error for {f} / {g}')\n"
            "assert False, 'asserts run'\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
         os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr


# -- the per-ring steps against the field's own arithmetic --------------------

_coeffs = st.lists(st.integers(-9, 9), max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0, 2, 3]), st.tuples(_coeffs, _coeffs, _coeffs, _coeffs, _coeffs),
       st.sampled_from(["none", "divides", "any"]))
def test_poly_step_is_the_field_quotient_when_it_is_a_polynomial(p, polys, kind):
    # (piv*x - a*y) / prev over Z[pi] (p = 0) or F_p[pi], against the same
    # expression in Q(pi) or F_p(pi): the step returns the numerator of a
    # quotient in lowest terms with den == (1,), and refuses every other
    model = pi_adic_fp(p) if p else pi_adic_q()
    piv, x, a, y, prev = (model.from_pi_polys(c) if any(c) else model.zero() for c in polys)
    if kind != "none" and not prev:
        prev = model.elem(1 + p)
    if kind == "divides":
        piv, a = piv * prev, a * prev
    step = _poly_step(p)
    args = [e.num for e in (piv, x, a, y)]
    expected = piv * x - a * y
    if kind == "none":
        assert step(*args, None) == expected.num
        return
    expected = expected / prev
    if expected.den == (1,):
        assert step(*args, prev.num) == expected.num
    else:
        assert kind == "any"
        with pytest.raises(InvariantError):
            step(*args, prev.num)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.integers(-10**6, 10**6)] * 4), st.integers(-50, 50).filter(bool),
       st.booleans())
def test_int_step_is_the_rational_quotient_when_it_is_an_int(ints, prev, divides):
    piv, x, a, y = ints
    if divides:
        piv, a = piv * prev, a * prev
    assert _int_step(piv, x, a, y, None) == piv * x - a * y
    expected = Fraction(piv * x - a * y, prev)
    if expected.denominator == 1:
        assert _int_step(piv, x, a, y, prev) == expected
    else:
        assert not divides
        with pytest.raises(InvariantError):
            _int_step(piv, x, a, y, prev)


@settings(max_examples=60, deadline=None)
@given(_laurent_matrices(sizes=(2,)))
def test_laurent_step_divides_out_a_common_factor(case):
    # with piv and a both multiples of prev, the step is piv/prev * x -
    # a/prev * y, by LaurentPoly arithmetic alone; x has no t1^3 term, so
    # prev is nonzero
    model, nvars, _, ((piv, x), (a, y)) = case
    prev = x + LaurentPoly.variable(model, nvars, 1) ** 3
    assert _laurent_step(piv * prev, x, a * prev, y, prev) == piv * x - a * y
    assert _laurent_step(piv, x, a, y, None) == piv * x - a * y


def test_pi_adic_kernel_builds_no_field_element(monkeypatch):
    # a presentation with polynomial entries (den == (1,)), its smith and
    # content, and det_val of the same entries, run on int tuples alone
    calls = []
    init = FieldElement.__init__

    def counting(self, *args):
        calls.append(args)
        init(self, *args)

    for model in (pi_adic_q(), pi_adic_fp(3)):
        entries = [[model.from_pi_polys(c) for c in row]
                   for row in [[(1, 2), (0, 1), (3,)], [(0, 0, 1), (2, 1), (1, 1, 1)],
                               [(5,), (0, 1, 2), (1, 0, 1)]]]
        monkeypatch.setattr(FieldElement, "__init__", counting)
        pres = PresentationMatrix.from_rows(model, entries)
        got = smith(pres), content(pres), det_val(entries, model)
        monkeypatch.setattr(FieldElement, "__init__", init)
        assert calls == []
        assert got[0] == lattice_oracle.field_smith(pres)
        assert got[2] == lattice_oracle.field_det_val(entries, model)


# -- field entries: the kernel against elimination in the field ---------------

FIELD_MODELS = [trivial_q(), p_adic_q(2), p_adic_q(3), pi_adic_q(), pi_adic_fp(2), pi_adic_fp(3)]


def _field_entry(model, c, k, d0, d1):
    """c * u^k / (d0 + d1 * u), u the uniformizer (1 over the trivial
    field); the denominator is a unit in every model."""
    u = model.elem(1) if model.kind == "trivial-q" else model.uniformizer()
    return model.elem(c) * u ** k / (model.elem(d0) + model.elem(d1) * u)


@st.composite
def _field_matrices(draw, square=False, min_k=0, models=FIELD_MODELS):
    """A matrix over one of models, 0 x 0 up to 5 x 5, entries of
    valuation >= min_k, sometimes with a zero row or column or a row that
    is a multiple of another."""
    model = draw(st.sampled_from(models))
    rows = draw(st.integers(0, 5))
    cols = rows if square or not rows else draw(st.integers(0, 5))
    entry = st.tuples(st.sampled_from([0, 1, -1, 2, 3, -5, 7]), st.integers(min_k, 3),
                      st.sampled_from([1, 5, 7]), st.integers(0, 1))
    entries = [[_field_entry(model, *draw(entry)) for _ in range(cols)] for _ in range(rows)]
    kind = draw(st.sampled_from(["plain", "plain", "multiple", "zero row", "zero column"]))
    if rows and cols:
        if kind == "multiple":
            factor = _field_entry(model, *draw(entry.filter(lambda e: e[1] >= 0)))
            entries[-1] = [e * factor for e in entries[0]]
        elif kind == "zero row":
            entries[-1] = [model.zero()] * cols
        elif kind == "zero column":
            for row in entries:
                row[-1] = model.zero()
    return model, entries


@settings(max_examples=200, deadline=None)
@given(_field_matrices())
def test_field_smith_and_content_match_the_field_oracle(case):
    model, entries = case
    pres = PresentationMatrix.from_rows(model, entries)
    expected = lattice_oracle.field_smith(pres)
    assert smith(pres) == expected
    assert content(pres) == (INF if expected.free_rank else vsum(expected.divisors))


@settings(max_examples=200, deadline=None)
@given(_field_matrices(square=True, min_k=-2))
def test_field_det_val_matches_the_field_oracle(case):
    # entries down to valuation -2: over Q_p rationals with p in the
    # denominator, so the int rows carry a scaling of positive valuation
    model, entries = case
    assert det_val(entries, model) == lattice_oracle.field_det_val(entries, model)


PI_ADIC_MODELS = [m for m in FIELD_MODELS if m.has_pi]


@settings(max_examples=200, deadline=None)
@given(st.one_of(_field_matrices(models=PI_ADIC_MODELS),
                 _field_matrices(min_k=-2, models=PI_ADIC_MODELS)))
def test_pi_adic_kernel_rows_are_polynomial_multiples_of_the_input_rows(case):
    # the kernel divides exactly in Z[pi] or F_p[pi], so every work entry
    # is a polynomial; each work row is its input row times one element,
    # and shift adds up the valuations of those elements, over d = 1
    model, entries = case
    work, _, valfn, shift, d = _kernel_rows(entries, model, ())
    assert d == 1
    total = 0
    for row, tuples in zip(entries, work):
        assert len(tuples) == len(row)
        scaled = [FieldElement(model, w, (1,)) for w in tuples]
        assert all(w.den == (1,) for w in scaled)
        nonzero = [(e, w) for e, w in zip(row, scaled) if e]
        if not nonzero:
            assert not any(scaled)
            continue
        scale = nonzero[0][1] / nonzero[0][0]
        assert all(w == e * scale for e, w in zip(row, scaled))
        assert all(valfn(w.num) == w.val().fraction for w in scaled if w)
        total += scale.val().fraction
    assert shift == total
    if all(e.val() >= Val(0) for row in entries for e in row):
        assert shift == 0


@settings(max_examples=200, deadline=None)
@given(st.one_of(_field_matrices(), _field_matrices(min_k=-2)))
def test_smith_divisors_are_those_the_public_constructor_accepts(case):
    # smith skips ElementaryDivisors' checks; the public constructor, which
    # runs them all, accepts its divisors and gives an equal, equally hashed
    # value, and both agree with elimination in the field
    model, entries = case
    try:
        pres = PresentationMatrix.from_rows(model, entries)
    except DomainError:
        return
    got = smith(pres)
    checked = ElementaryDivisors(got.divisors, got.free_rank)
    assert got == checked and hash(got) == hash(checked)
    assert all(type(v) is Val for v in got.divisors) and type(got.free_rank) is int
    assert got == lattice_oracle.field_smith(pres)


@st.composite
def _signed_laurent_matrices(draw):
    """A Laurent matrix over one of FIELD_MODELS, in one or two variables,
    whose entries have exponents and coefficient valuations of either sign,
    at radii of either sign: Gauss valuations fall on both sides of 0."""
    model = draw(st.sampled_from(FIELD_MODELS))
    nvars = draw(st.integers(1, 2))
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    term = st.tuples(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                     st.sampled_from([1, -1, 3]), st.integers(-2, 3),
                     st.sampled_from([1, 5]), st.integers(0, 1))
    entries = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            terms = {}
            for exps, *coeff in draw(st.lists(term, max_size=3)):
                exps = exps[:nvars]
                terms[exps] = terms.get(exps, model.zero()) + _field_entry(model, *coeff)
            row.append(LaurentPoly(model, nvars, terms))
        entries.append(row)
    rho = tuple(Fraction(draw(st.integers(-3, 6)), draw(st.integers(1, 3))) for _ in range(nvars))
    return model, nvars, rho, entries


@settings(max_examples=300, deadline=None)
@given(st.one_of(_field_matrices(min_k=-2).map(lambda case: (case[0], 0, (), case[1])),
                 _signed_laurent_matrices()))
def test_presentation_refuses_exactly_the_entries_outside_the_valuation_ring(case):
    # field entries are read through the row scaling of _kernel_rows and
    # Laurent entries through their levels; the oracle reads val() and
    # gauss_val of every entry
    model, nvars, rho, entries = case
    outside = any((gauss_val(e, rho) if nvars else e.val()) < Val(0)
                  for row in entries for e in row)
    if outside:
        with pytest.raises(DomainError, match="valuation ring"):
            PresentationMatrix(model, entries, nvars=nvars, rho=rho)
    else:
        assert PresentationMatrix(model, entries, nvars=nvars, rho=rho).entries == tuple(
            map(tuple, entries))


@settings(max_examples=100, deadline=None)
@given(_signed_laurent_matrices())
def test_laurent_kernel_levels_are_ints_over_the_radii_denominator(case):
    # the kernel reads a Laurent entry's Gauss valuation as an int level
    # over d, the common denominator of the radii
    model, _, rho, entries = case
    _, _, valfn, shift, d = _kernel_rows(entries, model, rho)
    assert shift == 0 and d == lcm(*(r.denominator for r in rho))
    levels = {e: valfn(e) for row in entries for e in row if e}
    assert all(type(v) is int and Fraction(v, d) == gauss_val(e, rho).fraction
               for e, v in levels.items())


@settings(max_examples=300, deadline=None)
@given(st.one_of(_field_matrices().map(lambda case: (case[0], 0, (), case[1])),
                 _field_matrices(min_k=-2).map(lambda case: (case[0], 0, (), case[1])),
                 _signed_laurent_matrices()))
def test_content_is_the_last_pivot_and_the_divisor_sum(case):
    # content reads v(d_r) from the kernel's last pivot; the divisors of
    # smith sum to it, and both agree with elimination in the field (or in
    # ratios of Laurent polynomials); cases outside K° are refused on
    # construction
    model, nvars, rho, entries = case
    try:
        pres = PresentationMatrix(model, entries, nvars=nvars, rho=rho)
    except DomainError:
        return
    d = smith(pres)
    got = content(pres)
    assert got == (INF if d.free_rank else vsum(d.divisors))
    expected = lattice_oracle.smith(pres) if nvars else lattice_oracle.field_smith(pres)
    assert d == expected
    assert got == (INF if expected.free_rank else vsum(expected.divisors))


@pytest.mark.parametrize("fn", [smith, content])
def test_a_pivot_below_its_predecessor_is_an_invariant_error(fn, monkeypatch):
    # least-valuation pivots never fall; a kernel whose pivot valuations
    # do must not yield a presentation, so neither reader gets divisors:
    # here valfn reads 1 on the input entries 2 and 4 and 0 on the 2 x 2
    # minor 8, so v(d_1) = 1 and v(d_2) = 0
    kernel_rows = lattices._kernel_rows

    def falling(rows, model, rho):
        work, step, _, shift, d = kernel_rows(rows, model, rho)
        return work, step, lambda n: 1 if n < 8 else 0, shift, d

    monkeypatch.setattr(lattices, "_kernel_rows", falling)
    with pytest.raises(InvariantError, match="left the valuation ring"):
        fn(PresentationMatrix.from_rows(p_adic_q(2), [[2, 0], [0, 4]]))


def test_each_laurent_level_is_read_by_the_pivot_searches_alone(monkeypatch):
    # building a Laurent presentation and reading smith and content from it
    # reads the levels the kernel's pivot searches read (each nonzero live
    # entry once per step), in the same order, and no others: no separate
    # pass checks the entries against the valuation ring
    model = pi_adic_q()
    rho = (Fraction(1, 2), Fraction(1, 3))

    def poly(*terms):
        return LaurentPoly(model, 2, {exps: uniformize(model, k) for exps, k in terms})

    entries = [[poly(((1, 0), 0), ((0, 1), 1)), poly(((0, 2), 0)), poly()],
               [poly(((1, 1), 1)), poly(((2, 0), 0), ((0, 1), 0)), poly(((1, 0), 2))],
               [poly(((0, 0), 1)), poly(), poly(((1, 2), 0), ((0, 0), 3))]]
    d, steps = _radii(rho, 2)
    searched = []
    _bareiss([list(row) for row in entries], _laurent_step,
             lambda f: searched.append(f) or _level(f, d, steps))
    reads = []
    monkeypatch.setattr(lattices, "_level", lambda f, d, steps: reads.append(f) or _level(f, d, steps))
    pres = PresentationMatrix(model, entries, nvars=2, rho=rho)
    divisors, total = smith(pres), content(pres)
    assert len(searched) == 7 + 4 + 1 and reads == searched
    assert total == vsum(divisors.divisors) and divisors == lattice_oracle.smith(pres)


def test_det_val_and_index_read_nvars_as_an_int():
    k2 = p_adic_q(2)
    assert det_val([[2]], k2, 1.0, (1,)) == Val(1)
    assert semilattice_index([[2]], [[1]], k2, 1.0, (1,)) == Val(1)
    for bad in (2.5, Fraction(1, 2)):
        with pytest.raises(DomainError, match="number of variables"):
            det_val([[1]], k2, bad, (1,))
        with pytest.raises(DomainError, match="number of variables"):
            semilattice_index([[1]], [[1]], k2, bad, (1,))


def test_a_negative_nvars_is_refused_as_such():
    k2 = p_adic_q(2)
    for build in (lambda: PresentationMatrix(k2, [[1]], nvars=-1),
                  lambda: det_val([[1]], k2, -1),
                  lambda: semilattice_index([[1]], [[1]], k2, -1)):
        with pytest.raises(DomainError, match="number of variables must be nonnegative"):
            build()


def test_malformed_radii_and_rows_are_domain_errors():
    k2 = p_adic_q(2)
    for rho in (["x"], 1, [None], [float("inf")], "1"):
        for build in (lambda: PresentationMatrix(k2, [[1]], nvars=1, rho=rho),
                      lambda: det_val([[1]], k2, 1, rho),
                      lambda: semilattice_index([[1]], [[1]], k2, 1, rho)):
            with pytest.raises(DomainError, match="not a vector of rational numbers"):
                build()
    for build in (lambda: PresentationMatrix(p_adic_q(2), [1, 2]),
                  lambda: PresentationMatrix(k2, None),
                  lambda: det_val([1, 2], k2),
                  lambda: semilattice_index([[1]], 3, k2)):
        with pytest.raises(DomainError, match="not a sequence of rows"):
            build()


def test_malformed_divisors_and_coordinates_are_domain_errors():
    k3 = p_adic_q(3)
    for divisors in (5, ("x",), (None,), ("1/0",), (float("nan"),), "12"):
        with pytest.raises(DomainError, match="not a vector of valuations"):
            ElementaryDivisors(divisors, 0)
    d = ElementaryDivisors((Val(1),), 1)
    for coords in (3, ["x"], [None], [0, "1/0"], [float("inf")], "12"):
        with pytest.raises(DomainError, match="not a vector of field elements"):
            adic_norm(d, coords, k3)
    # hand values: the free coordinate counts at its valuation, a torsion
    # one only below its divisor
    assert adic_norm(d, [0, 3], k3) == INF
    assert adic_norm(d, [9, 3], k3) == Val(2)
    assert adic_norm(d, ["1/1", 3], k3) == Val(0)


def test_ragged_and_non_square_matrices_are_refused():
    k2 = p_adic_q(2)
    for rows in ([[1, 2], [3]], [[1], [2, 3]], [[], [1]]):
        with pytest.raises(DomainError, match="ragged matrix"):
            PresentationMatrix(k2, rows)
    for rows in ([[1, 2]], [[1], [2]], [[1, 2], [3]], [[1, 2], [3, 4], [5, 6]]):
        with pytest.raises(DomainError, match="square matrix"):
            det_val(rows, k2)


def test_laurent_entries_must_match_the_number_of_variables():
    k2 = p_adic_q(2)
    t = LaurentPoly.variable(k2, 2, 1)
    with pytest.raises(DomainError, match="has 2 variables, expected 1"):
        PresentationMatrix(k2, [[t]], nvars=1, rho=(0,))
    with pytest.raises(DomainError, match="auxiliary variables but nvars = 0"):
        PresentationMatrix(k2, [[t]])
    with pytest.raises(DomainError, match="different base field"):
        det_val([[LaurentPoly.constant(p_adic_q(3), 0, 1)]], k2)
    # a Laurent entry in no variables is its constant, zero included: the
    # same pivots as the plain field entries
    const = [[LaurentPoly.constant(k2, 0, 4), LaurentPoly.zero(k2, 0)],
             [LaurentPoly.constant(k2, 0, 2), LaurentPoly.constant(k2, 0, Fraction(6))]]
    plain = [[4, 0], [2, 6]]
    assert smith(PresentationMatrix(k2, const)) == smith(PresentationMatrix(k2, plain))
    assert smith(PresentationMatrix(k2, const)).divisors == (Val(1), Val(2))
    assert det_val(const, k2) == det_val(plain, k2) == Val(3)
    assert content(PresentationMatrix(k2, [[LaurentPoly.zero(k2, 0)]])) == INF


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_MODELS), st.integers(0, 10**6))
def test_3x3_det_is_the_cofactor_oracle(model, seed):
    rows = _found_matrix(seed, model, size=3)
    assert _det(rows) == lattice_oracle.det_laurent(rows)
    rng = random.Random(seed)
    ints = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
    lifted = [[LaurentPoly.constant(model, 1, c) for c in row] for row in ints]
    assert LaurentPoly.constant(model, 1, _det(ints)) == lattice_oracle.det_laurent(lifted)


def test_elementary_divisors_read_free_rank_as_an_int():
    for bad in (1.5, Fraction(1, 2)):
        with pytest.raises(DomainError, match="free rank"):
            ElementaryDivisors((), bad)
    assert type(ElementaryDivisors((), 1.0).free_rank) is int
    assert ElementaryDivisors((Val(1),), "1").rank == 2
    with pytest.raises(DomainError, match="free rank must be >= 0"):
        ElementaryDivisors((), -1)


def test_entries_of_another_model_are_refused():
    k2 = p_adic_q(2)
    for other in (p_adic_q(3).elem(1), pi_adic_q().elem(1), LaurentPoly.constant(p_adic_q(3), 0, 1)):
        with pytest.raises(DomainError, match="different base field"):
            PresentationMatrix.from_rows(k2, [[other]])
        with pytest.raises(DomainError, match="different base field"):
            det_val([[other]], k2)
    # an equal model that is another object is the same field
    assert content(PresentationMatrix.from_rows(k2, [[p_adic_q(2).elem(4)]])) == Val(2)
    assert det_val([[p_adic_q(2).elem(4)]], k2) == Val(2)
    with pytest.raises(DomainError, match="cannot use"):
        PresentationMatrix.from_rows(k2, [[1.5]])


@pytest.mark.parametrize("p", [0, 2, 3])
def test_smith_matches_the_sympy_polynomial_oracle(p):
    # independent oracle: over Q[x] (p = 0) or F_p[x] sympy computes the
    # invariant factors, and the pi-adic elementary divisors over Q(pi) or
    # F_p(pi) are their x-adic orders
    from sympy import GF, QQ, Matrix, Poly, symbols
    from sympy.matrices.normalforms import invariant_factors

    x = symbols("x")
    model, domain = (pi_adic_q(), QQ[x]) if p == 0 else (pi_adic_fp(p), GF(p)[x])
    coeffs = [0, 0, 1, -1, 2, 3] + ([Fraction(1, 2), Fraction(-5, 3)] if p == 0 else [])
    rng = random.Random(40 + p)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        polys = [[[0] * rng.randint(0, 2) + [rng.choice(coeffs) for _ in range(rng.randint(0, 3))]
                  for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.3:
            polys[-1] = polys[0]
        mine = smith(PresentationMatrix.from_rows(
            model, [[model.from_pi_polys(c) if c else model.zero() for c in row] for row in polys]))
        factors = invariant_factors(
            Matrix([[sum(c * x ** i for i, c in enumerate(cs)) for cs in row] for row in polys]),
            domain=domain)
        orders = [min(m for (m,) in poly.monoms())
                  for poly in (Poly(f, x, modulus=p) if p else Poly(f, x) for f in factors)
                  if not poly.is_zero]
        assert [v.fraction for v in mine.divisors] == sorted(orders)
        assert mine.free_rank == rows - len(orders)
