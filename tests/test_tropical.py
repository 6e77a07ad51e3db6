import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import lp_oracle
from lp_oracle import INFEASIBLE, OPTIMAL, UNBOUNDED
from nonarch.errors import DomainError
from nonarch.fields import p_adic_q, pi_adic_q
from nonarch.forms import MonomialChart, Pluriform, kahler_norm_at
from nonarch.lp import lp_min
from nonarch.laurent import LaurentPoly, gauss_val
from nonarch.tropical import (
    Face,
    FaceComplex,
    RationalPolytope,
    TropPoly,
    bounded_vertices,
    min_locus,
    polytope_vertices,
    prune_never_minimal,
    retract,
    semistable_skeleton,
    trop_eval,
    tropicalize,
)
from nonarch.values import INF, Val
from vertex_oracle import bounded_vertices_oracle, min_locus_oracle, polytope_vertices_oracle


def test_tropicalize_examples():
    k = pi_adic_q()
    t = LaurentPoly.variable(k, 1, 1)
    phi = Pluriform(k, 1, 1, 1, {((1,),): 1 + t})
    assert tropicalize(phi).terms == ((Fraction(0), (0,)), (Fraction(0), (1,)))

    const = Pluriform.canonical(k, 2, m=3)
    assert tropicalize(const).terms == ((Fraction(0), (0, 0)),)

    pi = k.uniformizer()
    phi = Pluriform(k, 1, 1, 1, {((1,),): t + LaurentPoly.constant(k, 1, pi)})
    assert tropicalize(phi).terms == ((Fraction(0), (1,)), (Fraction(1), (0,)))

    zero = Pluriform(k, 1, 1, 1, {})
    assert tropicalize(zero).terms == ()


def test_trop_eval_examples():
    poly = TropPoly(1, [(0, (0,)), (0, (1,))])
    assert trop_eval(poly, (2,)) == Val(0)
    assert trop_eval(poly, (-3,)) == Val(-3)
    assert trop_eval(TropPoly(1, []), (5,)) == INF
    with pytest.raises(DomainError):
        trop_eval(poly, (1, 2))


def test_duplicate_slopes_keep_min():
    poly = TropPoly(1, [(3, (1,)), (1, (1,)), (2, (0,))])
    assert poly.terms == ((Fraction(1), (1,)), (Fraction(2), (0,)))


def test_semistable_skeleton():
    seg = semistable_skeleton(1, 2)
    assert polytope_vertices(seg) == ((Fraction(0),), (Fraction(2),))
    tri = semistable_skeleton(2, 2)
    assert polytope_vertices(tri) == (
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(2)),
        (Fraction(2), Fraction(0)),
    )
    with pytest.raises(DomainError):
        semistable_skeleton(1, 0)
    simplex = semistable_skeleton(2, 1)
    for point in [(0,), (0, 0, 5)]:
        for test in (simplex.contains, simplex.tight_set):
            with pytest.raises(DomainError, match="point dimension mismatch"):
                test(point)


def test_vector_readers_refuse_junk_with_domain_errors():
    # gauss_val, trop_eval and the polytope's point tests read radii and
    # points as the matrix and chart constructors do: an entry Fraction
    # cannot read, or no vector at all, is a DomainError, not a ValueError
    # or TypeError; a vector of the wrong length is one too
    f = LaurentPoly.variable(p_adic_q(2), 1, 1) + 1
    poly = TropPoly(1, [(0, (1,)), (1, (0,))])
    seg = semistable_skeleton(1, 2)
    readers = (lambda x: gauss_val(f, x), lambda x: trop_eval(poly, x), seg.contains, seg.tight_set)
    for read in readers:
        for junk in (["x"], 1, [None], ["1/0"], [float("inf")], [float("nan")], "3"):
            with pytest.raises(DomainError, match="not a vector of rational numbers"):
                read(junk)
        for wrong in ((), (0, 0)):
            with pytest.raises(DomainError, match="dimension mismatch"):
                read(wrong)
    # well-formed vectors of any rational type still read alike
    assert gauss_val(f, ["1/2"]) == gauss_val(f, (0.5,)) == Val(0)
    assert trop_eval(poly, [Fraction(3, 2)]) == trop_eval(poly, ["3/2"]) == Val(1)
    assert seg.contains(["2"]) and not seg.contains([Fraction(5, 2)]) and seg.tight_set((2,)) == (1,)


def test_scalar_rationals_are_read_as_rationals():
    # chart constants, term constants, polytope rows and bounds and LP data
    # are read by the vector reader, a scalar as a one-entry vector: junk
    # is a DomainError, not a ValueError or TypeError
    for build in (lambda: semistable_skeleton(2, "x"),
                  lambda: semistable_skeleton(2, None),
                  lambda: TropPoly(1, [(None, (1,))]),
                  lambda: TropPoly(1, [("1/0", (1,))]),
                  lambda: RationalPolytope(1, [(1, 1)]),
                  lambda: RationalPolytope(1, [("1", 1)]),
                  lambda: RationalPolytope(1, [((1,), "x")]),
                  lambda: lp_min(["x"], [[1]], [1]),
                  lambda: lp_min([1], [1], [1]),
                  lambda: lp_min([1], [[1]], [None]),
                  lambda: lp_min([1], [[float("nan")]], [1])):
        with pytest.raises(DomainError, match="not a vector of rational numbers"):
            build()
    # the length messages are the ones they were
    with pytest.raises(DomainError, match="has wrong length"):
        RationalPolytope(2, [((1,), 1)])
    with pytest.raises(DomainError, match="objective and constraint dimensions disagree"):
        lp_min([1, 2], [[1]], [1])
    with pytest.raises(DomainError, match="right-hand side lengths disagree"):
        lp_min([1], [[1]], [1, 2])
    # well-formed scalars of any rational type still read alike
    assert semistable_skeleton(1, "1/2").constraints == semistable_skeleton(1, 0.5).constraints
    assert TropPoly(1, [("1/2", (1,))]) == TropPoly(1, [(0.5, (1,))])
    assert RationalPolytope(1, [(["1/2"], "3")]).constraints == (((Fraction(1, 2),), Fraction(3)),)
    assert lp_min(["1"], [["-1"]], ["0"]) == lp_min([1], [[-1]], [0]) == (OPTIMAL, 0, (0,))


def test_min_locus_refuses_a_dimension_mismatch():
    with pytest.raises(DomainError, match="dimensions disagree"):
        min_locus(TropPoly(2, [(0, (1, 0))]), semistable_skeleton(1, 1))
    with pytest.raises(DomainError, match="dimensions disagree"):
        min_locus(TropPoly(1, [(0, (1,))]), semistable_skeleton(2, 1))


def test_min_locus_vertex():
    tri = semistable_skeleton(2, 2)
    poly = TropPoly(2, [(0, (0, 0)), (1, (-1, 0))])
    m, locus = min_locus(poly, tri)
    assert m == Fraction(-1)
    assert len(locus) == 1
    assert locus.faces[0].vertices == ((Fraction(2), Fraction(0)),)


def test_min_locus_whole_polytope():
    seg = semistable_skeleton(1, 2)
    m, locus = min_locus(TropPoly(1, [(0, (0,))]), seg)
    assert m == Fraction(0)
    assert len(locus) == 1
    face = locus.faces[0]
    assert face.tight == ()
    assert face.vertices == polytope_vertices(seg)


def test_min_locus_two_edges():
    tri = semistable_skeleton(2, 2)
    poly = TropPoly(2, [(0, (1, 0)), (0, (0, 1))])
    m, locus = min_locus(poly, tri)
    assert m == Fraction(0)
    assert len(locus) == 2
    tights = [f.tight for f in locus]
    assert tights == sorted(tights)
    vertex_sets = {f.vertices for f in locus}
    origin = (Fraction(0), Fraction(0))
    assert all(origin in vs for vs in vertex_sets)
    assert {len(vs) for vs in vertex_sets} == {2}


def test_min_locus_rejects_bad_input():
    tri = semistable_skeleton(2, 2)
    with pytest.raises(DomainError):
        min_locus(TropPoly(2, []), tri)
    unbounded = RationalPolytope(1, [((Fraction(-1),), Fraction(0))])
    with pytest.raises(DomainError):
        min_locus(TropPoly(1, [(0, (1,))]), unbounded)
    empty = RationalPolytope(1, [((Fraction(1),), Fraction(-1)), ((Fraction(-1),), Fraction(0))])
    with pytest.raises(DomainError):
        min_locus(TropPoly(1, [(0, (1,))]), empty)


def test_min_locus_deterministic_under_term_order():
    tri = semistable_skeleton(2, 3)
    terms = [(0, (1, 0)), (0, (0, 1)), (Fraction(1, 2), (0, 0)), (2, (-1, -1))]
    rng = random.Random(44)
    baseline = None
    for _ in range(5):
        shuffled = terms[:]
        rng.shuffle(shuffled)
        result = min_locus(TropPoly(2, shuffled), tri)
        if baseline is None:
            baseline = result
        assert result == baseline


def test_retract_examples():
    k = pi_adic_q()
    chart = MonomialChart.identity(k, 2, (Fraction(1, 2), Fraction(3)))
    assert retract(chart) == (Fraction(1, 2), Fraction(3))

    s = LaurentPoly.variable(k, 1, 1)
    pi = LaurentPoly.constant(k, 1, k.uniformizer())
    assert retract(MonomialChart(k, [pi + s], (Fraction(2),))) == (Fraction(1),)
    assert retract(MonomialChart(k, [pi + s], (Fraction(1, 2),))) == (Fraction(1, 2),)


def test_retract_idempotent_on_skeleton():
    k = pi_adic_q()
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(1, 4)
        rho = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n))
        assert retract(MonomialChart.identity(k, n, rho)) == rho


def _random_form(rng, model, n, l, m):
    from itertools import combinations

    subsets = list(combinations(range(1, n + 1), l))
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.choice(subsets) for _ in range(m))
        terms = {
            tuple(rng.randint(-2, 2) for _ in range(n)): model.elem(rng.randint(-8, 8))
            for _ in range(rng.randint(1, 3))
        }
        poly = LaurentPoly(model, n, terms)
        if poly.is_zero:
            continue
        coeffs[e] = coeffs.get(e, LaurentPoly.zero(model, n)) + poly
    return Pluriform(model, n, l, m, {e: c for e, c in coeffs.items() if not c.is_zero})


def test_trop_matches_kahler_norm():
    rng = random.Random(13)
    k2 = p_adic_q(2)
    for _ in range(150):
        n = rng.randint(1, 3)
        l = rng.randint(0, n)
        m = rng.randint(1, 2)
        phi = _random_form(rng, k2, n, l, m)
        rho = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))
        got = trop_eval(tropicalize(phi), rho)
        want = kahler_norm_at(phi, MonomialChart.identity(k2, n, rho))
        assert got == want


def test_concavity():
    rng = random.Random(14)
    for _ in range(60):
        n = rng.randint(1, 3)
        poly = TropPoly(
            n,
            [
                (Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                 tuple(rng.randint(-3, 3) for _ in range(n)))
                for _ in range(rng.randint(1, 5))
            ],
        )
        r1 = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n))
        r2 = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n))
        mid = tuple((a + b) / 2 for a, b in zip(r1, r2))
        lhs = trop_eval(poly, mid)
        rhs = (trop_eval(poly, r1) + trop_eval(poly, r2)) * Fraction(1, 2)
        assert lhs >= rhs


def test_prune_never_minimal_preserves_values():
    rng = random.Random(27)
    for _ in range(30):
        n = rng.randint(1, 2)
        p = semistable_skeleton(n, 3)
        poly = TropPoly(
            n,
            [
                (Fraction(rng.randint(-3, 3)), tuple(rng.randint(-2, 2) for _ in range(n)))
                for _ in range(rng.randint(1, 5))
            ],
        )
        pruned = prune_never_minimal(poly, p)
        assert len(pruned.terms) <= len(poly.terms)
        verts = polytope_vertices(p)
        for v in verts:
            assert trop_eval(pruned, v) == trop_eval(poly, v)
        for _ in range(10):
            lam = [Fraction(rng.randint(0, 3)) for _ in verts]
            tot = sum(lam)
            if tot == 0:
                continue
            point = tuple(sum(l * w[i] for l, w in zip(lam, verts)) / tot for i in range(n))
            assert trop_eval(pruned, point) == trop_eval(poly, point)


def test_prune_drops_dominated_term():
    # the term 5 + rho is never minimal against 0 on [0, 2]
    seg = semistable_skeleton(1, 2)
    poly = TropPoly(1, [(0, (0,)), (5, (1,))])
    assert prune_never_minimal(poly, seg).terms == ((Fraction(0), (0,)),)


def test_min_value_soundness_by_grid_sampling():
    # rational sampling of P never beats the reported optimum, and the
    # optimum is attained at a sampled or vertex point
    rng = random.Random(16)
    for _ in range(200):
        n = rng.randint(1, 3)
        p = semistable_skeleton(n, Fraction(rng.randint(1, 4)))
        poly = TropPoly(
            n,
            [
                (Fraction(rng.randint(-4, 4), rng.randint(1, 2)),
                 tuple(rng.randint(-2, 2) for _ in range(n)))
                for _ in range(rng.randint(1, 4))
            ],
        )
        m_star, _ = min_locus(poly, p)
        verts = polytope_vertices(p)
        seen = [trop_eval(poly, v).fraction for v in verts]
        for _ in range(10):
            lam = [Fraction(rng.randint(0, 3)) for _ in verts]
            tot = sum(lam)
            if tot == 0:
                continue
            point = tuple(sum(l * v[i] for l, v in zip(lam, verts)) / tot for i in range(n))
            seen.append(trop_eval(poly, point).fraction)
        assert all(value >= m_star for value in seen)
        assert min(seen) == m_star


def test_min_locus_faces_are_faces_and_sound():
    rng = random.Random(15)
    for _ in range(30):
        n = rng.randint(1, 3)
        p = semistable_skeleton(n, Fraction(rng.randint(1, 4)))
        poly = TropPoly(
            n,
            [
                (Fraction(rng.randint(-4, 4), rng.randint(1, 2)),
                 tuple(rng.randint(-2, 2) for _ in range(n)))
                for _ in range(rng.randint(1, 5))
            ],
        )
        m_star, locus = min_locus(poly, p)
        verts = polytope_vertices(p)
        # independent face check: tight set recovers exactly the listed vertices
        for face in locus:
            assert set(face.vertices) <= set(verts)
            recovered = tuple(
                v for v in verts if all(i in p.tight_set(v) for i in face.tight)
            )
            assert recovered == face.vertices
        # soundness of the optimum against vertices and a rational grid
        assert min(trop_eval(poly, v).fraction for v in verts) == m_star
        for _ in range(20):
            lam = [Fraction(rng.randint(0, 4)) for _ in verts]
            tot = sum(lam)
            if tot == 0:
                continue
            point = tuple(
                sum(l * v[i] for l, v in zip(lam, verts)) / tot for i in range(n)
            )
            assert trop_eval(poly, point).fraction >= m_star


def _min_locus_by_lp(poly, p):
    """The per-term LP computation min_locus replaced: one exact LP for each
    term's minimum, then the faces from the vertex list.  The LP is the
    Fraction simplex of lp_oracle.py, which shares no pivot step with the
    vertex pass."""
    a = [list(row) for row, _ in p.constraints]
    b = [bb for _, bb in p.constraints]
    if lp_oracle.lp_min([0] * p.n, a, b)[0] == INFEASIBLE:
        raise DomainError("empty polytope")
    for i in range(p.n):
        for sign in (1, -1):
            c = [sign if j == i else 0 for j in range(p.n)]
            if lp_oracle.lp_min(c, a, b)[0] == UNBOUNDED:
                raise DomainError("unbounded polyhedron; a bounded polytope is required")
    term_min = []
    for c, exps in poly.terms:
        status, value, _ = lp_oracle.lp_min(list(exps), a, b)
        assert status == OPTIMAL
        term_min.append(c + value)
    m_star = min(term_min)
    verts = polytope_vertices(p)
    faces = {}
    for (c, exps), tm in zip(poly.terms, term_min):
        if tm != m_star:
            continue
        attain = tuple(v for v in verts if c + sum(e * x for e, x in zip(exps, v)) == m_star)
        tight = sorted(set(p.tight_set(attain[0])).intersection(*(p.tight_set(v) for v in attain)))
        faces[tuple(tight)] = Face(tuple(tight), attain)
    return m_star, FaceComplex(tuple(faces[k] for k in sorted(faces)))


_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _polytope_and_poly(draw):
    """A min-plus polynomial on a polyhedron of dimension 1..3, built as
    one of: a box (so possibly empty, degenerate or with redundant rows
    once cut); a box with some bounds dropped (half-spaces, slabs, rays,
    lines and cones, rank-deficient when a coordinate keeps no bound);
    rows parallel to one vector (rank 1); or cuts alone.  Up to three
    extra cuts are added to each."""
    n = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["box", "open box", "parallel", "cuts"]))
    constraints = []
    if shape in ("box", "open box"):
        for i in range(n):
            lo = draw(st.integers(-2, 1))
            hi = lo + draw(st.integers(0, 3))
            unit = [Fraction(int(j == i)) for j in range(n)]
            if shape == "box" or draw(st.booleans()):
                constraints.append((unit, Fraction(hi)))
            if shape == "box" or draw(st.booleans()):
                constraints.append(([-x for x in unit], Fraction(-lo)))
    elif shape == "parallel":
        a = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any))
        for k in draw(st.lists(st.sampled_from([-2, -1, 1, 3]), min_size=1, max_size=3)):
            constraints.append(([Fraction(k * x) for x in a], draw(_rationals)))
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        constraints.append(([Fraction(x) for x in a], draw(_rationals)))
    if draw(st.booleans()):
        constraints.reverse()
    terms = draw(st.lists(
        st.tuples(_rationals, st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple)),
        min_size=1, max_size=6))
    return TropPoly(n, terms), RationalPolytope(n, constraints)


@settings(max_examples=300, deadline=None)
@given(_polytope_and_poly())
def test_min_locus_matches_per_term_lp(case):
    poly, p = case
    try:
        want = _min_locus_by_lp(poly, p)
    except DomainError as exc:
        with pytest.raises(DomainError, match=str(exc)):
            min_locus(poly, p)
        return
    assert min_locus(poly, p) == want


def _cone(n):
    """x_n >= |x'|_1: its only vertex, the apex, is tight on all 2^(n-1)
    rows, more than n once n >= 3."""
    return [((*signs, -1), 0) for signs in product((1, -1), repeat=n - 1)]


_NAMED_CASES = [
    ([((-1,), 0)], "unbounded polyhedron"),                                    # half-line
    ([((1, 0), 1), ((-1, 0), 0)], "unbounded polyhedron"),                     # slab, rank 1
    ([((-1, 0), 0), ((0, -1), 0), ((1, -1), 0)], "unbounded polyhedron"),      # cone with a vertex
    ([((1, 1), 1), ((-1, -1), -1), ((1, 0), 2), ((-1, 0), 0)], None),          # segment, 2 rows equal
    ([((1, 1), 0), ((-1, -1), -1)], "empty polytope"),                         # no vertex, rank 1
    ([((1,), 0), ((-1,), -1)], "empty polytope"),                              # empty segment
    ([], "unbounded polyhedron"),                                              # R^1
    (_cone(3), "unbounded polyhedron"),                                        # degenerate apex
    (_cone(4), "unbounded polyhedron"),
]


def _check_named_case(constraints, message):
    """min_locus and the LP computation agree, or raise the same message."""
    n = len(constraints[0][0]) if constraints else 1
    p = RationalPolytope(n, constraints)
    poly = TropPoly(n, [(0, (1,) * n), (1, (0,) * n)])
    if message is None:
        assert min_locus(poly, p) == _min_locus_by_lp(poly, p)
    else:
        with pytest.raises(DomainError, match=message):
            min_locus(poly, p)
        with pytest.raises(DomainError, match=message):
            _min_locus_by_lp(poly, p)


@pytest.mark.parametrize("constraints, message", _NAMED_CASES)
def test_min_locus_bounded_check_named_cases(constraints, message):
    _check_named_case(constraints, message)


def test_min_locus_in_dimension_zero():
    poly = TropPoly(0, [(3, ()), (Fraction(1, 2), ())])
    assert min_locus(poly, RationalPolytope(0, [((), 1), ((), 0)])) == (
        Fraction(1, 2), FaceComplex((Face((1,), ((),)),)))
    assert min_locus(poly, RationalPolytope(0, []))[0] == Fraction(1, 2)
    with pytest.raises(DomainError, match="empty polytope"):
        min_locus(poly, RationalPolytope(0, [((), -1)]))


def test_min_locus_runs_no_lp_on_a_polytope_with_a_vertex(monkeypatch):
    import nonarch.tropical as tropical

    def no_lp(*args):
        raise AssertionError("lp_min called")

    monkeypatch.setattr(tropical, "lp_min", no_lp)
    rng = random.Random(5)
    for n in (1, 2, 3):
        for va in (1, Fraction(5, 2)):
            poly = TropPoly(n, [(rng.randint(-3, 3), tuple(rng.randint(-2, 2) for _ in range(n)))
                                for _ in range(6)])
            min_locus(poly, semistable_skeleton(n, va))
    cone = RationalPolytope(2, [((-1, 0), 0), ((0, -1), 0), ((1, -1), 0)])
    with pytest.raises(DomainError, match="unbounded polyhedron"):
        min_locus(TropPoly(2, [(0, (0, 0))]), cone)
    # nor without a vertex (the slab, R^1, the empty sets of rank 1, 1 and 0)
    # or with a degenerate one
    for constraints, message in _NAMED_CASES + [([((), -1)], "empty polytope")]:
        _check_named_case(constraints, message)


def _outcome(fn, *args):
    """The result of fn, or the message of the DomainError it raises."""
    try:
        return repr(fn(*args))
    except DomainError as exc:
        return f"DomainError: {exc}"


_scales = st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4).filter(bool)


@st.composite
def _vertex_case(draw):
    """A min-plus polynomial on a polyhedron in dimension 0..4, built as a
    simplex, a box, a pyramid over a cross-polytope (its apex is tight on
    2^(n-1) + 1 rows, more than n once n >= 2), or cuts alone.  Random cuts
    are added, some rows repeated, and then every row is scaled by its own
    positive rational and the polyhedron translated by a rational vector,
    so rows carry mixed denominators and negative leading entries."""
    n = draw(st.integers(0, 4))
    shape = draw(st.sampled_from(["simplex", "box", "pyramid", "cuts"]))
    unit = [[int(j == i) for j in range(n)] for i in range(n)]
    rows = []
    if n == 0:
        rows = [((), b) for b in draw(st.lists(_rationals, max_size=3))]
    elif shape == "simplex":
        rows = [([-x for x in u], 0) for u in unit] + [([1] * n, draw(st.integers(1, 3)))]
    elif shape == "box":
        for u in unit:
            lo = draw(st.integers(-2, 1))
            rows += [(u, lo + draw(st.integers(0, 2))), ([-x for x in u], -lo)]
    elif shape == "pyramid":
        rows = [([-x for x in unit[-1]], 0), (unit[-1], 1)]
        rows += [(list(signs) + [1], 1) for signs in product((1, -1), repeat=n - 1)]
    for _ in range(draw(st.integers(0, 2 if n > 2 else 3))):
        rows.append((draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)), draw(_rationals)))
    if rows:
        for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)):
            rows.append(rows[i])
    shift = draw(st.lists(_rationals, min_size=n, max_size=n))
    constraints = []
    for a, b in rows:
        s = draw(_scales)
        b = Fraction(b) + sum(Fraction(x) * t for x, t in zip(a, shift))
        constraints.append(([s * x for x in a], s * b))
    constraints = draw(st.permutations(constraints))
    terms = draw(st.lists(
        st.tuples(_rationals, st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple)),
        min_size=1, max_size=5))
    return TropPoly(n, terms), RationalPolytope(n, constraints)


@settings(max_examples=250, deadline=None)
@given(_vertex_case())
def test_vertex_pass_matches_the_fraction_oracle(case):
    poly, p = case
    verts = polytope_vertices_oracle(p)  # once per example; both oracles below reuse it
    assert polytope_vertices(p) == verts
    assert _outcome(bounded_vertices, p) == _outcome(bounded_vertices_oracle, p, verts)
    assert _outcome(min_locus, poly, p) == _outcome(min_locus_oracle, poly, p, verts)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_vertex_pass_on_a_pyramid_apex(n):
    """The apex of the pyramid over the cross-polytope is tight on all
    2^(n-1) slanted rows and on the cap x_n <= 1, yet is found once."""
    rows = [([0] * (n - 1) + [-1], 0), ([0] * (n - 1) + [1], 1)]
    rows += [(list(signs) + [1], 1) for signs in product((1, -1), repeat=n - 1)]
    p = RationalPolytope(n, rows)
    apex = (Fraction(0),) * (n - 1) + (Fraction(1),)
    assert polytope_vertices(p) == polytope_vertices_oracle(p)
    assert polytope_vertices(p).count(apex) == 1
    poly = TropPoly(n, [(0, (0,) * (n - 1) + (-1,))])
    m_star, locus = min_locus(poly, p)
    assert m_star == -1
    assert [face.tight for face in locus] == [tuple(range(1, len(rows)))]
    assert (m_star, locus) == min_locus_oracle(poly, p)


def test_min_locus_on_simplices_reads_the_stored_tight_sets(monkeypatch):
    rng = random.Random(9)
    cases = []
    for n in (1, 2, 3, 4):
        for va in (1, Fraction(7, 3)):
            poly = TropPoly(n, [(Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
                                 tuple(rng.randint(-2, 2) for _ in range(n))) for _ in range(6)])
            p = semistable_skeleton(n, va)
            cases.append((poly, p, min_locus_oracle(poly, p)))

    def refuse(self, point):
        raise AssertionError("RationalPolytope point test called")

    monkeypatch.setattr(RationalPolytope, "tight_set", refuse)
    monkeypatch.setattr(RationalPolytope, "contains", refuse)
    for poly, p, want in cases:
        assert min_locus(poly, p) == want


def _prune_systems(poly, p):
    """For each term, the system A x <= b of p plus the rows on which the
    term is at most every other term: the LPs prune_never_minimal solves."""
    a = [list(row) for row, _ in p.constraints]
    b = [bb for _, bb in p.constraints]
    for c, exps in poly.terms:
        rows = [[e - e2 for e, e2 in zip(exps, exps2)] for c2, exps2 in poly.terms if exps2 != exps]
        yield a + rows, b + [c2 - c for c2, exps2 in poly.terms if exps2 != exps]


@settings(max_examples=100, deadline=None)
@given(st.one_of(_polytope_and_poly(), _vertex_case()), st.data())
def test_lp_min_matches_the_fraction_simplex(case, data):
    """The integer tableau against the Fraction simplex it replaced, on
    bounded, empty, line-holding and unbounded polyhedra and on each
    term's prune system: the same status, value and point, down to the
    repr.  Prune keeps the terms the oracle finds feasible."""
    poly, p = case
    objectives = st.lists(_rationals, min_size=p.n, max_size=p.n)
    systems = [([list(row) for row, _ in p.constraints], [bb for _, bb in p.constraints])]
    systems += _prune_systems(poly, p)
    kept = []
    for k, (a, b) in enumerate(systems):
        for c in ([0] * p.n, data.draw(objectives)):
            assert repr(lp_min(c, a, b)) == repr(lp_oracle.lp_min(c, a, b))
        if k and lp_oracle.lp_min([0] * p.n, a, b)[0] != INFEASIBLE:
            kept.append(poly.terms[k - 1])
    assert prune_never_minimal(poly, p) == TropPoly(p.n, kept)
