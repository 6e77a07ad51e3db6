import random
from fractions import Fraction
from itertools import combinations

import lp_oracle
from nonarch.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, lp_min
from nonarch.tropical import RationalPolytope, polytope_vertices


def test_known_programs():
    status, value, point = lp_min([-1, -1], [[-1, 0], [0, -1], [1, 1]], [0, 0, 2])
    assert (status, value) == (OPTIMAL, Fraction(-2))
    assert sum(point) == 2

    status, value, point = lp_min([1], [[-1], [1]], [-1, 3])
    assert (status, value, point) == (OPTIMAL, Fraction(1), (Fraction(1),))

    assert lp_min([1], [[1]], [0])[0] == UNBOUNDED
    assert lp_min([1], [[1], [-1]], [0, -1])[0] == INFEASIBLE


def test_degenerate_and_redundant_rows():
    # duplicated constraints and a redundant equality pair
    a = [[1, 0], [1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]]
    b = [1, 1, -1, 2, 0, 3]
    status, value, point = lp_min([0, -1], a, b)
    assert status == OPTIMAL
    assert point == (Fraction(1), Fraction(2))
    assert value == Fraction(-2)


def test_duplicated_scaled_and_opposite_rows_match_the_fraction_simplex():
    # copies of rows, scaled, and their opposites (equality pairs), with
    # negative right-hand sides: phase 1 leaves artificials at 0 in the
    # basis, each is pivoted out on the first nonzero entry before the
    # artificials (one exists, since the slack block is invertible), and
    # the result is the Fraction simplex's, down to the repr
    rng = random.Random(2024)
    for _ in range(300):
        n, m = rng.randint(1, 3), rng.randint(1, 4)
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        b = [Fraction(rng.randint(-4, 4)) for _ in range(m)]
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(a))
            s = Fraction(rng.randint(1, 3), rng.randint(1, 2))
            a.append([s * x for x in a[i]])
            b.append(s * b[i])
            if rng.random() < 0.5:
                a.append([-x for x in a[i]])
                b.append(-b[i])
        c = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        assert repr(lp_min(c, a, b)) == repr(lp_oracle.lp_min(c, a, b))


def _random_bounded_polytope(rng, n):
    # a box plus a few random cuts keeps it bounded and usually nonempty
    cons = []
    for i in range(n):
        row = [Fraction(0)] * n
        row[i] = Fraction(1)
        cons.append((tuple(row), Fraction(rng.randint(1, 5))))
        row = [Fraction(0)] * n
        row[i] = Fraction(-1)
        cons.append((tuple(row), Fraction(rng.randint(0, 4))))
    for _ in range(rng.randint(0, 3)):
        row = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
        if any(row):
            cons.append((row, Fraction(rng.randint(-1, 6))))
    return RationalPolytope(n, cons)


def test_lp_matches_vertex_enumeration_on_random_polytopes():
    rng = random.Random(42)
    checked = 0
    while checked < 120:
        n = rng.randint(1, 3)
        p = _random_bounded_polytope(rng, n)
        verts = polytope_vertices(p)
        if not verts:
            continue
        c = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        a = [list(row) for row, _ in p.constraints]
        b = [bb for _, bb in p.constraints]
        status, value, point = lp_min(c, a, b)
        assert status == OPTIMAL
        best = min(sum(ci * vi for ci, vi in zip(c, v)) for v in verts)
        assert value == best
        assert p.contains(point)
        assert sum(ci * pi for ci, pi in zip(c, point)) == value
        checked += 1
