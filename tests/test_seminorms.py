import random
from fractions import Fraction
from itertools import combinations

import pytest

from nonarch.errors import DomainError
from nonarch.seminorms import (
    DiagSeminorm,
    det_norm,
    norm_index,
    sym_power,
    sym_power_is_exact,
    tensor,
    wedge_power,
)
from nonarch.values import INF, Val


def diag(*ws):
    return DiagSeminorm.from_weights([w if isinstance(w, Val) else Val(w) for w in ws])


def weights(a):
    return sorted(a.weights)


def test_tensor_examples():
    assert weights(tensor(diag(0, 1), diag(2))) == [Val(2), Val(3)]
    t = tensor(diag(INF, 0), diag(1))
    assert sorted(t.weights, key=str) == sorted([INF, Val(1)], key=str)
    assert weights(tensor(diag(Fraction(1, 2)), diag(Fraction(1, 3)))) == [Val(Fraction(5, 6))]


def test_wedge_examples():
    assert weights(wedge_power(diag(0, 1, 3), 2)) == [Val(1), Val(3), Val(4)]
    w0 = wedge_power(diag(0, 1, 3), 0)
    assert w0.dim == 1 and w0.weights == (Val(0),)
    top = wedge_power(diag(0, 1, 3), 3)
    assert top.dim == 1 and top.weights == (Val(4),)
    with pytest.raises(DomainError):
        wedge_power(diag(0, 1), 3)


def test_sym_examples():
    assert weights(sym_power(diag(0, 1), 2)) == [Val(0), Val(1), Val(2)]
    a = diag(0, 5, 7)
    assert sym_power(a, 1) == a
    assert weights(sym_power(diag(Fraction(1, 2)), 3)) == [Val(Fraction(3, 2))]
    with pytest.raises(DomainError):
        sym_power(a, -1)


def test_sym_exactness_flag():
    assert sym_power_is_exact(5, 0)
    assert sym_power_is_exact(2, 3)
    assert not sym_power_is_exact(3, 3)
    assert not sym_power_is_exact(4, 2)


def test_det_examples():
    assert det_norm(diag(0, 1, 3)) == Val(4)
    assert det_norm(diag()) == Val(0)
    assert det_norm(diag(-1, 1)) == Val(0)
    with pytest.raises(DomainError):
        det_norm(diag(0, INF))


def test_index_examples():
    assert norm_index(diag(0, 1), diag(1, 1)) == Val(1)
    a = diag(2, 3)
    assert norm_index(a, a) == Val(0)
    assert norm_index(diag(0), diag(-2)) == Val(-2)
    with pytest.raises(DomainError):
        norm_index(diag(0), diag(0, 0))


def _random_norm(rng, dim):
    return diag(*[Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(dim)])


def test_index_transitivity_random():
    rng = random.Random(5)
    for _ in range(100):
        dim = rng.randint(1, 6)
        a, b, c = (_random_norm(rng, dim) for _ in range(3))
        assert norm_index(a, b) + norm_index(b, c) == norm_index(a, c)


def test_det_of_tensor_random():
    rng = random.Random(6)
    for _ in range(60):
        a = _random_norm(rng, rng.randint(1, 4))
        b = _random_norm(rng, rng.randint(1, 4))
        assert det_norm(tensor(a, b)) == det_norm(a) * b.dim + det_norm(b) * a.dim


def test_wedge_matches_subset_sums():
    rng = random.Random(8)
    for _ in range(40):
        dim = rng.randint(1, 5)
        a = _random_norm(rng, dim)
        q = rng.randint(0, dim)
        w = wedge_power(a, q)
        expected = sorted(
            sum((a.weights[i] for i in s), Val(0)) for s in combinations(range(dim), q)
        )
        assert sorted(w.weights) == expected


def test_monotonicity_of_derived_weights():
    rng = random.Random(9)
    for _ in range(40):
        dim = rng.randint(1, 4)
        base = _random_norm(rng, dim)
        i = rng.randrange(dim)
        raised = list(base.weights)
        raised[i] = raised[i] + Val(rng.randint(1, 3))
        other = DiagSeminorm.from_weights(raised)

        for op in (lambda x: wedge_power(x, min(2, dim)), lambda x: sym_power(x, 2)):
            lo, hi = op(base), op(other)
            assert all(u <= v for u, v in zip(lo.weights, hi.weights))
        assert det_norm(base) <= det_norm(other)
        partner = _random_norm(rng, 2)
        assert all(
            u <= v for u, v in zip(tensor(base, partner).weights, tensor(other, partner).weights)
        )


def test_value_is_the_weighted_minimum_of_the_coordinates():
    # |x| = max_i |x_i| * eps^w_i, additively min_i (v(x_i) + w_i)
    a = DiagSeminorm.from_weights((0, Fraction(1, 2), INF))
    assert a.value((2, 0, 0)) == Val(Fraction(1, 2))
    assert a.value((Fraction(1, 3), 1, -5)) == Val(Fraction(1, 3))
    assert a.value((INF, INF, 0)) == INF  # only the kernel direction is nonzero
    assert a.value((INF, 1, 0)) == Val(Fraction(3, 2))
    with pytest.raises(DomainError, match="coordinate count"):
        a.value((0, 0))
