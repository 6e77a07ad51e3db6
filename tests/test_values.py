from fractions import Fraction

import pytest

from nonarch.values import INF, Val, vmin, vsum


def test_ordering_and_inf():
    assert Val(1) < Val(2) < INF
    assert min(Val(3), INF) == Val(3)
    assert INF == INF
    assert Val(Fraction(1, 2)) == Val(Fraction(2, 4))
    assert sorted([INF, Val(0), Val(-1)]) == [Val(-1), Val(0), INF]


def test_inf_absorbs_addition():
    assert Val(2) + INF == INF
    assert INF + INF == INF
    assert Val(1) + Val(Fraction(1, 3)) == Val(Fraction(4, 3))


def test_subtraction_rules():
    assert INF - Val(5) == INF
    assert Val(5) - Val(7) == Val(-2)
    with pytest.raises(ValueError):
        Val(1) - INF


def test_scalar_multiples():
    assert Val(Fraction(1, 2)) * 3 == Val(Fraction(3, 2))
    assert 2 * INF == INF
    with pytest.raises(ValueError):
        INF * 0


def test_vmin_vsum():
    assert vmin([]) == INF
    assert vmin([Val(3), Val(1), INF]) == Val(1)
    assert vsum([Val(1), Val(2)]) == Val(3)
    assert vsum([Val(1), INF]) == INF
    assert vsum([]) == Val(0)


_ORDERED = [Val(-2), Val(Fraction(-1, 3)), Val(0), Val(Fraction(1, 2)), Val(1), INF]


@pytest.mark.parametrize("i", range(len(_ORDERED)))
@pytest.mark.parametrize("j", range(len(_ORDERED)))
def test_four_comparisons_follow_the_order(i, j):
    a, b = _ORDERED[i], _ORDERED[j]
    assert (a < b, a <= b, a > b, a >= b, a == b) == (i < j, i <= j, i > j, i >= j, i == j)
    if not b.is_inf:
        q = b.fraction
        assert (a < q, a <= q, a > q, a >= q) == (i < j, i <= j, i > j, i >= j)
        assert (q > a, q >= a, q < a, q <= a) == (i < j, i <= j, i > j, i >= j)


def test_a_fraction_is_kept_and_rendering_is_unchanged():
    q = Fraction(6, 4)
    v = Val(q)
    assert v.fraction is q and isinstance(Val(3).fraction, Fraction)
    assert (str(v), repr(v), str(INF), repr(INF)) == ("3/2", "Val(3/2)", "inf", "INF")
    assert hash(Val(3)) == hash(Val(Fraction(3))) and Val(3) == 3 and Val(q) == q
    with pytest.raises(TypeError):
        Val(1) < "x"
