import pytest

from nonarch.errors import DomainError
from nonarch.lp import _pivot, lp_min


@pytest.mark.parametrize("b", [[3, 0, -5], [3], []])
def test_right_hand_side_length_must_match_the_rows(b):
    # a third bound was dropped without a word, and a missing one escaped
    # as an IndexError
    with pytest.raises(DomainError, match="right-hand side"):
        lp_min([1], [[1], [-1]], b)


def test_constraint_width_must_match_the_objective():
    with pytest.raises(DomainError, match="dimensions disagree"):
        lp_min([1, 2], [[1], [-1]], [0, 0])


def test_pivot_is_one_fraction_free_step():
    """Two steps of _pivot on [[2, 1, 4], [1, 3, 7]]: each row stays the
    last pivot (the determinant so far) times the rational row, and the
    pivot row is left as it is."""
    rows = [[2, 1, 4], [1, 3, 7]]
    d = _pivot(rows, 0, 0, 1)
    assert (d, rows) == (2, [[2, 1, 4], [0, 5, 10]])
    d = _pivot(rows, 1, 1, d)
    # x = 1, y = 2 over the determinant 5
    assert (d, rows) == (5, [[5, 0, 5], [0, 5, 10]])
