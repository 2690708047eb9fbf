import pytest
from oracles import (
    grassmannian_descent,
    grassmannian_shape,
    schur_oracle,
    semistandard_tableaux,
)

from schubert.poly import Poly, poly_from_text

x1, x2 = Poly.variable(1), Poly.variable(2)


def test_single_box():
    assert schur_oracle((1,), k=2) == x1 + x2


def test_shape_21():
    assert schur_oracle((2, 1), k=2) == x1 ** 2 * x2 + x1 * x2 ** 2


def test_skew_21_over_1():
    expected = poly_from_text("x1^2 + 2*x1*x2 + x2^2")
    assert schur_oracle((2, 1), (1,), k=2) == expected


def test_empty_shape():
    assert schur_oracle((), k=3) == Poly.constant(1)
    assert schur_oracle((2, 2), (2, 2), k=2) == Poly.constant(1)


def test_tableau_count_hook_lengths():
    # S_lambda(1,1,1) for lambda=(2,1) over 3 letters is 8
    assert len(list(semistandard_tableaux((2, 1), None, 3))) == 8


def test_tableau_constraints():
    tabs = list(semistandard_tableaux((3, 2), (1,), 3))
    assert tabs
    for row0, row1 in tabs:
        assert all(a <= b for a, b in zip(row0, row0[1:]))
        assert all(a <= b for a, b in zip(row1, row1[1:]))
        # the only shared column is 1 (0-indexed): row0[0] sits above row1[1]
        assert row1[1] > row0[0]


def test_bad_shapes_rejected():
    with pytest.raises(ValueError):
        schur_oracle((1, 2), k=2)
    with pytest.raises(ValueError):
        schur_oracle((1,), (2,), k=2)
    with pytest.raises(ValueError):
        schur_oracle((1,), k=0)


def test_grassmannian_detection():
    assert grassmannian_descent((1, 3, 2, 4)) == 2
    assert grassmannian_descent((2, 4, 1, 3)) == 2
    assert grassmannian_descent((1, 2, 3, 4)) is None
    assert grassmannian_descent((3, 2, 1)) is None


def test_grassmannian_shape():
    assert grassmannian_shape((1, 3, 2, 4)) == ((1,), 2)
    assert grassmannian_shape((2, 4, 1, 3)) == ((2, 1), 2)
    assert grassmannian_shape((2, 1, 3)) == ((1,), 1)
    with pytest.raises(ValueError):
        grassmannian_shape((1, 2, 3))
