import random
from fractions import Fraction

import pytest

from torellikit import intmat
from torellikit.semidirect import random_unimodular


def _gauss_jordan_inverse(mat):
    """Inverse over the rationals, the reference for the integer-only
    reduction."""
    m = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(m)]
         for i, row in enumerate(mat)]
    for col in range(m):
        pivot = next(r for r in range(col, m) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(int(x) for x in row[m:]) for row in a)


def test_inverse_unimodular_matches_rational_gauss_jordan():
    rng = random.Random(0x1A7)
    for n in range(1, 7):
        for _ in range(40):
            mat = random_unimodular(n, rng, bound=9, steps=30)
            inv = intmat.inverse_unimodular(mat)
            assert intmat.matmul(mat, inv) == intmat.identity(n)
            assert intmat.matmul(inv, mat) == intmat.identity(n)
            assert inv == _gauss_jordan_inverse(mat)
    assert intmat.inverse_unimodular(()) == ()


@pytest.mark.parametrize("mat, d", [
    (((0, 0), (0, 0)), 0),
    (((1, 2), (2, 4)), 0),
    (((1, 0, 0), (0, 1, 0), (0, 0, 0)), 0),
    (((2,),), 2),
    (((2, 1), (0, 1)), 2),
    (((3, 1), (1, 1)), 2),
    (((1, 3), (1, 1)), -2),
    (((0, 1, 0), (2, 0, 0), (0, 0, 1)), -2),
])
def test_inverse_unimodular_rejects_other_determinants(mat, d):
    assert intmat.det(mat) == d
    with pytest.raises(ValueError, match=f"det = {d}"):
        intmat.inverse_unimodular(mat)
