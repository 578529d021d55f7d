import random
from fractions import Fraction

import pytest

from toricres.linalg import (
    NOT_UNIQUE,
    NotUnique,
    cofactor_nullvector,
    det,
    det_int,
    dot,
    integer_kernel_basis,
    nullspace,
    primitive,
    quotient_by_vector,
    rank,
    solve_functional,
    solve_linear,
)


def cofactor_det(m):
    # independent oracle: Laplace expansion along the first row
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(n):
        minor = [[m[i][k] for k in range(n) if k != j] for i in range(1, n)]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(m[0][j]) * cofactor_det(minor)
    return total


def test_det_identity_and_small():
    eye3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert det(eye3) == 1
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[2]]) == 2
    assert det([]) == 1


def test_det_matches_cofactor_oracle_on_random_matrices():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(n)] for _ in range(n)]
        assert det(m) == cofactor_det(m)


def test_det_int_matches_and_handles_zero_pivots():
    m = [[0, 2, 1], [1, 0, 0], [3, 1, 0]]
    assert det_int(m) == cofactor_det(m)
    singular = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert det_int(singular) == 0


def test_det_multilinearity_and_alternating():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 4)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        scaled = [row[:] for row in rows]
        scaled[0] = [c * x for x in scaled[0]]
        assert det(scaled) == c * det(rows)
        swapped = [row[:] for row in rows]
        swapped[0], swapped[1] = swapped[1], swapped[0]
        assert det(swapped) == -det(rows)
        dup = [row[:] for row in rows]
        dup[1] = dup[0][:]
        assert det(dup) == 0


def test_det_multiplicative():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(2, 4)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
              for i in range(n)]
        assert det(ab) == det(a) * det(b)


def test_rank_and_nullspace():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    ns = nullspace([[1, 1, 1]], 3)
    assert len(ns) == 2
    for v in ns:
        assert sum(v) == 0
    assert nullspace([], 2) == [(Fraction(1), Fraction(0)),
                                (Fraction(0), Fraction(1))]


def test_solve_linear():
    assert solve_linear([[2, 0], [0, 3]], [4, 9]) == (2, 3)
    assert solve_linear([[1, 1], [2, 2]], [1, 3]) is None  # inconsistent
    assert solve_linear([[1, 1], [2, 2]], [1, 2]) is None  # underdetermined


def test_solve_functional_unique():
    lam = solve_functional([(1, 0, 0), (0, 1, 0)], (0, 0, 2), 2)
    assert lam == (0, 0, 1)


def test_solve_functional_not_unique_is_a_value():
    out = solve_functional([(1, 1, 0)], (0, 0, 1), 1)
    assert out is NOT_UNIQUE
    assert isinstance(out, NotUnique)
    assert repr(out) == "NotUnique"


def test_solve_functional_unreachable_normalization():
    # annihilator is a line but orthogonal to the target
    out = solve_functional([(1, 0), (0, 0)], (1, 0), 5)
    assert out is NOT_UNIQUE


def test_solve_functional_against_nullspace_oracle():
    rng = random.Random(23)
    for _ in range(15):
        n = 5
        # build a random rank-4 span so the annihilator is a line
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(8)]
        ns = nullspace(rows, n)
        if len(ns) != 1:
            continue
        lam0 = ns[0]
        target = tuple(rng.randint(-3, 3) for _ in range(n))
        t = dot(lam0, target)
        got = solve_functional(rows, target, 7)
        if t == 0:
            assert got is NOT_UNIQUE
        else:
            scale = Fraction(7) / t
            assert got == tuple(scale * x for x in lam0)


def test_solve_functional_shape_mismatch():
    with pytest.raises(ValueError):
        solve_functional([(1, 0)], (1, 0, 0), 1)


def test_primitive():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((0, 5)) == (0, 1)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_cofactor_nullvector():
    v = cofactor_nullvector([[1, 0, 0], [0, 1, 0]], 3)
    assert v is not None
    assert dot(v, (1, 0, 0)) == 0 and dot(v, (0, 1, 0)) == 0
    assert cofactor_nullvector([[1, 2, 3], [2, 4, 6]], 3) is None
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n - 1)]
        v = cofactor_nullvector(rows, n)
        if v is not None:
            assert any(x != 0 for x in v)
            for row in rows:
                assert dot(v, row) == 0


def test_integer_kernel_basis_is_saturated():
    # kernel of (2 4) in Z^2 is generated by (2,-1), not (4,-2)
    basis = integer_kernel_basis([[2, 4]], 2)
    assert len(basis) == 1
    assert primitive(basis[0]) == basis[0]
    rng = random.Random(37)
    for _ in range(20):
        m, n = rng.randint(1, 3), rng.randint(2, 5)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        basis = integer_kernel_basis(rows, n)
        assert len(basis) == n - rank(rows)
        for b in basis:
            for row in rows:
                assert dot(row, b) == 0
        if basis:
            assert rank(basis) == len(basis)


def test_quotient_by_vector():
    import math
    from itertools import combinations

    for w in [(1, 1, 1), (1, 1, 1, 1, 1), (1, 1, 2), (2, 3, 10, 15), (1,)]:
        if len(w) == 1:
            assert quotient_by_vector(w) == []
            continue
        rows = quotient_by_vector(w)
        assert len(rows) == len(w) - 1
        for r in rows:
            assert dot(r, w) == 0
        assert rank(rows) == len(w) - 1
        # surjectivity onto Z^(n-1): gcd of the maximal minors is 1
        minors = [det_int([[row[c] for c in cset] for row in rows])
                  for cset in combinations(range(len(w)), len(w) - 1)]
        assert math.gcd(*(abs(x) for x in minors)) == 1

    with pytest.raises(ValueError):
        quotient_by_vector((2, 4))
