import random
from fractions import Fraction

import pytest

from toricres.laurent import (
    LaurentPolynomial,
    cayley_polynomial,
    compositions,
    hessian,
    hessian_by_subsets,
    log_derivative,
    mixed_hessian,
    monomial,
    multidegree_component,
    nu,
    positive_compositions,
    zero,
)
from toricres.polytope import cayley_polytope


def poly(dim, *terms):
    return LaurentPolynomial(dim, {tuple(e): Fraction(c) for e, c in terms})


# the running 2-variable example: f1 = 1 - a1*x, f2 = 1 - a2*y - a3/(xy)
def pentagon_system(a1, a2, a3):
    f1 = poly(2, ((0, 0), 1), ((1, 0), -a1))
    f2 = poly(2, ((0, 0), 1), ((0, 1), -a2), ((-1, -1), -a3))
    return [f1, f2]


def random_system(rng, d, r, npts=3):
    """r random Laurent polynomials in d variables with constant term 1."""
    fs = []
    for _ in range(r):
        terms = {(0,) * d: Fraction(1)}
        while len(terms) < npts + 1:
            e = tuple(rng.randint(-2, 2) for _ in range(d))
            if e == (0,) * d:
                continue
            terms[e] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        fs.append(LaurentPolynomial(d, terms))
    return fs


def test_arithmetic_and_immutability():
    f = poly(2, ((0, 0), 1), ((1, 0), 2))
    g = poly(2, ((1, 0), -2), ((0, 1), 3))
    assert (f + g).terms == {(0, 0): 1, (0, 1): 3}
    assert (f - f).is_zero()
    assert (f * g).coefficient((1, 1)) == 6
    assert (3 * f).coefficient((1, 0)) == 6
    assert f * Fraction(1, 2) == poly(2, ((0, 0), Fraction(1, 2)), ((1, 0), 1))
    with pytest.raises(AttributeError):
        f.dim = 3
    with pytest.raises(ValueError):
        f + poly(3, ((0, 0, 0), 1))
    assert zero(2).is_zero()
    assert LaurentPolynomial(2, {(0, 0): 0}).is_zero()
    assert (f + (-f)).is_zero()


def test_evaluate():
    f = poly(2, ((1, 0), 2), ((-1, -1), 1))
    assert f.evaluate([Fraction(1, 2), 3]) == 1 + Fraction(2, 3)
    with pytest.raises(ZeroDivisionError):
        f.evaluate([0, 1])
    assert poly(1, ((2,), 5)).evaluate([0]) == 0
    with pytest.raises(ValueError):
        f.evaluate([1])


def test_log_derivative():
    f = poly(2, ((2, 1), 3), ((0, 5), 7), ((-1, 0), 1))
    assert log_derivative(f, 0) == poly(2, ((2, 1), 6), ((-1, 0), -1))
    # product rule
    g = poly(2, ((1, 1), 2), ((0, 0), 1))
    lhs = log_derivative(f * g, 1)
    rhs = log_derivative(f, 1) * g + f * log_derivative(g, 1)
    assert lhs == rhs
    with pytest.raises(IndexError):
        log_derivative(f, 2)


def test_newton_polytope():
    f = poly(2, ((0, 0), 1), ((2, 0), 1), ((0, 2), 1), ((1, 1), 5))
    assert set(f.newton_polytope().vertices) == {(0, 0), (2, 0), (0, 2)}
    with pytest.raises(ValueError):
        zero(2).newton_polytope()


def test_cayley_polynomial_terms():
    fs = pentagon_system(Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))
    F = cayley_polynomial(fs)
    assert F.dim == 4
    assert F.terms == {
        (0, 0, 1, 0): Fraction(1),
        (1, 0, 1, 0): Fraction(-1, 3),
        (0, 0, 0, 1): Fraction(1),
        (0, 1, 0, 1): Fraction(-1, 5),
        (-1, -1, 0, 1): Fraction(-1, 7),
    }
    with pytest.raises(ValueError):
        cayley_polynomial([])
    with pytest.raises(ValueError):
        cayley_polynomial([fs[0], zero(2)])
    with pytest.raises(ValueError):
        cayley_polynomial([fs[0], poly(3, ((0, 0, 0), 1))])


def test_cayley_polynomial_newton_polytope_is_cayley_polytope():
    fs = pentagon_system(1, 1, 1)
    F = cayley_polynomial(fs)
    direct = F.newton_polytope()
    assembled = cayley_polytope([f.newton_polytope() for f in fs])
    assert direct.vertices == assembled.vertices
    assert direct.facets == assembled.facets


def test_hessian_one_variable_line():
    # f = 1 - a*t has Hessian -a*t, on the nose
    a = Fraction(5, 7)
    f = poly(1, ((0,), 1), ((1,), -a))
    want = poly(1, ((1,), -a))
    assert hessian(f) == want
    assert hessian_by_subsets(f) == want


def test_hessian_two_routes_agree_random():
    rng = random.Random(11)
    for _ in range(6):
        d = rng.choice([1, 2])
        f = random_system(rng, d, 1, npts=rng.randint(2, 4))[0]
        assert hessian(f) == hessian_by_subsets(f)


def test_hessian_of_cayley_polynomial_two_routes():
    fs = pentagon_system(Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))
    F = cayley_polynomial(fs)
    H = hessian(F)
    assert H == hessian_by_subsets(F)
    assert not H.is_zero()
    # every monomial of H is divisible by both auxiliary variables
    assert all(e[2] >= 1 and e[3] >= 1 for e in H.terms)


def test_nu_values():
    assert nu([[(0, 0), (1, 0)], [(0, 0), (0, 1)]]) == 1
    # parts from the pentagon system, with base points included
    assert nu([[(0, 0), (1, 0)], [(0, 1), (-1, -1)]]) == 4
    assert nu([[(0, 0), (1, 0), (2, 0)]]) == 0  # collinear
    with pytest.raises(ValueError):
        nu([[(0, 0), (0, 0)]])
    with pytest.raises(ValueError):
        nu([[(0, 0), (1, 0)]])  # 1 difference row in dimension 2


def test_nu_base_point_invariance():
    rng = random.Random(23)
    for _ in range(10):
        part1 = [(0, 0, 1), (1, 2, 0), (0, 1, 1)]
        part2 = [(1, 1, 1), (rng.randint(-3, 3), 0, 2)]
        if len(set(part2)) < 2:
            continue
        v = nu([part1, part2])
        rng.shuffle(part1)
        rng.shuffle(part2)
        assert nu([part1, part2]) == v


def test_mixed_hessian_validation():
    fs = pentagon_system(1, 1, 1)
    with pytest.raises(ValueError):
        mixed_hessian(fs, (2, 1))  # |k| != d + r
    with pytest.raises(ValueError):
        mixed_hessian(fs, (5, -1))
    with pytest.raises(ValueError):
        mixed_hessian(fs, (4,))
    with pytest.raises(ValueError, match="empty system"):
        mixed_hessian([], ())
    assert mixed_hessian(fs, (0, 4)).is_zero()
    assert mixed_hessian(fs, (4, 0)).is_zero()


def test_mixed_hessian_one_polynomial_line():
    # f = 1 - a1*t - a2/t: the three 2-subsets of the support give
    # -a2, 4*a1*a2, -a1 at exponents (-1,2), (0,2), (1,2)
    a1, a2 = Fraction(1, 2), Fraction(1, 3)
    f = poly(1, ((0,), 1), ((1,), -a1), ((-1,), -a2))
    H = mixed_hessian([f], (2,))
    assert H.terms == {
        (-1, 2): -a2,
        (0, 2): 4 * a1 * a2,
        (1, 2): -a1,
    }
    F = cayley_polynomial([f])
    assert H == hessian(F)


def test_mixed_hessian_matches_multidegree_projection():
    fs = pentagon_system(Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))
    F = cayley_polynomial(fs)
    H = hessian(F)
    total = zero(4)
    for k in compositions(4, 2):
        comp = mixed_hessian(fs, k)
        assert comp == multidegree_component(H, k, 2)
        total = total + comp
    assert total == H


def test_mixed_hessian_projection_random_systems():
    rng = random.Random(77)
    for _ in range(4):
        d = rng.choice([1, 2])
        r = rng.choice([1, 2])
        fs = random_system(rng, d, r, npts=2)
        F = cayley_polynomial(fs)
        H = hessian(F)
        total = zero(d + r)
        for k in compositions(d + r, r):
            comp = mixed_hessian(fs, k)
            assert comp == multidegree_component(H, k, r)
            total = total + comp
        assert total == H


def test_multidegree_component_shape():
    f = poly(3, ((1, 2, 0), 4), ((1, 0, 2), 5), ((0, 1, 1), 6))
    got = multidegree_component(f, (0, 2), 2)
    assert got.terms == {(1, 0, 2): 5}
    with pytest.raises(ValueError):
        multidegree_component(f, (0, 2, 0), 2)


def test_compositions():
    assert compositions(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert compositions(0, 3) == [(0, 0, 0)]
    assert compositions(3, 0) == []
    assert compositions(0, 0) == [()]
    assert len(compositions(5, 3)) == 21  # C(7, 2)
    assert positive_compositions(4, 2) == [(1, 3), (2, 2), (3, 1)]
    assert positive_compositions(2, 3) == []
    with pytest.raises(ValueError):
        compositions(-1, 2)
    # caps bound each entry; every capped composition is one of the full
    # list, in the same order
    for total, caps in ((4, (2, 0, 3)), (5, (1, 1, 1)), (3, (3, 2, 0, 1))):
        full = compositions(total, len(caps))
        assert compositions(total, len(caps), caps) == [
            m for m in full if all(x <= c for x, c in zip(m, caps))]
    assert compositions(3, 2, (1, 1)) == []
    assert compositions(0, 0, ()) == [()]
    with pytest.raises(ValueError):
        compositions(2, 2, (1,))


def test_monomial_helper():
    m = monomial(3, (1, -2, 0), Fraction(2, 3))
    assert m.terms == {(1, -2, 0): Fraction(2, 3)}
    assert monomial(1, (0,)).coefficient((0,)) == 1
