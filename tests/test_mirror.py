import math
import os
import random
from fractions import Fraction

import pytest

from reference import (
    in_y_chart,
    inv_factorial,
    reference_linear_form_coefficient,
    reference_wps_series,
)
from toricres import mirror, polytope, series
from toricres.jsonio import load_family_file
from toricres.laurent import LaurentPolynomial, compositions, monomial
from toricres.mirror import (
    P3XP3,
    P4XP1,
    Family,
    ProductFamily,
    WpsFamily,
    product_intersection_series,
    q_to_p,
    verify_family,
    wps_closed_form,
    wps_intersection_series,
    wps_nef_partition,
    wps_vertex_vectors,
    yukawa_fixture,
)
from toricres.residue import (
    check_mixed_volume_identity,
    draw_regular_coefficients,
    residue_setup,
)
from toricres.series import TruncatedSeries, expand_rational


def quintic_family():
    return WpsFamily((1, 1, 1, 1, 1), [(0, 1, 2, 3, 4)])


def split_family():
    # plane with coordinates grouped as {x1} and {x2, x3}
    return WpsFamily((1, 1, 1), [(0,), (1, 2)])


def test_wps_family_validation():
    with pytest.raises(ValueError):
        WpsFamily((2, 2), [(0, 1)])  # gcd 2
    with pytest.raises(ValueError):
        WpsFamily((1, 1, 1), [(0,), (1,)])  # index 2 missing
    with pytest.raises(ValueError):
        WpsFamily((1, 1, 1), [(0, 1), (1, 2)])  # index 1 repeated
    with pytest.raises(ValueError):
        WpsFamily((1, 2), [(0, 1)])  # 2 does not divide the total 3
    with pytest.raises(ValueError):
        WpsFamily((1, 1, 2), [(0,), (1, 2)])  # 2 does not divide degree 1
    fam = WpsFamily((1, 1, 2), [(0, 1, 2)])
    assert fam.degrees == (4,)
    assert fam.dim == 2


def test_product_family_validation():
    with pytest.raises(ValueError):
        ProductFamily((3, 3), ((3, 0), (0, 3)))  # row sums 3 != 4
    with pytest.raises(ValueError):
        ProductFamily((3,), ((3, 0, 1), (0, 3, 1)))  # row count
    with pytest.raises(ValueError):
        ProductFamily((3, 3), ((3, 0, 1), (0, 4)))  # ragged
    assert P3XP3.r == 3 and P3XP3.ambient_dim == 6
    assert P4XP1.r == 2 and P4XP1.p == 2


def test_families_compare_by_factors_and_parts():
    # two spellings of one grouping are one family, with one hash
    a = WpsFamily((1, 1, 1), [(0,), (1, 2)])
    b = WpsFamily((1, 1, 1), [(0,), (2, 1)])
    assert a == b and hash(a) == hash(b)
    assert a == Family([[1, 1, 1]], [[0], [2, 1]])
    # the order of the parts and the weights are part of the family
    for other in (WpsFamily((1, 1, 1), [(1, 2), (0,)]),
                  WpsFamily((1, 1, 1), [(0, 1), (2,)]),
                  WpsFamily((1, 1, 2), [(0, 1), (2,)]), P3XP3):
        assert a != other
    assert len({a, b, WpsFamily((1, 1, 1), [(1, 2), (0,)])}) == 2
    # the product spelling of P^4 with one part of degree 5 is the quintic
    quintic = ProductFamily((4,), ((5,),))
    assert quintic == quintic_family()
    assert hash(quintic) == hash(quintic_family())
    assert quintic.matrix == ((5,),) and quintic.degrees == (5,)
    with pytest.raises(ValueError, match="no bundled closed form"):
        verify_family(quintic, 2, k=(3,))


def test_product_family_deals_coordinates_in_order():
    assert P3XP3.factors == ((1,) * 4, (1,) * 4)
    assert P3XP3.parts == ((0, 1, 2), (4, 5, 6), (3, 7))
    assert P4XP1.parts == ((0, 1, 2, 3), (4, 5, 6))
    assert (P4XP1.dims, P4XP1.matrix, P4XP1.n) == ((4, 1), ((4, 1), (0, 2)), 7)
    with pytest.raises(ValueError):
        ProductFamily((1,), ((-1, 3),))  # a negative degree
    with pytest.raises(ValueError):
        ProductFamily((1, 1), ((3,), (1,)))  # rows must deal their own


def test_wps_vertex_vectors_relations():
    for fam in (split_family(), quintic_family(),
                WpsFamily((1, 1, 2), [(0, 1, 2)])):
        vecs = wps_vertex_vectors(fam)
        assert len(vecs) == fam.n
        assert len(set(vecs)) == fam.n
        for j in range(fam.dim):
            assert sum(w * v[j] for w, v in zip(fam.weights, vecs)) == 0


def test_wps_nef_partition_positions():
    fam = split_family()
    nef, positions = wps_nef_partition(fam)
    vecs = wps_vertex_vectors(fam)
    assert sorted(positions) == [0, 1, 2]
    for i in range(fam.n):
        assert nef.points[positions[i]] == vecs[i]
    # group sizes survive the reordering
    assert len(nef.parts[0]) == 1 and len(nef.parts[1]) == 2


def test_quintic_series():
    fam = quintic_family()
    P = monomial(5, (1, 1, 1, 1, 0))
    s = wps_intersection_series(fam, P, 3)
    assert [s.coefficient((b,)) for b in range(4)] == [
        1, 3125, 3125 ** 2, 3125 ** 3]


def test_split_series_and_closed_form():
    fam = split_family()
    P = monomial(3, (1, 1, 0))
    s = wps_intersection_series(fam, P, 3)
    assert [s.coefficient((b,)) for b in range(4)] == [1, 4, 16, 64]
    cf = wps_closed_form(fam, P)
    assert cf.numerator == {(0,): Fraction(1)}
    assert dict(cf.denominator_factors[0][0]) == {(0,): 1, (1,): -4}


def test_wps_series_linearity():
    fam = split_family()
    P = monomial(3, (1, 0, 1))
    s1 = wps_intersection_series(fam, P, 4)
    s2 = wps_intersection_series(fam, 2 * P, 4)
    assert s2 == 2 * s1


def test_wps_degree_validation():
    fam = split_family()
    with pytest.raises(ValueError):
        wps_intersection_series(fam, monomial(3, (1, 0, 0)), 3)
    with pytest.raises(ValueError):
        wps_closed_form(fam, monomial(3, (2, 1, 0)))
    with pytest.raises(ValueError):
        wps_intersection_series(fam, monomial(2, (1, 1)), 3)
    with pytest.raises(ValueError):
        wps_intersection_series(fam, monomial(3, (-1, 2, 1)), 3)
    # P goes with a one-factor family only
    P7 = monomial(7, (1, 1, 1, 1, 1, 0, 0))
    with pytest.raises(ValueError, match="one-factor family"):
        wps_intersection_series(P4XP1, P7, 3)
    with pytest.raises(ValueError, match="one-factor family"):
        wps_closed_form(P4XP1, P7)


def test_wps_nu_for_nonunit_weights():
    fam = WpsFamily((1, 1, 2), [(0, 1, 2)])
    P = monomial(3, (1, 1, 0))  # P(w) = 1, degree 2 = dim
    cf = wps_closed_form(fam, P)
    assert cf.numerator == {(0,): Fraction(1, 2)}
    # mu = 4^4 / (1 * 1 * 2^2) = 64
    assert dict(cf.denominator_factors[0][0]) == {(0,): 1, (1,): -64}


def test_wps_termwise_equals_expansion():
    cases = [
        (quintic_family(), monomial(5, (0, 1, 1, 1, 1)), 4),
        (split_family(), monomial(3, (1, 1, 0)), 8),
        (WpsFamily((1, 1, 2), [(0, 1, 2)]),
         LaurentPolynomial(3, {(1, 1, 0): Fraction(2), (0, 2, 0): 1}), 6),
    ]
    for fam, P, order in cases:
        termwise = wps_intersection_series(fam, P, order)
        expanded = expand_rational(wps_closed_form(fam, P), order)
        assert termwise == expanded


# (weights, parts, order): the quintic, three one-part weighted families,
# (2,3) in P^4, (3,3) in P^5 and the plane split {x1}, {x2, x3}
WEIGHTED_FAMILIES = [
    ((1, 1, 1, 1, 1), [(0, 1, 2, 3, 4)], 400),
    ((1, 1, 1, 1, 2), [(0, 1, 2, 3, 4)], 60),
    ((1, 1, 1, 1, 4), [(0, 1, 2, 3, 4)], 40),
    ((1, 1, 1, 2, 5), [(0, 1, 2, 3, 4)], 40),
    ((1, 1, 1, 1, 1), [(0, 1), (2, 3, 4)], 60),
    ((1, 1, 1, 1, 1, 1), [(0, 1, 2), (3, 4, 5)], 40),
    ((1, 1, 1), [(0,), (1, 2)], 40),
]


@pytest.mark.parametrize("weights, parts, order", WEIGHTED_FAMILIES,
                         ids=lambda x: str(x))
def test_wps_series_matches_the_closed_power_loop(weights, parts, order):
    # the linear-form route against P(w) (prod d_j^d_j)^b / prod w^(w b + 1)
    fam = WpsFamily(weights, parts)
    n = len(weights)
    # P = (2/3) x_0^dim + x_1 ... x_dim, of degree dim
    P = LaurentPolynomial(n, {(n - 1,) + (0,) * (n - 1): Fraction(2, 3),
                              (0,) + (1,) * (n - 1): 1})
    got = wps_intersection_series(fam, P, order)
    assert got == reference_wps_series(fam, P, order)
    assert len(got.coeffs) == order + 1


def test_product_series_p3xp3():
    # in z: the values 9, 18, 9 and 9 of the chart y = 27z, each times
    # 27^|beta|
    s = product_intersection_series(P3XP3, (2, 1), 3)
    assert s.coefficient((0, 0)) == 9
    assert s.coefficient((1, 0)) == 18 * 27
    assert s.coefficient((0, 1)) == 9 * 27
    t = product_intersection_series(P3XP3, (3, 0), 2)
    assert t.coefficient((0, 0)) == 0
    assert t.coefficient((1, 0)) == 9 * 27


def test_product_series_repr_names_no_variable():
    # a product series is in z, so its repr prints exponents only
    s = product_intersection_series(P3XP3, (2, 1), 1)
    assert repr(s) == ("TruncatedSeries(nvars=2, order=1, "
                       "{(0, 0): 9, (0, 1): 243, (1, 0): 486})")
    half = TruncatedSeries(1, 2, {(1,): Fraction(1, 2)})
    assert repr(half) == "TruncatedSeries(nvars=1, order=2, {(1,): 1/2})"
    assert repr(TruncatedSeries(2, 0, {})) == (
        "TruncatedSeries(nvars=2, order=0, {})")


def test_product_series_p4xp1():
    s = product_intersection_series(P4XP1, (3, 0), 2)
    assert s.coefficient((0, 0)) == 8
    assert s.coefficient((1, 0)) == 8 * 512
    t = product_intersection_series(P4XP1, (2, 1), 1)
    assert t.coefficient((0, 0)) == 4
    u = product_intersection_series(P4XP1, (0, 3), 1)
    assert u.coefficient((0, 0)) == 0
    assert u.coefficient((0, 1)) == 4


def test_product_series_scale_convention():
    # the series is in z and keeps the raw extraction values; only the
    # hand-typed P3xP3 form is in y = 27z, where the same coefficient is 18
    raw = ProductFamily((3, 3), ((3, 0, 1), (0, 3, 1)))
    assert raw == P3XP3 and hash(raw) == hash(P3XP3)
    s = product_intersection_series(raw, (2, 1), 1)
    assert s.coefficient((1, 0)) == 18 * 27
    y = expand_rational(yukawa_fixture("P3xP3", (2, 1)), 1)
    assert y.coefficient((1, 0)) == 18


def test_series_orders_must_be_nonnegative():
    with pytest.raises(ValueError, match="order must be >= 0"):
        product_intersection_series(P3XP3, (2, 1), -1)
    with pytest.raises(ValueError, match="order must be >= 0"):
        wps_intersection_series(
            quintic_family(), monomial(5, (0, 1, 1, 1, 1)), -1)


def test_wps_series_of_a_polynomial_vanishing_at_the_weights():
    fam = quintic_family()
    P = LaurentPolynomial(5, {(0, 1, 1, 1, 1): 1, (1, 0, 1, 1, 1): -1})
    s = wps_intersection_series(fam, P, 5)
    assert s.coeffs == {}
    assert s == expand_rational(wps_closed_form(fam, P), 5)


def random_product_family(rng):
    """dims 1-3 on 1-3 factors; each row spreads d_i + 1 over a random
    subset of the r columns, so zero entries and single-support columns
    are common."""
    p = rng.randint(1, 3)
    dims = [rng.randint(1, 3) for _ in range(p)]
    r = rng.randint(1, min(4, sum(dims)))
    matrix = []
    for d in dims:
        support = rng.sample(range(r), rng.randint(1, min(r, d + 1)))
        row = [0] * r
        for i in support:
            row[i] = 1
        for _ in range(d + 1 - len(support)):
            row[rng.choice(support)] += 1
        matrix.append(row)
    # the draws of the removed variable scales stay, so that each seed
    # still gives the same families
    for _ in range(p):
        rng.randint(1, 4)
    return ProductFamily(dims, matrix)


def random_k(fam, rng):
    k = [0] * fam.p
    for _ in range(fam.ambient_dim - fam.r):
        k[rng.randrange(fam.p)] += 1
    return k


def check_against_reference(fam, k, order):
    """Every coefficient of the termwise series against the factor-by-factor
    reference on the columns n_ij, over prod w^(w beta_i + 1); returns how
    many are nonzero."""
    got = product_intersection_series(fam, k, order)
    columns = list(zip(*fam.matrix))
    nonzero = 0
    for total in range(order + 1):
        for b in compositions(total, fam.p):
            target = [sum(ws) * bi + len(ws) - 1 - ki
                      for ws, bi, ki in zip(fam.factors, b, k)]
            forms = [(col, sum(c * bi for c, bi in zip(col, b)) + 1)
                     for col in columns]
            norm = math.prod(w ** (w * bi + 1)
                             for ws, bi in zip(fam.factors, b) for w in ws)
            want = reference_linear_form_coefficient(forms, target) / norm
            assert got.coefficient(b) == want
            nonzero += want != 0
    assert all(got.coeffs.values())
    return nonzero


def test_product_series_matches_factor_by_factor_reference():
    rng = random.Random(17)
    seen = {"zero entry": 0, "single support": 0, "nonzero": 0}
    for _ in range(24):
        fam = random_product_family(rng)
        k = random_k(fam, rng)
        columns = list(zip(*fam.matrix))
        seen["zero entry"] += 0 in sum(columns, ())
        seen["single support"] += fam.p > 1 and any(
            sum(1 for x in col if x) == 1 for col in columns)
        seen["nonzero"] += check_against_reference(fam, k, 9 - fam.p)
    assert min(seen.values()) >= 5, seen


def dense_product_family(rng):
    """2-3 factors of dims 1-3 with 2-3 general columns, each nonzero in
    every row, so the kernel convolves at least one general column before
    the last; about half the families add forced columns, nonzero in one
    row only.  Columns come in random order."""
    p = rng.randint(2, 3)
    general = rng.randint(2, 3)
    dims = [rng.randint(general - 1, 3) for _ in range(p)]
    forced = []  # the row of each forced column
    for _ in range(rng.choice((0, 0, 1, 2))):
        room = [i for i in range(p)
                if general + forced.count(i) < dims[i] + 1]
        if room and general + len(forced) < sum(dims):
            forced.append(rng.choice(room))
    r = general + len(forced)
    order = rng.sample(range(r), r)  # order[j]: the column built j-th
    matrix = [[0] * r for _ in range(p)]
    for i, d in enumerate(dims):
        own = [order[j] for j in range(general)]
        own += [order[general + t] for t, row in enumerate(forced) if row == i]
        for c in own:
            matrix[i][c] = 1
        for _ in range(d + 1 - len(own)):
            matrix[i][rng.choice(own)] += 1
    # the draws of the removed variable scales stay, so that each seed
    # still gives the same families
    for _ in range(p):
        rng.randint(1, 3)
    return ProductFamily(dims, matrix)


def test_dense_product_series_matches_factor_by_factor_reference():
    # the families above mostly have single-support columns; here every
    # family convolves general columns, and many mix them with forced ones
    rng = random.Random(23)
    seen = {"convolution": 0, "forced and general": 0, "nonzero": 0}
    for _ in range(24):
        fam = dense_product_family(rng)
        k = random_k(fam, rng)
        sizes = [sum(1 for x in col if x) for col in zip(*fam.matrix)]
        seen["convolution"] += sum(1 for n in sizes if n > 1) >= 2
        seen["forced and general"] += 1 in sizes and max(sizes) > 1
        seen["nonzero"] += check_against_reference(fam, k, 7 - fam.p)
    assert min(seen.values()) >= 5, seen


def weighted_product_family(rng):
    """1-3 factors of 2-4 weights <= 3 each, with the coordinates dealt to
    1-3 parts at random; a draw that is no family, because a weight does
    not divide its factor's total or an n_ij, or that has more parts than
    dimensions, is drawn again.  Parts may be empty."""
    while True:
        factors = [[rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
                   for _ in range(rng.randint(1, 3))]
        n = sum(map(len, factors))
        r = rng.randint(1, 3)
        deal = [rng.randrange(r) for _ in range(n)]
        try:
            fam = Family(factors, [[c for c in range(n) if deal[c] == j]
                                   for j in range(r)])
        except ValueError:
            continue
        if fam.r <= fam.dim:
            return fam


def test_weighted_product_series_matches_factor_by_factor_reference():
    rng = random.Random(29)
    seen = {"weighted": 0, "several factors, weighted": 0,
            "general form, weighted": 0, "nonzero": 0}
    for _ in range(40):
        fam = weighted_product_family(rng)
        k = random_k(fam, rng)
        weighted = max(fam.weights) > 1
        seen["weighted"] += weighted
        seen["several factors, weighted"] += weighted and fam.p > 1
        seen["general form, weighted"] += weighted and any(
            sum(1 for x in col if x) > 1 for col in zip(*fam.matrix))
        seen["nonzero"] += check_against_reference(fam, k, 5 - fam.p)
    assert min(seen.values()) >= 5, seen


def test_one_kernel_for_both_termwise_routes(monkeypatch):
    # the public coefficient and the product series reach one private
    # kernel: the same function object, counted from both routes
    assert mirror._linear_form_kernel is series._linear_form_kernel
    calls = []
    real = series._linear_form_kernel

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(series, "_linear_form_kernel", counting)
    monkeypatch.setattr(mirror, "_linear_form_kernel", counting)
    forms = [((3, 0), 2), ((1, 2), 3)]
    got = series.linear_form_power_coefficient(forms, (3, 2))
    assert got == reference_linear_form_coefficient(forms, (3, 2))
    assert len(calls) == 1
    series_got = product_intersection_series(P4XP1, (3, 0), 5)
    # one call per beta: every target (5 b1 + 1, 2 b2 + 1) is nonnegative
    assert len(calls) == 1 + sum(len(compositions(t, 2)) for t in range(6))
    assert series_got.coeffs
    # the weighted route is the same series, one call per b
    calls.clear()
    wps_got = wps_intersection_series(quintic_family(),
                                      monomial(5, (0, 1, 1, 1, 1)), 7)
    assert len(calls) == 8 and len(wps_got.coeffs) == 8


def test_product_series_builds_one_fraction_per_coefficient(monkeypatch):
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    got = product_intersection_series(P4XP1, (1, 2), 12)
    monkeypatch.undo()
    assert len(got.coeffs) > 50
    assert len(made) == len(got.coeffs)
    assert got == expand_rational(yukawa_fixture("P4xP1", (1, 2)), 12)


def test_product_series_builds_one_factorial_table(monkeypatch):
    built = []
    real = series._factorials

    def counting(top):
        built.append(top)
        return real(top)

    # either route to the kernel would count: the series' own table and
    # the public linear_form_power_coefficient's
    monkeypatch.setattr(series, "_factorials", counting)
    monkeypatch.setattr(mirror, "_factorials", counting)
    got = product_intersection_series(P4XP1, (1, 2), 12)
    assert got.coeffs
    # the largest power is that of the column (4, 0) at beta = (12, 0)
    assert built == [4 * 12 + 1]


def test_product_series_validation():
    with pytest.raises(ValueError):
        product_intersection_series(P3XP3, (2, 1, 0), 2)
    with pytest.raises(ValueError):
        product_intersection_series(P3XP3, (2, 2), 2)  # sum must be 3
    with pytest.raises(ValueError):
        product_intersection_series(P3XP3, (4, -1), 2)


def factorial_coefficient(name, k, b):
    """Closed-form coefficient at y^b of a bundled product family."""
    (k1, k2), (b1, b2) = k, b
    if name == "P3xP3":
        return (9 * math.factorial(b1 + b2 + 1)
                * inv_factorial(b1 - k1 + 2) * inv_factorial(b2 - k2 + 2))
    return (Fraction(2) ** (8 * b1 + 2 * b2 - k2 + 3)
            * math.factorial(b1 + 2 * b2 + 1)
            * inv_factorial(b1 - k1 + 3) * inv_factorial(2 * b2 - k2 + 1))


def test_product_matches_fixture_expansion():
    # three independent routes: extraction, the fixture's rational
    # function, and the factorial form, on every coefficient up to order,
    # in the chart of the fixture
    for name, fam, scale, order in [("P3xP3", P3XP3, 27, 5),
                                    ("P4xP1", P4XP1, 1, 4)]:
        for k in [(3, 0), (2, 1), (1, 2), (0, 3)]:
            s = in_y_chart(product_intersection_series(fam, k, order), scale)
            assert s == expand_rational(yukawa_fixture(name, k), order)
            for total in range(order + 1):
                for b in compositions(total, 2):
                    assert s.coefficient(b) == factorial_coefficient(
                        name, k, b)


def test_yukawa_fixture_validation():
    with pytest.raises(ValueError):
        yukawa_fixture("P2xP2", (1, 1))
    with pytest.raises(ValueError):
        yukawa_fixture("P3xP3", (4, 0))
    with pytest.raises(ValueError):
        yukawa_fixture("wps_diag", (2, 2))


def test_diagonal_combination_identity():
    # Y(3,0) + 3 Y(2,1) + 3 Y(1,2) + Y(0,3) on the diagonal y1 = y2 = y
    order = 8
    weights = {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}
    total = {}
    for k, mult in weights.items():
        e = expand_rational(yukawa_fixture("P3xP3", k), order)
        for exp, c in e.coeffs.items():
            d = exp[0] + exp[1]
            total[(d,)] = total.get((d,), Fraction(0)) + mult * c
    diag = TruncatedSeries(1, order, total)
    target = expand_rational(yukawa_fixture("wps_diag", (3, 3)), order)
    assert diag == target


def test_q_to_p_constant():
    Q = monomial(3, (0, 0, 0))
    P = q_to_p(Q, [(0,), (1, 2)], degree=2)
    assert P.terms == {(1, 1, 0): Fraction(1), (1, 0, 1): Fraction(1)}


def test_q_to_p_degree_checks():
    with pytest.raises(ValueError):
        q_to_p(monomial(3, (0, 1, 0)), [(0,), (1, 2)], degree=2)
    with pytest.raises(ValueError):
        # x1 + x2 is not homogeneous per group
        q_to_p(LaurentPolynomial(3, {(1, 0, 0): 1, (0, 1, 0): 1}),
               [(0,), (1, 2)])
    with pytest.raises(ValueError):
        q_to_p(monomial(3, (0, 0, 0)), [(0,), (1,)])  # bad partition


def test_q_to_p_product_style_degrees():
    # eight coordinates in three groups; a degree-3 Q lands at degree 6
    parts = [(0, 1, 2), (3, 4, 5), (6, 7)]
    Q = monomial(8, (1, 0, 0, 1, 0, 0, 1, 0))
    P = q_to_p(Q, parts, degree=6)
    degs = {sum(e) for e in P.terms}
    assert degs == {6}
    group_degs = {tuple(sum(e[i] for i in part) for part in parts)
                  for e in P.terms}
    assert group_degs == {(2, 2, 2)}
    assert P.evaluate((1,) * 8) == 3 * 3 * 2


def test_unit_weight_family_through_q():
    # one-part grouping of Q against the closed form d1*d2*Q(1)/(1 - mu y)
    fam = split_family()
    Q = monomial(3, (0, 0, 0), 3)
    P = q_to_p(Q, fam.parts, degree=fam.dim)
    cf = wps_closed_form(fam, P)
    d1, d2 = fam.degrees
    assert cf.numerator == {(0,): d1 * d2 * Q.evaluate((1, 1, 1))}
    assert dict(cf.denominator_factors[0][0]) == {(0,): 1, (1,): -4}


def test_verify_family_wps():
    fam = split_family()
    report = verify_family(fam, 8, P=monomial(3, (1, 1, 0)),
                           rng=random.Random(0))
    assert report["ok"]
    assert report["mode"] == "wps"
    assert report["mismatches"] == []
    assert len(report["rows"]) == 9
    assert len(report["points"]) == 2
    for row in report["points"]:
        assert row["closed_form"] == row["residue"]


def test_nef_style_family_file_builds_one_partition():
    # the file's nef partition and the weighted family's are one object,
    # residue setup and all
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                        "p2split.json")
    fam = load_family_file(path)
    assert fam == split_family()
    report = verify_family(fam, 8, P=monomial(3, (1, 0, 1)),
                           rng=random.Random(0))
    assert report["ok"] and len(report["points"]) == 2
    info = polytope._nef_partition.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_verify_family_wps_composite_polynomial():
    fam = split_family()
    P = q_to_p(monomial(3, (0, 0, 0)), fam.parts, degree=fam.dim)
    points = [(Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)),
              (Fraction(2, 3), Fraction(1, 2), Fraction(1, 9))]
    report = verify_family(fam, 5, P=P, points=points)
    assert report["ok"]


def test_verify_family_wps_explicit_points():
    fam = split_family()
    points = [(Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)),
              (Fraction(2, 3), Fraction(1, 2), Fraction(1, 9))]
    report = verify_family(fam, 4, P=monomial(3, (1, 1, 0)), points=points)
    assert report["ok"]
    assert report["points"][0]["y"] == Fraction(1, 105)
    assert report["points"][0]["closed_form"] == Fraction(105, 101)


def test_verify_family_product():
    report = verify_family(P3XP3, 4, k=(2, 1))
    assert report["ok"]
    assert report["mode"] == "product"
    assert report["mismatches"] == []
    report = verify_family(P4XP1, 3, k=(3, 0))
    assert report["ok"]


def test_verify_family_validation():
    with pytest.raises(ValueError):
        verify_family(split_family(), 4)  # P missing
    with pytest.raises(ValueError):
        verify_family(P3XP3, 4)  # k missing
    with pytest.raises(AttributeError):
        verify_family("nope", 4, k=(1,))  # not a family: no factor count
    with pytest.raises(ValueError):
        # valid family without a bundled closed form
        verify_family(ProductFamily((2,), ((3,),)), 2, k=(1,))
    with pytest.raises(ValueError):
        verify_family(split_family(), 4, P=monomial(3, (1, 1, 0)),
                      points=[(1, 1, 1)])
    with pytest.raises(ValueError, match="not both"):
        verify_family(split_family(), 4, P=monomial(3, (1, 1, 0)),
                      points=[(1, 1, 1), (1, 2, 3)], rng=random.Random(0))


def test_verify_family_refuses_a_non_regular_point():
    # the point's functional is solved up front, so the pole of the closed
    # form at y = 1/4 is never reached
    points = [(1, Fraction(1, 2), Fraction(1, 2)), (1, 2, 3)]
    with pytest.raises(ValueError, match="gives a non-regular system"):
        verify_family(split_family(), 3, P=monomial(3, (1, 1, 0)),
                      points=points)


def test_verify_family_point_validation():
    fam = split_family()
    with pytest.raises(ValueError):
        verify_family(fam, 3, P=monomial(3, (1, 1, 0)),
                      points=[(0, 1, 1), (1, 1, 1)])
    with pytest.raises(ValueError):
        verify_family(fam, 3, P=monomial(3, (1, 1, 0)),
                      points=[(1, 1), (1, 1)])


_X1X2 = monomial(3, (1, 1, 0))


@pytest.mark.parametrize("fam, kwargs", [
    pytest.param(split_family(), dict(P=_X1X2, points=[(1, 1, 1), (1, 2, 3)],
                                      rng=random.Random(0)), id="points-rng"),
    pytest.param(split_family(), dict(P=_X1X2, points=[(1, 2, 3)]),
                 id="one-point"),
    pytest.param(split_family(), dict(P=_X1X2,
                                      points=[(1, 2, 3), (1, 0, 3)]),
                 id="zero-coordinate"),
    pytest.param(split_family(), dict(P=_X1X2, points=[(1, 2, 3), (1, 2)]),
                 id="short-point"),
    pytest.param(split_family(), dict(P=_X1X2, order=-1), id="order"),
    # degree 2 overall, but not homogeneous in the groups {x1}, {x2, x3}
    pytest.param(split_family(), dict(P=monomial(3, (2, 0, 0))
                                      + monomial(3, (0, 1, 1))),
                 id="group-degrees"),
    pytest.param(split_family(), dict(), id="no-P"),
    pytest.param(split_family(), dict(P=_X1X2), id="no-points-no-rng"),
    # y = 1/4 is the pole of 1/(1 - 4y): the regularity check must come
    # before the closed form is evaluated
    pytest.param(split_family(), dict(
        P=_X1X2, points=[(1, Fraction(1, 2), Fraction(1, 2)),
                         (Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))]),
        id="non-regular-point"),
    pytest.param(P3XP3, dict(), id="no-k"),
    pytest.param(ProductFamily((2,), ((3,),)), dict(k=(1,)),
                 id="no-fixture"),
    # each family kind refuses the other kind's arguments
    pytest.param(split_family(), dict(P=_X1X2, k=(1, 1)), id="weighted-k"),
    pytest.param(P3XP3, dict(k=(2, 1), P=_X1X2), id="product-P"),
    pytest.param(P3XP3, dict(k=(2, 1), points=[(1, 2), (2, 1)]),
                 id="product-points"),
    pytest.param(P3XP3, dict(k=(2, 1), rng=random.Random(0)),
                 id="product-rng"),
    pytest.param(P3XP3, dict(k=(2, 1), points=[(0,)], rng=random.Random(0)),
                 id="product-points-rng"),
])
def test_verify_family_refuses_before_any_series(monkeypatch, fam, kwargs):
    # every input is checked before a series is built or expanded
    calls = []
    for name in ("expand_rational", "wps_intersection_series",
                 "product_intersection_series"):
        real = getattr(mirror, name)

        def counted(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(mirror, name, counted)
    kwargs = dict(kwargs)
    order = kwargs.pop("order", 3)
    with pytest.raises(ValueError):
        verify_family(fam, order, **kwargs)
    assert calls == []
    # the same counters see a valid call build its series
    verify_family(P4XP1, 2, k=(3, 0))
    assert calls == ["product_intersection_series", "expand_rational"]


# (factors, parts, top piece size, Cayley volume): products of weighted
# projective spaces, each with one part, that the library builds beyond
# the two bundled spellings
NEW_FAMILIES = [
    pytest.param(((1, 1, 1, 3), (1, 1)), [range(6)], 251, 12,
                 id="P(1,1,1,3)xP1[6,2]"),
    pytest.param(((1, 1, 2, 2), (1, 1)), [range(6)], 251, 12,
                 id="P(1,1,2,2)xP1[6,2]"),
    pytest.param(((1, 1, 2), (1, 1, 2)), [range(6)], 321, 16,
                 id="P(1,1,2)xP(1,1,2)[4,4]"),
    pytest.param(((1, 1, 1, 3), (1, 1), (1, 1)), [range(8)], 1320, 24,
                 id="P(1,1,1,3)xP1xP1[6,2,2]"),
]


@pytest.mark.parametrize("factors, parts, top, vol", NEW_FAMILIES)
def test_weighted_product_families_hold_conjecture_310(factors, parts, top,
                                                       vol):
    fam = Family(factors, parts)
    nef, _ = wps_nef_partition(fam)
    setup = residue_setup(nef)
    assert (len(setup.top), setup.vol) == (top, vol)
    _, fs, rf = draw_regular_coefficients(nef, random.Random(1))
    report = check_mixed_volume_identity(fs, nef, rf)
    assert report["all_equal"] and report["sum_equals_vol"]
    assert report["vol"] == vol
    # the termwise series builds; no closed form is bundled to compare
    k = (fam.dim - fam.r,) + (0,) * (fam.p - 1)
    s = product_intersection_series(fam, k, 3)
    assert s.order == 3 and s.coeffs
    with pytest.raises(ValueError, match="no bundled closed form"):
        verify_family(fam, 3, k=k)
