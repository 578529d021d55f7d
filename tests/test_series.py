import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest

from reference import (
    inv_factorial,
    reference_expand_rational,
    reference_linear_form_coefficient,
)
from toricres.laurent import LaurentPolynomial, compositions
from toricres.mirror import (
    P4XP1,
    WpsFamily,
    verify_family,
    wps_closed_form,
    yukawa_fixture,
)
from toricres.polytope import LatticePolytope, check_nef_partition
from toricres.residue import graded_basis, system_from_coefficients
from toricres.series import (
    RationalFunctionSpec,
    TruncatedSeries,
    _layout,
    _linear_form_plan,
    expand_rational,
    linear_form_power_coefficient,
)


def one_var(order, coeffs):
    return TruncatedSeries(1, order, {(e,): c for e, c in coeffs.items()})


def test_constructor_truncates_and_drops_zeros():
    s = TruncatedSeries(2, 3, {(0, 0): 1, (2, 2): 5, (1, 0): 0})
    assert s.coeffs == {(0, 0): Fraction(1)}
    assert s.coefficient((2, 2)) == 0
    assert s.coefficient((0, 0)) == 1


def test_constructor_rejects_bad_exponents():
    with pytest.raises(ValueError):
        TruncatedSeries(2, 3, {(1,): 1})
    with pytest.raises(ValueError):
        TruncatedSeries(2, 3, {(-1, 0): 1})
    with pytest.raises(ValueError):
        TruncatedSeries(0, 3, {})
    with pytest.raises(ValueError):
        TruncatedSeries(1, -1, {})


def test_coefficient_checks_the_exponent_length():
    s = TruncatedSeries(2, 3, {(1, 0): 1})
    assert s.coefficient((1, 0)) == 1
    assert s.coefficient((0, 1)) == 0
    for bad in ((1, 0, 0), (1,)):
        with pytest.raises(ValueError, match="must have 2 entries"):
            s.coefficient(bad)


def test_laurent_coefficient_checks_the_exponent():
    # a wrong-length exponent read 0, and a float entry found the int key
    p = LaurentPolynomial(2, {(1, 1): 3})
    assert p.coefficient((1, 1)) == 3
    with pytest.raises(ValueError, match="must have 2 entries"):
        p.coefficient((1, 1, 0))
    with pytest.raises(TypeError, match="exponent entry"):
        p.coefficient((1.0, 1))


def test_series_is_immutable():
    s = one_var(3, {0: 1})
    with pytest.raises(AttributeError):
        s.order = 5


def test_one_plus_y_times_one_minus_y():
    a = one_var(5, {0: 1, 1: 1})
    b = one_var(5, {0: 1, 1: -1})
    prod = a * b
    assert prod == one_var(5, {0: 1, 2: -1})


def test_add_and_mul_truncate_to_min_order():
    a = one_var(5, {0: 1, 1: 1})
    b = one_var(2, {2: 1})
    assert (a + b).order == 2
    assert b + a == one_var(2, {0: 1, 1: 1, 2: 1})
    assert a + one_var(2, {}) == one_var(2, {0: 1, 1: 1})
    assert one_var(2, {}) + one_var(5, {4: 1}) == one_var(2, {})
    # degree-3 product term falls outside the shared window
    assert a * b == one_var(2, {2: 1})
    assert -b == one_var(2, {2: -1})
    assert a - b == one_var(2, {0: 1, 1: 1, 2: -1})
    assert b - a == one_var(2, {0: -1, 1: -1, 2: 1})


def test_mismatched_variable_count_rejected():
    a = one_var(3, {0: 1})
    b = TruncatedSeries(2, 3, {(0, 0): 1})
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_geometric_cross_term():
    # (sum y1^i) * (sum y2^j): every monomial appears once
    order = 6
    g1 = TruncatedSeries(2, order, {(i, 0): 1 for i in range(order + 1)})
    g2 = TruncatedSeries(2, order, {(0, j): 1 for j in range(order + 1)})
    prod = g1 * g2
    assert prod.coefficient((1, 1)) == 1
    assert all(c == 1 for c in prod.coeffs.values())


def test_scalar_multiplication():
    s = one_var(3, {0: 1, 2: 4})
    assert 3 * s == one_var(3, {0: 3, 2: 12})
    assert s * Fraction(1, 2) == one_var(3, {0: Fraction(1, 2), 2: 2})


def test_ring_laws_random():
    rng = random.Random(7)

    def rand_series():
        coeffs = {}
        for _ in range(6):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            coeffs[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        return TruncatedSeries(2, 6, coeffs)

    for _ in range(10):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - b == a + (-1) * b == -(b - a)
        assert a - a == TruncatedSeries(2, 6, {})


def test_expand_geometric():
    spec = RationalFunctionSpec(1, {(0,): 1}, [({(0,): 1, (1,): -4}, 1)])
    s = expand_rational(spec, 3)
    assert [s.coefficient((i,)) for i in range(4)] == [1, 4, 16, 64]


def test_expand_two_variable_fixture():
    # 9 / ((1 - y1 - y2)(1 - y1))
    spec = RationalFunctionSpec(
        2,
        {(0, 0): 9},
        [({(0, 0): 1, (1, 0): -1, (0, 1): -1}, 1),
         ({(0, 0): 1, (1, 0): -1}, 1)],
    )
    s = expand_rational(spec, 4)
    assert s.coefficient((0, 0)) == 9
    assert s.coefficient((1, 0)) == 18
    assert s.coefficient((0, 1)) == 9


def test_expand_quadratic_denominator():
    # 8 / ((1 - 256 y1)^2 - 4 y2)
    d0 = {(0, 0): 1, (1, 0): -512, (2, 0): 65536, (0, 1): -4}
    spec = RationalFunctionSpec(2, {(0, 0): 8}, [(d0, 1)])
    s = expand_rational(spec, 3)
    assert s.coefficient((0, 0)) == 8
    assert s.coefficient((1, 0)) == 8 * 512
    assert s.coefficient((0, 1)) == 32


def test_expand_with_multiplicity():
    # 1/(1-y)^2 = sum (n+1) y^n
    spec = RationalFunctionSpec(1, {(0,): 1}, [({(0,): 1, (1,): -1}, 2)])
    s = expand_rational(spec, 6)
    assert [s.coefficient((i,)) for i in range(7)] == [1, 2, 3, 4, 5, 6, 7]


def test_expand_binomial_table():
    # 1/(1 - y1 - y2): coefficient of y1^a y2^b is C(a+b, a)
    spec = RationalFunctionSpec(
        2, {(0, 0): 1}, [({(0, 0): 1, (1, 0): -1, (0, 1): -1}, 1)])
    s = expand_rational(spec, 6)
    for a in range(5):
        for b in range(5):
            if a + b <= 6:
                assert s.coefficient((a, b)) == comb(a + b, a)


def test_expand_rejects_zero_constant_factor():
    with pytest.raises(ValueError):
        RationalFunctionSpec(1, {(0,): 1}, [({(1,): 1}, 1)])


def test_expand_rejects_bad_multiplicity():
    with pytest.raises(ValueError):
        RationalFunctionSpec(1, {(0,): 1}, [({(0,): 1}, 0)])


def test_rational_function_evaluate():
    spec = RationalFunctionSpec(1, {(0,): 1}, [({(0,): 1, (1,): -4}, 1)])
    assert spec.evaluate([Fraction(1, 8)]) == 2
    with pytest.raises(ZeroDivisionError):
        spec.evaluate([Fraction(1, 4)])


def test_expand_rational_needs_a_spec_and_a_nonnegative_order():
    with pytest.raises(TypeError):
        expand_rational({(0,): 1}, 3)
    with pytest.raises(ValueError):
        expand_rational(GEOMETRIC, -1)


def test_expansion_times_denominator_recovers_numerator():
    rng = random.Random(11)
    for _ in range(5):
        num = {(rng.randint(0, 2), rng.randint(0, 2)):
               Fraction(rng.randint(-5, 5)) for _ in range(3)}
        fac = {(0, 0): Fraction(rng.randint(1, 5)),
               (1, 0): Fraction(rng.randint(-3, 3)),
               (0, 1): Fraction(rng.randint(-3, 3)),
               (1, 1): Fraction(rng.randint(-2, 2))}
        spec = RationalFunctionSpec(2, num, [(fac, 1), (fac, 1)])
        order = 5
        s = expand_rational(spec, order)
        back = s * TruncatedSeries(2, order, fac) * TruncatedSeries(2, order, fac)
        assert back == TruncatedSeries(2, order, num)


def random_spec(rng, nvars, integral=False):
    """A seeded spec: rational numerator and factor coefficients, constant
    terms +-1, 2, -5 or p/q, multiplicities 1 to 3; when integral, every
    coefficient an int and every constant term +-1."""
    def coef():
        if not integral and rng.random() < 0.3:
            return Fraction(rng.randint(-5, 5), rng.randint(2, 6))
        return rng.randint(-4, 4)

    def exponent(top):
        return tuple(rng.randint(0, top) for _ in range(nvars))

    consts = ([1, -1] if integral
              else [1, -1, 2, -5, Fraction(3, 4), Fraction(-2, 7)])
    units = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    num = {exponent(2): coef() for _ in range(rng.randint(1, 3))}
    factors = []
    for _ in range(rng.randint(1, 3)):
        fac = {exponent(2): coef() for _ in range(rng.randint(0, 2))}
        fac.update((u, coef()) for u in units if rng.random() < 0.7)
        fac[(0,) * nvars] = rng.choice(consts)
        factors.append((fac, rng.randint(1, 3)))
    return RationalFunctionSpec(nvars, num, factors)


def test_expand_rational_matches_division_reference(monkeypatch):
    # 150 specs as drawn, then 80 integral ones.  A spec with c = D(0) = 1
    # and an integer numerator takes the integer shortcut, one argument per
    # Fraction; any other builds each Fraction from a numerator and a
    # denominator.  Both ways must meet the reference often.
    rng = random.Random(5)
    nonzero = 0
    paths = {1: 0, 2: 0}
    new = Fraction.__new__
    for case in range(230):
        nvars = 1 + case % 3
        spec = random_spec(rng, nvars, integral=case >= 150)
        order = rng.randint(0, 8)
        arities = set()

        def counting_new(cls, *args, **kwargs):
            arities.add(len(args))
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        got = expand_rational(spec, order)
        monkeypatch.undo()
        assert got == reference_expand_rational(spec, order)
        assert all(type(c) is Fraction for c in got.coeffs.values())
        nonzero += len(got.coeffs)
        if arities:
            (arity,) = arities
            paths[arity] += 1
    assert nonzero > 1200
    assert paths[1] >= 30 and paths[2] >= 30, paths


def test_expand_rational_matches_reference_on_fixtures():
    fixtures = [(name, k) for name in ("P3xP3", "P4xP1")
                for k in ((3, 0), (2, 1), (1, 2), (0, 3))]
    for name, k in fixtures + [("wps_diag", (3, 3))]:
        spec = yukawa_fixture(name, k)
        assert expand_rational(spec, 40) == reference_expand_rational(spec, 40)
    quintic = WpsFamily((1, 1, 1, 1, 1), ((0, 1, 2, 3, 4),))
    spec = wps_closed_form(quintic,
                           LaurentPolynomial(5, {(0, 1, 1, 1, 1): 1}))
    assert expand_rational(spec, 400) == reference_expand_rational(spec, 400)


def test_expand_rational_builds_one_fraction_per_coefficient(monkeypatch):
    # the recurrence and the residual check run in integers
    spec = yukawa_fixture("P4xP1", (1, 2))
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    got = expand_rational(spec, 20)
    monkeypatch.undo()
    assert len(got.coeffs) > 100
    assert len(made) == len(got.coeffs)
    assert got == reference_expand_rational(spec, 20)


def test_layout_lists_exponents_in_composition_order():
    for nvars in range(1, 5):
        for order in range(7):
            assert _layout(nvars, order) == tuple(
                e for total in range(order + 1)
                for e in compositions(total, nvars))
    with pytest.raises(TypeError):
        _layout(2, 3)[0] = (0, 0)


def test_expand_rational_decodes_only_its_own_exponents():
    # 1 / (1 - x1 x2 x3 x4) to order 40 has 11 terms among the 135751
    # exponents of that shape; the expansion lists no layout
    one = (0, 0, 0, 0)
    spec = RationalFunctionSpec(4, {one: 1}, [({one: 1, (1, 1, 1, 1): -1}, 1)])
    misses = _layout.cache_info().misses
    got = expand_rational(spec, 40)
    assert _layout.cache_info().misses == misses
    assert got.coeffs == {(t, t, t, t): 1 for t in range(11)}


# Stubs the product denominator that the recurrence divides by so that it
# misses the last factor; the residual check multiplies by every factor of
# the spec itself.  The bare assert proves the interpreter runs with
# asserts stripped.
DROPPED_FACTOR = """
from toricres import series
assert False
full = series._denominator
series._denominator = lambda nvars, factors, order: full(
    nvars, factors[:-1], order)
spec = series.RationalFunctionSpec(
    1, {(0,): 1}, [({(0,): 1, (1,): -1}, 1), ({(0,): 1, (1,): -2}, 1)])
series.expand_rational(spec, 5)
"""


def test_expand_rational_residual_check_survives_optimize():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", DROPPED_FACTOR],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode != 0
    assert ("AssertionError: expand_rational: expansion * denominator "
            "!= numerator") in proc.stderr


GEOMETRIC = RationalFunctionSpec(1, {(0,): 1}, [({(0,): 1, (1,): -1}, 1)])
PENTAGON = check_nef_partition([[(1, 0)], [(0, 1), (-1, -1)]])


def _refused(case_id, call, name):
    return pytest.param(call, name, id=case_id)


@pytest.mark.parametrize("call, name", [
    _refused("series-exponent",
             lambda: TruncatedSeries(1, 3, {(1.5,): 1}), "exponent"),
    _refused("series-coefficient",
             lambda: TruncatedSeries(1, 3, {(1,): 0.1}), "coefficient"),
    _refused("series-order", lambda: TruncatedSeries(1, 3.0, {}), "order"),
    _refused("series-scalar",
             lambda: TruncatedSeries(1, 3, {(1,): 1}) * 0.5, "scalar"),
    _refused("coefficient-lookup",
             lambda: TruncatedSeries(1, 3, {}).coefficient((1.0,)),
             "exponent"),
    _refused("linear-form-power",
             lambda: linear_form_power_coefficient([([1, 1], 2.7)], (1, 1)),
             "linear form power"),
    _refused("linear-form-entry",
             lambda: linear_form_power_coefficient([([1, 0.5], 2)], (1, 1)),
             "linear form entry"),
    _refused("linear-form-target",
             lambda: linear_form_power_coefficient([([1, 1], 2)], (1.0, 1)),
             "target entry"),
    _refused("expand-order", lambda: expand_rational(GEOMETRIC, 2.9),
             "order"),
    _refused("multiplicity",
             lambda: RationalFunctionSpec(1, {(0,): 1}, [({(0,): 1}, 1.5)]),
             "factor multiplicity"),
    _refused("numerator",
             lambda: RationalFunctionSpec(1, {(0,): 0.5}, []), "numerator"),
    _refused("factor-bool",
             lambda: RationalFunctionSpec(1, {(0,): 1}, [({(0,): True}, 1)]),
             "denominator factor"),
    _refused("evaluate", lambda: GEOMETRIC.evaluate([0.5]), "value"),
    _refused("laurent-exponent",
             lambda: LaurentPolynomial(1, {(1.5,): 1}), "exponent entry"),
    _refused("laurent-coefficient",
             lambda: LaurentPolynomial(1, {(1,): 0.1}), "coefficient"),
    _refused("laurent-scalar",
             lambda: LaurentPolynomial(1, {(1,): 1}) * 0.5, "scalar"),
    _refused("verify-order", lambda: verify_family(P4XP1, 2.9, k=(3, 0)),
             "order"),
    _refused("verify-k", lambda: verify_family(P4XP1, 3, k=(2.7, 1)),
             "k entry"),
    _refused("wps-weight",
             lambda: WpsFamily((1.5, 1, 1, 1, 1), [[0, 1, 2, 3, 4]]),
             "weight"),
    _refused("polytope-point",
             lambda: LatticePolytope([(0.5, 0), (1, 0), (0, 1)]),
             "point entry"),
    _refused("residue-coefficient",
             lambda: system_from_coefficients(PENTAGON, [0.5, 1, 1]),
             "coefficient"),
    _refused("residue-multidegree",
             lambda: graded_basis(PENTAGON, (1.5, 1)), "multidegree entry"),
])
def test_series_api_refuses_floats(call, name):
    # a float was truncated or converted to a binary fraction before
    with pytest.raises(TypeError, match=name):
        call()


def test_linear_form_square():
    # (z1 + z2)^2, coefficient of z1 z2
    assert linear_form_power_coefficient([((1, 1), 2)], (1, 1)) == 2


def test_linear_form_mixed_powers():
    # (3 z1)^3 (z1 + z2)^1, coefficient of z1^4
    forms = [((3, 0), 3), ((1, 1), 1)]
    assert linear_form_power_coefficient(forms, (4, 0)) == 27
    assert linear_form_power_coefficient(forms, (3, 1)) == 27
    # out of range: total degree of the product is 4
    assert linear_form_power_coefficient(forms, (2, 1)) == 0
    assert linear_form_power_coefficient(forms, (5, 0)) == 0


def test_linear_form_plan_forced_and_zero_forms():
    # the plan sorts forms by support; a forced form's power comes straight
    # off its one coordinate, so a forced-only product is one term
    assert _linear_form_plan([(3, 0), (0, 0), (1, 2), (0, 5)]) == (
        [(0, 0, 3), (3, 1, 5)], [(1, [], []), (2, [0, 1], [1, 2])])
    forms = [((2, 0), 3), ((0, 5), 1)]
    assert linear_form_power_coefficient(forms, (3, 1)) == 2 ** 3 * 5
    assert linear_form_power_coefficient(forms, (4, 0)) == 0
    # an all-zero form is 1 at power 0 and kills the product above it,
    # before the last general form or as the last
    for zero_first in (True, False):
        for e, want in ((0, 2), (1, 0)):
            forms = [((0, 0), e), ((1, 1), 2 - e)]
            if not zero_first:
                forms.reverse()
            assert linear_form_power_coefficient(forms, (1, 1)) == want


def test_linear_form_negative_target_is_zero():
    assert linear_form_power_coefficient([((1, 1), 2)], (-1, 3)) == 0


def test_linear_form_validation():
    with pytest.raises(ValueError):
        linear_form_power_coefficient([((1,), 2)], (1, 1))
    with pytest.raises(ValueError):
        linear_form_power_coefficient([((1, 1), -2)], (1, 1))
    # a malformed later form is refused even when the coefficient is
    # already known to be 0
    with pytest.raises(ValueError):
        linear_form_power_coefficient([((1, 0), 1), ((1,), -2)], (0, 1))
    with pytest.raises(ValueError):
        linear_form_power_coefficient([((1, 0), 1), ((1, 1), -2)], (-1, 1))


def test_linear_form_completeness():
    # summing the coefficient over all targets of the full total degree
    # must reproduce the product evaluated at z = (1, ..., 1)
    rng = random.Random(3)
    for _ in range(5):
        forms = [((rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)),
                  rng.randint(0, 3)) for _ in range(3)]
        total = sum(e for _, e in forms)
        value = 1
        for vec, e in forms:
            value *= sum(vec) ** e
        acc = 0
        for a in range(total + 1):
            for b in range(total - a + 1):
                c = total - a - b
                acc += linear_form_power_coefficient(forms, (a, b, c))
        assert acc == value


def test_linear_form_matches_factor_by_factor_reference():
    rng = random.Random(9)

    def entry():
        r = rng.random()
        if r < 0.25:
            return 0
        if r < 0.45:
            return Fraction(rng.randint(-5, 5), rng.randint(2, 4))
        return rng.randint(-4, 4)

    nonzero = 0
    for case in range(400):
        nvars = 1 + case % 3
        forms = [([entry() for _ in range(nvars)], rng.randint(0, 4))
                 for _ in range(rng.randint(1, 4))]
        if case % 5 == 0:
            # off the total degree, possibly negative
            target = [rng.randint(-2, 5) for _ in range(nvars)]
        else:
            target = [0] * nvars
            for _ in range(sum(e for _, e in forms)):
                target[rng.randrange(nvars)] += 1
        got = linear_form_power_coefficient(forms, target)
        assert isinstance(got, Fraction)
        assert got == reference_linear_form_coefficient(forms, target)
        nonzero += got != 0
    assert nonzero > 150
    # an all-zero form contributes 1 to the power 0 and kills the product
    # to any higher power, first or last in the product
    for forms, target, want in [
            ([((0, 0), 0), ((1, 2), 2)], (1, 1), 4),
            ([((1, 2), 2), ((0, 0), 0)], (1, 1), 4),
            ([((0, 0), 0)], (0, 0), 1),
            ([((0, 0), 3), ((1, 2), 2)], (4, 1), 0),
            ([((1, 2), 2), ((0, 0), 1)], (2, 1), 0),
            ([((0, Fraction(0)), 2)], (1, 1), 0)]:
        got = linear_form_power_coefficient(forms, target)
        assert got == want == reference_linear_form_coefficient(forms, target)


def test_inv_factorial():
    assert inv_factorial(0) == 1
    assert inv_factorial(3) == Fraction(1, 6)
    assert inv_factorial(-1) == 0
    assert inv_factorial(-7) == 0
