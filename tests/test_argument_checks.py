"""One check per kind of argument.

Every entry point that takes a multidegree, a truncation order or a
coefficient polynomial sends it through the same check, so the same bad
input is refused everywhere with the same exception type and the same
message shape: a TypeError for a non-int entry, a ValueError otherwise,
and a message that names the argument.
"""

import functools
import os
import random
import re
from fractions import Fraction

import pytest

from toricres.cli import main
from toricres.laurent import LaurentPolynomial, mixed_hessian, monomial
from toricres.mirror import (
    P4XP1,
    WpsFamily,
    product_intersection_series,
    q_to_p,
    verify_family,
    wps_closed_form,
    wps_intersection_series,
)
from toricres.polytope import check_nef_partition, nef_piece_points
from toricres.residue import (
    graded_basis,
    interior_basis,
    mixed_residue,
    residue_functional,
    residue_of_polynomial,
    system_from_coefficients,
)
from toricres.series import (
    RationalFunctionSpec,
    TruncatedSeries,
    expand_rational,
)

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")

# d = 2, r = 2; the parts hold the points {x1} and {x2, x3}, as SPLIT
# groups its coordinates, so one coefficient polynomial fits both
PENTAGON = check_nef_partition([[(1, 0)], [(0, 1), (-1, -1)]])
A = [Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)]
SYSTEM = system_from_coefficients(PENTAGON, A)
SPLIT = WpsFamily((1, 1, 1), [(0,), (1, 2)])
X1X2 = monomial(3, (1, 1, 0))
GEOMETRIC = RationalFunctionSpec(1, {(0,): 1}, [({(0,): 1, (1,): -1}, 1)])


@functools.cache
def pentagon_functional():
    return residue_functional(SYSTEM, PENTAGON)


def fx(name):
    return os.path.join(FIX, name)


def exactly(message):
    return f"^{re.escape(message)}$"


# (id, call on k, argument name, a valid k, whether k has a fixed total)
MULTIDEGREE_ENTRY_POINTS = [
    ("graded_basis", lambda k: graded_basis(PENTAGON, k),
     "multidegree", (1, 1), False),
    ("interior_basis", lambda k: interior_basis(PENTAGON, k),
     "multidegree", (1, 1), False),
    ("nef_piece_points", lambda k: list(nef_piece_points(PENTAGON, k)),
     "multidegree", (1, 1), False),
    ("mixed_residue",
     lambda k: mixed_residue(pentagon_functional(),
                             LaurentPolynomial(4, {}), k),
     "multidegree", (2, 2), False),
    ("mixed_hessian", lambda k: mixed_hessian(SYSTEM, k),
     "multidegree", (2, 2), True),
    ("product_intersection_series",
     lambda k: product_intersection_series(P4XP1, k, 3), "k", (2, 1), True),
    ("verify_family", lambda k: verify_family(P4XP1, 3, k=k),
     "k", (2, 1), True),
]


def bad_multidegrees(what, valid, has_total):
    """(id, k, exception, message) for an argument named what."""
    a, b = valid
    rows = [
        ("too-short", (a,), ValueError, f"{what} must have 2 entries, got 1"),
        ("too-long", (a, b, 0), ValueError,
         f"{what} must have 2 entries, got 3"),
        ("negative", (a + b + 1, -1), ValueError,
         f"{what} must have nonnegative entries, got ({a + b + 1}, -1)"),
        ("bool", (True, b), TypeError,
         f"{what} entry must be an integer, got True"),
        ("float", (1.5, b), TypeError,
         f"{what} entry must be an integer, got 1.5"),
    ]
    if has_total:
        rows.append(("wrong-total", (a, b + 1), ValueError,
                     f"{what} must sum to {a + b}, got ({a}, {b + 1})"))
    return rows


@pytest.mark.parametrize("call, k, exc, message", [
    pytest.param(call, k, exc, message, id=f"{name}-{row}")
    for name, call, what, valid, has_total in MULTIDEGREE_ENTRY_POINTS
    for row, k, exc, message in bad_multidegrees(what, valid, has_total)])
def test_multidegree_refusals(call, k, exc, message):
    with pytest.raises(exc, match=exactly(message)):
        call(k)


ORDER_ENTRY_POINTS = [
    ("TruncatedSeries", lambda n: TruncatedSeries(1, n)),
    ("expand_rational", lambda n: expand_rational(GEOMETRIC, n)),
    ("wps_intersection_series",
     lambda n: wps_intersection_series(SPLIT, X1X2, n)),
    ("product_intersection_series",
     lambda n: product_intersection_series(P4XP1, (3, 0), n)),
    ("verify_family-product", lambda n: verify_family(P4XP1, n, k=(3, 0))),
    ("verify_family-weighted",
     lambda n: verify_family(SPLIT, n, P=X1X2, rng=random.Random(0))),
]

BAD_ORDERS = [
    ("negative", -1, ValueError, "order must be >= 0, got -1"),
    ("bool", True, TypeError, "order must be an integer, got True"),
    ("float", 2.5, TypeError, "order must be an integer, got 2.5"),
]


@pytest.mark.parametrize("call, order, exc, message", [
    pytest.param(call, order, exc, message, id=f"{name}-{row}")
    for name, call in ORDER_ENTRY_POINTS
    for row, order, exc, message in BAD_ORDERS])
def test_order_refusals(call, order, exc, message):
    with pytest.raises(exc, match=exactly(message)):
        call(order)


# (id, call on a polynomial in 3 variables, argument name, whether the
# entry point reads part degrees off it); each wants total degree 2
POLYNOMIAL_ENTRY_POINTS = [
    ("residue_of_polynomial",
     lambda P: residue_of_polynomial(pentagon_functional(), PENTAGON, P, A),
     "P", True),
    ("verify_family",
     lambda P: verify_family(SPLIT, 3, P=P, rng=random.Random(0)), "P", True),
    ("q_to_p", lambda P: q_to_p(P, [(0,), (1, 2)], degree=4), "Q", True),
    ("wps_intersection_series",
     lambda P: wps_intersection_series(SPLIT, P, 3), "P", False),
    ("wps_closed_form", lambda P: wps_closed_form(SPLIT, P), "P", False),
]

BAD_POLYNOMIALS = [
    ("negative-exponent", {(-1, 1, 2): 1}, False,
     "{what} has a negative exponent in (-1, 1, 2)"),
    # part degrees (1, 1) and (0, 2)
    ("not-homogeneous-per-part", {(1, 0, 1): 1, (0, 1, 1): 1}, True,
     "{what} is not homogeneous per group"),
    # part degrees (2, 1), which do not sum to d = 2
    ("wrong-sum", {(2, 0, 1): 1}, False,
     "{what} must be homogeneous of degree 2"),
]


@pytest.mark.parametrize("call, P, message", [
    pytest.param(call, LaurentPolynomial(3, terms), message.format(what=what),
                 id=f"{name}-{row}")
    for name, call, what, per_part in POLYNOMIAL_ENTRY_POINTS
    for row, terms, needs_parts, message in BAD_POLYNOMIALS
    if per_part or not needs_parts])
def test_coefficient_polynomial_refusals(call, P, message):
    with pytest.raises(ValueError, match=exactly(message)):
        call(P)


# (id, argv, argument name, the total k must have or None: 4 on the
# pentagon system, 3 on P4xP1); --poly is only loaded before --k is checked
CLI_MULTIDEGREE = [
    ("residue-eval", ["residue", "eval", "--nefpart", fx("p2split.json"),
                      "--coeffs", fx("a.json"), "--poly", fx("x1x2.json")],
     "--k", None),
    ("hessian-mixed", ["hessian", "mixed", "--system",
                       fx("pentagon_system.json")], "multidegree", 4),
    ("series-product", ["series", "product", "--family", fx("p4xp1.json"),
                        "--order", "3"], "k", 3),
    ("verify-trmc", ["verify", "trmc", "--family", fx("p4xp1.json"),
                     "--order", "3"], "k", 3),
]


def cli_bad_k(what, total):
    """(id, --k, message): the integer rows of bad_multidegrees."""
    rows = [
        ("too-short", "2", f"{what} must have 2 entries, got 1"),
        ("too-long", "2,1,0", f"{what} must have 2 entries, got 3"),
        ("negative", "4,-1",
         f"{what} must have nonnegative entries, got (4, -1)"),
    ]
    if total is not None:
        rows.append(("wrong-total", f"{total},1",
                     f"{what} must sum to {total}, got ({total}, 1)"))
    return rows


@pytest.mark.parametrize("argv, message", [
    pytest.param([*argv, "--k", k], message, id=f"{name}-{row}")
    for name, argv, what, total in CLI_MULTIDEGREE
    for row, k, message in cli_bad_k(what, total)])
def test_cli_multidegree_refusals(capsys, argv, message):
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    pytest.param(["series", "wps", "--family", fx("quintic.json"),
                  "--poly", fx("quintic_poly.json")], id="series-wps"),
    pytest.param(["series", "product", "--family", fx("p4xp1.json"),
                  "--k", "3,0"], id="series-product"),
    pytest.param(["yukawa", "--fixture", "P4xP1", "--indices", "3,0"],
                 id="yukawa"),
    pytest.param(["verify", "trmc", "--family", fx("p4xp1.json"),
                  "--k", "3,0"], id="verify-trmc"),
])
def test_cli_order_refusals(capsys, argv):
    assert main([*argv, "--order", "-1"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: order must be >= 0, got -1\n"
