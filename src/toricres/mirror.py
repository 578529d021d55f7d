"""Generating series of intersection numbers for one family kind.

A family is a product of weighted projective spaces P(w^1) x ... x P(w^p)
(P^d has d + 1 unit weights) with each coordinate dealt to one of r parts;
n_ij sums factor i's weights in part j.  WpsFamily builds the one-factor
case and ProductFamily the all-ones case; Family builds any other, such as
P(1,1,1,3) x P^1, P(1,1,2,2) x P^1 or P(1,1,2) x P(1,1,2) with one part.
The nef partition is block diagonal: factor i's coordinates go to the
columns of a surjection killing w^i, so P^d gives e_1..e_d and -sum e.

The termwise series has one variable z_i per factor (Morrison-Plesser,
"Summing the instantons", 1995; the charge vectors of Hosono-Klemm-
Theisen-Yau, 1995).  At a multidegree k its z^beta coefficient is the
x^(W_i beta_i + d_i - k_i) coefficient of
prod_j (sum_i n_ij x_i)^(sum_i n_ij beta_i + 1), over
prod_rho w_rho^(w_rho beta_i(rho) + 1), with W_i the weight total and d_i
the dimension of factor i.  A one-factor family and a P of degree d take
k = d - r and the scale P(w) / prod d_j, for P(w) (prod d_j^d_j)^b /
prod w_i^(w_i b + 1) at y^b, with closed form nu * P(w) / (1 - mu*y).

verify_family's arguments choose its route: P, with coefficient points or
an rng, goes with a one-factor family, and k with a family that has a
bundled closed form (yukawa_fixture).  Every input is checked, and every
point's residue functional solved, before any series is built.  One loop
over the exponents up to the order, in the series module's shared layout,
compares the termwise series with the expanded closed form; on the P
route, rows also compare the closed form with the residue pairing at the
points.  No route reads another's result.  Series are in the family's own
variables; only the P3xP3 forms use the chart y_i = 27 z_i, which
verify_family substitutes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, mul
from types import MappingProxyType

from .laurent import (
    LaurentPolynomial,
    _check_polynomial,
    _group_degrees,
    _total_degree,
)
from .linalg import (
    _coef,
    _int,
    _multidegree,
    _order,
    quotient_by_vector,
    require,
)
from .polytope import check_nef_partition
from .residue import (
    draw_regular_coefficients,
    residue_functional,
    residue_of_polynomial,
    system_from_coefficients,
)
from .series import (
    RationalFunctionSpec,
    TruncatedSeries,
    _factorials,
    _layout,
    _linear_form_kernel,
    _linear_form_plan,
    expand_rational,
)


def _split_parts(parts, n=None, nonempty=True):
    """parts as sorted int tuples, checked to split the coordinate indices
    0..n-1 into groups, nonempty unless told otherwise; n defaults to the
    number of indices."""
    parts = tuple(tuple(sorted(_int(i, "part index") for i in part))
                  for part in parts)
    seen = sorted(i for part in parts for i in part)
    if seen != list(range(len(seen) if n is None else n)) or (
            nonempty and not all(parts)):
        raise ValueError("parts must split the coordinate indices into "
                         + ("nonempty groups" if nonempty else "groups"))
    return parts


class Family:
    """A product of weighted projective spaces, coordinates dealt to parts.

    factors: a weight vector per factor, two or more positive weights
    with gcd 1.  parts: each part's coordinates, numbered factor by factor,
    holding each coordinate once; a part may be empty.  Every weight of
    factor i divides its total and every n_ij.  Families compare and hash
    by factors and parts.  Derived: matrix (the n_ij), weights, dims,
    degrees (each part's sum_i n_ij), n, dim (alias ambient_dim), p, r.
    """

    __slots__ = ("factors", "parts", "matrix", "weights", "dims", "degrees",
                 "n", "dim", "ambient_dim", "p", "r")

    def __init__(self, factors, parts):
        factors = tuple(tuple(_int(w, "weight") for w in ws)
                        for ws in factors)
        for ws in factors:
            if len(ws) < 2 or any(w < 1 for w in ws):
                raise ValueError("weights must be positive, two or more")
            if math.gcd(*ws) != 1:
                raise ValueError("weights must have gcd 1")
        weights = sum(factors, ())
        parts = _split_parts(parts, len(weights), nonempty=False)
        if not factors or not parts:
            raise ValueError("a family needs a factor and a part")
        owner = [i for i, ws in enumerate(factors) for _ in ws]
        matrix = [[0] * len(parts) for _ in factors]
        for j, part in enumerate(parts):
            for c in part:
                matrix[owner[c]][j] += weights[c]
        for ws, row in zip(factors, matrix):
            for w in ws:
                for what, n in [("the total", sum(ws))] + [
                        ("the group degree", x) for x in row]:
                    if n % w:
                        raise ValueError(
                            f"weight {w} does not divide {what} {n}")
        dim = len(weights) - len(factors)
        for name, value in zip(self.__slots__, (
                factors, parts, tuple(map(tuple, matrix)), weights,
                tuple(len(ws) - 1 for ws in factors),
                tuple(map(sum, zip(*matrix))), len(weights), dim, dim,
                len(factors), len(parts))):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError("Family is immutable")

    def __eq__(self, other):
        return self.__class__ is other.__class__ and (
            self.factors, self.parts) == (other.factors, other.parts)

    def __hash__(self):
        return hash((self.factors, self.parts))

    def __repr__(self):
        return (f"Family(factors={[list(ws) for ws in self.factors]}, "
                f"parts={[list(part) for part in self.parts]})")


def WpsFamily(weights, parts):
    """The one-factor family P(w) with its coordinates grouped into the
    nonempty parts, of degrees d_j."""
    weights = tuple(weights)
    return Family((weights,), _split_parts(parts, len(weights)))


def ProductFamily(dims, matrix):
    """P^(d_1) x ... x P^(d_p), with the d_i + 1 coordinates of factor i
    dealt to the parts in order, matrix[i][j] of them to part j."""
    dims = tuple(_int(d, "factor dimension") for d in dims)
    matrix = tuple(tuple(_int(x, "degree") for x in row) for row in matrix)
    if not dims or len(matrix) != len(dims) or any(
            d < 1 or len(row) != len(matrix[0]) or any(x < 0 for x in row)
            or sum(row) != d + 1 for d, row in zip(dims, matrix)):
        raise ValueError("a product family needs dimensions >= 1 and one "
                         "row of nonnegative degrees per factor, all of one "
                         "length, row i summing to d_i + 1")
    coords = iter(range(sum(dims) + len(dims)))
    parts = [[] for _ in matrix[0]]
    for row in matrix:
        for part, count in zip(parts, row):
            part.extend(next(coords) for _ in range(count))
    return Family(tuple((1,) * (d + 1) for d in dims), parts)


P3XP3 = ProductFamily((3, 3), ((3, 0, 1), (0, 3, 1)))
P4XP1 = ProductFamily((4, 1), ((4, 1), (0, 2)))


def _closed_form_table():
    """The closed forms that yukawa_fixture and verify_family read: fixture
    name -> (family, chart, {indices: (numerator, denominator factors)}),
    in y_i = chart_i * z_i: P3xP3's as Hosono-Klemm-Theisen-Yau (1995) typed
    them, the others in z.  wps_diag has no family; yukawa_fixture builds a
    new spec from it on every call."""
    big = {(0, 0): 1, (1, 0): -1, (0, 1): -1}
    l1 = {(0, 0): 1, (1, 0): -1}
    l2 = {(0, 0): 1, (0, 1): -1}
    d0 = {(0, 0): 1, (1, 0): -512, (2, 0): 65536, (0, 1): -4}
    d1 = {(0, 0): 1, (0, 1): -4}
    return MappingProxyType({
        "P3xP3": (P3XP3, (27, 27), {
            (3, 0): ({(1, 0): 9}, [(big, 1), (l1, 2)]),
            (2, 1): ({(0, 0): 9}, [(big, 1), (l1, 1)]),
            (1, 2): ({(0, 0): 9}, [(big, 1), (l2, 1)]),
            (0, 3): ({(0, 1): 9}, [(big, 1), (l2, 2)]),
        }),
        "P4xP1": (P4XP1, (1, 1), {
            (3, 0): ({(0, 0): 8}, [(d0, 1)]),
            (2, 1): ({(0, 0): 4, (1, 0): -1024, (0, 1): 16},
                     [(d0, 1), (d1, 1)]),
            (1, 2): ({(0, 1): 24, (1, 1): -4096, (0, 2): 32},
                     [(d0, 1), (d1, 2)]),
            (0, 3): ({(0, 1): 4, (1, 1): -1024, (0, 2): 96,
                      (1, 2): -12288, (0, 3): 64},
                     [(d0, 1), (d1, 3)]),
        }),
        # 18*(3 - 2y) / ((1 - 2y)(1 - y)^2)
        "wps_diag": (None, (1,), {
            (3, 3): ({(0,): 54, (1,): -36},
                     [({(0,): 1, (1,): -2}, 1), ({(0,): 1, (1,): -1}, 2)]),
        }),
    })


_CLOSED_FORMS = _closed_form_table()


def wps_vertex_vectors(fam):
    """One primitive lattice vector per coordinate: factor i's coordinates
    map to the columns of a surjection that kills exactly w^i, placed in
    the block of coordinates of Z^dim that belongs to factor i."""
    vecs, before = [], 0
    for ws, d in zip(fam.factors, fam.dims):
        left, right = (0,) * before, (0,) * (fam.dim - before - d)
        vecs += [left + col + right for col in zip(*quotient_by_vector(ws))]
        before += d
    return tuple(vecs)


def wps_nef_partition(fam):
    """The family's nef partition, the one constructor for every family,
    plus a coordinate position map.

    Returns (nef, positions) where positions[i] locates the i-th
    coordinate's vector inside nef.points.
    """
    vecs = wps_vertex_vectors(fam)
    if len(set(vecs)) != len(vecs):
        raise ValueError("coordinate vectors are not distinct")
    nef = check_nef_partition([[vecs[i] for i in part] for part in fam.parts])
    positions = [None] * fam.n
    offset = 0
    for j, part in enumerate(fam.parts):
        sorted_part = nef.parts[j]
        for i in part:
            positions[i] = offset + sorted_part.index(vecs[i])
        offset += len(sorted_part)
    require(sorted(positions) == list(range(fam.n)),
            "wps_nef_partition: positions are not a permutation")
    return nef, tuple(positions)


def _wps_constants(fam, P):
    """(P(w), prod w_i, prod w_i^w_i, prod d_j^d_j) for a one-factor
    family and a P of degree dim."""
    if fam.p != 1:
        raise ValueError(f"P goes with a one-factor family, not {fam.p} "
                         "factors")
    _check_polynomial(P, fam.n)
    _total_degree(P, fam.dim)
    return (P.evaluate(fam.weights), math.prod(fam.weights),
            math.prod(w ** w for w in fam.weights),
            math.prod(dj ** dj for dj in fam.degrees))


def _termwise(fam, k, order, scale=1):
    """The termwise series at the checked k and order, times scale.  A
    form with one nonzero entry v, on factor i, enters the kernel as x_i;
    its v^(v*beta_i + 1) joins the weights' normalization as a constant
    times a ratio per factor to the power beta_i, tabled where it is not
    1.  When all are integers, each coefficient is a Fraction with no gcd.
    """
    columns = list(zip(*fam.matrix))
    forced, general = _linear_form_plan(columns)
    plan = ([(j, i, 1) for j, i, _ in forced], general)
    num = scale.numerator * math.prod(v for _, _, v in forced)
    den = scale.denominator * math.prod(fam.weights)
    g = math.gcd(num, den)
    num, den = num // g, den // g
    ratios = []
    for i, ws in enumerate(fam.factors):
        a = math.prod(v ** v for _, row, v in forced if row == i)
        b = math.prod(w ** w for w in ws)
        g = math.gcd(a, b)
        if a != b:
            tables = [list(accumulate(repeat(x // g, order), mul, initial=1))
                      for x in (a, b)]
            ratios.append((i, *tables))
    integral = den == 1 and all(dens[-1] == 1 for _, _, dens in ratios)
    # the table is needed only to expand a general form
    fact = _factorials(max(map(max, columns)) * order + 1) if general else ()
    widths = [sum(ws) for ws in fam.factors]
    base = [d - kk for d, kk in zip(fam.dims, k)]
    coeffs = {}
    for beta in _layout(fam.p, order):
        target = tuple(map(add, map(mul, widths, beta), base))
        if min(target) < 0:
            continue
        powers = [sum(map(mul, col, beta)) + 1 for col in columns]
        raw = _linear_form_kernel(plan, powers, target, fact) * num
        if raw:
            d = den
            for i, nums, dens in ratios:
                raw *= nums[beta[i]]
                d *= dens[beta[i]]
            coeffs[beta] = Fraction(raw) if integral else Fraction(raw, d)
    return TruncatedSeries._exact(fam.p, order, coeffs)


def wps_intersection_series(fam, P, order):
    """Termwise series of a one-factor family and a P of degree dim: the
    coefficient at y^b is P(w) * (prod d_j^d_j)^b / prod w_i^(w_i*b + 1),
    computed independently of the closed form."""
    scale = _wps_constants(fam, P)[0] / math.prod(fam.degrees)
    return _termwise(fam, (fam.dim - fam.r,), _order(order), scale)


def wps_closed_form(fam, P):
    """Rational form nu * P(w) / (1 - mu*y) of the same series."""
    pw, wprod, wpow, step = _wps_constants(fam, P)
    return RationalFunctionSpec(
        1, {(0,): pw / wprod}, [({(0,): 1, (1,): -Fraction(step, wpow)}, 1)])


def product_intersection_series(fam, k, order):
    """Termwise series at the multidegree k, one z-variable per factor."""
    k = _multidegree(k, fam.p, "k", fam.dim - fam.r)
    return _termwise(fam, k, _order(order))


def q_to_p(Q, parts, degree=None):
    """Multiply a per-group homogeneous Q by every group's coordinate sum.

    Each group degree rises by one, so the total climbs by the number of
    groups.  When the target total degree of the result is known, pass it
    as degree and Q is checked against degree - r up front.
    """
    parts = _split_parts(parts)
    n = sum(map(len, parts))
    _check_polynomial(Q, n, "Q")
    _group_degrees(Q, parts, "Q")
    if degree is not None:
        _total_degree(Q, _int(degree, "degree") - len(parts), "Q")
    P = Q
    for part in parts:
        unit = lambda i: tuple(1 if j == i else 0 for j in range(n))
        P = P * LaurentPolynomial(n, {unit(i): Fraction(1) for i in part})
    return P


def yukawa_fixture(name, indices):
    """Bundled closed form for a named fixture and indices, in its chart."""
    indices = tuple(_int(x, "index") for x in indices)
    if name not in _CLOSED_FORMS:
        raise ValueError(f"unknown fixture {name!r}")
    forms = _CLOSED_FORMS[name][2]
    if indices not in forms:
        raise ValueError(f"unknown indices {indices} for {name}")
    num, den = forms[indices]
    return RationalFunctionSpec(len(next(iter(num))), num, den)


def _in_z(spec, chart):
    """spec, written in y_i = chart_i * z_i, as a function of z."""
    def sub(poly):
        return {e: c * math.prod(map(pow, chart, e)) for e, c in poly.items()}
    return RationalFunctionSpec(spec.nvars, sub(spec.numerator), [
        (sub(f), m) for f, m in spec.denominator_factors])


def _draw_solved(nef, positions, rng, count):
    """count seeded regular points of a weighted family's partition, each
    with its residue functional, as (point, functional) pairs."""
    solved = []
    for _ in range(count):
        coeffs, _, rf = draw_regular_coefficients(nef, rng)
        solved.append((tuple(coeffs[i] for i in positions), rf))
    return solved


def draw_wps_points(fam, rng, count=2):
    """Seeded regular coefficient points for a weighted family.

    Draws small positive fractions per coordinate, keeping only tuples
    whose linear system is regular, until count points are collected.
    """
    nef, positions = wps_nef_partition(fam)
    count = _int(count, "count")
    return [pt for pt, _ in _draw_solved(nef, positions, rng, count)]


def _in_nef_order(positions, seq):
    """seq, one entry per family coordinate, moved to nef.points order."""
    out = [0] * len(positions)
    for p, x in zip(positions, seq):
        out[p] = x
    return out


def _solve_point(nef, positions, point):
    """(point, its residue functional), refusing a non-regular system."""
    coeffs = _in_nef_order(positions, point)
    rf = residue_functional(system_from_coefficients(nef, coeffs), nef)
    if not rf.regular:
        raise ValueError(
            f"coefficient point {point} gives a non-regular system; "
            "supply different points")
    return point, rf


def _wps_residue_value(nef, positions, P, point, rf):
    """The residue pairing of P at a point whose functional rf is solved."""
    P_in = LaurentPolynomial(len(nef.points), {
        tuple(_in_nef_order(positions, e)): c for e, c in P.terms.items()})
    return residue_of_polynomial(rf, nef, P_in,
                                 _in_nef_order(positions, point))


def verify_family(fam, order, P=None, k=None, points=None, rng=None):
    """Compare the series pipelines for one family (see the module docstring).

    A one-factor family takes P, unless only k is given, and two or more
    coefficient points or an rng that draws two regular points; a given
    point with a non-regular system is refused.  Any other call takes only
    k, and a bundled closed form, compared in z after its chart is
    substituted.  Returns a report whose "ok" is True only when every
    comparison is an exact match.
    """
    order = _order(order)
    if fam.p == 1 and (P is not None or k is None):
        if P is None:
            raise ValueError("a weighted family needs the polynomial P")
        if k is not None:
            raise ValueError("k belongs to product families; "
                             "a weighted family takes P")
        if (points is None) == (rng is None):
            raise ValueError("a weighted family takes coefficient points or "
                             "an rng: one of them, not both")
        if rng is None:
            points = [tuple(_coef(a, "point coordinate") for a in pt)
                      for pt in points]
            if len(points) < 2:
                raise ValueError(
                    "at least two coefficient points are required")
            for pt in points:
                if len(pt) != fam.n or any(a == 0 for a in pt):
                    raise ValueError(f"bad coefficient point {pt}")
        mode = "wps"
        spec = wps_closed_form(fam, P)
        # the residue pairing reads P's part degrees again; refuse a P that
        # has none before any series is built
        _group_degrees(P, fam.parts)
        nef, positions = wps_nef_partition(fam)
        solved = (_draw_solved(nef, positions, rng, 2) if rng is not None
                  else [_solve_point(nef, positions, pt) for pt in points])
        termwise = wps_intersection_series(fam, P, order)
        point_rows = []
        for pt, rf in solved:
            y = math.prod((a ** w for a, w in zip(pt, fam.weights)),
                          start=Fraction(1))
            closed = spec.evaluate([y])
            res = _wps_residue_value(nef, positions, P, pt, rf)
            point_rows.append({"a": pt, "y": y, "closed_form": closed,
                               "residue": res, "equal": closed == res})
    else:
        if k is None:
            raise ValueError("a product family needs the index tuple k")
        extra = [name for name, arg in (("P", P), ("points", points),
                                        ("rng", rng)) if arg is not None]
        if extra:
            raise ValueError(f"{', '.join(extra)}: weighted-family "
                             "arguments; a product family takes only k")
        key = next((name for name, (f, _, _) in _CLOSED_FORMS.items()
                    if f == fam), None)
        if key is None:
            raise ValueError("no bundled closed form matches this family")
        mode = "product"
        # product_intersection_series checks k before it takes any
        # coefficient; every k that passes has a bundled closed form
        termwise = product_intersection_series(fam, k, order)
        spec = _in_z(yukawa_fixture(key, k), _CLOSED_FORMS[key][1])
        point_rows = []
    expanded = expand_rational(spec, order)
    rows = []
    zero = Fraction(0)
    for e in _layout(spec.nvars, order):
        lhs = termwise.coeffs.get(e, zero)
        rhs = expanded.coeffs.get(e, zero)
        rows.append({"exponent": e, "termwise": lhs,
                     "closed_form": rhs, "equal": lhs == rhs})
    mismatches = [r for r in rows if not r["equal"]]
    return {"mode": mode, "order": order, "rows": rows, "points": point_rows,
            "ok": not mismatches and all(r["equal"] for r in point_rows),
            "mismatches": mismatches}
