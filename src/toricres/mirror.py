"""Generating series of intersection numbers for two bundled family shapes.

Covered families: hypersurface/complete-intersection data on a weighted
projective space (one series variable), and on a product of projective
spaces (one variable per factor).  Both kinds produce exact rational
coefficients; the weighted case also has a closed form, and the two
bundled product fixtures have closed-form couplings (yukawa_fixture).

verify_family runs one pipeline for both kinds.  It checks every input
first, solving the residue functional of every coefficient point.  Only
then does the family kind supply its closed-form spec, its termwise
series and, for weighted families only, rows comparing the closed form
with the residue pairing at those points.  One loop over the exponents
up to the order, in the series module's shared layout, compares the
termwise series with the expanded closed form, whatever the number of
series variables.  The termwise coefficients never go through the closed
form's expansion, and the residue pairing never reads either series.

Curve classes are enumerated over the nonnegative orthant (a single ray in
the weighted case), and coefficients whose extraction window is empty are
zero.  Series are expanded around the origin of the family's own
coordinates (y, or z_1..z_p, one per factor); only the P3xP3 forms in
_CLOSED_FORMS use the chart y_i = 27 z_i, which verify_family substitutes.
"""

from __future__ import annotations

import math
from fractions import Fraction
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


class WpsFamily:
    """Weight vector plus a grouping of the coordinates.

    weights w_1..w_n define the ambient weighted projective space of
    dimension d = n - 1; parts is a partition of the coordinate indices
    0..n-1 into r groups, giving group degrees d_j = sum of the grouped
    weights.  Validity: gcd(w) = 1, every w_i divides the weight total,
    and every w_i divides every d_j.
    """

    __slots__ = ("weights", "parts", "degrees")

    def __init__(self, weights, parts):
        weights = tuple(_int(w, "weight") for w in weights)
        if len(weights) < 2 or any(w < 1 for w in weights):
            raise ValueError("weights must be positive, two or more")
        if math.gcd(*weights) != 1:
            raise ValueError("weights must have gcd 1")
        parts = _split_parts(parts, len(weights))
        degrees = tuple(sum(weights[i] for i in part) for part in parts)
        total = sum(weights)
        for w in weights:
            if total % w:
                raise ValueError(f"weight {w} does not divide the total {total}")
            for dj in degrees:
                if dj % w:
                    raise ValueError(
                        f"weight {w} does not divide the group degree {dj}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "degrees", degrees)

    def __setattr__(self, *_):
        raise AttributeError("WpsFamily is immutable")

    @property
    def n(self):
        return len(self.weights)

    @property
    def dim(self):
        return len(self.weights) - 1

    @property
    def r(self):
        return len(self.parts)

    def __repr__(self):
        return (f"WpsFamily(weights={list(self.weights)}, "
                f"parts={[list(p) for p in self.parts]})")


class ProductFamily:
    """Product of projective spaces with a degree matrix.

    dims are the factor dimensions d_1..d_p; matrix[i][j] is the degree
    n_ij of the j-th equation on the i-th factor, with row sums d_i + 1.
    """

    __slots__ = ("dims", "matrix")

    def __init__(self, dims, matrix):
        dims = tuple(_int(d, "factor dimension") for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("factor dimensions must be positive")
        matrix = tuple(tuple(_int(x, "degree") for x in row) for row in matrix)
        if len(matrix) != len(dims):
            raise ValueError("degree matrix needs one row per factor")
        r = len(matrix[0])
        if any(len(row) != r for row in matrix) or r < 1:
            raise ValueError("degree matrix rows must share a positive length")
        if any(x < 0 for row in matrix for x in row):
            raise ValueError("degrees must be nonnegative")
        for d, row in zip(dims, matrix):
            if sum(row) != d + 1:
                raise ValueError(
                    f"row {list(row)} must sum to {d + 1} for a factor of "
                    f"dimension {d}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, *_):
        raise AttributeError("ProductFamily is immutable")

    def __eq__(self, other):
        return isinstance(other, ProductFamily) and all(
            getattr(self, s) == getattr(other, s) for s in self.__slots__)

    def __hash__(self):
        return hash((self.dims, self.matrix))

    @property
    def p(self):
        return len(self.dims)

    @property
    def r(self):
        return len(self.matrix[0])

    @property
    def ambient_dim(self):
        return sum(self.dims)

    def __repr__(self):
        return (f"ProductFamily(dims={list(self.dims)}, "
                f"matrix={[list(r) for r in self.matrix]})")


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


def _split_parts(parts, n=None):
    """parts as sorted int tuples, checked to split the coordinate indices
    0..n-1 into nonempty groups; n defaults to the number of indices."""
    parts = tuple(tuple(sorted(_int(i, "part index") for i in part))
                  for part in parts)
    seen = sorted(i for part in parts for i in part)
    if seen != list(range(len(seen) if n is None else n)) or not all(parts):
        raise ValueError(
            "parts must split the coordinate indices into nonempty groups")
    return parts


def wps_vertex_vectors(fam):
    """One primitive lattice vector per coordinate, summing to 0 weightedly.

    Columns of a surjection that kills exactly the weight direction; the
    i-th vector is the image of the i-th coordinate ray.
    """
    rows = quotient_by_vector(fam.weights)
    return tuple(tuple(row[i] for row in rows) for i in range(fam.n))


def wps_nef_partition(fam):
    """The family's Minkowski decomposition plus a coordinate position map.

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
    """(P(w), prod w_i, prod w_i^w_i, prod d_j^d_j) for a P of degree dim."""
    _check_polynomial(P, fam.n)
    _total_degree(P, fam.dim)
    return (P.evaluate(fam.weights), math.prod(fam.weights),
            math.prod(w ** w for w in fam.weights),
            math.prod(dj ** dj for dj in fam.degrees))


def wps_intersection_series(fam, P, order):
    """Termwise generating series: each coefficient from its own product.

    Coefficient at y^b is P(w) * (prod d_j^d_j)^b / prod w_i^(w_i*b + 1),
    computed independently of the closed form.
    """
    pw, wprod, wpow, step = _wps_constants(fam, P)
    order = _order(order)
    # prod w_i^(w_i*b + 1) = wprod * wpow^b; both powers run with b
    coeffs = {}
    if pw:
        num, den = pw.numerator, pw.denominator * wprod
        for b in range(order + 1):
            coeffs[(b,)] = Fraction(num, den)
            num *= step
            den *= wpow
    return TruncatedSeries._exact(1, order, coeffs)


def wps_closed_form(fam, P):
    """Rational form nu * P(w) / (1 - mu*y) of the same series."""
    pw, wprod, wpow, step = _wps_constants(fam, P)
    return RationalFunctionSpec(
        1, {(0,): pw / wprod}, [({(0,): 1, (1,): -Fraction(step, wpow)}, 1)])


def product_intersection_series(fam, k, order):
    """Series over the factor curve degrees, one z-variable per factor.

    The coefficient at z^beta is the x^(n_i b_i + d_i - k_i) coefficient of
    prod_j (sum_i n_ij x_i)^(sum_i n_ij b_i + 1); out-of-range extraction
    windows give 0.
    """
    k = _multidegree(k, fam.p, "k", fam.ambient_dim - fam.r)
    order = _order(order)
    # target_i = n_i b_i + (d_i - k_i) with n_i = d_i + 1
    ns = tuple(d + 1 for d in fam.dims)
    base = tuple(d - kk for d, kk in zip(fam.dims, k))
    columns = [tuple(fam.matrix[i][j] for i in range(fam.p))
               for j in range(fam.r)]
    # one plan for every beta; a column with a single nonzero entry takes
    # its power straight off the target
    plan = _linear_form_plan(columns)
    # the row sums d_i + 1 give every target the total degree sum_j e_j
    # that the kernel needs; a negative target entry gives 0
    fact = _factorials(max(map(max, columns)) * order + 1)
    coeffs = {}
    for beta in _layout(fam.p, order):
        target = tuple(map(add, map(mul, ns, beta), base))
        if min(target) < 0:
            continue
        powers = [sum(map(mul, col, beta)) + 1 for col in columns]
        raw = _linear_form_kernel(plan, powers, target, fact)
        if raw:
            coeffs[beta] = Fraction(raw)
    return TruncatedSeries._exact(fam.p, order, coeffs)


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

    A weighted family takes P and either two or more coefficient points or
    an rng, from which two regular points are drawn as draw_wps_points
    does; each point's functional is solved, and a given point with a
    non-regular system refused, before any series is built.  A product
    family takes only k, and needs a bundled closed form, which is
    compared in z after its chart is substituted.  Each kind refuses the
    other kind's arguments.  Returns a report dict whose "ok" is True only
    when every comparison is an exact match.
    """
    order = _order(order)
    if isinstance(fam, WpsFamily):
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
    elif isinstance(fam, ProductFamily):
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
            raise ValueError(
                "no bundled closed form matches this product family")
        mode = "product"
        # product_intersection_series checks k before it takes any
        # coefficient; every k that passes has a bundled closed form
        termwise = product_intersection_series(fam, k, order)
        spec = _in_z(yukawa_fixture(key, k), _CLOSED_FORMS[key][1])
        point_rows = []
    else:
        raise TypeError("expected a WpsFamily or ProductFamily")
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
