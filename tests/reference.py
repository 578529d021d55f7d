"""Exhaustive references for the library's hulls, lattice points and series.

The box scans list every point of a bounding box and keep those passing a
membership test, one point at a time.  The facet search tries every
affine_dim-subset of the generators as a facet, and the halfspace loop
solves every dim-subset of the constraints.  The linear-form coefficient
multiplies in one linear factor at a time, and the rational expansion
divides by one denominator factor at a time in Fractions.  All are slow,
but they share no bound propagation, double description, multinomial
expansion or integer recurrence with the routines they check, so a
differential test against them compares two independent routes.

rank, solve_linear and nullspace run one sparse Fraction eliminator,
_echelon, which the library does not use.  affine_equations finds a point
set's affine-hull equations with nullspace and back-substitution, where the
library reads them off the lineality basis its double description leaves.

reference_span_rows lists the residue functional's span rows in their
natural order from exponent tuples, and reference_redundant_rows marks the
rows a Koszul relation makes redundant by trying every candidate monomial,
with none of the library's packed exponents or set intersections.

reference_mixed_volume takes inclusion-exclusion over subset Minkowski sums,
each hulled and measured with LatticePolytope, whose hulls and volumes are
checked on their own against the shoelace and Ehrhart oracles; the library
reads mixed volumes off one triangulation of the Cayley polytope instead.

inv_factorial gives the product families' factorial forms, and in_y_chart
takes a product series to the chart y = 27z of the bundled P3xP3 forms.
reference_wps_series is the closed power loop of a one-factor family's
termwise series, with none of the linear-form kernel.
"""

import math
from fractions import Fraction
from itertools import combinations, product
from operator import add, sub

from toricres.laurent import compositions
from toricres.linalg import _sparse_row, det_int, dot, primitive
from toricres.polytope import LatticePolytope
from toricres.series import TruncatedSeries


def inv_factorial(n):
    """1/n! with the convention that negative integers give 0."""
    return Fraction(1, math.factorial(n)) if n >= 0 else Fraction(0)


def in_y_chart(s, scale):
    """A series in z rewritten in y = scale * z: the coefficient at beta
    divided by scale^|beta|."""
    return TruncatedSeries(s.nvars, s.order, {
        e: c / scale ** sum(e) for e, c in s.coeffs.items()})


def reference_wps_series(fam, P, order):
    """The termwise series of a one-factor family by its closed power loop:
    the coefficient at y^b is P(w) * (prod d_j^d_j)^b / prod w_i^(w_i b + 1),
    each power carried from b - 1."""
    pw = P.evaluate(fam.weights)
    num, den = pw, math.prod(fam.weights)
    step = math.prod(d ** d for d in fam.degrees)
    wpow = math.prod(w ** w for w in fam.weights)
    coeffs = {}
    for b in range(order + 1):
        coeffs[(b,)] = num / den
        num *= step
        den *= wpow
    return TruncatedSeries(1, order, coeffs)


def _echelon(rows):
    """Echelon basis {pivot: row} of sparse rows, over Fractions.

    A stored row's pivot is its lowest column, where the row is 1.
    """
    pivots = {}
    for row in rows:
        row = {c: Fraction(x) for c, x in row.items()}
        while row:
            c = min(row)
            x = row[c]
            if c not in pivots:
                pivots[c] = {j: y / x for j, y in row.items()}
                break
            for j, y in pivots[c].items():
                v = row.get(j, 0) - x * y
                if v:
                    row[j] = v
                else:
                    del row[j]
    return pivots


def _kernel_vector(pivots, free, n):
    """Kernel vector, 1 at free and 0 at the other non-pivot columns."""
    v = [Fraction(0)] * n
    v[free] = Fraction(1)
    for p in sorted((p for p in pivots if p < free), reverse=True):
        v[p] = -sum(x * v[j] for j, x in pivots[p].items())
    return tuple(v)


def nullspace(matrix, ncols):
    """Basis of {x : M x = 0} as tuples of Fractions (deterministic order)."""
    pivots = _echelon(_sparse_row(r, ncols) for r in matrix)
    return [_kernel_vector(pivots, fc, ncols)
            for fc in range(ncols) if fc not in pivots]


def affine_equations(pts, d):
    """Primitive integer equations <x, u> = v cutting out the affine hull,
    one per nullspace vector of the differences p - pts[0], sorted."""
    base = pts[0]
    diffs = [tuple(a - b for a, b in zip(p, base)) for p in pts[1:]]
    eqs = []
    for nv in nullspace(diffs, d):
        mult = math.lcm(*(f.denominator for f in nv))
        eqs.append(primitive([int(f * mult) for f in nv]))
    eqs.sort()
    return tuple((u, dot(u, base)) for u in eqs)


def rank(matrix, ncols=None):
    """Rank of a matrix of ints or Fractions, by the Fraction eliminator.

    Rows are dense, or {column: value} dicts over ncols columns."""
    rows = list(matrix)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return len(_echelon(_sparse_row(r, ncols) for r in rows))


def solve_linear(matrix, rhs):
    """Unique exact solution of M x = rhs, or None if none/ambiguous."""
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    if len(rows) != len(rhs):
        raise ValueError("solve_linear: shape mismatch")
    ncols = len(matrix[0]) if matrix else 0
    pivots = _echelon(_sparse_row(r, ncols + 1) for r in rows)
    if ncols in pivots:
        return None  # inconsistent
    if len(pivots) != ncols:
        return None  # underdetermined
    # the kernel of (M | rhs) is spanned by (-x, 1)
    return tuple(-y for y in _kernel_vector(pivots, ncols, ncols + 1)[:-1])


def _log_derivative_supports(F):
    """{i: sorted support of x_i dF/dx_i} over the nonzero ones."""
    supps = {i: sorted(e for e in F.terms if e[i]) for i in range(F.dim)}
    return {i: s for i, s in supps.items() if s}


def reference_span_rows(F, lower, top):
    """The residue functional's span rows in their natural order, as
    ((i, m), row) pairs: x_i dF/dx_i times x^m for each nonzero
    log-derivative in turn, over the lower monomials m in order.  Each row
    is {top position: value}, scaled by the lcm of the log-derivative's
    denominators."""
    index = {m: pos for pos, m in enumerate(top.monomials)}
    out = []
    for i in _log_derivative_supports(F):
        g = {e: e[i] * c for e, c in F.terms.items() if e[i]}
        scale = math.lcm(*(c.denominator for c in g.values()))
        for m in lower:
            out.append(((i, m), {index[tuple(map(add, e, m))]: int(c * scale)
                                 for e, c in g.items()}))
    return out


def reference_redundant_rows(F, lower):
    """The (i, m) of the span rows a Koszul relation makes redundant.

    For nonzero log-derivatives g_j, g_i with j < i, every lower monomial m
    is tried as the row of g_i at m' + max(supp g_j), that is with
    m' = m - max(supp g_j): it is marked when m' + supp g_j and
    m' + supp g_i both lie in lower."""
    inside = set(lower)
    supps = _log_derivative_supports(F)
    marked = set()
    for j, i in combinations(sorted(supps), 2):
        lead = max(supps[j])
        for m in lower:
            low = tuple(map(sub, m, lead))
            if all(tuple(map(add, low, t)) in inside
                   for t in supps[j] + supps[i]):
                marked.add((i, m))
    return marked


def box_scan(lo, hi, keep):
    """Points x of the box [lo, hi] with keep(x), in lexicographic order."""
    ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
    return [x for x in product(*ranges) if keep(x)]


def bounding_box(points):
    cols = list(zip(*points))
    return [min(c) for c in cols], [max(c) for c in cols]


def reference_lattice_points(poly, strict=False):
    """Lattice points of poly, or its interior points when strict."""
    keep = poly.strictly_contains if strict else poly.contains
    return box_scan(*bounding_box(poly.vertices), keep)


def reference_piece_points(nef, k, extra=()):
    """Lattice points of k_1*D_1 + ... + k_r*D_r: the sum of the scaled
    parts' boxes, filtered by <x, e> >= -k_i over the dual vertices e
    assigned to part i and by <x, e> >= c over the extra cuts (e, c)."""
    boxes = [bounding_box(poly.vertices) for poly in nef.polytopes]
    lo = [sum(m * a[j] for m, (a, _) in zip(k, boxes))
          for j in range(nef.dim)]
    hi = [sum(m * b[j] for m, (_, b) in zip(k, boxes))
          for j in range(nef.dim)]
    cuts = [(e, -m) for block, m in zip(nef.vertex_partition, k)
            for e in block] + list(extra)
    return box_scan(lo, hi, lambda x: all(dot(e, x) >= c for e, c in cuts))


def reference_mixed_volume(polys):
    """Mixed volume of d polytopes in dimension d by inclusion-exclusion:
    the sum over nonempty subsets S of (-1)^(d - |S|) times the normalized
    volume of the Minkowski sum over S, divided by d!.  Each sum is hulled
    with LatticePolytope, one summand at a time; a lower-dimensional sum
    contributes 0."""
    d = len(polys)
    total = 0
    for size in range(1, d + 1):
        for subset in combinations(polys, size):
            acc = subset[0]
            for q in subset[1:]:
                acc = LatticePolytope([tuple(map(add, p, v))
                                       for p in acc.vertices
                                       for v in q.vertices])
            if acc.is_full_dim:
                total += (-1) ** (d - size) * acc.normalized_volume()
    return Fraction(total, math.factorial(d))


def cofactor_nullvector(rows, n):
    """Kernel vector of n-1 integer rows in Z^n by signed maximal minors,
    or None when the rows are dependent (all minors vanish)."""
    out = [(-1) ** j * det_int([[x for i, x in enumerate(row) if i != j]
                                for row in rows]) for j in range(n)]
    return None if not any(out) else tuple(out)


def facet_search(pts, equations, d):
    """Facets (n, c) of conv(pts), sorted: every affine_dim-subset of pts
    spans a candidate hyperplane inside the affine hull, kept when all of
    pts lie on one side of it and not all on it."""
    da = d - len(equations)
    if da == 0:
        return ()
    eqrows = [list(u) for u, _ in equations]
    found = set()
    for subset in combinations(range(len(pts)), da):
        q0 = pts[subset[0]]
        rows = eqrows + [[a - b for a, b in zip(pts[i], q0)]
                         for i in subset[1:]]
        nvec = cofactor_nullvector(rows, d)
        if nvec is None:
            continue  # affinely dependent subset
        nvec = primitive(nvec)
        v0 = dot(nvec, q0)
        vals = [dot(nvec, p) for p in pts]
        if min(vals) == max(vals):
            continue
        if v0 == min(vals):
            found.add((nvec, -v0))
        elif v0 == max(vals):
            found.add((tuple(-x for x in nvec), v0))
    return tuple(sorted(found))


def reference_halfspace_vertices(ineqs, dim):
    """Vertices of {y : <a, y> >= b}, sorted tuples of Fractions: every
    dim-subset of the constraints with a unique solution that meets all of
    them.  The region is bounded when 0 lies strictly inside the hull of
    the normals, by the facet search."""
    rows = []
    for a, b in ineqs:
        a = tuple(int(x) for x in a)
        if all(x == 0 for x in a):
            if b > 0:
                return []
            continue
        rows.append((a, Fraction(b)))
    if not rows:
        raise ValueError("halfspace intersection: no effective constraints")
    normals = sorted({a for a, _ in rows})
    eqs = affine_equations(normals, dim)
    if eqs or not all(c > 0 for _, c in facet_search(normals, eqs, dim)):
        raise ValueError("halfspace intersection: unbounded region")
    verts = set()
    for subset in combinations(rows, dim):
        y = solve_linear([list(a) for a, _ in subset],
                         [b for _, b in subset])
        if y is not None and all(dot(a, y) >= b for a, b in rows):
            verts.add(y)
    return sorted(verts)


def reference_linear_form_coefficient(forms, target):
    """Coefficient of z^target in prod_j (sum_i v_{ji} z_i)^(e_j), one
    linear factor at a time; partial products are pruned to exponents that
    stay componentwise <= target, which is safe because exponents only
    ever grow."""
    target = tuple(int(x) for x in target)
    nvars = len(target)
    forms = [([Fraction(x) for x in vec], int(e)) for vec, e in forms]
    if any(len(vec) != nvars or e < 0 for vec, e in forms):
        raise ValueError("malformed linear form")
    if any(x < 0 for x in target):
        return Fraction(0)
    current = {(0,) * nvars: Fraction(1)}
    for vec, e in forms:
        for _ in range(e):
            nxt = {}
            for mono, coef in current.items():
                for i, vi in enumerate(vec):
                    if vi == 0 or mono[i] + 1 > target[i]:
                        continue
                    m = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
                    nxt[m] = nxt.get(m, Fraction(0)) + coef * vi
            current = nxt
    return current.get(target, Fraction(0))


def reference_expand_rational(spec, order):
    """numerator / prod(factor^mult) to the given total order, dividing by
    one factor at a time: each division is the graded recurrence
    q_e = (s_e - sum_{f != 0} F_f q_(e-f)) / F_0 over Fractions."""
    nvars = spec.nvars
    out = TruncatedSeries(nvars, order, spec.numerator)
    for fac, mult in spec.denominator_factors:
        c0 = fac[(0,) * nvars]
        rest = {e: c for e, c in fac.items() if any(e)}
        for _ in range(mult):
            q = {}
            for total in range(order + 1):
                for e in compositions(total, nvars):
                    acc = out.coeffs.get(e, Fraction(0))
                    for f, cf in rest.items():
                        g = tuple(a - b for a, b in zip(e, f))
                        if any(x < 0 for x in g):
                            continue
                        acc -= cf * q.get(g, Fraction(0))
                    if acc != 0:
                        q[e] = acc / c0
            out = TruncatedSeries(nvars, order, q)
    return out
