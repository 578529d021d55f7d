import functools
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    affine_equations,
    facet_search,
    rank,
    reference_halfspace_vertices,
    reference_lattice_points,
    reference_mixed_volume,
    reference_piece_points,
    solve_linear,
)
from toricres.laurent import compositions
from toricres.linalg import dot, integer_kernel_basis
from toricres import polytope
from toricres.mirror import WpsFamily, wps_nef_partition
from toricres.polytope import (
    LatticePolytope,
    NefPartitionError,
    cayley_polytope,
    check_nef_partition,
    convex_hull,
    dual_nef_partition,
    dual_polytope,
    halfspace_intersection_vertices,
    interior_lattice_points,
    is_reflexive,
    lattice_points,
    minkowski_sum,
    minkowski_sum_all,
    mixed_volume,
    nef_piece_points,
)


# ---------------------------------------------------------------- 2D oracles

def oracle_hull_facets_2d(points):
    # every supporting line through two points, exact one-side test
    points = sorted(set(map(tuple, points)))
    facets = set()
    for p, q in combinations(points, 2):
        n = (-(q[1] - p[1]), q[0] - p[0])
        g = math.gcd(abs(n[0]), abs(n[1]))
        if g == 0:
            continue
        n = (n[0] // g, n[1] // g)
        v0 = n[0] * p[0] + n[1] * p[1]
        vals = [n[0] * x + n[1] * y for x, y in points]
        if min(vals) == max(vals):
            continue
        if all(v >= v0 for v in vals):
            facets.add((n, -v0))
        elif all(v <= v0 for v in vals):
            facets.add(((-n[0], -n[1]), v0))
    return facets


def oracle_area2_2d(vertices_ccw):
    # twice the area by the shoelace formula
    s = 0
    n = len(vertices_ccw)
    for i in range(n):
        x1, y1 = vertices_ccw[i]
        x2, y2 = vertices_ccw[(i + 1) % n]
        s += x1 * y2 - x2 * y1
    return abs(s)


def oracle_normalized_area(points):
    # 2! * euclidean area of the hull, via angular sort around the centroid
    poly = LatticePolytope(points)
    if poly.affine_dim < 2:
        return 0
    verts = list(poly.vertices)
    cx = Fraction(sum(v[0] for v in verts), len(verts))
    cy = Fraction(sum(v[1] for v in verts), len(verts))

    def half_and_cross(v):
        dx, dy = v[0] - cx, v[1] - cy
        return (0 if (dy > 0 or (dy == 0 and dx > 0)) else 1, dx, dy)

    # exact angular sort: compare by cross products within half-planes
    def cmp(u, v):
        hu, dux, duy = half_and_cross(u)
        hv, dvx, dvy = half_and_cross(v)
        if hu != hv:
            return -1 if hu < hv else 1
        cr = dux * dvy - duy * dvx
        return 0 if cr == 0 else (-1 if cr > 0 else 1)

    verts.sort(key=functools.cmp_to_key(cmp))
    return oracle_area2_2d(verts)


# ------------------------------------------ exhaustive reference for hulls

@functools.lru_cache(maxsize=None)
def reference_hull(pts, d):
    """(equations, facets, vertices) by facet search over every generator
    (a sorted tuple), and vertices by the rank test: a point is a vertex
    when the equations and the facets tight at it have rank d.  Cached,
    since the volume recursion asks again for the hull just compared."""
    eqs = affine_equations(pts, d)
    facets = facet_search(pts, eqs, d)
    if len(eqs) == d:
        return eqs, facets, tuple(pts)
    eqrows = [list(u) for u, _ in eqs]
    verts = tuple(p for p in pts if rank(
        eqrows + [list(n) for n, c in facets if dot(n, p) == -c]) == d)
    return eqs, facets, verts


def reference_volume(pts, memo):
    """Normalized volume of conv(pts) by coning over reference facets, each
    built from every generator on it and measured in its induced lattice.
    memo holds the volumes of faces by their generator sets."""
    key = frozenset(pts)
    if key in memo:
        return memo[key]
    d = len(pts[0])
    eqs = affine_equations(pts, d)
    vol = 1
    if len(eqs) < d:
        coords = pts
        if eqs:
            basis = integer_kernel_basis([list(u) for u, _ in eqs], d)
            cols = list(zip(*basis))
            coords = [tuple(int(x) for x in solve_linear(
                cols, tuple(a - b for a, b in zip(p, pts[0])))) for p in pts]
        _, facets, verts = reference_hull(tuple(sorted(coords)),
                                          len(coords[0]))
        vol = sum((dot(n, verts[0]) + c) * reference_volume(
            [p for p, x in zip(pts, coords) if dot(n, x) == -c], memo)
            for n, c in facets)
    memo[key] = vol
    return vol


def reference_cases():
    """Seeded point sets in dimensions 1-5: generic, in lower-dimensional
    affine sublattices, with repeated points, pairwise sums of two sets
    (mostly non-vertices), and sets with C(n, d) > 3000."""
    rng = random.Random(41)

    def box(d, n, r):
        return [tuple(rng.randint(-r, r) for _ in range(d)) for _ in range(n)]

    cases = []
    for d in range(1, 6):
        small = 2 if d == 5 else 4  # 5-dim reference volumes are slow
        for _ in range(20):
            cases.append(box(d, rng.randint(1, d + small), 2))
        for _ in range(16):
            k = rng.randint(0, d - 1)
            m = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(d)]
            base = box(d, 1, 2)[0]
            cases.append([tuple(b + dot(row, q) for b, row in zip(base, m))
                          for q in box(k, rng.randint(1, k + 4), 2)])
        for _ in range(12):
            pts = box(d, rng.randint(2, d + small), 1)
            cases.append(pts + rng.choices(pts, k=len(pts)))
        for _ in range(12):
            a = box(d, rng.randint(2, small), 1)
            b = box(d, rng.randint(2, 3), 1)
            cases.append([tuple(x + y for x, y in zip(p, q))
                          for p in a for q in b])
    for d, n in ((2, 80), (2, 80), (2, 82), (3, 28), (3, 28), (3, 29),
                 (3, 30), (3, 31), (4, 18), (4, 19)):
        pts = set()
        while len(pts) < n:
            pts.add(tuple(rng.randint(-9, 9) for _ in range(d)))
        cases.append(sorted(pts))
    return cases


def test_grown_hull_matches_exhaustive_reference():
    cases = reference_cases()
    assert len(cases) >= 300
    big = 0
    for raw in cases:
        pts = tuple(sorted(set(raw)))
        d = len(pts[0])
        poly = LatticePolytope(raw)
        eqs, facets, verts = reference_hull(pts, d)
        assert (poly.equations, poly.facets, poly.vertices) == (
            eqs, facets, verts), raw
        vol = reference_volume(pts, {})
        assert poly.normalized_volume() == vol, raw
        big += math.comb(len(pts), d - len(eqs)) > 3000
    assert big >= 10


def test_affine_equations_match_reference_route():
    # affine images of Z^a in Z^d, d = 1-7 and a = 0-d, so every
    # codimension from 0 to d; a = 0 gives single points, and about half
    # of the sets repeat some of their points
    rng = random.Random(47)
    seen = set()
    count = 0
    for d in range(1, 8):
        for a in range(d + 1):
            for _ in range(60):
                m = [[rng.randint(-3, 3) for _ in range(a)] for _ in range(d)]
                base = [rng.randint(-3, 3) for _ in range(d)]
                pts = [tuple(b + dot(row, q) for b, row in zip(base, m))
                       for q in ([rng.randint(-2, 2) for _ in range(a)]
                                 for _ in range(rng.randint(1, a + 3)))]
                if rng.random() < 0.5:
                    pts += rng.choices(pts, k=rng.randint(1, 3))
                poly = LatticePolytope(pts)
                want = affine_equations(sorted(set(pts)), d)
                assert poly.equations == want, pts
                seen.add((d, len(want)))
                count += 1
    assert count >= 2000
    assert seen == {(d, c) for d in range(1, 8) for c in range(d + 1)}


@pytest.mark.parametrize("pts, codim", [
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 0),
    ([(0, 0, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1), (2, 3, 1, 0)], 1),
])
def test_hull_builds_no_fraction(monkeypatch, pts, codim):
    # hulls and their equations are found in integers alone
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    poly = LatticePolytope(pts)
    assert made == []
    assert len(poly.equations) == codim


def halfspace_outcome(fn, ineqs, dim):
    try:
        return fn(ineqs, dim)
    except ValueError as e:
        return str(e)


def test_halfspace_vertices_match_subset_reference():
    # seeded systems in dimensions 1-4: the facets of a random polytope
    # (bounded) plus random cuts (often unbounded or infeasible), and
    # zero normals with positive, zero and negative right-hand sides
    rng = random.Random(43)
    kinds = {"vertices": 0, "infeasible": 0, "unbounded": 0, "none": 0}
    for trial in range(240):
        dim = rng.randint(1, 4)
        pts = [tuple(rng.randint(-3, 3) for _ in range(dim))
               for _ in range(rng.randint(1, dim + 3))]
        ineqs = [(n, -c) for n, c in LatticePolytope(pts).facets]
        ineqs = rng.sample(ineqs, rng.randint(0, len(ineqs)))[:7]
        for _ in range(rng.randint(0, 7 - len(ineqs))):
            ineqs.append((tuple(rng.randint(-2, 2) for _ in range(dim)),
                          Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
        if trial % 10 == 0:
            ineqs.append(((0,) * dim, rng.randint(-1, 1)))
        rng.shuffle(ineqs)
        got = halfspace_outcome(halfspace_intersection_vertices, ineqs, dim)
        want = halfspace_outcome(reference_halfspace_vertices, ineqs, dim)
        assert got == want, (ineqs, dim)
        if isinstance(got, str):
            kinds["none" if "no effective" in got else "unbounded"] += 1
        else:
            kinds["vertices" if got else "infeasible"] += 1
    assert min(kinds.values()) >= 3, kinds


# ------------------------------------------------------------------ fixtures

SEG = LatticePolytope([(0, 0), (1, 0)])                    # conv{0, e1}
TRI = LatticePolytope([(0, 0), (0, 1), (-1, -1)])          # conv{0, e2, -e1-e2}
PENTAGON_VERTICES = {(-1, -1), (0, -1), (1, 0), (1, 1), (0, 1)}
# two-part decomposition in dimension 5 of P4 x P1 type
P4XP1_PARTS = [
    [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0)],
    [(-1, -1, -1, -1, 0), (0, 0, 0, 0, 1), (0, 0, 0, 0, -1)],
]
# three-part decomposition in dimension 6 of P3 x P3 type
P3XP3_PARTS = [
    [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)],
    [(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)],
    [(-1, -1, -1, 0, 0, 0), (0, 0, 0, -1, -1, -1)],
]


def test_hull_unit_simplex():
    p = convex_hull([(0, 0), (1, 0), (0, 1)])
    assert p.is_full_dim and p.affine_dim == 2
    assert set(p.facets) == {((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)}
    assert set(p.vertices) == {(0, 0), (1, 0), (0, 1)}


def test_hull_quadrilateral_matches_halfplane_oracle():
    pts = [(0, 0), (2, 0), (2, 1), (0, 1)]
    p = convex_hull(pts)
    assert len(p.facets) == 4
    assert set(p.facets) == oracle_hull_facets_2d(pts)
    # a generator on an edge stays a point but is not a vertex
    q = convex_hull(pts + [(1, 0)])
    assert set(q.vertices) == set(pts)
    assert (1, 0) in q.points


def test_hull_centroid_generator_is_interior():
    pts = [(1, 0), (0, 1), (-1, -1), (0, 0)]
    p = convex_hull(pts)
    assert len(p.facets) == 3
    assert set(p.facets) == oracle_hull_facets_2d(pts)
    assert set(p.vertices) == {(1, 0), (0, 1), (-1, -1)}


def test_hull_random_2d_matches_oracle():
    rng = random.Random(5)
    for _ in range(25):
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4))
               for _ in range(rng.randint(3, 9))]
        p = LatticePolytope(pts)
        if p.affine_dim < 2:
            continue
        assert set(p.facets) == oracle_hull_facets_2d(pts)


def test_single_point_and_segment():
    pt = LatticePolytope([(3, 4)])
    assert pt.affine_dim == 0 and not pt.is_full_dim
    assert pt.facets == () and pt.vertices == ((3, 4),)
    seg = LatticePolytope([(0, 0, 0), (2, 2, 0), (1, 1, 0)])
    assert seg.affine_dim == 1
    assert set(seg.vertices) == {(0, 0, 0), (2, 2, 0)}
    assert len(seg.facets) == 2  # the two endpoints, cut inside the hull line


def test_every_generator_satisfies_every_facet_random_3d():
    rng = random.Random(9)
    for _ in range(15):
        pts = [tuple(rng.randint(-3, 3) for _ in range(3))
               for _ in range(rng.randint(4, 8))]
        p = LatticePolytope(pts)
        for x in pts:
            assert p.contains(x)
        # facet tightness: each facet touches >= affine_dim generators
        for n, c in p.facets:
            tight = [q for q in p.points
                     if sum(a * b for a, b in zip(n, q)) == -c]
            assert len(tight) >= p.affine_dim


def test_minkowski_sum_segments():
    a = LatticePolytope([(0,), (1,)])
    assert minkowski_sum(a, a).vertices == ((0,), (2,))


def test_minkowski_pentagon():
    penta = minkowski_sum(SEG, TRI)
    assert set(penta.vertices) == PENTAGON_VERTICES
    # oracle: hull of all pairwise point sums
    sums = [(a[0] + b[0], a[1] + b[1]) for a in SEG.points for b in TRI.points]
    assert set(penta.facets) == oracle_hull_facets_2d(sums)


def test_minkowski_with_origin_is_identity():
    origin = LatticePolytope([(0, 0)])
    assert minkowski_sum(TRI, origin) == TRI


def test_lattice_points_examples():
    square = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert len(lattice_points(square)) == 4
    simplex2 = LatticePolytope([(0, 0), (2, 0), (0, 2)])
    assert len(lattice_points(simplex2)) == 6
    penta = minkowski_sum(SEG, TRI)
    got = lattice_points(penta)
    assert got == reference_lattice_points(penta)
    assert got == sorted(got)  # deterministic lexicographic order
    assert len(got) == 6  # five vertices plus the origin


def test_lattice_points_lower_dimensional():
    seg = LatticePolytope([(0, 0), (2, 2)])
    assert lattice_points(seg) == [(0, 0), (1, 1), (2, 2)]


def random_lattice_polytopes(seed):
    """Seeded polytopes in dimensions 1-4: generic point sets, and point
    sets base + M q spanning a lower-dimensional affine sublattice."""
    rng = random.Random(seed)
    cases = []
    for d in range(1, 5):
        for _ in range(15):
            cases.append(LatticePolytope(
                [tuple(rng.randint(-3, 3) for _ in range(d))
                 for _ in range(rng.randint(1, d + 3))]))
        for _ in range(10):
            k = rng.randint(1, d) - 1
            m = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(d)]
            base = [rng.randint(-2, 2) for _ in range(d)]
            cases.append(LatticePolytope(
                [tuple(b + dot(row, q) for b, row in zip(base, m))
                 for q in ([rng.randint(-1, 2) for _ in range(k)]
                           for _ in range(k + 3))]))
    return cases


def test_lattice_points_match_box_scan_reference():
    cases = random_lattice_polytopes(53)
    assert sum(p.is_full_dim for p in cases) >= 30
    assert sum(not p.is_full_dim and p.affine_dim > 0 for p in cases) >= 20
    for p in cases:
        assert lattice_points(p) == reference_lattice_points(p), p
        if p.is_full_dim:
            assert interior_lattice_points(p) == reference_lattice_points(
                p, strict=True), p


def test_nef_piece_points_match_box_scan_reference():
    families = [
        (check_nef_partition([[(1, 0)], [(0, 1), (-1, -1)]]), 5),
        (wps_nef_partition(WpsFamily((1,) * 5, ((0, 1, 2, 3, 4),)))[0], 5),
        (wps_nef_partition(WpsFamily((1,) * 4, ((0, 1), (2, 3))))[0], 5),
        (wps_nef_partition(WpsFamily((1,) * 5, ((0, 1), (2, 3, 4))))[0], 5),
        (check_nef_partition(P4XP1_PARTS), 3),
    ]
    pieces = 0
    for nef, top in families:
        for level in range(top + 1):
            for k in compositions(level, nef.r):
                assert list(nef_piece_points(nef, k)) == \
                    reference_piece_points(nef, k), (nef, k)
                pieces += 1
    assert pieces == 79
    # a further cut with zero normal keeps every point or none
    nef = families[0][0]
    full = reference_piece_points(nef, (2, 2))
    assert list(nef_piece_points(nef, (2, 2), [((0, 0), 0)])) == full
    assert list(nef_piece_points(nef, (2, 2), [((0, 0), 1)])) == []
    # seeded further cuts with nonzero normals: non-primitive ones,
    # parallel duplicates and contradictory pairs
    rng = random.Random(15)
    sizes = []
    for nef, top in families:
        for k in compositions(min(top, 3), nef.r):
            pts = reference_piece_points(nef, k)
            for _ in range(10):
                e = tuple(rng.randint(-2, 2) for _ in range(nef.dim))
                if not any(e):
                    continue
                vals = [dot(e, x) for x in pts]
                c = rng.randint(min(vals), max(vals))
                g = rng.randint(2, 3)
                cuts = [
                    (tuple(g * x for x in e), g * c - rng.randint(0, g - 1)),
                    (e, c - rng.randint(0, 2)),
                    # a slice, a contradiction or a redundant upper bound
                    (tuple(-x for x in e),
                     rng.choice([-c, 1 - c, -max(vals)])),
                ]
                rng.shuffle(cuts)
                want = reference_piece_points(nef, k, cuts)
                assert list(nef_piece_points(nef, k, cuts)) == want, (
                    nef, k, cuts)
                sizes.append((len(want), len(pts)))
    # (size, piece size) of each result: many are empty, many cut
    assert len(sizes) == 168
    assert sum(n == 0 for n, _ in sizes) >= 50
    assert sum(0 < n < m for n, m in sizes) >= 50


def test_interior_lattice_points():
    cross = LatticePolytope([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert interior_lattice_points(cross) == [(0, 0)]
    simplex = LatticePolytope([(0, 0), (1, 0), (0, 1)])
    assert interior_lattice_points(simplex) == []
    simplex3 = LatticePolytope([(0, 0), (3, 0), (0, 3)])
    assert interior_lattice_points(simplex3) == [(1, 1)]
    with pytest.raises(ValueError):
        interior_lattice_points(LatticePolytope([(0, 0), (1, 0)]))


def test_normalized_volume_unit_simplices():
    for d in range(1, 5):
        pts = [(0,) * d] + [tuple(1 if i == j else 0 for i in range(d))
                            for j in range(d)]
        assert LatticePolytope(pts).normalized_volume() == 1


def test_normalized_volume_matches_shoelace_oracle():
    rng = random.Random(17)
    assert TRI.normalized_volume() == oracle_normalized_area(TRI.points) == 1
    penta = minkowski_sum(SEG, TRI)
    assert penta.normalized_volume() == oracle_normalized_area(penta.points) == 5
    for _ in range(20):
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4))
               for _ in range(rng.randint(3, 8))]
        p = LatticePolytope(pts)
        if p.affine_dim == 2:
            assert p.normalized_volume() == oracle_normalized_area(pts)


def test_normalized_volume_ambient_flag():
    seg = LatticePolytope([(0, 0), (3, 0)])
    assert seg.normalized_volume() == 3          # length in the hull lattice


def test_normalized_volume_in_sublattice_hyperplane():
    # triangle in the plane x+y+z = 3, induced lattice is not Z^2-obvious
    tri = LatticePolytope([(3, 0, 0), (0, 3, 0), (0, 0, 3)])
    assert tri.affine_dim == 2
    # image of 3*(standard triangle) under a unimodular map of the induced
    # lattice: normalized volume must be 9
    assert tri.normalized_volume() == 9


def ehrhart_volume(poly):
    """m-th finite difference of the Ehrhart counts #(jP cap Z^n), j = 0..m,
    m = affine_dim: the normalized volume, with no hull recursion."""
    m = poly.affine_dim
    total = 0
    for j in range(m + 1):
        dilate = LatticePolytope([tuple(j * x for x in v)
                                  for v in poly.vertices])
        total += (-1) ** (m - j) * math.comb(m, j) * len(
            lattice_points(dilate))
    return total


def test_normalized_volume_matches_ehrhart_differences():
    rng = random.Random(37)
    cases = [LatticePolytope([(0,), (n,)]) for n in range(1, 41)]
    for d in range(1, 5):
        for _ in range(8):
            cases.append(LatticePolytope(
                [tuple(rng.randint(-2, 2) for _ in range(d))
                 for _ in range(rng.randint(2, d + 3))]))
    for d in (3, 4):
        for _ in range(6):
            # a polytope in a hyperplane whose induced lattice need not be
            # spanned by its points: base + M q for q in Z^(d-1)
            m = [[rng.randint(-1, 1) for _ in range(d - 1)] for _ in range(d)]
            base = tuple(rng.randint(-1, 1) for _ in range(d))
            cases.append(LatticePolytope(
                [tuple(b + sum(x * y for x, y in zip(row, q))
                       for b, row in zip(base, m))
                 for q in ([rng.randint(0, 2) for _ in range(d - 1)]
                           for _ in range(d + 2))]))
    assert sum(p.affine_dim == p.ambient_dim - 1 > 1 for p in cases) >= 6
    for p in cases:
        assert p.normalized_volume() == ehrhart_volume(p), p


@pytest.mark.parametrize("parts, volumes", [
    (P4XP1_PARTS, (90, 10, 906)),
    (P3XP3_PARTS, (1190, 16, 1961)),
])
def test_paper_scale_volumes(parts, volumes):
    # Delta, its Cayley polytope and its dual, at the values the facet
    # recursion measured before the pulling triangulation replaced it
    nef = check_nef_partition(parts)
    assert (nef.delta.normalized_volume(),
            cayley_polytope(nef.polytopes).normalized_volume(),
            dual_polytope(nef.delta).normalized_volume()) == volumes


def test_normalized_volume_builds_no_hull(monkeypatch):
    # the triangulation is read off the hull's own facets and vertices
    nef = check_nef_partition(P4XP1_PARTS)
    cay = cayley_polytope(nef.polytopes)
    calls = []
    hull = polytope._hull_description
    monkeypatch.setattr(polytope, "_hull_description",
                        lambda *a: calls.append(a) or hull(*a))
    assert (nef.delta.normalized_volume(), cay.normalized_volume()) == (90, 10)
    assert calls == []


def test_cayley_polytope_r1_is_height_one_copy():
    c = cayley_polytope([TRI])
    assert set(c.vertices) == {(0, 0, 1), (0, 1, 1), (-1, -1, 1)}
    assert c.affine_dim == 2 and c.ambient_dim == 3


def test_cayley_polytope_structure():
    c = cayley_polytope([SEG, TRI])
    assert c.ambient_dim == 4
    assert c.affine_dim == 3  # lies in the hyperplane where heights sum to 1
    assert ((0, 0, 0, 1), 0) not in c.facets
    assert set(c.vertices) == {(0, 0, 1, 0), (1, 0, 1, 0),
                               (0, 0, 0, 1), (0, 1, 0, 1), (-1, -1, 0, 1)}
    assert c.normalized_volume() == 3


def test_mixed_volume_examples():
    assert mixed_volume([SEG, TRI]) == 2
    assert mixed_volume([TRI, TRI]) == TRI.normalized_volume() == 1
    assert mixed_volume([SEG, SEG]) == 0  # degenerate pair spans a line
    penta = minkowski_sum(SEG, TRI)
    assert mixed_volume([penta, penta]) == 5


def test_mixed_volume_inclusion_exclusion_oracle_2d():
    rng = random.Random(19)
    for _ in range(12):
        a = LatticePolytope([(rng.randint(-3, 3), rng.randint(-3, 3))
                             for _ in range(3)])
        b = LatticePolytope([(rng.randint(-3, 3), rng.randint(-3, 3))
                             for _ in range(3)])
        va = oracle_normalized_area(a.points)
        vb = oracle_normalized_area(b.points)
        vab = oracle_normalized_area(
            [(p[0] + q[0], p[1] + q[1]) for p in a.points for q in b.points])
        assert mixed_volume([a, b]) == Fraction(vab - va - vb, 2)


def test_mixed_volume_symmetry_and_multiset():
    rng = random.Random(21)
    polys = [
        LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        LatticePolytope([(0, 0, 0), (1, 1, 0), (0, 1, 1)]),
        LatticePolytope([(0, 0, 0), (2, 0, 0), (0, 1, 0), (1, 0, 1)]),
    ]
    base = mixed_volume(polys)
    for _ in range(4):
        perm = polys[:]
        rng.shuffle(perm)
        assert mixed_volume(perm) == base


def test_mixed_volume_builds_only_the_cayley_hull(monkeypatch):
    polys = [
        LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        LatticePolytope([(0, 0, 0), (1, 1, 0), (0, 1, 1)]),
        LatticePolytope([(0, 0, 0), (2, 0, 0), (0, 1, 0), (1, 0, 1)]),
    ]
    calls = []
    hull = polytope._hull_description
    monkeypatch.setattr(polytope, "_hull_description",
                        lambda *a: calls.append(a) or hull(*a))
    value = mixed_volume(polys)
    assert [d for _, d in calls] == [6]  # the Cayley polytope, in Z^(3+3)
    assert value == reference_mixed_volume(polys) > 0


def seeded_mixed_volume_tuples(seed, count):
    """count tuples of d polytopes in dimension d = 1..4, each hulled from
    1 or d to d + 2 random points, so single points and flat polytopes sit
    next to full ones; some tuples lie in the hyperplane x_1 = 0, so every
    sum is lower-dimensional, and some repeat a polytope."""
    rng = random.Random(seed)
    for trial in range(count):
        d = trial % 4 + 1
        flat = rng.random() < 0.2
        polys = []
        for _ in range(d):
            if polys and rng.random() < 0.25:
                polys.append(rng.choice(polys))
                continue
            size = 1 if rng.random() < 0.05 else rng.randint(d, d + 2)
            pts = [tuple(0 if flat and j == 0 else rng.randint(-2, 2)
                         for j in range(d)) for _ in range(size)]
            polys.append(LatticePolytope(pts))
        yield polys


def test_mixed_volume_matches_inclusion_exclusion_reference():
    tuples = list(seeded_mixed_volume_tuples(31, 60))
    got = [mixed_volume(polys) for polys in tuples]
    assert got == [reference_mixed_volume(polys) for polys in tuples]
    # the draw reaches every dimension, points, flat sums and repeats
    assert {len(polys) for polys in tuples} == {1, 2, 3, 4}
    assert any(len(p.vertices) == 1 for polys in tuples for p in polys)
    assert any(len(set(polys)) < len(polys) for polys in tuples)
    assert any(not minkowski_sum_all(polys).is_full_dim
               and min(len(p.vertices) for p in polys) > 1
               for polys in tuples)
    assert sum(v == 0 for v in got) >= 5 and sum(v > 0 for v in got) >= 30


def test_mixed_volume_shape_errors():
    with pytest.raises(ValueError):
        mixed_volume([SEG])
    with pytest.raises(ValueError):
        mixed_volume([SEG, LatticePolytope([(0,), (1,)])])


def test_reflexive_square_and_dual():
    square = LatticePolytope([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    assert is_reflexive(square)
    cross = dual_polytope(square)
    assert set(cross.vertices) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert is_reflexive(cross)
    assert dual_polytope(cross) == square  # involution


def test_reflexive_rejects():
    simplex = LatticePolytope([(0, 0), (1, 0), (0, 1)])
    assert not is_reflexive(simplex)
    with pytest.raises(ValueError):
        dual_polytope(simplex)
    seg = LatticePolytope([(0, 0), (1, 0)])
    assert not is_reflexive(seg)


def test_pentagon_is_reflexive_with_five_dual_vertices():
    penta = minkowski_sum(SEG, TRI)
    assert is_reflexive(penta)
    dual = dual_polytope(penta)
    assert len(dual.vertices) == 5
    assert dual_polytope(dual) == penta


def test_nef_partition_segment_triangle():
    nef = check_nef_partition([[(1, 0)], [(0, 1), (-1, -1)]])
    assert nef.dim == 2 and nef.r == 2
    assert set(nef.delta.vertices) == PENTAGON_VERTICES
    b1, b2 = nef.vertex_partition
    assert set(b1) == {(-1, 1), (-1, 0)}
    assert set(b2) == {(0, 1), (0, -1), (2, -1)}
    # concatenation of the parts' canonically sorted point lists
    assert nef.points == ((1, 0), (-1, -1), (0, 1))


def test_nef_partition_invalid_sum():
    with pytest.raises(NefPartitionError, match="not reflexive"):
        check_nef_partition([[(1, 0)], [(0, 2), (-1, -2)]])


def test_nef_partition_rejects_origin_and_duplicates():
    with pytest.raises(NefPartitionError, match="origin"):
        check_nef_partition([[(0, 0), (1, 0)], [(0, 1), (-1, -1)]])
    with pytest.raises(NefPartitionError, match="appears in parts"):
        check_nef_partition([[(1, 0)], [(1, 0), (0, 1), (-1, -1)]])


def test_one_nef_partition_per_partition():
    # a part's points reordered, repeated or given as lists name the same
    # partition, built once
    nef = check_nef_partition([[(1, 0)], [(0, 1), (-1, -1)]])
    assert check_nef_partition([[(1, 0), (1, 0)], [(-1, -1), (0, 1)]]) is nef
    assert check_nef_partition([[[1, 0]], [[0, 1], [-1, -1], [0, 1]]],
                               dim=2) is nef
    info = polytope._nef_partition.cache_info()
    assert (info.maxsize, info.misses, info.hits) == (1, 1, 2)
    # the parts in another order put the coefficients in another order
    swapped = check_nef_partition([[(0, 1), (-1, -1)], [(1, 0)]])
    assert swapped is not nef and swapped.parts == nef.parts[::-1]


def test_a_refused_partition_keeps_nothing():
    nef = check_nef_partition([[(1, 0)], [(0, 1), (-1, -1)]])
    for _ in range(2):
        # refused by the hulls, then by the cheap checks
        with pytest.raises(NefPartitionError, match="not reflexive"):
            check_nef_partition([[(1, 0)], [(0, 2), (-1, -2)]])
        with pytest.raises(NefPartitionError, match="origin"):
            check_nef_partition([[(0, 0), (1, 0)], [(0, 1), (-1, -1)]])
    assert check_nef_partition([[(1, 0)], [(0, 1), (-1, -1)]]) is nef


def test_nef_partition_r1_projective_plane():
    nef = check_nef_partition([[(1, 0), (0, 1), (-1, -1)]])
    assert nef.r == 1
    assert len(nef.vertex_partition[0]) == 3


def test_dual_nef_partition_pentagon():
    nef = check_nef_partition([[(1, 0)], [(0, 1), (-1, -1)]])
    dual = dual_nef_partition(nef)
    n1, n2 = dual.nablas
    assert set(n1.vertices) == {(0, 0), (-1, 1), (-1, 0)}
    # the origin sits on the edge between (0, 1) and (0, -1): inside, not a vertex
    assert set(n2.vertices) == {(0, 1), (0, -1), (2, -1)}
    assert n2.contains((0, 0))
    assert is_reflexive(dual.delta_star)
    assert is_reflexive(dual.nabla_star)
    # the dual of the dual gives back the original polytopes
    back = check_nef_partition(list(nef.vertex_partition))
    bdual = dual_nef_partition(back)
    assert set(bdual.nablas[0].vertices) == {(0, 0), (1, 0)}
    assert set(bdual.nablas[1].vertices) == {(0, 0), (0, 1), (-1, -1)}


def test_dual_nef_partition_quintic_type():
    # anticanonical hypersurface decomposition in dimension 4
    pts = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
           (-1, -1, -1, -1)]
    nef = check_nef_partition([pts])
    dual = dual_nef_partition(nef)
    assert len(dual.nablas) == 1
    assert is_reflexive(dual.delta_star)
    # sum of degrees: the Cayley polytope at r=1 is the polytope itself
    assert cayley_polytope(nef.polytopes).normalized_volume() == \
        nef.polytopes[0].normalized_volume()


def test_dual_nef_partition_dim5_product_type():
    # two-part decomposition in dimension 5 (a projective 4-space times a
    # line factor); the full dual family must come out reflexive
    nef = check_nef_partition(P4XP1_PARTS)
    dual = dual_nef_partition(nef)
    nabla = minkowski_sum_all(dual.nablas)
    assert is_reflexive(nabla)
    assert is_reflexive(dual.delta_star)
    assert is_reflexive(dual.nabla_star)
    # and duality is an involution on the polytopes
    back = check_nef_partition(list(nef.vertex_partition))
    bdual = dual_nef_partition(back)
    assert set(bdual.nablas[0].vertices) == set(nef.polytopes[0].vertices)
    assert set(bdual.nablas[1].vertices) == set(nef.polytopes[1].vertices)


def test_cayley_volume_decomposes_into_mixed_volumes():
    # Vol of the Cayley polytope = sum over compositions |kbar| = d of the
    # mixed volumes V(Delta_1^{kbar_1}, ..., Delta_r^{kbar_r})
    from toricres.laurent import compositions
    rng = random.Random(29)
    for trial in range(6):
        d = rng.choice([2, 3])
        r = rng.choice([1, 2, 3])
        polys = []
        for _ in range(r):
            pts = [tuple(rng.randint(-2, 2) for _ in range(d))
                   for _ in range(rng.randint(2, 4))]
            polys.append(LatticePolytope(pts + [(0,) * d]))
        total = Fraction(0)
        for kbar in compositions(d, r):
            multiset = []
            for i, m in enumerate(kbar):
                multiset.extend([polys[i]] * m)
            total += mixed_volume(multiset)
        assert total == cayley_polytope(polys).normalized_volume()


# ------------------------------------------------- properties (hypothesis)

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def unimodular(draw, d):
    """A d x d integer matrix of determinant +-1: row shears, then a
    signed permutation of the rows."""
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for i, j, c in draw(st.lists(st.tuples(
            st.integers(0, d - 1), st.integers(0, d - 1),
            st.integers(-2, 2)), max_size=4)):
        if i != j:
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    rows = draw(st.permutations(m))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=d, max_size=d))
    return [[s * x for x in row] for s, row in zip(signs, rows)]


def point_sets(d):
    return st.lists(st.tuples(*[st.integers(-2, 2)] * d),
                    min_size=2, max_size=5)


def image(u, poly):
    return LatticePolytope(
        [tuple(sum(a * x for a, x in zip(row, p)) for row in u)
         for p in poly.points])


@st.composite
def polytopes(draw, extra=0):
    """d + extra lattice polytopes in one dimension d <= 3, and d."""
    d = draw(st.integers(1, 3))
    return d, [LatticePolytope(draw(point_sets(d)))
               for _ in range(d + extra)]


@PROPERTY
@given(st.data())
def test_volumes_invariant_under_unimodular_maps(data):
    d, polys = data.draw(polytopes())
    u = data.draw(unimodular(d))
    images = [image(u, p) for p in polys]
    assert [p.normalized_volume() for p in images] == [
        p.normalized_volume() for p in polys]
    assert mixed_volume(images) == mixed_volume(polys)


@PROPERTY
@given(st.data())
def test_mixed_volume_symmetric_and_minkowski_additive(data):
    d, polys = data.draw(polytopes(extra=1))
    first, extra, rest = polys[0], polys[d], polys[1:d]
    base = mixed_volume([first, *rest])
    assert mixed_volume(data.draw(st.permutations([first, *rest]))) == base
    assert mixed_volume([minkowski_sum(first, extra), *rest]) == (
        base + mixed_volume([extra, *rest]))
