"""Exact lattice polytopes: hulls, Minkowski sums, volumes, duality.

Geometry is done entirely over the integers / exact rationals at desk scale.
A convex hull is grown on a core of vertices: each round describes the
core's hull by facet search over the core with exact orientation tests,
then adds the generators that lie outside it, until none does.  Volumes
recurse over facets, each facet built from the vertices on it.  Lattice
points come from one lazy enumerator over a system of cuts <x, e> >= c:
it fixes one coordinate at a time and bounds it by every cut, with the
later coordinates at their best over a bounding box, so each point it
reaches is a point of the polytope.

Conventions
-----------
A facet is a pair (n, c): primitive integer inner normal n, integer offset c,
with the polytope contained in {x : <x, n> >= -c}.  A lower-dimensional
polytope additionally carries affine-hull equations (u, v) meaning
<x, u> = v; its facets then cut the hull inside that affine subspace.
Normalized volume is dim! times the Euclidean volume measured in the lattice
induced on the affine hull (ambient lattice intersected with the hull).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .linalg import (
    cofactor_nullvector,
    dot,
    integer_kernel_basis,
    nullspace,
    primitive,
    require,
    solve_linear,
)


def _as_point(p):
    return tuple(int(x) for x in p)


def _sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def _add(p, q):
    return tuple(a + b for a, b in zip(p, q))


class LatticePolytope:
    """Convex hull of finitely many lattice points, with exact facet data.

    The full facet/vertex description is computed eagerly at construction.
    Instances are immutable; all derived data is exposed as attributes.
    """

    __slots__ = ("ambient_dim", "points", "equations", "facets", "vertices",
                 "affine_dim")

    def __init__(self, points, ambient_dim=None):
        pts = sorted({_as_point(p) for p in points})
        if not pts:
            raise ValueError("empty point set")
        dims = {len(p) for p in pts}
        if len(dims) != 1:
            raise ValueError("points of mixed dimension")
        d = dims.pop()
        if ambient_dim is not None and ambient_dim != d:
            raise ValueError("ambient_dim does not match the points")
        if d == 0:
            raise ValueError("ambient dimension must be positive")
        self.ambient_dim = d
        self.points = tuple(pts)
        self.vertices, self.equations, self.facets = _hull_description(pts, d)
        self.affine_dim = d - len(self.equations)
        # sanity: every generator satisfies the whole description exactly
        require(all(dot(u, p) == v for u, v in self.equations for p in pts),
                "LatticePolytope: a generator is off its affine hull")
        require(all(dot(n, p) >= -c for n, c in self.facets for p in pts),
                "LatticePolytope: a generator violates a facet")
        require(len(self.vertices) >= self.affine_dim + 1,
                "LatticePolytope: fewer than affine_dim + 1 vertices")

    @property
    def is_full_dim(self):
        return self.affine_dim == self.ambient_dim

    def contains(self, x):
        x = tuple(x)
        return (all(dot(u, x) == v for u, v in self.equations)
                and all(dot(n, x) >= -c for n, c in self.facets))

    def strictly_contains(self, x):
        """Interior membership; only full-dimensional polytopes have one."""
        if not self.is_full_dim:
            return False
        x = tuple(x)
        return all(dot(n, x) > -c for n, c in self.facets)

    def affine_lattice_image(self):
        """The same polytope rewritten in coordinates of its affine hull.

        Coordinates are taken with respect to a Z-basis of the induced
        lattice (ambient lattice meet affine hull), so normalized volume is
        preserved and the image is full-dimensional.  The image is
        generated by the images of the vertices.
        """
        if self.is_full_dim:
            return self
        eqrows = [list(u) for u, _ in self.equations]
        basis = integer_kernel_basis(eqrows, self.ambient_dim)
        require(len(basis) == self.affine_dim,
                "affine_lattice_image: lattice basis size != affine_dim")
        cols = list(zip(*basis))  # ambient_dim x affine_dim
        base = self.vertices[0]
        image = [solve_linear(cols, _sub(p, base)) for p in self.vertices]
        require(all(c is not None and all(x.denominator == 1 for x in c)
                    for c in image),
                "affine_lattice_image: a point has no integral coordinates")
        return LatticePolytope([tuple(int(x) for x in c) for c in image])

    def normalized_volume(self, ambient=False):
        """dim! times Euclidean volume in the induced affine-hull lattice.

        With ambient=True the polytope is measured in the ambient dimension
        instead, so anything lower-dimensional has volume 0.
        """
        if ambient and not self.is_full_dim:
            return 0
        return _norm_volume(self, {})

    def __eq__(self, other):
        return (isinstance(other, LatticePolytope)
                and self.ambient_dim == other.ambient_dim
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash((self.ambient_dim, self.vertices))

    def __repr__(self):
        return (f"LatticePolytope(dim={self.ambient_dim}, "
                f"affine_dim={self.affine_dim}, vertices={list(self.vertices)})")


def convex_hull(points):
    return LatticePolytope(points)


def _affine_equations(pts, d):
    """Primitive integer equations <x, u> = v cutting out the affine hull."""
    base = pts[0]
    diffs = [_sub(p, base) for p in pts[1:]]
    eqs = []
    for nv in nullspace(diffs, d):
        mult = math.lcm(*(f.denominator for f in nv))
        eqs.append(primitive([int(f * mult) for f in nv]))
    eqs.sort()
    return tuple((u, dot(u, base)) for u in eqs)


def _facet_search(pts, equations, d):
    """Exhaustive facet enumeration over affine_dim-subsets of pts."""
    da = d - len(equations)
    if da == 0:
        return ()
    eqrows = [list(u) for u, _ in equations]
    found = {}
    for subset in combinations(range(len(pts)), da):
        q0 = pts[subset[0]]
        rows = eqrows + [list(_sub(pts[i], q0)) for i in subset[1:]]
        nvec = cofactor_nullvector(rows, d)
        if nvec is None:
            continue  # affinely dependent subset
        nvec = primitive(nvec)
        v0 = dot(nvec, q0)
        vals = [dot(nvec, p) for p in pts]
        vmin, vmax = min(vals), max(vals)
        if vmin == vmax:
            continue
        if v0 == vmin:
            found[(nvec, -v0)] = True
        elif v0 == vmax:
            found[(tuple(-x for x in nvec), v0)] = True
    facets = tuple(sorted(found))
    require(all(dot(n, p) >= -c for n, c in facets for p in pts),
            "_facet_search: a point violates a found facet")
    return facets


def _hull_description(pts, d):
    """(vertices, equations, facets) of conv(pts).

    The hull is grown on a core: seed it with lexicographically tie-broken
    coordinate extremes, describe the core's hull, then add the farthest
    generator off each equation some generator is off, or else the deepest
    violator (lex tie-break) of each violated facet, and repeat.  Every
    point added is extreme in some lexicographic order, hence a vertex of
    conv(pts).  At the fixpoint every generator satisfies the description,
    so conv(core) = conv(pts) and the sorted core is the vertex set.
    """
    core = set()
    for i in range(d):
        core.add(max(pts, key=lambda p: (p[i],) + p))
        core.add(min(pts, key=lambda p: (p[i],) + p))
    while True:
        verts = sorted(core)
        eqs = _affine_equations(verts, d)
        facets = _facet_search(verts, eqs, d)
        grown = False
        for u, v in eqs:
            out = [p for p in pts if dot(u, p) != v]
            if out:
                # any such point enlarges the affine hull of the core
                core.add(max(out, key=lambda p: (abs(dot(u, p) - v),) + p))
                grown = True
        if not grown:
            for n, c in facets:
                out = [p for p in pts if dot(n, p) < -c]
                if out:
                    core.add(min(out, key=lambda p: (dot(n, p),) + p))
                    grown = True
        if not grown:
            return tuple(verts), eqs, facets


def _norm_volume(poly, memo):
    """Normalized volume; memo holds the volumes of full-dimensional images
    by (dim, vertices) for the length of one top-level call."""
    da = poly.affine_dim
    if da == 0:
        return 1
    if not poly.is_full_dim:
        poly = poly.affine_lattice_image()
    key = (poly.ambient_dim, poly.vertices)
    hit = memo.get(key)
    if hit is not None:
        return hit
    # cone off the first vertex over the facets it does not lie on
    v0 = poly.vertices[0]
    total = 0
    for n, c in poly.facets:
        h = dot(n, v0) + c  # lattice height of v0 over the facet (n primitive)
        if h == 0:
            continue
        face_pts = [p for p in poly.vertices if dot(n, p) == -c]
        total += h * _norm_volume(LatticePolytope(face_pts), memo)
    memo[key] = total
    return total


def _box(vertices):
    """Coordinatewise (min, max) corners of the bounding box of vertices."""
    cols = list(zip(*vertices))
    return [min(c) for c in cols], [max(c) for c in cols]


def _cut_points(lo, hi, cuts):
    """Lazy lattice points x of the box [lo, hi] with <x, e> >= c for every
    cut (e, c), in lexicographic order.

    Coordinates are fixed one at a time, keeping each cut's remainder
    c - <x_<j, e_<j>.  A cut bounds x_j by taking every later coordinate at
    its best value over the box, so the last coordinate's range is exact:
    every leaf is a point and no point is tested.  The box is never listed.
    """
    d = len(lo)
    cuts = list(cuts)
    # slack[j][t]: max over the box of sum_{i > j} e_i x_i for cut t
    slack = [[0] * len(cuts)]
    for j in range(d - 1, 0, -1):
        slack.append([s + max(e[j] * lo[j], e[j] * hi[j])
                      for s, (e, _) in zip(slack[-1], cuts)])
    slack.reverse()

    def walk(j, prefix, need):
        a, b = lo[j], hi[j]
        for (e, _), m, s in zip(cuts, need, slack[j]):
            w, m = e[j], m - s  # the cut now asks w * x_j >= m
            if w > 0:
                a = max(a, -(-m // w))
            elif w < 0:
                b = min(b, m // w)
            elif m > 0:
                return
        if j == d - 1:
            for x in range(a, b + 1):
                yield prefix + (x,)
            return
        for x in range(a, b + 1):
            yield from walk(j + 1, prefix + (x,),
                            [m - e[j] * x for (e, _), m in zip(cuts, need)])

    return walk(0, (), [c for _, c in cuts])


def lattice_points(poly):
    """All lattice points of the polytope, in lexicographic order."""
    cuts = [(n, -c) for n, c in poly.facets]
    for u, v in poly.equations:
        cuts += [(u, v), (tuple(-x for x in u), -v)]
    return list(_cut_points(*_box(poly.vertices), cuts))


def interior_lattice_points(poly):
    """Lattice points strictly inside a full-dimensional polytope."""
    if not poly.is_full_dim:
        raise ValueError("interior requires a full-dimensional polytope")
    cuts = [(n, 1 - c) for n, c in poly.facets]
    return list(_cut_points(*_box(poly.vertices), cuts))


def minkowski_sum(p, q):
    if p.ambient_dim != q.ambient_dim:
        raise ValueError("minkowski_sum: ambient dimension mismatch")
    return LatticePolytope([_add(a, b) for a in p.vertices for b in q.vertices])


def minkowski_sum_all(polys):
    polys = list(polys)
    if not polys:
        raise ValueError("minkowski_sum_all: empty list")
    acc = polys[0]
    for q in polys[1:]:
        acc = minkowski_sum(acc, q)
    return acc


def mixed_volume(polys) -> Fraction:
    """Mixed volume of d polytopes in dimension d.

    Normalized so that the diagonal gives the normalized volume:
    V(P, ..., P) = Vol(P).  Computed by inclusion-exclusion over subset
    Minkowski sums; lower-dimensional sums contribute 0.
    """
    polys = list(polys)
    if not polys:
        raise ValueError("mixed_volume: empty list")
    d = polys[0].ambient_dim
    if len(polys) != d:
        raise ValueError("mixed_volume: need exactly dim polytopes")
    if any(p.ambient_dim != d for p in polys):
        raise ValueError("mixed_volume: ambient dimension mismatch")
    total = 0
    cache = {}
    for size in range(1, d + 1):
        sign = (-1) ** (d - size)
        for subset in combinations(range(d), size):
            key = tuple(sorted(polys[i].vertices for i in subset))
            vol = cache.get(key)
            if vol is None:
                s = minkowski_sum_all([polys[i] for i in subset])
                vol = s.normalized_volume(ambient=True)
                cache[key] = vol
            total += sign * vol
    v = Fraction(total, math.factorial(d))
    require(v >= 0, "mixed_volume: inclusion-exclusion total < 0")
    return v


def cayley_polytope(parts):
    """Cayley polytope of r polytopes in Z^d, living in Z^(d+r).

    Each summand is embedded at its own unit height vector in the last r
    coordinates; the result lies in the hyperplane where those heights sum
    to 1.
    """
    parts = list(parts)
    r = len(parts)
    if r == 0:
        raise ValueError("cayley_polytope: empty list")
    d = parts[0].ambient_dim
    if any(p.ambient_dim != d for p in parts):
        raise ValueError("cayley_polytope: ambient dimension mismatch")
    pts = []
    for i, p in enumerate(parts):
        tail = tuple(1 if j == i else 0 for j in range(r))
        pts.extend(v + tail for v in p.vertices)
    return LatticePolytope(pts)


def is_reflexive(poly) -> bool:
    """Full-dimensional with every facet at lattice distance 1 from 0."""
    return poly.is_full_dim and all(c == 1 for _, c in poly.facets)


def dual_polytope(poly):
    """Convex hull of the facet normals; defined for reflexive input."""
    if not is_reflexive(poly):
        raise ValueError("dual_polytope: input is not reflexive")
    return LatticePolytope([n for n, _ in poly.facets])


class NefPartitionError(ValueError):
    """A proposed Minkowski decomposition fails a nef-partition condition."""


class NefPartition:
    """A reflexive Minkowski decomposition Delta = Delta_1 + ... + Delta_r.

    parts holds the given nonzero lattice points A_i (each Delta_i is the
    hull of {0} and A_i), delta the reflexive sum, dual_vertices the facet
    normals of delta, and vertex_partition the induced split of those
    normals: e belongs to part i exactly when min_{Delta_i} <., e> = -1.
    residue_setup is None until residue.residue_setup builds, on first use,
    what every residue functional of this partition shares.
    """

    __slots__ = ("dim", "parts", "polytopes", "delta", "dual_vertices",
                 "vertex_partition", "residue_setup")

    def __init__(self, dim, parts, polytopes, delta, dual_vertices,
                 vertex_partition):
        self.dim = dim
        self.parts = parts
        self.polytopes = polytopes
        self.delta = delta
        self.dual_vertices = dual_vertices
        self.vertex_partition = vertex_partition
        self.residue_setup = None

    @property
    def r(self):
        return len(self.parts)

    @property
    def points(self):
        """All part points concatenated in part order (coefficient order)."""
        return tuple(p for part in self.parts for p in part)

    def __repr__(self):
        return (f"NefPartition(dim={self.dim}, r={self.r}, "
                f"parts={[list(p) for p in self.parts]})")


def check_nef_partition(parts, dim=None):
    """Validate a decomposition and return the NefPartition.

    parts: one list of nonzero lattice points per summand.  Raises
    NefPartitionError naming the first failing condition.
    """
    cleaned = []
    for i, part in enumerate(parts):
        pts = sorted({_as_point(p) for p in part})
        if not pts:
            raise NefPartitionError(f"part {i} is empty")
        if any(all(x == 0 for x in p) for p in pts):
            raise NefPartitionError(f"part {i} contains the origin")
        cleaned.append(tuple(pts))
    dims = {len(p) for part in cleaned for p in part}
    if len(dims) != 1:
        raise NefPartitionError("points of mixed dimension")
    d = dims.pop()
    if dim is not None and dim != d:
        raise NefPartitionError("declared dimension does not match points")
    seen = {}
    for i, part in enumerate(cleaned):
        for p in part:
            if p in seen:
                raise NefPartitionError(
                    f"point {p} appears in parts {seen[p]} and {i}")
            seen[p] = i
    origin = (0,) * d
    polytopes = tuple(LatticePolytope([origin, *part]) for part in cleaned)
    delta = minkowski_sum_all(polytopes)
    if not delta.is_full_dim:
        raise NefPartitionError("Minkowski sum is not full-dimensional")
    if not is_reflexive(delta):
        raise NefPartitionError("Minkowski sum is not reflexive")
    dual_verts = tuple(n for n, _ in delta.facets)
    assignment = []
    for e in dual_verts:
        owners = []
        for i, poly in enumerate(polytopes):
            m = min(dot(e, v) for v in poly.vertices)
            if m not in (0, -1):
                raise NefPartitionError(
                    f"support minimum of part {i} at dual vertex {e} is {m}, "
                    "not 0 or -1")
            if m == -1:
                owners.append(i)
        if len(owners) != 1:
            raise NefPartitionError(
                f"dual vertex {e} claimed by parts {owners}")
        assignment.append(owners[0])
    vertex_partition = tuple(
        tuple(e for e, o in zip(dual_verts, assignment) if o == i)
        for i in range(len(cleaned)))
    if any(not b for b in vertex_partition):
        # cannot happen for a genuine decomposition, but keep the report exact
        raise NefPartitionError("a part claims no dual vertex")
    return NefPartition(d, tuple(cleaned), polytopes, delta, dual_verts,
                        vertex_partition)


def nef_piece_points(nef, k, cuts=()):
    """Lattice points of k_1*Delta_1 + ... + k_r*Delta_r, lexicographic.

    k holds one nonnegative integer per part.  The normal fan of Delta
    refines that of every such sum, so the sum is cut out by the facet
    normals e of Delta alone, with offsets read off the vertex partition:
    {x : <x, e> >= -k_i for every e assigned to part i}.  The points are
    enumerated from those cuts inside the sum of the parts' bounding boxes
    scaled by k, which bounds the coordinates not yet fixed.  Further cuts
    (e, c), each keeping only <x, e> >= c, narrow the piece the same way.
    Returns an iterator, so a caller with a size limit can stop early.
    """
    boxes = [_box(poly.vertices) for poly in nef.polytopes]
    lo = [sum(m * b[0][j] for m, b in zip(k, boxes)) for j in range(nef.dim)]
    hi = [sum(m * b[1][j] for m, b in zip(k, boxes)) for j in range(nef.dim)]
    own = [(e, -m) for block, m in zip(nef.vertex_partition, k)
           for e in block]
    return _cut_points(lo, hi, own + list(cuts))


class DualNefPartition:
    """The dual decomposition: nablas, with both ambient reflexive hulls."""

    __slots__ = ("nablas", "delta_star", "nabla_star")

    def __init__(self, nablas, delta_star, nabla_star):
        self.nablas = nablas
        self.delta_star = delta_star
        self.nabla_star = nabla_star


def halfspace_intersection_vertices(ineqs, dim):
    """Vertices of {y : <a, y> >= b for (a, b) in ineqs}, exact.

    Raises ValueError when the region is unbounded (normals must positively
    span the space) or infeasible constraints with zero normal appear.
    Vertices are returned as sorted tuples of Fractions.
    """
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
    normal_hull = LatticePolytope([a for a, _ in rows])
    if not normal_hull.strictly_contains((0,) * dim):
        raise ValueError("halfspace intersection: unbounded region")
    verts = set()
    for subset in combinations(rows, dim):
        mat = [list(a) for a, _ in subset]
        rhs = [b for _, b in subset]
        y = solve_linear(mat, rhs)
        if y is None:  # singular
            continue
        if all(dot(a, y) >= b for a, b in rows):
            verts.add(y)
    return sorted(verts)


def dual_nef_partition(nef):
    """The dual nef-partition polytopes nabla_i of a NefPartition.

    nabla_i is the hull of 0 and the dual vertices assigned to part i; it is
    cross-checked against its halfspace description (pairings against each
    Delta_j bounded below by -delta_ij).  Also returns the hull of all
    nablas and the hull of all Deltas, both of which must be reflexive.
    """
    d = nef.dim
    origin = (0,) * d
    nablas = []
    for i, b in enumerate(nef.vertex_partition):
        nabla = LatticePolytope([origin, *b])
        ineqs = []
        for j, poly in enumerate(nef.polytopes):
            rhs = -1 if i == j else 0
            ineqs.extend((v, rhs) for v in poly.vertices)
        verts = halfspace_intersection_vertices(ineqs, d)
        got = sorted(tuple(x for x in v) for v in verts)
        want = sorted(tuple(Fraction(x) for x in v) for v in nabla.vertices)
        require(got == want,
                "dual part halfspace description disagrees with its hull; "
                f"part {i}: {got} vs {want}")
        nablas.append(nabla)
    delta_star = LatticePolytope(
        [p for nabla in nablas for p in nabla.points])
    nabla_star = LatticePolytope(
        [p for poly in nef.polytopes for p in poly.points])
    require(is_reflexive(delta_star), "hull of dual parts is not reflexive")
    require(is_reflexive(nabla_star), "hull of primal parts is not reflexive")
    return DualNefPartition(tuple(nablas), delta_star, nabla_star)
