"""Exact lattice polytopes: hulls, Minkowski sums, mixed volumes, duality.

Geometry is done entirely over the integers / exact rationals at desk scale.
Hulls come from one exact double-description routine on integer rows: for
a point set, the facets are the extreme rays of the cone dual to the
homogenized generators (1, p), built one generator at a time; for a
halfspace system, the vertices are the extreme rays of the cone cut out by
its homogenized rows.  Volumes sum |det| over a pulling triangulation read
off the vertices and facets the hull already has, so no face is hulled
again; on a Cayley polytope, split by simplex type, they are mixed volumes.
Lattice points come from one lazy enumerator over cuts <x, e> >= c: it
fixes one coordinate at a time and bounds it by every cut, with the later
coordinates at their best over a bounding box, so each point it reaches is
a point of the polytope.

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

import functools
from fractions import Fraction

from .linalg import (
    _coef,
    _int,
    _multidegree,
    det_int,
    dot,
    integer_kernel_basis,
    primitive,
    require,
)


def _as_point(p):
    return tuple(_int(x, "point entry") for x in p)


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

    def __init__(self, points):
        pts = sorted({_as_point(p) for p in points})
        if not pts:
            raise ValueError("empty point set")
        dims = {len(p) for p in pts}
        if len(dims) != 1:
            raise ValueError("points of mixed dimension")
        d = dims.pop()
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
        x = _as_point(x)
        return (all(dot(u, x) == v for u, v in self.equations)
                and all(dot(n, x) >= -c for n, c in self.facets))

    def strictly_contains(self, x):
        """Interior membership; only full-dimensional polytopes have one."""
        x = _as_point(x)
        if not self.is_full_dim:
            return False
        return all(dot(n, x) > -c for n, c in self.facets)

    def normalized_volume(self):
        """dim! times Euclidean volume in the induced affine-hull lattice."""
        return sum(_norm_volume(self).values())

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


def _meet(lin, g):
    """Cut the lineality basis lin by the row g.

    Returns (l, s, rest): a vector l of lin with s = <g, l> > 0 (negated if
    need be), and the other vectors projected along l onto <g, .> = 0.
    When g vanishes on all of lin, returns (None, 0, lin).
    """
    vals = [dot(g, x) for x in lin]
    k = next((k for k, s in enumerate(vals) if s), None)
    if k is None:
        return None, 0, lin
    s, l = vals.pop(k), lin[k]
    if s < 0:
        s, l = -s, tuple(-x for x in l)
    rest = [primitive(tuple(s * a - t * b for a, b in zip(m, l)))
            for m, t in zip(lin[:k] + lin[k + 1:], vals)]
    return l, s, rest


def _cone_rays(rows, n):
    """Extreme rays of the cone {x in Q^n : <g, x> >= 0, g in rows}, taken
    modulo its lineality space.

    Exact double description (Motzkin et al. 1953; Fukuda-Prodon 1996) on
    integer rows, one row at a time.  A row that meets the remaining
    lineality space turns one of its vectors into a ray and projects the
    rest of it and the rays along that one.  Otherwise the rays the row
    sees negative are dropped, and each (+, -) pair that is adjacent -- no
    third ray is tight on every row both are tight on -- is combined into a
    new ray.  Rays are primitive integer vectors.  Returns (rays, their
    zero sets as bit masks over rows, dimension of the lineality space).
    """
    lin = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    rays, zeros = [], []
    for i, g in enumerate(rows):
        bit = 1 << i
        l, s, lin = _meet(lin, g)
        if l is not None:
            rays = [primitive(tuple(s * a - t * b for a, b in zip(r, l)))
                    for r, t in zip(rays, [dot(g, r) for r in rays])]
            rays.append(l)
            zeros = [z | bit for z in zeros] + [bit - 1]
            continue
        vals = [dot(g, r) for r in rays]
        neg = [q for q, s in enumerate(vals) if s < 0]
        if not neg:
            zeros = [z | bit if s == 0 else z for z, s in zip(zeros, vals)]
            continue
        need = n - len(lin) - 2  # rows two adjacent rays share, at least
        new_rays, new_zeros = [], []
        for p, sp in enumerate(vals):
            if sp <= 0:
                continue
            for q in neg:
                common = zeros[p] & zeros[q]
                if common.bit_count() < need or any(
                        z & common == common for j, z in enumerate(zeros)
                        if j != p and j != q):
                    continue
                sq = vals[q]
                new_rays.append(primitive(tuple(
                    sp * a - sq * b for a, b in zip(rays[q], rays[p]))))
                new_zeros.append(common | bit)
        keep = [j for j, s in enumerate(vals) if s >= 0]
        rays = [rays[j] for j in keep] + new_rays
        zeros = [zeros[j] | bit if vals[j] == 0 else zeros[j]
                 for j in keep] + new_zeros
    return rays, zeros, len(lin)


def _affine_equations(lin, base):
    """Primitive integer equations <x, u> = v cutting out the affine hull
    of a point set, in canonical order.

    lin is the lineality basis left by meeting every generator (1, p) of
    the set, so it spans {(v0, u) : v0 + <u, p> = 0 for each p}.  Meeting
    its u-parts with the unit rows e_(d-1), ..., e_0 finds one normal per
    free column f, positive at f and zero above it, and clears each normal
    found earlier at f by the same fraction-free step.  Each u is then the
    primitive normal positive at its free column and zero at the other
    free columns and above its own: the basis a back-substituted kernel
    gives.  base is any point of the set.
    """
    d = len(base)
    rest, eqs = [x[1:] for x in lin], []
    for j in reversed(range(d)):
        l, s, rest = _meet(rest, tuple(int(i == j) for i in range(d)))
        if l is not None:
            eqs = [primitive(tuple(s * a - u[j] * b for a, b in zip(u, l)))
                   for u in eqs] + [l]
    return tuple(sorted((u, dot(u, base)) for u in eqs))


def _hull_description(pts, d):
    """(vertices, equations, facets) of conv(pts), pts sorted.

    Meeting every generator (1, p) in turn leaves the lineality basis of
    the dual cone, and _affine_equations reads the equations off it, in
    integers only.  The facets are the extreme rays (c, z) of the cone
    dual to the homogenized generators (1, y), with y_k = <w_k, p> over a
    Z-basis w of the lattice orthogonal to the equations, so the normal
    n = sum z_k w_k is primitive and orthogonal to the equations.  A generator is a vertex when its set of facets is
    contained in no other generator's set: the facets through a vertex meet
    in it alone, so no other generator has the same set.
    """
    lin = [tuple(int(i == j) for i in range(d + 1)) for j in range(d + 1)]
    for p in pts:
        _, _, lin = _meet(lin, (1,) + p)
        if not lin:
            break
    eqs = _affine_equations(lin, pts[0])
    if len(eqs) == d:
        return tuple(pts), eqs, ()
    coords = pts
    if eqs:
        basis = integer_kernel_basis([list(u) for u, _ in eqs], d)
        coords = [tuple(dot(w, p) for w in basis) for p in pts]
    rays, zeros, nlin = _cone_rays([(1,) + y for y in coords],
                                   d - len(eqs) + 1)
    require(nlin == 0, "_hull_description: the generators do not span")
    facets = []
    for (_, *z), mask in zip(rays, zeros):
        if eqs:
            z = [dot(z, col) for col in zip(*basis)]
        n = primitive(z)
        on = (mask & -mask).bit_length() - 1  # a generator on the facet
        facets.append((n, -dot(n, pts[on])))
    # tight[i]: the facets pts[i] lies on, as a bit mask over the rays
    tight = [sum(1 << f for f, mask in enumerate(zeros) if mask >> i & 1)
             for i in range(len(pts))]
    masks = set(tight)
    verts = tuple(p for p, t in zip(pts, tight)
                  if not any(t != o and t & o == t for o in masks))
    return verts, eqs, tuple(sorted(facets))


def _norm_volume(poly, r=0):
    """Normalized volume {a: vol} of a pulling triangulation read off the
    facets (De Loera-Rambau-Santos, Triangulations, 2010), by simplex type
    a: the sum of the vertices' last r coordinates, less 1 per entry.  On a
    Cayley polytope of r parts that takes a_j + 1 vertices from part j, and
    type a sums to MV(P_1^a_1, ..., P_r^a_r) (Sturmfels 1994).

    A face is a bit mask over poly.vertices; facet (n, c) covers the
    vertices with <n, v> = -c, and the facets of a face F are the
    inclusion-maximal proper nonempty sets F & G over facets G.  Each face
    is coned from its lowest vertex over its facets that miss that vertex,
    down to single vertices, so every chain of faces is one simplex.  The
    simplices are measured in the coordinates x -> (<w_k, x>)_k, with w a
    Z-basis of the lattice orthogonal to the equations.  That map sends the
    induced lattice onto a sublattice of Z^affine_dim whose index is the
    Gram determinant det(<w_j, w_k>), so the sum of |det| is that many
    times the polytope's volume.
    """
    verts = poly.vertices
    index = 1
    if poly.equations:
        basis = integer_kernel_basis([list(u) for u, _ in poly.equations],
                                     poly.ambient_dim)
        verts = [tuple(dot(w, p) for w in basis) for p in verts]
        index = det_int([[dot(a, b) for b in basis] for a in basis])
    facets = [sum(1 << i for i, p in enumerate(poly.vertices)
                  if dot(n, p) == -c) for n, c in poly.facets]
    tails = [p[poly.ambient_dim - r:] for p in poly.vertices]
    totals = {}
    stack = [((1 << len(verts)) - 1, ())]
    while stack:
        face, apexes = stack.pop()
        low = face & -face  # the face's lowest vertex, as a mask
        v = low.bit_length() - 1
        if face == low:
            a = tuple(sum(c) - 1 for c in zip(*(tails[i] for i in apexes),
                                              tails[v]))
            totals[a] = totals.get(a, 0) + abs(det_int(
                [_sub(verts[i], verts[v]) for i in apexes]))
            continue
        subs = {face & g for g in facets} - {0, face}
        stack.extend((f, apexes + (v,)) for f in subs if not f & low
                     and not any(f != o and f & o == f for o in subs))
    for a, total in totals.items():
        totals[a], rest = divmod(total, index)
        require(rest == 0, f"_norm_volume: simplices of type {a} do not sum "
                "to a multiple of the lattice index")
    return totals


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
    The cut weights are read by column, cols[j] holding every cut's e_j.
    """
    d = len(lo)
    cuts = list(cuts)
    cols = [[e[j] for e, _ in cuts] for j in range(d)]
    # slack[j][t]: max over the box of sum_{i > j} e_i x_i for cut t
    slack = [[0] * len(cuts)]
    for j in range(d - 1, 0, -1):
        slack.append([s + max(w * lo[j], w * hi[j])
                      for s, w in zip(slack[-1], cols[j])])
    slack.reverse()

    def walk(j, prefix, need):
        a, b = lo[j], hi[j]
        col = cols[j]
        for w, m, s in zip(col, need, slack[j]):
            m -= s  # the cut now asks w * x_j >= m
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
                            [m - w * x for w, m in zip(col, need)])

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
    """Mixed volume of d polytopes in dimension d, normalized so that
    V(P, ..., P) = Vol(P): the Cayley polytope's triangulated volume of
    type (1, ..., 1), which a lower-dimensional Cayley polytope lacks."""
    polys = list(polys)
    if not polys:
        raise ValueError("mixed_volume: empty list")
    d = polys[0].ambient_dim
    if len(polys) != d:
        raise ValueError("mixed_volume: need exactly dim polytopes")
    if any(p.ambient_dim != d for p in polys):
        raise ValueError("mixed_volume: ambient dimension mismatch")
    return Fraction(_norm_volume(cayley_polytope(polys), d).get((1,) * d, 0))


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
    what every residue functional of this partition shares.  Build one
    through check_nef_partition, which hands every caller naming the same
    partition the same object, and with it the same residue setup.
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
    NefPartitionError naming the first failing condition.  Each part is
    read as its sorted, deduplicated points, with the parts in their given
    order; the process keeps the last partition built, so every call that
    names it again, however its points are spelled, returns the same
    object.  Only the cheap checks run on every call; the hulls, the
    reflexivity check and the dual-vertex assignment run once.  A failing
    call keeps nothing.
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
    return _nef_partition(tuple(cleaned), d)


# One partition: the calls that share one come in a row (a manifest's cases
# on it, a family file and its weighted family), and a kept residue setup
# can be large (81 MiB for P^7's).
@functools.lru_cache(maxsize=1)
def _nef_partition(parts, d):
    """The NefPartition of cleaned parts in dimension d: hulls, the
    reflexivity check and the dual-vertex assignment."""
    origin = (0,) * d
    polytopes = tuple(LatticePolytope([origin, *part]) for part in parts)
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
        for i in range(len(parts)))
    if any(not b for b in vertex_partition):
        # cannot happen for a genuine decomposition, but keep the report exact
        raise NefPartitionError("a part claims no dual vertex")
    return NefPartition(d, parts, polytopes, delta, dual_verts,
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
    k = _multidegree(k, nef.r)
    boxes = [_box(poly.vertices) for poly in nef.polytopes]
    lo = [sum(m * b[0][j] for m, b in zip(k, boxes)) for j in range(nef.dim)]
    hi = [sum(m * b[1][j] for m, b in zip(k, boxes)) for j in range(nef.dim)]
    return _cut_points(lo, hi, _piece_cuts(nef, k) + list(cuts))


def _piece_cuts(nef, k):
    """The cuts (e, -k_i), one per dual vertex e of part i, that cut out
    k_1*Delta_1 + ... + k_r*Delta_r."""
    return [(e, -m) for block, m in zip(nef.vertex_partition, k)
            for e in block]


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
    Vertices are returned as sorted tuples of Fractions.  They come from
    the extreme rays (t, t*y) of the cone cut out by the homogenized rows
    (-b, a) and t >= 0; a ray with t = 0, or a line, is an unbounded
    direction.
    """
    rows = [(1,) + (0,) * dim]
    for a, b in ineqs:
        a = tuple(_int(x, "normal entry") for x in a)
        b = _coef(b, "offset")
        if all(x == 0 for x in a):
            if b > 0:
                return []
            continue
        rows.append((-b.numerator,) + tuple(b.denominator * x for x in a))
    if len(rows) == 1:
        raise ValueError("halfspace intersection: no effective constraints")
    rays, _, lin = _cone_rays(rows, dim + 1)
    if lin or any(t == 0 for t, *_ in rays):
        raise ValueError("halfspace intersection: unbounded region")
    return sorted(tuple(Fraction(x, t) for x in y) for t, *y in rays)


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
        require(verts == list(nabla.vertices),
                "dual part halfspace description disagrees with its hull; "
                f"part {i}: {verts} vs {list(nabla.vertices)}")
        nablas.append(nabla)
    delta_star = LatticePolytope(
        [p for nabla in nablas for p in nabla.points])
    nabla_star = LatticePolytope(
        [p for poly in nef.polytopes for p in poly.points])
    require(is_reflexive(delta_star), "hull of dual parts is not reflexive")
    require(is_reflexive(nabla_star), "hull of primal parts is not reflexive")
    return DualNefPartition(tuple(nablas), delta_star, nabla_star)
