"""Box-scan references for the library's lattice-point enumerator.

Each lists every point of a bounding box and keeps those passing a
membership test, one point at a time.  That is slow, but it shares no
bound propagation with the enumerator it checks, so a differential test
against it compares two independent routes, order included.
"""

from itertools import product

from toricres.linalg import dot


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


def reference_piece_points(nef, k):
    """Lattice points of k_1*D_1 + ... + k_r*D_r: the sum of the scaled
    parts' boxes, filtered by <x, e> >= -k_i over the dual vertices e
    assigned to part i."""
    boxes = [bounding_box(poly.vertices) for poly in nef.polytopes]
    lo = [sum(m * a[j] for m, (a, _) in zip(k, boxes))
          for j in range(nef.dim)]
    hi = [sum(m * b[j] for m, (_, b) in zip(k, boxes))
          for j in range(nef.dim)]
    cuts = [(e, -m) for block, m in zip(nef.vertex_partition, k)
            for e in block]
    return box_scan(lo, hi, lambda x: all(dot(e, x) >= c for e, c in cuts))
