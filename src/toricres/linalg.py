"""Exact rational linear algebra on arbitrary-precision integers.

Vectors are tuples, matrices are sequences of rows.  Entries are Python ints
or fractions.Fraction; every result is exact.  No floating point anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction

class NotUnique:
    """Sentinel value: the requested functional is not uniquely determined.

    Returned (never raised) by solve_functional when the annihilator of the
    span is not a line, or the normalization cannot be met on it.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NotUnique"


NOT_UNIQUE = NotUnique()


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("dot: length mismatch")
    return sum(a * b for a, b in zip(u, v))


def _det_int(m):
    # Fraction-free Bareiss elimination; mutates its argument.
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact division: Bareiss guarantees divisibility
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def det(matrix) -> Fraction:
    """Exact determinant.

    Rational rows are cleared to integers first (row lcm), then eliminated
    fraction-free so all intermediates stay integral.
    """
    rows = [list(r) for r in matrix]
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in rows):
        raise ValueError("det: matrix is not square")
    scale = 1
    cleared = []
    for row in rows:
        frow = [Fraction(x) for x in row]
        mult = math.lcm(*(f.denominator for f in frow))
        scale *= mult
        cleared.append([int(f * mult) for f in frow])
    return Fraction(_det_int(cleared), scale)


def det_int(matrix) -> int:
    """Determinant of an integer matrix (fraction-free, exact)."""
    rows = [list(r) for r in matrix]
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("det_int: matrix is not square")
    return _det_int(rows)


def rref(matrix, ncols=None):
    """Reduced row echelon form over Fraction.

    Returns (rows, pivot_columns); input rows are not modified.
    """
    rows = [[Fraction(x) for x in r] for r in matrix]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise ValueError("rref: ragged matrix")
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rank(matrix) -> int:
    return len(rref(matrix)[1])


def nullspace(matrix, ncols):
    """Basis of {x : M x = 0} as tuples of Fractions (deterministic order)."""
    rows, pivots = rref(matrix, ncols)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return basis


def solve_functional(span, target, normalization):
    """The unique functional vanishing on span and hitting a normalization.

    Finds lam with lam . v = 0 for every v in span and lam . target =
    normalization.  Returns NOT_UNIQUE when the annihilator of the span is
    not one-dimensional, or when no scaling of it meets the normalization
    (including normalization 0, which never pins the scale).
    """
    target = tuple(Fraction(x) for x in target)
    n = len(target)
    span = [tuple(Fraction(x) for x in v) for v in span]
    if any(len(v) != n for v in span):
        raise ValueError("solve_functional: span/target length mismatch")
    normalization = Fraction(normalization)
    ann = nullspace(span, n)
    if len(ann) != 1:
        return NOT_UNIQUE
    lam0 = ann[0]
    t = dot(lam0, target)
    if t == 0 or normalization == 0:
        return NOT_UNIQUE
    c = normalization / t
    lam = tuple(c * x for x in lam0)
    # post: the defining conditions hold exactly
    assert all(dot(lam, v) == 0 for v in span)
    assert dot(lam, target) == normalization
    return lam


def solve_linear(matrix, rhs):
    """Unique exact solution of M x = rhs, or None if none/ambiguous."""
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    if len(rows) != len(rhs):
        raise ValueError("solve_linear: shape mismatch")
    ncols = len(matrix[0]) if matrix else 0
    red, pivots = rref(rows, ncols + 1)
    if ncols in pivots:
        return None  # inconsistent
    if len(pivots) != ncols:
        return None  # underdetermined
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return tuple(x)


def primitive(vec):
    """Scale a nonzero integer vector by 1/gcd (sign preserved)."""
    g = math.gcd(*(abs(x) for x in vec))
    if g == 0:
        raise ValueError("primitive: zero vector")
    return tuple(x // g for x in vec)


def cofactor_nullvector(rows, n):
    """Integer kernel vector of an (n-1) x n integer matrix via cofactors.

    Returns the vector of signed maximal minors, or None when the rows are
    rank-deficient (all minors vanish).  For full-rank rows this spans the
    one-dimensional kernel exactly.
    """
    if len(rows) != n - 1:
        raise ValueError("cofactor_nullvector: need n-1 rows")
    out = []
    for j in range(n):
        sub = [[row[i] for i in range(n) if i != j] for row in rows]
        d = _det_int(sub)
        out.append(-d if j % 2 else d)
    if all(x == 0 for x in out):
        return None
    return tuple(out)


def _egcd(a, b):
    # returns (g, x, y) with a*x + b*y = g >= 0
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def integer_kernel_basis(rows, n):
    """Z-basis of {x in Z^n : rows . x = 0} for integer rows.

    The kernel lattice of an integer matrix is saturated, so this basis also
    spans the rational kernel.  Column Euclidean reduction with a tracked
    unimodular transform; no normal form is exposed.
    """
    m = len(rows)
    a = [list(r) for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("integer_kernel_basis: ragged matrix")
    ucols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]

    def combine(j, k, x, y):
        # unimodular column op sending (col_j, col_k) values (x, y) -> (g, 0)
        g, s, t = _egcd(x, y)
        xj, yk = x // g, y // g
        for row in a:
            rj, rk = row[j], row[k]
            row[j] = s * rj + t * rk
            row[k] = -yk * rj + xj * rk
        cj, ck = ucols[j], ucols[k]
        ucols[j] = [s * p + t * q for p, q in zip(cj, ck)]
        ucols[k] = [-yk * p + xj * q for p, q in zip(cj, ck)]

    active = list(range(n))
    for r in range(m):
        nz = [j for j in active if a[r][j] != 0]
        while len(nz) > 1:
            j, k = nz[0], nz[1]
            combine(j, k, a[r][j], a[r][k])
            nz = [j for j in active if a[r][j] != 0]
        if nz:
            active.remove(nz[0])
    basis = [tuple(ucols[j]) for j in active]
    assert all(all(dot(row, b) == 0 for b in basis) for row in rows)
    return basis


def quotient_by_vector(w):
    """Rows of a surjection Z^n -> Z^(n-1) whose kernel is exactly Z.w.

    Requires gcd(w) = 1.  Row Euclidean reduction of w with a tracked
    unimodular transform; the discarded last row completes w to a basis.
    """
    n = len(w)
    v = [int(x) for x in w]
    g = math.gcd(*(abs(x) for x in v))
    if g != 1:
        raise ValueError("quotient_by_vector: entries must be coprime")
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    last = n - 1
    for i in range(n - 1):
        x, y = v[i], v[last]
        if x == 0:
            continue
        g, s, t = _egcd(x, y)
        ri, rl = u[i], u[last]
        u[last] = [s * p + t * q for p, q in zip(ri, rl)]
        u[i] = [(y // g) * p - (x // g) * q for p, q in zip(ri, rl)]
        v[i], v[last] = 0, g
    if v[last] == -1:
        u[last] = [-x for x in u[last]]
        v[last] = 1
    assert v[last] == 1 and all(x == 0 for x in v[:last])
    rows = [tuple(r) for r in u[:last]]
    assert all(dot(r, w) == 0 for r in rows)
    return rows
