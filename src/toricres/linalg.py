"""Exact rational linear algebra on arbitrary-precision integers.

Vectors are tuples, matrices are sequences of rows.  Entries are Python ints
or fractions.Fraction; every result is exact.  No floating point anywhere.

rank, nullspace, solve_linear and solve_functional share one sparse
eliminator: {column: Fraction} rows, each reduced by the stored rows and
stored scaled to 1 at its lowest column, its pivot.  Any echelon basis has
the pivot columns of the reduced form, so back-substitution in descending
pivot order gives the same kernel vectors and solutions.
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


def require(cond, identity):
    """Raise AssertionError(identity) unless cond holds, also under -O.

    The one way an internal check fails; the CLI maps it to exit 2.  Keep
    identity constant, or build it once per call, never per loop element.
    """
    if not cond:
        raise AssertionError(identity)


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("dot: length mismatch")
    return sum(a * b for a, b in zip(u, v))


def det_int(matrix) -> int:
    """Determinant of an integer matrix, by fraction-free Bareiss
    elimination: every intermediate stays an integer."""
    m = [list(r) for r in matrix]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("det_int: matrix is not square")
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


def _sparse_row(row, ncols):
    """The nonzero entries of a dict or dense row, as {column: Fraction}."""
    if isinstance(row, dict):
        fits, items = all(0 <= c < ncols for c in row), row.items()
    else:
        fits, items = len(row) == ncols, enumerate(row)
    if not fits:
        raise ValueError(f"row does not fit {ncols} columns")
    return {c: Fraction(x) for c, x in items if x}


def _echelon(rows):
    """Echelon basis {pivot: row} of sparse rows, left unmodified.

    A stored row's pivot is its lowest column, where the row is 1.
    """
    pivots = {}
    for row in rows:
        row = dict(row)
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


def rank(matrix) -> int:
    rows = list(matrix)
    ncols = len(rows[0]) if rows else 0
    return len(_echelon(_sparse_row(r, ncols) for r in rows))


def nullspace(matrix, ncols):
    """Basis of {x : M x = 0} as tuples of Fractions (deterministic order)."""
    pivots = _echelon(_sparse_row(r, ncols) for r in matrix)
    return [_kernel_vector(pivots, fc, ncols)
            for fc in range(ncols) if fc not in pivots]


def solve_functional(span, target, normalization):
    """The unique functional vanishing on span and hitting a normalization.

    Finds lam with lam . v = 0 for every v in span and lam . target =
    normalization.  Span rows are {column: value} dicts or dense rows over
    the columns of target.  Returns NOT_UNIQUE when the annihilator of the
    span is not one-dimensional, or when no scaling of it meets the
    normalization (including normalization 0, which never pins the scale).
    A result that breaks either condition raises AssertionError.
    """
    target = tuple(Fraction(x) for x in target)
    n = len(target)
    span = [_sparse_row(v, n) for v in span]
    normalization = Fraction(normalization)
    pivots = _echelon(span)
    if n - len(pivots) != 1:
        return NOT_UNIQUE
    free = next(c for c in range(n) if c not in pivots)
    lam0 = _kernel_vector(pivots, free, n)
    t = dot(lam0, target)
    if t == 0 or normalization == 0:
        return NOT_UNIQUE
    lam = tuple(normalization / t * x for x in lam0)
    # post: the defining conditions hold exactly, checked on the sparse rows
    require(not any(sum(x * lam[j] for j, x in v.items()) for v in span),
            "solve_functional: lam . span != 0")
    require(dot(lam, target) == normalization,
            "solve_functional: lam . target != normalization")
    return lam


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


def primitive(vec):
    """Scale a nonzero integer vector by 1/gcd (sign preserved)."""
    g = math.gcd(*(abs(x) for x in vec))
    if g == 0:
        raise ValueError("primitive: zero vector")
    return tuple(x // g for x in vec)


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
    require(not any(dot(row, b) for row in rows for b in basis),
            "integer_kernel_basis: rows . basis != 0")
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
    require(v[last] == 1 and not any(v[:last]),
            "quotient_by_vector: U . w != (0, ..., 0, 1)")
    rows = [tuple(r) for r in u[:last]]
    require(not any(dot(r, w) for r in rows),
            "quotient_by_vector: rows . w != 0")
    return rows
