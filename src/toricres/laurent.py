"""Sparse Laurent polynomials and Cayley-trick constructions.

Exponents are integer tuples (negative entries allowed), coefficients exact
rationals.  The Cayley polynomial of a system f_1..f_r in d variables lives
in d + r variables: each f_j is multiplied by its own auxiliary variable, so
the auxiliary block of an exponent records which summand a term came from.

Two independent routes to the Hessian are kept on purpose:

* hessian: the symbolic determinant det(theta_i theta_j F) of logarithmic
  second derivatives; ground truth.
* hessian_by_subsets / mixed_hessian: the support-sum expansion, a sum over
  n-element subsets of the support weighted by squared point determinants.
  mixed_hessian produces directly the component whose auxiliary multidegree
  is a prescribed k.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .linalg import _coef, _int, _multidegree, det_int
from .polytope import LatticePolytope


class LaurentPolynomial:
    """Immutable sparse Laurent polynomial with exact coefficients."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        dim = _int(dim, "dim")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        clean = {}
        for exp, coef in (terms or {}).items():
            exp = tuple(_int(x, "exponent entry") for x in exp)
            if len(exp) != dim:
                raise ValueError(f"exponent {exp} does not have length {dim}")
            coef = _coef(coef, "coefficient")
            if coef != 0:
                clean[exp] = clean.get(exp, Fraction(0)) + coef
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms",
                           {e: c for e, c in clean.items() if c != 0})

    def __setattr__(self, *_):
        raise AttributeError("LaurentPolynomial is immutable")

    def is_zero(self):
        return not self.terms

    def coefficient(self, exp):
        exp = tuple(_int(x, "exponent entry") for x in exp)
        if len(exp) != self.dim:
            raise ValueError(f"exponent {exp} must have {self.dim} entries")
        return self.terms.get(exp, Fraction(0))

    def support(self):
        return sorted(self.terms)

    def _check(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return LaurentPolynomial(self.dim, terms)

    def __neg__(self):
        return LaurentPolynomial(self.dim,
                                 {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentPolynomial):
            self._check(other)
            terms = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    terms[e] = terms.get(e, Fraction(0)) + c1 * c2
            return LaurentPolynomial(self.dim, terms)
        return LaurentPolynomial(
            self.dim,
            {e: c * _coef(other, "scalar") for e, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, LaurentPolynomial)
                and self.dim == other.dim and self.terms == other.terms)

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "LaurentPolynomial(0)"
        bits = [f"{c}*t^{list(e)}" for e, c in sorted(self.terms.items())]
        return "LaurentPolynomial(" + " + ".join(bits) + ")"

    def newton_polytope(self):
        if not self.terms:
            raise ValueError("zero polynomial has no Newton polytope")
        return LatticePolytope(self.terms.keys())

    def evaluate(self, values):
        """Exact value at a point with nonzero coordinates where needed."""
        if len(values) != self.dim:
            raise ValueError("evaluate: wrong number of values")
        vals = [_coef(v, "value") for v in values]
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for v, k in zip(vals, e):
                if k == 0:
                    continue
                if v == 0 and k < 0:
                    raise ZeroDivisionError("negative exponent at zero")
                term *= v ** k
            total += term
        return total


def monomial(dim, exp, coef=1):
    return LaurentPolynomial(dim, {tuple(exp): coef})


def zero(dim):
    return LaurentPolynomial(dim, {})


def cayley_polynomial(fs):
    """Combine f_1..f_r (dim d) into one polynomial in d + r variables.

    Term exponents get an extra length-r block holding the unit vector of
    the summand the term belongs to.
    """
    fs = list(fs)
    r = len(fs)
    if r == 0:
        raise ValueError("cayley_polynomial: empty system")
    d = fs[0].dim
    if any(f.dim != d for f in fs):
        raise ValueError("cayley_polynomial: dimension mismatch")
    if any(f.is_zero() for f in fs):
        raise ValueError("cayley_polynomial: zero summand")
    terms = {}
    for j, f in enumerate(fs):
        tail = tuple(1 if i == j else 0 for i in range(r))
        for e, c in f.terms.items():
            terms[e + tail] = c
    return LaurentPolynomial(d + r, terms)


def log_derivative(f, axis):
    """t_axis * d/dt_axis, the grading-preserving derivative (0-based axis)."""
    if not 0 <= axis < f.dim:
        raise IndexError("log_derivative: axis out of range")
    return LaurentPolynomial(
        f.dim, {e: c * e[axis] for e, c in f.terms.items()})


def _poly_det(mat):
    # Laplace expansion over the last row of each minor, memoized on the
    # active column set; entries are LaurentPolynomials
    n = len(mat)
    dim = mat[0][0].dim
    memo = {0: monomial(dim, (0,) * dim)}

    def minor(colmask):
        got = memo.get(colmask)
        if got is not None:
            return got
        cols = [j for j in range(n) if colmask >> j & 1]
        row = len(cols) - 1
        acc = zero(dim)
        for pos, j in enumerate(cols):
            entry = mat[row][j]
            if entry.is_zero():
                continue
            sub = minor(colmask & ~(1 << j))
            term = entry * sub
            acc = acc + term if (row + pos) % 2 == 0 else acc - term
        memo[colmask] = acc
        return acc

    return minor((1 << n) - 1)


def hessian(f):
    """Determinant of the matrix of second logarithmic derivatives."""
    n = f.dim
    firsts = [log_derivative(f, j) for j in range(n)]
    mat = [[log_derivative(firsts[j], i) for j in range(n)] for i in range(n)]
    return _poly_det(mat)


def hessian_by_subsets(f):
    """Support-sum route to the same Hessian.

    Sum over n-element subsets S of the support of det(S)^2 times the
    product of the coefficients, placed at the sum of the exponents.
    """
    n = f.dim
    support = sorted(f.terms)
    terms = {}
    for subset in combinations(support, n):
        d = det_int([list(e) for e in subset])
        if d == 0:
            continue
        coef = Fraction(d * d)
        for e in subset:
            coef *= f.terms[e]
        exp = tuple(map(sum, zip(*subset)))
        terms[exp] = terms.get(exp, Fraction(0)) + coef
    return LaurentPolynomial(n, terms)


def nu(subsets):
    """Squared determinant of within-part difference vectors.

    subsets: one list of distinct points per part; each part contributes the
    differences against its own first point, and the stacked square matrix
    must match the point dimension.  The value does not depend on which
    point of a part is used as its base.
    """
    rows = []
    dim = None
    for part in subsets:
        pts = [tuple(_int(x, "point entry") for x in p) for p in part]
        if len(set(pts)) != len(pts):
            raise ValueError("nu: repeated point inside a part")
        if not pts:
            raise ValueError("nu: empty part")
        if dim is None:
            dim = len(pts[0])
        base = pts[0]
        rows.extend([a - b for a, b in zip(p, base)] for p in pts[1:])
    if len(rows) != dim:
        raise ValueError("nu: difference matrix is not square")
    d = det_int(rows)
    return d * d


def mixed_hessian(fs, k):
    """The Hessian component of auxiliary multidegree k, built directly.

    Sums nu-weighted coefficient products over tuples of k_i-element subsets
    of the supports of the f_i.  Any zero k_i makes the component vanish
    identically; |k| must be d + r.
    """
    fs = list(fs)
    r = len(fs)
    if r == 0:
        raise ValueError("mixed_hessian: empty system")
    d = fs[0].dim
    if any(f.dim != d for f in fs):
        raise ValueError("mixed_hessian: dimension mismatch")
    k = _multidegree(k, r, total=d + r)
    if any(x == 0 for x in k):
        return zero(d + r)
    supports = [sorted(f.terms) for f in fs]
    if any(len(s) < ki for s, ki in zip(supports, k)):
        return zero(d + r)
    terms = {}
    pools = [list(combinations(s, ki)) for s, ki in zip(supports, k)]
    for choice in product(*pools):
        weight = nu(choice)
        if weight == 0:
            continue
        coef = Fraction(weight)
        total = (0,) * d
        for f, part in zip(fs, choice):
            for e in part:
                coef *= f.terms[e]
                total = tuple(a + b for a, b in zip(total, e))
        exp = total + k
        terms[exp] = terms.get(exp, Fraction(0)) + coef
    return LaurentPolynomial(d + r, terms)


def _check_polynomial(P, nvars, what="P"):
    """Refuse anything but a nonzero polynomial in nvars variables with no
    negative exponent: a coefficient polynomial."""
    if not isinstance(P, LaurentPolynomial):
        raise TypeError(f"{what} must be a LaurentPolynomial")
    if P.dim != nvars:
        raise ValueError(f"{what} must use {nvars} variables, got {P.dim}")
    if not P.terms:
        raise ValueError(f"{what} must be nonzero")
    for e in P.terms:
        if any(x < 0 for x in e):
            raise ValueError(f"{what} has a negative exponent in {e}")


def _total_degree(P, degree, what="P"):
    """Refuse P unless every term has total degree `degree`."""
    if any(sum(e) != degree for e in P.terms):
        raise ValueError(f"{what} must be homogeneous of degree {degree}")


def _group_degrees(P, groups, what="P"):
    """P's degree in each group of variable indices, the same for every
    term, else a ValueError."""
    out = None
    for e in P.terms:
        degs = tuple(sum(e[i] for i in group) for group in groups)
        if out is None:
            out = degs
        elif degs != out:
            raise ValueError(f"{what} is not homogeneous per group")
    return out


def multidegree_component(f, k, r):
    """Terms of f whose trailing length-r exponent block equals k."""
    k = tuple(_int(x, "multidegree entry") for x in k)
    if len(k) != r:
        raise ValueError("multidegree_component: block length mismatch")
    d = f.dim - r
    return LaurentPolynomial(
        f.dim, {e: c for e, c in f.terms.items() if e[d:] == k})


def compositions(total, parts, caps=None):
    """All tuples of `parts` nonnegative ints summing to total, lex order;
    entry i is at most caps[i] when caps is given."""
    if parts < 0 or total < 0:
        raise ValueError("compositions: negative input")
    caps = [total] * parts if caps is None else list(caps)
    if len(caps) != parts:
        raise ValueError("compositions: one cap per part")
    room = [0] * (parts + 1)  # room[i]: the most entries i.. can take
    for i in range(parts - 1, -1, -1):
        room[i] = room[i + 1] + caps[i]
    if total > room[0]:
        return []
    if parts == 0:
        return [()]
    out = []
    def rec(prefix, remaining, i):
        if i == parts - 1:
            out.append(prefix + (remaining,))
            return
        lo = max(0, remaining - room[i + 1])
        for v in range(lo, min(remaining, caps[i]) + 1):
            rec(prefix + (v,), remaining - v, i + 1)
    rec((), total, 0)
    return out


def positive_compositions(total, parts):
    """Compositions with every entry >= 1."""
    if total < parts:
        return []
    return [tuple(x + 1 for x in c) for c in compositions(total - parts, parts)]
