"""Toric residue functionals on graded pieces of a Cayley semigroup ring.

The residue functional of a regular system is pinned down by finitely many
linear conditions: it kills every product of a system log-derivative with a
monomial one level down, and it sends the system Hessian to the normalized
volume of the Cayley polytope.  Everything here is exact linear algebra
over Q; non-regularity is reported as a value, never as a crash.

Graded pieces are indexed by the trailing block of exponents: the piece at
multidegree k has monomial basis the lattice points of k_1*D_1 + ... +
k_r*D_r, embedded at height k.  That sum is read straight off the nef
partition as {x : <x, e> >= -k_owner(e)} over the dual vertices e of
D = D_1 + ... + D_r, because the normal fan of D refines the normal fan of
every such sum, and enumerated from those cuts coordinate by coordinate,
never by scanning a box.  Interior pieces (all k_i >= 1) are the same sets
at the reflexive shift k -> k - (1,...,1), listed once.  They are checked
against the strict inequalities of the cone over the Cayley polytope by a
certificate on cuts: the full piece's cuts at k with the cone's strict cuts,
each divided by the gcd of its normal and the tightest kept per normal, are
the shifted piece's cuts, so both cut out the same points.  Where the cuts
differ, the points are compared exactly instead.  The Cayley volume, split
by simplex type into mixed volumes, and the two interior level bases a
residue functional needs depend on the nef partition alone; they are built
once per NefPartition and kept on it, and check_nef_partition hands every
caller naming one partition the same NefPartition, so cases on one
partition share them.

Conjecture 3.10's mixed volumes are also counted, and must equal those: the
lattice points of the full pieces are counted by a polynomial in the
multidegree (McMullen), whose mixed forward differences at 0 are the mixed
volumes.  The largest counts, |j| = d and d - 1, are read off the setup's
two level bases, which hold those pieces at j + (1,...,1).
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, chain, islice, product
from operator import add, mul

from .laurent import (
    LaurentPolynomial,
    _check_polynomial,
    _group_degrees,
    _total_degree,
    cayley_polynomial,
    compositions,
    hessian_by_subsets,
    mixed_hessian,
    positive_compositions,
)
from .linalg import (
    NOT_UNIQUE,
    _coef,
    _int,
    _multidegree,
    _solve_functional,
    dot,
    require,
)
from .polytope import (
    _norm_volume,
    _piece_cuts,
    cayley_polytope,
    nef_piece_points,
)

DEFAULT_MAX_BASIS = 50000
DRAW_ATTEMPTS = 50


class GradedPieceBasis:
    """Ordered monomial basis of one graded piece.

    multidegree: the common trailing exponent block, or None for a union
    across blocks.  monomials: full embedded exponent vectors in
    lexicographic order.  index: vector -> position.
    """

    __slots__ = ("multidegree", "monomials", "index")

    def __init__(self, multidegree, monomials):
        self.multidegree = (None if multidegree is None else tuple(
            _int(x, "multidegree entry") for x in multidegree))
        self.monomials = tuple(sorted(
            tuple(_int(x, "exponent entry") for x in m) for m in monomials))
        require(len(set(self.monomials)) == len(self.monomials),
                f"graded piece at multidegree {self.multidegree} lists a "
                "monomial twice")
        self.index = {m: i for i, m in enumerate(self.monomials)}

    def __len__(self):
        return len(self.monomials)

    def __repr__(self):
        return (f"GradedPieceBasis(multidegree={self.multidegree}, "
                f"size={len(self.monomials)})")


def _basis_limit():
    """TORIC_MAX_BASIS as read now: the most monomials a basis may hold."""
    raw = os.environ.get("TORIC_MAX_BASIS", str(DEFAULT_MAX_BASIS))
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(
            f"TORIC_MAX_BASIS must be a positive integer, not {raw!r}")
    return int(raw)


def _too_large(limit):
    return ValueError(f"graded piece needs more than {limit} monomials; "
                      "set TORIC_MAX_BASIS to override")


def _guarded(points):
    """List the points, refusing once there are more than TORIC_MAX_BASIS."""
    limit = _basis_limit()
    out = list(islice(points, limit + 1))
    if len(out) > limit:
        raise _too_large(limit)
    return out


def graded_basis(nef, k):
    """Monomial basis of the full graded piece at multidegree k."""
    k = _multidegree(k, nef.r)
    return GradedPieceBasis(k, [p + k for p in
                                _guarded(nef_piece_points(nef, k))])


def _normal_form(cuts):
    """The integer cuts <x, e> >= c as {e/g: tightest ceil(c/g)}, g = gcd(e).

    Dividing a cut by g keeps its integer points, so two systems with the
    same normal form have the same integer points.  A cut with zero normal
    holds as 0 >= c or leaves no point; None stands for no point.
    """
    out = {}
    for e, c in cuts:
        g = math.gcd(*e)
        if g == 0:
            if c > 0:
                return None
            continue
        e = tuple(x // g for x in e)
        c = -(-c // g)
        out[e] = max(c, out.get(e, c))
    return out


def interior_basis(nef, k, _cayley=None):
    """Basis of the interior piece at multidegree k (every k_i >= 1).

    The piece is the full piece at k - (1,...,1), lifted to height k:
    {x : <x, e> >= 1 - k_owner(e)} over the dual vertices e.  It is checked
    against the cone over the Cayley polytope, whose facets come from its
    own hull and not from the vertex partition: the full piece's cuts at k
    together with the cone's facets as strict cuts must have the normal
    form (_normal_form) of the shifted piece's cuts, so the strict points
    of the full piece are exactly these monomials, each strictly inside
    the cone.  When the forms differ the points decide: the strict points
    are listed, one past the piece at most, and must equal the monomials.
    Only the returned piece counts against TORIC_MAX_BASIS.
    """
    k = _multidegree(k, nef.r)
    if any(x < 1 for x in k):
        raise ValueError("interior piece needs every k_i >= 1")
    below = [m - 1 for m in k]
    mons = [p + k for p in _guarded(nef_piece_points(nef, below))]
    cay = _cayley if _cayley is not None else cayley_polytope(nef.polytopes)
    level = sum(k)
    # <(x, k), n> + c * level > 0 as a cut on x alone
    d = nef.dim
    strict = [(n[:d], 1 - c * level - dot(n[d:], k)) for n, c in cay.facets]
    if (_normal_form(_piece_cuts(nef, k) + strict)
            != _normal_form(_piece_cuts(nef, below))):
        full = [p + k for p in islice(nef_piece_points(nef, k, strict),
                                      len(mons) + 1)]
        require(full == mons,
                f"interior piece at multidegree {k}: the strict points of "
                "the full piece differ from the shifted piece k - (1,...,1)")
    return GradedPieceBasis(k, mons)


def interior_level_basis(nef, level, _cayley=None):
    """Union of the interior pieces over all positive k with |k| = level."""
    cay = _cayley if _cayley is not None else cayley_polytope(nef.polytopes)
    mons = (m for k in positive_compositions(level, nef.r)
            for m in interior_basis(nef, k, _cayley=cay).monomials)
    return GradedPieceBasis(None, _guarded(mons))


# Shared by every residue functional of one nef partition: typed, the Cayley
# polytope's volume by simplex type {a: MV(D_1^a_1, ...)}, and vol, its sum;
# top and lower, the interior level bases at total degree d+r and d+r-1.
ResidueSetup = namedtuple("ResidueSetup", "vol top lower typed")


def residue_setup(nef):
    """The nef partition's ResidueSetup, built on first use and kept on it,
    so retried draws, further points and later cases on the same partition
    pay for it once.

    TORIC_MAX_BASIS is read on every call: a kept setup whose larger level
    basis holds more monomials than the current limit is refused as its
    build would be, each interior piece being a part of its level basis.
    """
    if nef.residue_setup is None:
        cay = cayley_polytope(nef.polytopes)
        typed = _norm_volume(cay, nef.r)
        n = nef.dim + nef.r
        nef.residue_setup = ResidueSetup(
            sum(typed.values()), interior_level_basis(nef, n, _cayley=cay),
            interior_level_basis(nef, n - 1, _cayley=cay), typed)
    setup = nef.residue_setup
    limit = _basis_limit()
    if max(len(setup.top), len(setup.lower)) > limit:
        raise _too_large(limit)
    return setup


class ResidueFunctional:
    """The residue functional on the top interior level, when it exists.

    basis: interior basis at total degree d+r; values: one rational per
    basis monomial (None when not regular); vol: normalized volume of the
    Cayley polytope; regular: whether the defining linear conditions pin
    down a unique functional; system: the polynomials it was solved for,
    one per part, as a tuple; r: their number, the length of every
    multidegree.
    """

    __slots__ = ("basis", "values", "vol", "regular", "r", "system")

    def __init__(self, basis, values, vol, regular, system):
        self.basis = basis
        self.values = values
        self.vol = vol
        self.regular = regular
        self.system = tuple(system)
        self.r = len(self.system)

    def __repr__(self):
        return (f"ResidueFunctional(size={len(self.basis)}, vol={self.vol}, "
                f"regular={self.regular})")


def _as_row(terms, basis):
    """(exponent, value) pairs as a sparse {basis position: value}."""
    row = {}
    for e, c in terms:
        i = basis.index.get(e)
        if i is None:
            raise ValueError(f"monomial {e} lies outside the graded basis")
        row[i] = c
    return row


def _span_rows(F, lower, top):
    """The products of the log-derivatives of F with the lower monomials,
    as sparse integer rows over the top basis.

    Rows run generator by generator, each over the lower monomials in
    order, except that the rows a Koszul relation proves redundant come
    last.  The log-derivatives g_i commute: for j < i and a monomial m'
    with m' + supp g_j and m' + supp g_i inside the lower basis,
    g_j * (x^m' g_i) = g_i * (x^m' g_j) is a relation among span rows.
    Ordering rows by generator and then lexicographically by monomial, its
    largest row is that of g_i at m' + (the lex-largest exponent of g_j),
    a combination of smaller rows; by induction along the order every such
    row lies in the span of the rows not so marked.  An elimination that
    stops once it holds the rank of the span therefore never reaches them.

    Exponents are packed as integers, one digit per coordinate, in a base
    wider than the range of the top monomials and of a term of F plus a
    lower monomial.  On that box the packing is one-to-one and additive, so
    a product's exponent is one integer addition and no digit ever carries.
    The relations are found by set intersections of packed exponents: two
    m - t are compared, and an m - t + t' with a lower monomial (m lower,
    t and t' terms).  Either pair differs by a difference of lower
    monomials plus a difference of terms, no wider than the box in any
    coordinate, so those comparisons are exact too.
    """
    terms = list(F.terms.items())
    sums = [(min(a) + min(b), max(a) + max(b))
            for a, b in zip(zip(*F.terms), zip(*lower))]
    box = [(min(lo, min(t)), max(hi, max(t)))
           for (lo, hi), t in zip(sums, zip(*top.monomials))]
    base = 1 + max(hi - lo for lo, hi in box)
    weights = [base ** i for i in range(F.dim)]

    def pack(e):
        return sum(map(mul, e, weights))

    index = {pack(m): i for i, m in enumerate(top.monomials)}
    keys = [pack(e) for e, _ in terms]
    shifts = [(pack(m), m) for m in lower]
    below = {m for m, _ in shifts}
    span, redundant, earlier = [], [], []
    for i in range(F.dim):
        # x_i dF/dx_i, cleared of denominators once: the same line
        g = [(k, e, e[i] * c) for k, (e, c) in zip(keys, terms) if e[i]]
        if not g:
            continue
        scale = math.lcm(*(c.denominator for _, _, c in g))
        g = [(k, e, c.numerator * (scale // c.denominator)) for k, e, c in g]
        # the m' with m' + supp g_i inside the lower basis
        fits = set.intersection(*({m - k for m in below} for k, _, _ in g))
        marked = set()
        for lead, before in earlier:
            marked.update(x + lead for x in fits & before)
        earlier.append((max(g, key=lambda t: t[1])[0], fits))
        for m, mono in shifts:
            try:
                row = {index[k + m]: c for k, _, c in g}
            except KeyError:
                for k, e, _ in g:
                    if k + m not in index:
                        raise ValueError(
                            f"monomial {tuple(map(add, e, mono))} lies "
                            "outside the graded basis") from None
            (redundant if m in marked else span).append(row)
    return span + redundant


def residue_functional(fs, nef):
    """Solve for the functional that kills all derivative products and
    sends the Hessian to the Cayley volume.

    Span vectors are the products of each of the d+r log-derivatives of the
    combined polynomial with every interior monomial one level down, as
    sparse integer rows (_span_rows): each log-derivative is read off the
    combined polynomial's terms and cleared of denominators once, and each
    product is its terms shifted by the monomial.  A non-unique or
    unreachable solution means the system is not regular.
    """
    fs = list(fs)
    d, r = nef.dim, nef.r
    if len(fs) != r:
        raise ValueError("need one polynomial per part")
    for f, poly in zip(fs, nef.polytopes):
        if f.dim != d:
            raise ValueError("polynomial dimension mismatch")
        if f.is_zero():
            raise ValueError("zero polynomial in the system")
        for e in f.terms:
            if not poly.contains(e):
                raise ValueError(f"support point {e} outside its polytope")
    setup = residue_setup(nef)
    top, vol = setup.top, setup.vol
    F = cayley_polynomial(fs)
    span = _span_rows(F, setup.lower.monomials, top)
    hess = _as_row(hessian_by_subsets(F).terms.items(), top)
    target = [hess.get(i, 0) for i in range(len(top))]
    # _span_rows' rows are in-range int dicts: solve_functional's row check
    # would pass every one
    lam = _solve_functional(span, target, vol)
    if lam is NOT_UNIQUE:
        return ResidueFunctional(top, None, vol, False, fs)
    return ResidueFunctional(top, tuple(lam), vol, True, fs)


def mixed_residue(rf, h, k=None):
    """Evaluate the functional on an element supported in the top basis.

    With k given, it must have one nonnegative entry per part, and every
    monomial of h must carry exactly that trailing block.  h is looked up
    in the basis as the Hessian target is (_as_row): support outside it
    signals a mis-built element and is rejected.
    """
    if not rf.regular:
        raise ValueError("functional is not regular")
    if k is not None:
        k = _multidegree(k, rf.r)
        for e in h.terms:
            if e[len(e) - len(k):] != k:
                raise ValueError(f"monomial {e} is not of multidegree {k}")
    row = _as_row(h.terms.items(), rf.basis)
    return sum((c * rf.values[i] for i, c in row.items()), Fraction(0))


def _mixed_volumes(nef):
    """{a: MV(D_1^a_1, ..., D_r^a_r)} for every a >= 0 with |a| = d.

    Each is the mixed a-th forward difference at 0 of the piece counts
    L(j) = #(j_1*D_1 + ... + j_r*D_r), the sum over 0 <= j <= a of
    (-1)^(|a| - |j|) * prod C(a_i, j_i) * L(j).  The counts at |j| = d and
    d - 1 are those of the residue setup's top and lower bases, whose
    pieces sit at trailing block j + (1,...,1); each smaller piece is
    enumerated once.  Each must equal the setup's typed volume.
    """
    d, r = nef.dim, nef.r
    counts = dict.fromkeys(compositions(d, r) + compositions(d - 1, r), 0)
    setup = residue_setup(nef)
    for m in chain(setup.top.monomials, setup.lower.monomials):
        counts[tuple(x - 1 for x in m[d:])] += 1
    out = {}
    for a in compositions(d, r):
        mv = 0
        for j in product(*(range(x + 1) for x in a)):
            if j not in counts:
                counts[j] = sum(1 for _ in nef_piece_points(nef, j))
            mv += ((-1) ** (d - sum(j)) * math.prod(map(math.comb, a, j))
                   * counts[j])
        tri = setup.typed.get(a, 0)
        require(mv == tri, f"mixed volume of the parts taken {a} times: "
                f"piece counts give {mv}, the Cayley triangulation {tri}")
        out[a] = Fraction(mv)
    return out


def check_mixed_volume_identity(fs, nef, rf=None):
    """Compare each top Hessian component's residue with a mixed volume.

    For every positive multidegree k at the top level, the residue of the
    k-component must equal the mixed volume of the parts taken with
    multiplicities k_i - 1, and the residues must sum to the Cayley volume.
    The mixed volumes are counted from the full pieces (_mixed_volumes) and
    each checked against the Cayley triangulation's total of its type; the
    sum row compares lattice-point counts with triangulated volume.
    rf is the system's residue functional when the caller has solved it
    already; one solved for another system, or on another top basis, is a
    ValueError.  Returns a report dict (CLI surface: `residue
    conjecture310`).
    """
    fs = tuple(fs)
    if rf is None:
        rf = residue_functional(fs, nef)
    elif rf.system != fs:
        raise ValueError("residue functional was solved for another system")
    elif rf.basis.monomials != residue_setup(nef).top.monomials:
        raise ValueError("residue functional was solved on another top "
                         "basis than this nef partition's")
    if not rf.regular:
        raise ValueError("system is not regular")
    d, r = nef.dim, nef.r
    mvs = _mixed_volumes(nef)
    rows = []
    total = Fraction(0)
    for k in positive_compositions(d + r, r):
        comp = mixed_hessian(fs, k)
        res = mixed_residue(rf, comp, k)
        mv = mvs[tuple(m - 1 for m in k)]
        rows.append({"k": k, "residue": res, "mixed_volume": mv,
                     "equal": res == mv})
        total += res
    return {
        "rows": rows,
        "sum": total,
        "vol": rf.vol,
        "sum_equals_vol": total == rf.vol,
        "all_equal": all(row["equal"] for row in rows),
    }


def residue_of_polynomial(rf, nef, P, a):
    """Residue pairing of a part-homogeneous coefficient polynomial.

    P is a polynomial whose variables correspond one-to-one with
    nef.points, with no negative exponent; it must be homogeneous of some
    degree kbar_i in the block of variables of part i, read off P, with
    |kbar| = d.  Each monomial x^m is sent to
    prod(a_i^m_i) t^(sum m_i v_i), placed at trailing block kbar + 1 (one
    step inside the cone), evaluated by the functional, with a global sign
    (-1)^d.  (CLI surface: the point rows of `verify trmc`.)
    """
    if not rf.regular:
        raise ValueError("functional is not regular")
    d, r = nef.dim, nef.r
    pts = nef.points
    _check_polynomial(P, len(pts))
    _total_degree(P, d)
    starts = [0, *accumulate(map(len, nef.parts))]
    kbar = _group_degrees(P, list(map(range, starts, starts[1:])))
    a = [_coef(x, "coefficient") for x in a]
    if len(a) != len(pts):
        raise ValueError("need one coefficient per part point")
    tail = tuple(x + 1 for x in kbar)
    terms = {}
    for m, c in P.terms.items():
        coef = c
        exp = (0,) * d
        for mi, ai, v in zip(m, a, pts):
            if mi:
                coef *= ai ** mi
                exp = tuple(e + mi * vi for e, vi in zip(exp, v))
        full = exp + tail
        terms[full] = terms.get(full, Fraction(0)) + coef
    g = LaurentPolynomial(d + r, terms)
    return (-1) ** d * mixed_residue(rf, g, tail)


def system_from_coefficients(nef, coeffs):
    """Build f_i = 1 - sum of c_p t^p over part i, in nef.points order."""
    coeffs = [_coef(c, "coefficient") for c in coeffs]
    if len(coeffs) != len(nef.points):
        raise ValueError("need one coefficient per part point")
    it = iter(coeffs)
    fs = []
    for part in nef.parts:
        terms = {(0,) * nef.dim: Fraction(1)}
        for p in part:
            terms[p] = -next(it)
        fs.append(LaurentPolynomial(nef.dim, terms))
    return fs


def draw_regular_coefficients(nef, rng):
    """Random small positive coefficients giving a regular system.

    Returns (coeffs, fs, rf); retries on non-regular draws, DRAW_ATTEMPTS
    in all.
    """
    for _ in range(DRAW_ATTEMPTS):
        coeffs = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                  for _ in nef.points]
        fs = system_from_coefficients(nef, coeffs)
        rf = residue_functional(fs, nef)
        if rf.regular:
            return coeffs, fs, rf
    raise RuntimeError("no regular coefficient tuple found")
