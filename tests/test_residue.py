import functools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from operator import add
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import (
    rank,
    reference_lattice_points,
    reference_mixed_volume,
    reference_redundant_rows,
    reference_span_rows,
)

from toricres import polytope, residue
from toricres.cli import main
from toricres.jsonio import load_coeffs_file, load_nefpart_file
from toricres.laurent import (
    LaurentPolynomial,
    cayley_polynomial,
    compositions,
    hessian_by_subsets,
    log_derivative,
    mixed_hessian,
    monomial,
    positive_compositions,
)
from toricres.linalg import NOT_UNIQUE, _solve_functional, solve_functional
from toricres.mirror import WpsFamily, wps_nef_partition
from toricres.polytope import (
    LatticePolytope,
    cayley_polytope,
    check_nef_partition,
    lattice_points,
    minkowski_sum_all,
    nef_piece_points,
)
from toricres.residue import (
    GradedPieceBasis,
    check_mixed_volume_identity,
    draw_regular_coefficients,
    graded_basis,
    interior_basis,
    interior_level_basis,
    mixed_residue,
    residue_functional,
    residue_of_polynomial,
    system_from_coefficients,
)

A = [Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)]
FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def line_family():
    # d=1, r=1: f = 1 - a1*t - a2/t on [-1, 1]
    return check_nef_partition([[(1,), (-1,)]])


def pentagon_family():
    # d=2, r=2 split of the reflexive pentagon
    return check_nef_partition([[(1, 0)], [(0, 1), (-1, -1)]])


# dim-5 partition of P4 x P1 type
P4XP1_PARTS = [
    [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0)],
    [(-1, -1, -1, -1, 0), (0, 0, 0, 0, 1), (0, 0, 0, 0, -1)],
]


def test_graded_basis_zero_degree():
    nef = pentagon_family()
    b = graded_basis(nef, (0, 0))
    assert b.monomials == ((0, 0, 0, 0),)
    assert b.multidegree == (0, 0)
    assert b.index[(0, 0, 0, 0)] == 0


def test_graded_basis_pentagon_piece():
    nef = pentagon_family()
    b = graded_basis(nef, (1, 1))
    # box-scan oracle on the pentagon: 5 vertices + origin
    assert len(b) == 6
    xs = sorted(m[:2] for m in b.monomials)
    assert xs == sorted(lattice_points(nef.delta))
    assert all(m[2:] == (1, 1) for m in b.monomials)
    assert list(b.monomials) == sorted(b.monomials)


def test_graded_basis_direct_sum_bookkeeping():
    # differential test: each piece, read off the nef partition, against a
    # box-scan of the hull of its own Minkowski sum of scaled parts
    families = [
        (pentagon_family(), 4),
        (wps_nef_partition(WpsFamily((1,) * 5, ((0, 1, 2, 3, 4),)))[0], 4),
        (wps_nef_partition(WpsFamily((1,) * 4, ((0, 1), (2, 3))))[0], 4),
        (check_nef_partition(P4XP1_PARTS), 2),
    ]
    for nef, top in families:
        for level in range(top + 1):
            for k in compositions(level, nef.r):
                scaled = [LatticePolytope([tuple(m * x for x in v)
                                           for v in poly.vertices])
                          for poly, m in zip(nef.polytopes, k)]
                hull_route = reference_lattice_points(
                    minkowski_sum_all(scaled))
                assert graded_basis(nef, k).monomials == tuple(
                    p + k for p in hull_route), (nef, k)
    nef = pentagon_family()
    assert sum(len(graded_basis(nef, k))
               for k in compositions(1, 2)) == 2 + 3
    assert sum(len(graded_basis(nef, k))
               for k in compositions(2, 2)) == 3 + 6 + 6


def test_graded_basis_validation():
    nef = pentagon_family()
    with pytest.raises(ValueError):
        graded_basis(nef, (1,))
    with pytest.raises(ValueError):
        graded_basis(nef, (-1, 2))


def test_interior_basis_shift_and_sizes():
    nef = pentagon_family()
    assert len(interior_basis(nef, (1, 1))) == 1  # just the apex monomial
    assert interior_basis(nef, (1, 1)).monomials == ((0, 0, 1, 1),)
    sizes = {k: len(interior_basis(nef, k))
             for k in [(1, 3), (2, 2), (3, 1)]}
    assert sizes == {(1, 3): 6, (2, 2): 6, (3, 1): 3}
    assert len(interior_level_basis(nef, 4)) == 15
    assert len(interior_level_basis(nef, 3)) == 5
    with pytest.raises(ValueError):
        interior_basis(nef, (0, 4))


def test_interior_level_basis_is_sorted_union():
    nef = pentagon_family()
    b = interior_level_basis(nef, 4)
    assert b.multidegree is None
    assert list(b.monomials) == sorted(b.monomials)
    tails = {m[2:] for m in b.monomials}
    assert tails == {(1, 3), (2, 2), (3, 1)}


def test_basis_guard(monkeypatch):
    nef = pentagon_family()
    monkeypatch.setenv("TORIC_MAX_BASIS", "3")
    with pytest.raises(ValueError, match="TORIC_MAX_BASIS"):
        graded_basis(nef, (2, 2))
    monkeypatch.setenv("TORIC_MAX_BASIS", "100")
    assert len(graded_basis(nef, (2, 2))) > 3


def test_basis_guard_counts_only_the_returned_interior_piece(monkeypatch):
    # the interior piece at (2, 2) has 6 monomials and is the only piece
    # listed; the full piece (16 monomials) is checked by its cuts alone
    nef = pentagon_family()
    monkeypatch.setenv("TORIC_MAX_BASIS", "6")
    assert len(interior_basis(nef, (2, 2))) == 6
    monkeypatch.setenv("TORIC_MAX_BASIS", "5")
    with pytest.raises(ValueError, match="TORIC_MAX_BASIS"):
        interior_basis(nef, (2, 2))


def test_basis_guard_refuses_a_large_piece(monkeypatch):
    # the piece has 1734 monomials; the scan stops at the second
    scanned = []

    def counting(nef, k):
        for p in nef_piece_points(nef, k):
            scanned.append(p)
            yield p

    monkeypatch.setattr(residue, "nef_piece_points", counting)
    monkeypatch.setenv("TORIC_MAX_BASIS", "1")
    with pytest.raises(ValueError, match="more than 1 monomials.*"
                                         "TORIC_MAX_BASIS"):
        graded_basis(check_nef_partition(P4XP1_PARTS), (4, 4))
    assert len(scanned) == 2


@pytest.mark.parametrize("raw", ["abc", "2.5", "", "0", "-5"])
def test_basis_guard_rejects_bad_limit(monkeypatch, raw):
    nef = pentagon_family()
    monkeypatch.setenv("TORIC_MAX_BASIS", raw)
    with pytest.raises(ValueError, match="TORIC_MAX_BASIS must be a positive"):
        graded_basis(nef, (1, 1))


def test_bad_basis_limit_is_a_cli_input_error(monkeypatch, capsys):
    monkeypatch.setenv("TORIC_MAX_BASIS", "-5")
    code = main(["residue", "functional",
                 "--nefpart", os.path.join(FIX, "p2split.json"),
                 "--coeffs", os.path.join(FIX, "a.json")])
    assert code == 1
    assert "TORIC_MAX_BASIS" in capsys.readouterr().err


def test_basis_limit_applies_to_a_kept_setup(monkeypatch):
    # the pentagon's top level holds 15 monomials; once its setup is kept,
    # each limit is met as a fresh build meets it
    nef = pentagon_family()
    fs = system_from_coefficients(nef, [1, 2, 3])
    monkeypatch.setenv("TORIC_MAX_BASIS", "15")
    assert len(residue.residue_setup(nef).top) == 15
    assert residue_functional(fs, nef).regular
    for raw, message in (("14", "more than 14 monomials"),
                         ("-5", "must be a positive integer, not '-5'")):
        monkeypatch.setenv("TORIC_MAX_BASIS", raw)
        with pytest.raises(ValueError, match=message):
            residue_functional(fs, nef)
        polytope._nef_partition.cache_clear()
        fresh = pentagon_family()
        assert fresh is not nef
        with pytest.raises(ValueError, match=message):
            residue_functional(system_from_coefficients(fresh, [1, 2, 3]),
                               fresh)


def test_bad_basis_limit_refuses_a_kept_setup_in_the_cli(monkeypatch, capsys):
    argv = ["residue", "functional",
            "--nefpart", os.path.join(FIX, "p2split.json"),
            "--coeffs", os.path.join(FIX, "a.json")]
    assert main(argv) == 0
    monkeypatch.setenv("TORIC_MAX_BASIS", "-5")
    assert main(argv) == 1
    assert "TORIC_MAX_BASIS must be a positive" in capsys.readouterr().err


# Breaks interior_basis's Cayley cone by shifting every facet offset; the
# bare assert proves the interpreter runs with asserts stripped.
BROKEN_CONE = """
import sys
from types import SimpleNamespace
from toricres.polytope import cayley_polytope, check_nef_partition
from toricres.residue import interior_basis
assert False
nef = check_nef_partition([[(1, 0)], [(0, 1), (-1, -1)]])
shift = int(sys.argv[1])
cay = SimpleNamespace(facets=[(n, c + shift) for n, c
                              in cayley_polytope(nef.polytopes).facets])
interior_basis(nef, (2, 2), _cayley=cay)
"""


@pytest.mark.parametrize("shift, identity", [
    (-1, "the strict points of the full piece differ"),
    (1, "the strict points of the full piece differ"),
])
def test_interior_checks_survive_optimize(shift, identity):
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_CONE, str(shift)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode != 0
    assert "AssertionError: interior piece at multidegree (2, 2)" in proc.stderr
    assert identity in proc.stderr


def strict_listings(monkeypatch):
    """[k, points drawn] of each nef_piece_points call that interior_basis
    makes with strict cuts, the full piece it lists for the exact check."""
    calls = []
    real = residue.nef_piece_points

    def counting(nef, k, cuts=()):
        if not cuts:
            yield from real(nef, k)
            return
        calls.append([tuple(k), 0])
        for p in real(nef, k, cuts):
            calls[-1][1] += 1
            yield p

    monkeypatch.setattr(residue, "nef_piece_points", counting)
    return calls


def test_interior_pieces_are_listed_once(monkeypatch):
    # the cone's cuts have the shifted piece's normal form at every
    # positive k around the residue levels, so no full piece is listed
    calls = strict_listings(monkeypatch)
    _, p2split = load_nefpart_file(os.path.join(FIX, "p2split.json"))
    nefs = [check_nef_partition(parts) for parts in (p2split, P4XP1_PARTS)]
    nefs += [wps_nef_partition(WpsFamily(*fam))[0] for fam in LADDER_FAMILIES]
    for nef in nefs:
        n = nef.dim + nef.r
        for level in (n - 1, n, n + 1):
            assert len(interior_level_basis(nef, level)) > 0
    assert calls == []


@pytest.mark.parametrize("shift, drawn", [(1, 7), (-1, 0)])
def test_exact_fallback_draws_one_point_past_the_piece(monkeypatch, shift,
                                                       drawn):
    # a broken cone fails the certificate; the exact check lists the strict
    # points only until one past the 6-point piece (the full piece has 16)
    calls = strict_listings(monkeypatch)
    nef = pentagon_family()
    cay = SimpleNamespace(facets=[(n, c + shift) for n, c
                                  in cayley_polytope(nef.polytopes).facets])
    with pytest.raises(AssertionError, match="interior piece at multidegree "
                       r"\(2, 2\): the strict points of the full piece "
                       "differ"):
        interior_basis(nef, (2, 2), _cayley=cay)
    assert calls == [[(2, 2), drawn]]


def test_redundant_cone_facet_takes_the_exact_check(monkeypatch):
    # the sum of two facets holds on the cone but has a normal the shifted
    # piece lacks: every piece takes the exact check and keeps its basis
    for nef in (pentagon_family(), check_nef_partition(P4XP1_PARTS)):
        cay = cayley_polytope(nef.polytopes)
        (n1, c1), (n2, c2) = cay.facets[:2]
        extra = SimpleNamespace(facets=cay.facets + (
            (tuple(map(add, n1, n2)), c1 + c2),))
        ks = positive_compositions(nef.dim + nef.r, nef.r)
        want = [interior_basis(nef, k).monomials for k in ks]
        calls = strict_listings(monkeypatch)
        got = [interior_basis(nef, k, _cayley=extra).monomials for k in ks]
        assert got == want
        assert [k for k, _ in calls] == ks
        assert all(n == len(m) for (_, n), m in zip(calls, want))
        monkeypatch.undo()


def test_system_from_coefficients_layout():
    nef = pentagon_family()
    fs = system_from_coefficients(nef, A)
    assert fs[0].terms == {(0, 0): 1, (1, 0): Fraction(-1, 3)}
    # part 2 points in sorted order: (-1,-1) then (0,1)
    assert fs[1].terms == {(0, 0): 1, (-1, -1): Fraction(-1, 5),
                           (0, 1): Fraction(-1, 7)}
    with pytest.raises(ValueError):
        system_from_coefficients(nef, A[:2])


def test_residue_functional_line_frozen_oracle():
    # hand-solved 3x3 system: on the basis (-1,2), (0,2), (1,2) the
    # functional for a1=1/2, a2=1/3 is (-9, -6, -6) with volume 2
    nef = line_family()
    fs = system_from_coefficients(nef, [Fraction(1, 3), Fraction(1, 2)])
    rf = residue_functional(fs, nef)
    assert rf.regular
    assert rf.vol == 2
    assert rf.basis.monomials == ((-1, 2), (0, 2), (1, 2))
    assert rf.values == (-9, -6, -6)
    H = hessian_by_subsets(cayley_polynomial(fs))
    assert mixed_residue(rf, H) == 2


def test_residue_functional_degenerate_not_regular():
    nef = line_family()
    fs = system_from_coefficients(nef, [0, 0])  # f = 1
    rf = residue_functional(fs, nef)
    assert not rf.regular
    assert rf.values is None
    with pytest.raises(ValueError, match="not regular"):
        mixed_residue(rf, monomial(2, (0, 2)))


def test_residue_functional_validation():
    nef = pentagon_family()
    fs = system_from_coefficients(nef, A)
    with pytest.raises(ValueError):
        residue_functional(fs[:1], nef)
    bad = [fs[0], LaurentPolynomial(2, {(5, 5): 1})]
    with pytest.raises(ValueError, match="outside its polytope"):
        residue_functional(bad, nef)


def test_span_row_outside_top_basis_is_a_value_error(monkeypatch):
    # a lower monomial far outside the cone shifts every log-derivative
    # term out of the top basis
    nef = pentagon_family()
    setup = residue.residue_setup(nef)
    far = GradedPieceBasis(None, setup.lower.monomials + ((50, 50, 1, 1),))
    monkeypatch.setattr(residue, "residue_setup",
                        lambda nef: setup._replace(lower=far))
    fs = system_from_coefficients(nef, A)
    with pytest.raises(ValueError, match="outside the graded basis"):
        residue_functional(fs, nef)


def test_pentagon_regular_and_normalized():
    nef = pentagon_family()
    fs = system_from_coefficients(nef, A)
    rf = residue_functional(fs, nef)
    assert rf.regular
    assert rf.vol == 3
    F = cayley_polynomial(fs)
    H = hessian_by_subsets(F)
    assert mixed_residue(rf, H) == 3
    assert mixed_residue(rf, LaurentPolynomial(4, {})) == 0


def test_mixed_residue_tail_check():
    nef = pentagon_family()
    fs = system_from_coefficients(nef, A)
    rf = residue_functional(fs, nef)
    h = monomial(4, (0, 0, 2, 2))
    mixed_residue(rf, h, (2, 2))
    with pytest.raises(ValueError, match="multidegree"):
        mixed_residue(rf, h, (3, 1))
    with pytest.raises(ValueError, match="must have 2 entries, got 0"):
        mixed_residue(rf, h, ())  # every monomial ends in ()
    with pytest.raises(ValueError, match="outside the graded basis"):
        mixed_residue(rf, monomial(4, (9, 9, 2, 2)))


def test_mixed_residue_refuses_a_short_k():
    # p2split has r = 2 parts: k = (2,) matches the trailing entry of every
    # monomial of the (2, 2) mixed Hessian, but names one part, not two
    _, parts = load_nefpart_file(os.path.join(FIX, "p2split.json"))
    nef = check_nef_partition(parts)
    coeffs = load_coeffs_file(os.path.join(FIX, "a.json"), len(nef.points))
    fs = system_from_coefficients(nef, coeffs)
    rf = residue_functional(fs, nef)
    assert rf.r == nef.r == 2
    h = mixed_hessian(fs, (2, 2))
    assert mixed_residue(rf, h, (2, 2)) == mixed_residue(rf, h) == 2
    with pytest.raises(ValueError, match="must have 2 entries, got 1"):
        mixed_residue(rf, h, (2,))
    with pytest.raises(ValueError, match="must have 2 entries, got 3"):
        mixed_residue(rf, h, (0, 2, 2))
    with pytest.raises(ValueError, match="must have 2 entries, got 0"):
        mixed_residue(rf, h, ())


def test_annihilation_on_held_out_products():
    # lambda must kill F_i * h for random fresh h one level down
    nef = pentagon_family()
    fs = system_from_coefficients(nef, A)
    rf = residue_functional(fs, nef)
    lower = interior_level_basis(nef, 3)
    F = cayley_polynomial(fs)
    rng = random.Random(3)
    for _ in range(5):
        h = LaurentPolynomial(4, {
            m: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for m in lower.monomials})
        for i in range(4):
            g = log_derivative(F, i) * h
            assert mixed_residue(rf, g) == 0


def test_identity_pentagon_frozen_values():
    nef = pentagon_family()
    fs = system_from_coefficients(nef, A)
    rep = check_mixed_volume_identity(fs, nef)
    got = {row["k"]: (row["residue"], row["mixed_volume"], row["equal"])
           for row in rep["rows"]}
    assert got == {
        (1, 3): (1, 1, True),
        (2, 2): (2, 2, True),
        (3, 1): (0, 0, True),
    }
    assert rep["sum"] == 3 and rep["vol"] == 3
    assert rep["sum_equals_vol"] and rep["all_equal"]


def test_identity_line_reduces_to_volume():
    nef = line_family()
    fs = system_from_coefficients(nef, [Fraction(1, 3), Fraction(1, 2)])
    rep = check_mixed_volume_identity(fs, nef)
    assert len(rep["rows"]) == 1
    row = rep["rows"][0]
    assert row["k"] == (2,)
    assert row["residue"] == row["mixed_volume"] == 2
    assert rep["sum_equals_vol"]


def test_identity_independent_of_coefficients():
    # the per-k residues must be the same across random regular draws
    nef = pentagon_family()
    rng = random.Random(17)
    seen = []
    for _ in range(3):
        coeffs, fs, rf = draw_regular_coefficients(nef, rng)
        rep = check_mixed_volume_identity(fs, nef)
        assert rep["all_equal"] and rep["sum_equals_vol"]
        seen.append(tuple(row["residue"] for row in rep["rows"]))
    assert len(set(seen)) == 1


# the residue_ladder partitions: weights and parts of each weighted family
LADDER_FAMILIES = (
    ((1, 1, 1), ((0, 1, 2),)),
    ((1, 1, 1, 1), ((0, 1, 2, 3),)),
    ((1, 1, 1, 1), ((0, 1), (2, 3))),
    ((1, 1, 1, 1, 1), ((0, 1, 2, 3, 4),)),
    ((1, 1, 1, 1, 2), ((0, 1, 2, 3, 4),)),
    ((1, 1, 1, 1, 1), ((0, 1), (2, 3, 4))),
)


def seeded_wps_nef_partitions(seed, count):
    """Nef partitions of weighted families with drawn weights and groups."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        weights = rng.choice([(1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1, 1),
                              (1, 1, 2), (1, 1, 2, 2), (1, 1, 1, 3)])
        r = rng.randint(1, 3)
        groups = [rng.randrange(r) for _ in weights]
        parts = [[i for i, g in enumerate(groups) if g == j]
                 for j in sorted(set(groups))]
        try:
            found.append(wps_nef_partition(WpsFamily(weights, parts))[0])
        except ValueError:
            continue
    return found


def test_piece_counts_match_mixed_volume():
    # the counts route against the subset Minkowski sum oracle, at every
    # a >= 0 with |a| = d
    _, p2split = load_nefpart_file(os.path.join(FIX, "p2split.json"))
    nefs = [check_nef_partition(parts) for parts in (p2split, P4XP1_PARTS)]
    nefs += [wps_nef_partition(WpsFamily(*fam))[0] for fam in LADDER_FAMILIES]
    nefs += seeded_wps_nef_partitions(3, 6)
    assert len({(nef.dim, nef.r) for nef in nefs}) >= 6
    for nef in nefs:
        mvs = residue._mixed_volumes(nef)
        assert sorted(mvs) == compositions(nef.dim, nef.r)
        for a, mv in mvs.items():
            polys = [p for p, m in zip(nef.polytopes, a) for _ in range(m)]
            assert type(mv) is Fraction
            assert mv == reference_mixed_volume(polys), (nef, a)
        # the diagonal sums to the normalized volume of the sum of parts
        assert sum(mv / math.prod(map(math.factorial, a))
                   for a, mv in mvs.items()) * math.factorial(nef.dim) == (
            nef.delta.normalized_volume())


def test_identity_builds_no_hull(monkeypatch):
    # once the setup exists, the mixed volumes are counted, not hulled
    nef = check_nef_partition(P4XP1_PARTS)
    _, fs, rf = draw_regular_coefficients(nef, random.Random(1))
    calls = []
    hull = polytope._hull_description
    monkeypatch.setattr(polytope, "_hull_description",
                        lambda *a: calls.append(a) or hull(*a))
    rep = check_mixed_volume_identity(fs, nef, rf)
    assert rep["all_equal"] and rep["sum"] == rep["vol"] == 10
    assert calls == []


def test_mixed_volumes_enumerate_only_below_the_setup_levels(monkeypatch):
    # the counts at |j| = d and d - 1 are read off the setup's two level
    # bases; only the smaller pieces are enumerated, each once
    _, p2split = load_nefpart_file(os.path.join(FIX, "p2split.json"))
    nefs = [check_nef_partition(parts) for parts in (p2split, P4XP1_PARTS)]
    nefs += [wps_nef_partition(WpsFamily(*fam))[0] for fam in (
        ((1, 1, 1, 1, 1), ((0, 1), (2, 3, 4))),
        ((1, 1, 1, 1, 1, 1), ((0, 1), (2, 3), (4, 5))))]
    assert [nef.r for nef in nefs] == [2, 2, 2, 3]
    listed = []
    real = residue.nef_piece_points
    monkeypatch.setattr(residue, "nef_piece_points",
                        lambda nef, k, cuts=(): listed.append(k) or real(
                            nef, k, cuts))
    for nef in nefs:
        d, r = nef.dim, nef.r
        setup = residue.residue_setup(nef)
        listed.clear()
        mvs = residue._mixed_volumes(nef)
        assert sorted(listed) == sorted(j for n in range(d - 1)
                                        for j in compositions(n, r))
        assert sum(mvs.values()) > 0
        for n in (d - 1, d):
            for j in compositions(n, r):
                tail = tuple(x + 1 for x in j)
                read = sum(1 for m in setup.top.monomials
                           + setup.lower.monomials if m[d:] == tail)
                assert read == sum(1 for _ in real(nef, j)), (nef, j)


def identity_23_in_p4(seed):
    nef, _ = wps_nef_partition(WpsFamily((1, 1, 1, 1, 1), ((0, 1), (2, 3, 4))))
    _, fs, rf = draw_regular_coefficients(nef, random.Random(seed))
    return nef, fs, rf


def test_identity_refuses_a_functional_of_another_system():
    # a functional solved at other coefficients must not be read as a
    # failure of the conjecture
    nef, fs_1, rf_1 = identity_23_in_p4(1)
    _, fs_2, rf_2 = identity_23_in_p4(2)
    assert fs_1 != fs_2
    with pytest.raises(ValueError, match="solved for another system"):
        check_mixed_volume_identity(fs_2, nef, rf_1)
    # nor one of another nef partition
    pent = pentagon_family()
    rf_pent = residue_functional(system_from_coefficients(pent, A), pent)
    with pytest.raises(ValueError, match="solved for another system"):
        check_mixed_volume_identity(fs_1, nef, rf_pent)
    # nor the right system on a basis other than this partition's top
    foreign = residue.ResidueFunctional(
        rf_pent.basis, rf_1.values, rf_1.vol, True, fs_1)
    with pytest.raises(ValueError, match="another top basis"):
        check_mixed_volume_identity(fs_1, nef, foreign)
    # a second NefPartition of the same partition, built once the kept one
    # is dropped, shares the top basis
    polytope._nef_partition.cache_clear()
    other, _ = wps_nef_partition(
        WpsFamily((1, 1, 1, 1, 1), ((0, 1), (2, 3, 4))))
    assert other is not nef and other.residue_setup is None
    for f, g, rf in ((fs_1, nef, rf_1), (fs_2, other, rf_2)):
        rep = check_mixed_volume_identity(f, g, rf)
        assert rep["all_equal"] and rep["sum_equals_vol"]


def test_residue_of_polynomial_pentagon_point():
    # closed form 1/(1 - 4y) at y = a1*a2*a3 = 1/105 gives 105/101,
    # whichever degree-(1,1) monomial represents the class
    nef = pentagon_family()
    fs = system_from_coefficients(nef, A)
    rf = residue_functional(fs, nef)
    P1 = LaurentPolynomial(3, {(1, 0, 1): 1})
    P2 = LaurentPolynomial(3, {(1, 1, 0): 1})
    assert residue_of_polynomial(rf, nef, P1, A) == Fraction(105, 101)
    assert residue_of_polynomial(rf, nef, P2, A) == Fraction(105, 101)
    # linearity in P
    P3 = LaurentPolynomial(3, {(1, 0, 1): Fraction(7, 2)})
    assert (residue_of_polynomial(rf, nef, P3, A)
            == Fraction(7, 2) * Fraction(105, 101))


def test_residue_of_polynomial_validation():
    nef = pentagon_family()
    fs = system_from_coefficients(nef, A)
    rf = residue_functional(fs, nef)
    # part degrees (1, 1) and (0, 2): P has none of its own
    mixed = LaurentPolynomial(3, {(1, 0, 1): 1, (0, 1, 1): 1})
    with pytest.raises(ValueError, match="P is not homogeneous per group"):
        residue_of_polynomial(rf, nef, mixed, A)
    with pytest.raises(ValueError, match="P must be homogeneous of degree 2"):
        residue_of_polynomial(rf, nef, LaurentPolynomial(3, {(2, 0, 1): 1}),
                              A)
    with pytest.raises(ValueError, match="negative"):
        residue_of_polynomial(rf, nef, LaurentPolynomial(3, {(-1, 1, 2): 1}),
                              A)
    with pytest.raises(ValueError, match="P must use 3 variables, got 2"):
        residue_of_polynomial(rf, nef, LaurentPolynomial(2, {(1, 1): 1}), A)
    with pytest.raises(ValueError, match="P must be nonzero"):
        residue_of_polynomial(rf, nef, LaurentPolynomial(3, {}), A)
    # part degrees (0, 2) are read off P; paired at trailing block (1, 3),
    # the monomial represents the same class as those of degree (1, 1)
    assert residue_of_polynomial(
        rf, nef, LaurentPolynomial(3, {(0, 1, 1): 1}), A) == Fraction(105, 101)


def test_draw_regular_coefficients_deterministic():
    nef = pentagon_family()
    c1, _, rf1 = draw_regular_coefficients(nef, random.Random(5))
    c2, _, rf2 = draw_regular_coefficients(nef, random.Random(5))
    assert c1 == c2
    assert rf1.values == rf2.values
    assert rf1.regular


def test_setup_is_built_once_per_nef_partition(monkeypatch):
    # three non-regular draws, the regular fourth, then the mixed-volume
    # identity: each interior level basis is built exactly once
    built = []

    def counting(nef, level, _cayley=None):
        built.append(level)
        return interior_level_basis(nef, level, _cayley=_cayley)

    solves = []

    def failing_thrice(span, target, vol):
        solves.append(len(span))
        if len(solves) <= 3:
            return residue.NOT_UNIQUE
        return _solve_functional(span, target, vol)

    monkeypatch.setattr(residue, "interior_level_basis", counting)
    monkeypatch.setattr(residue, "_solve_functional", failing_thrice)
    nef = pentagon_family()
    _, fs, rf = draw_regular_coefficients(nef, random.Random(3))
    assert rf.regular and len(solves) == 4
    report = check_mixed_volume_identity(fs, nef)
    assert report["all_equal"] and report["sum_equals_vol"]
    assert len(solves) == 5
    assert sorted(built) == [3, 4]


def test_graded_piece_basis_dedup_guard():
    with pytest.raises(AssertionError):
        GradedPieceBasis(None, [(0, 1), (0, 1)])


# ------------------------------------------------------------ span rows


@functools.lru_cache(maxsize=None)
def span_nef_partitions():
    """p2split, whose parts have negative exponents, the six weighted
    ladder partitions and P4xP1, each with its residue setup built once."""
    _, p2split = load_nefpart_file(os.path.join(FIX, "p2split.json"))
    nefs = [check_nef_partition(p2split)]
    nefs += [wps_nef_partition(WpsFamily(*fam))[0] for fam in LADDER_FAMILIES]
    return tuple(nefs + [check_nef_partition(P4XP1_PARTS)])


def span_case(nef, coeffs):
    """The combined polynomial of one system, the lower monomials and the
    top basis: the arguments of residue._span_rows."""
    setup = residue.residue_setup(nef)
    F = cayley_polynomial(system_from_coefficients(nef, coeffs))
    return F, setup.lower.monomials, setup.top


def seeded_span_cases(seed):
    rng = random.Random(seed)
    for nef in span_nef_partitions():
        yield span_case(nef, [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                              for _ in nef.points])


def test_span_rows_list_the_koszul_redundant_rows_last():
    # every natural row once; the rows that the tuple reference marks,
    # trying every lower monomial, follow all the others, and each group
    # keeps the natural order
    def multiset(rows):
        return sorted(sorted(row.items()) for row in rows)

    sizes = []
    for F, lower, top in seeded_span_cases(1):
        natural = reference_span_rows(F, lower, top)
        marked = reference_redundant_rows(F, lower)
        got = residue._span_rows(F, lower, top)
        assert multiset(got) == multiset(row for _, row in natural)
        assert got == (
            [row for key, row in natural if key not in marked]
            + [row for key, row in natural if key in marked])
        sizes.append((len(natural), len(natural) - len(marked)))
    # (all rows, unmarked rows): the cubic, the quartic and the quintic
    # keep exactly their rank, one less than the top piece
    assert sizes == [(20, 15), (12, 9), (60, 34), (105, 58), (280, 125),
                     (305, 217), (504, 215), (3150, 1136)]


def test_unmarked_span_rows_keep_the_rank():
    # the Koszul induction, over Q: the unmarked rows span every row
    for F, lower, top in seeded_span_cases(1):
        natural = reference_span_rows(F, lower, top)
        marked = reference_redundant_rows(F, lower)
        kept = [row for key, row in natural if key not in marked]
        assert len(kept) < len(natural)
        assert rank(kept, len(top)) == rank(
            [row for _, row in natural], len(top))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_span_rows_match_the_tuple_reference_on_wide_terms(data):
    # synthetic inputs whose terms spread wider than the lower monomials,
    # with negative exponents: the packed set tests against plain tuples;
    # the lower monomials fill most of a box, so that relations are common
    d = data.draw(st.integers(2, 3))

    def points(r):
        return st.tuples(*[st.integers(-r, r)] * d)

    F = LaurentPolynomial(d, data.draw(st.dictionaries(
        points(6), st.builds(Fraction, st.integers(1, 5), st.integers(1, 4)),
        min_size=1, max_size=5)))
    lower = sorted(set(product(range(-2, 3), repeat=d))
                   - data.draw(st.sets(points(2), max_size=20)))
    top = GradedPieceBasis(None, {tuple(map(add, m, t))
                                  for m in lower for t in F.terms})
    natural = reference_span_rows(F, lower, top)
    marked = reference_redundant_rows(F, lower)
    assert residue._span_rows(F, lower, top) == (
        [row for key, row in natural if key not in marked]
        + [row for key, row in natural if key in marked])


# coefficients that may vanish, so that supports shrink and, when every
# point with a nonzero x_i is dropped, the log-derivative g_i is 0
MAYBE_ZERO = st.one_of(st.just(Fraction(0)), st.builds(
    Fraction, st.integers(-9, 9), st.integers(1, 9)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 3), st.lists(MAYBE_ZERO, min_size=4, max_size=4))
@example(0, [Fraction(0)] * 4)
@example(0, [Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0)])
def test_row_order_keeps_the_verdict_and_functional(which, coeffs):
    # p2split, the cubic, the quartic and (2,2) in P3
    nef = span_nef_partitions()[which]
    coeffs = coeffs[:len(nef.points)]
    rf = residue_functional(system_from_coefficients(nef, coeffs), nef)
    F, lower, top = span_case(nef, coeffs)
    hess = hessian_by_subsets(F).terms
    natural = solve_functional(
        [row for _, row in reference_span_rows(F, lower, top)],
        [hess.get(m, 0) for m in top.monomials], rf.vol)
    if rf.regular:
        assert natural == rf.values
    else:
        assert natural is NOT_UNIQUE and rf.values is None
