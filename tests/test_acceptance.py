"""End-to-end acceptance gate: twenty-three timed criteria, exact equality only.

Every comparison is exact rational equality (tolerance 0).  Each criterion
prints one PASS/FAIL line with its runtime; run with `-s` to see them all:

    pytest tests/test_acceptance.py -v -s
"""

import contextlib
import io
import math
import os
import random
import time
from fractions import Fraction

from reference import in_y_chart, inv_factorial
from toricres import cli, linalg, polytope, residue, series
from toricres.cli import main as cli_main
from toricres.laurent import (
    LaurentPolynomial,
    cayley_polynomial,
    compositions,
    hessian,
    hessian_by_subsets,
    log_derivative,
    mixed_hessian,
    monomial,
    multidegree_component,
    zero,
)
from toricres.mirror import (
    P3XP3,
    P4XP1,
    WpsFamily,
    draw_wps_points,
    product_intersection_series,
    verify_family,
    wps_intersection_series,
    wps_nef_partition,
    yukawa_fixture,
)
from toricres.polytope import (
    LatticePolytope,
    cayley_polytope,
    check_nef_partition,
    dual_nef_partition,
    dual_polytope,
    is_reflexive,
    mixed_volume,
)
from toricres.residue import (
    check_mixed_volume_identity,
    draw_regular_coefficients,
    interior_level_basis,
    mixed_residue,
    residue_setup,
    system_from_coefficients,
)
from toricres.series import RationalFunctionSpec, expand_rational

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")

PENTAGON_PARTS = [[(1, 0)], [(0, 1), (-1, -1)]]


def _run(num, limit, body):
    t0 = time.perf_counter()
    error = None
    try:
        body()
    except BaseException as e:
        error = e
    elapsed = time.perf_counter() - t0
    ok = error is None and elapsed < limit
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s, limit {limit}s)")
    if error is not None:
        raise error
    assert elapsed < limit, f"criterion {num} exceeded {limit}s"


def test_criterion_1_weighted_closed_forms():
    def body():
        split = WpsFamily((1, 1, 1), [(0,), (1, 2)])
        P = monomial(3, (1, 1, 0))
        series = wps_intersection_series(split, P, 10)
        target = RationalFunctionSpec(
            1, {(0,): 1}, [({(0,): 1, (1,): -4}, 1)])
        assert series == expand_rational(target, 10)
        for b in range(11):
            assert series.coefficient((b,)) == 4 ** b

        quintic = WpsFamily((1,) * 5, [(0, 1, 2, 3, 4)])
        P5 = monomial(5, (0, 1, 1, 1, 1))
        s5 = wps_intersection_series(quintic, P5, 6)
        target5 = RationalFunctionSpec(
            1, {(0,): 1}, [({(0,): 1, (1,): -3125}, 1)])
        assert s5 == expand_rational(target5, 6)
        for b in range(7):
            assert s5.coefficient((b,)) == 3125 ** b

    _run(1, 1.0, body)


def test_criterion_2_residue_point_checks():
    def body():
        fam = WpsFamily((1, 1, 1), [(0,), (1, 2)])
        P = monomial(3, (1, 1, 0))
        a = (Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))
        points = [a] + draw_wps_points(fam, random.Random(2), 2)
        report = verify_family(fam, 4, P=P, points=points)
        assert report["ok"]
        first = report["points"][0]
        assert first["y"] == Fraction(1, 105)
        assert first["residue"] == Fraction(105, 101)
        assert first["closed_form"] == Fraction(105, 101)
        # every point: linear-algebra residue == nu*P(w)/(1 - mu*prod a^w)
        assert len(report["points"]) == 3
        for entry in report["points"]:
            assert entry["equal"]
            assert entry["residue"] == entry["closed_form"]

    _run(2, 5.0, body)


def test_criterion_3_mixed_residues_match_mixed_volumes():
    def body():
        nef = check_nef_partition(PENTAGON_PARTS)
        expected_residues = {(1, 3): 1, (2, 2): 2, (3, 1): 0}
        expected_volumes = {(1, 3): 1, (2, 2): 2, (3, 1): 0}
        runs = []
        for seed in (0, 1, 2):
            _, fs, _ = draw_regular_coefficients(nef, random.Random(seed))
            rep = check_mixed_volume_identity(fs, nef)
            got_res = {row["k"]: row["residue"] for row in rep["rows"]}
            got_vol = {row["k"]: row["mixed_volume"] for row in rep["rows"]}
            assert got_res == expected_residues
            assert got_vol == expected_volumes
            assert all(row["equal"] for row in rep["rows"])
            assert rep["sum"] == rep["vol"] == 3
            runs.append(got_res)
        assert runs[0] == runs[1] == runs[2]

    _run(3, 10.0, body)


def test_criterion_4_first_product_family():
    def body():
        # the series is in z and the bundled forms in y = 27z
        for k in ((3, 0), (2, 1), (1, 2), (0, 3)):
            s = in_y_chart(product_intersection_series(P3XP3, k, 6), 27)
            assert s == expand_rational(yukawa_fixture("P3xP3", k), 6)
        # diagonal identity: the binomially weighted sum restricted to
        # y1 = y2 = y equals 18(3-2y)/((1-2y)(1-y)^2)
        diag = {}
        for k, w in (((3, 0), 1), ((2, 1), 3), ((1, 2), 3), ((0, 3), 1)):
            s = in_y_chart(product_intersection_series(P3XP3, k, 8), 27)
            for e, c in s.items():
                n = e[0] + e[1]
                diag[n] = diag.get(n, Fraction(0)) + w * c
        target = expand_rational(RationalFunctionSpec(
            1, {(0,): 54, (1,): -36},
            [({(0,): 1, (1,): -2}, 1), ({(0,): 1, (1,): -1}, 2)]), 8)
        for n in range(9):
            assert diag.get(n, Fraction(0)) == target.coefficient((n,))

    _run(4, 30.0, body)


def test_criterion_5_second_product_family_three_ways():
    def body():
        def factorial_form(k, b):
            k1, k2 = k
            b1, b2 = b
            return (Fraction(2) ** (8 * b1 + 2 * b2 - k2 + 3)
                    * math.factorial(b1 + 2 * b2 + 1)
                    * inv_factorial(b1 - k1 + 3)
                    * inv_factorial(2 * b2 - k2 + 1))

        for k in ((3, 0), (2, 1), (1, 2), (0, 3)):
            s = product_intersection_series(P4XP1, k, 6)
            t = expand_rational(yukawa_fixture("P4xP1", k), 6)
            assert s == t
            for b1 in range(7):
                for b2 in range(7 - b1):
                    v = factorial_form(k, (b1, b2))
                    assert s.coefficient((b1, b2)) == v
                    assert t.coefficient((b1, b2)) == v
        assert product_intersection_series(
            P4XP1, (3, 0), 0).coefficient((0, 0)) == 8

    _run(5, 60.0, body)


def test_criterion_6_cayley_volume_decomposition():
    def body():
        rng = random.Random(17)
        for _ in range(10):
            # resample until the family spans its ambient space, so the
            # summed mixed volumes measure the same dimension as the
            # Cayley polytope
            while True:
                d = rng.randint(1, 3)
                r = rng.randint(1, 3)
                polys = []
                for _ in range(r):
                    pts = [tuple(rng.randint(-2, 2) for _ in range(d))
                           for _ in range(rng.randint(2, 4))]
                    polys.append(LatticePolytope(pts + [(0,) * d]))
                cay = cayley_polytope(polys)
                if cay.affine_dim == d + r - 1:
                    break
            total = Fraction(0)
            for kbar in compositions(d, r):
                multiset = []
                for poly, m in zip(polys, kbar):
                    multiset.extend([poly] * m)
                total += mixed_volume(multiset)
            assert total == cay.normalized_volume()
        # the segment + triangle identity: Vol = 3 = sum of the weights
        nef = check_nef_partition(PENTAGON_PARTS)
        assert cayley_polytope(nef.polytopes).normalized_volume() == 3
        assert sum((1, 1, 1)) == 3

    _run(6, 10.0, body)


def test_criterion_7_hessian_structure():
    def body():
        nef = check_nef_partition(PENTAGON_PARTS)
        line = check_nef_partition([[(1,), (-1,)]])
        quintic_nef, _ = wps_nef_partition(
            WpsFamily((1,) * 5, [(0, 1, 2, 3, 4)]))
        systems = [
            system_from_coefficients(
                nef, [Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)]),
            system_from_coefficients(
                line, [Fraction(1, 3), Fraction(1, 2)]),
            draw_regular_coefficients(quintic_nef, random.Random(4))[1],
            draw_regular_coefficients(nef, random.Random(5))[1],
        ]
        for fs in systems:
            r = len(fs)
            d = fs[0].dim
            F = cayley_polynomial(fs)
            H = hessian(F)
            assert hessian_by_subsets(F) == H
            total = zero(d + r)
            for k in compositions(d + r, r):
                comp = mixed_hessian(fs, k)
                assert comp == multidegree_component(H, k, r)
                if any(x == 0 for x in k):
                    assert comp.is_zero()
                total = total + comp
            assert total == H

    _run(7, 10.0, body)


def test_criterion_8_property_suites():
    def body():
        # mixed volume: symmetry and diagonal
        tri = LatticePolytope([(0, 0), (1, 0), (0, 1)])
        sq = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
        hexa = LatticePolytope([(0, 0), (1, 0), (2, 1), (1, 2), (0, 1)])
        for A, B in ((tri, sq), (sq, hexa), (tri, hexa)):
            assert mixed_volume([A, B]) == mixed_volume([B, A])
        for P in (tri, sq, hexa):
            assert mixed_volume([P, P]) == P.normalized_volume()
        rng = random.Random(12)
        polys3 = [LatticePolytope(
            [tuple(rng.randint(-1, 2) for _ in range(3))
             for _ in range(4)] + [(0, 0, 0)]) for _ in range(3)]
        base = mixed_volume(polys3)
        for _ in range(3):
            perm = polys3[:]
            rng.shuffle(perm)
            assert mixed_volume(perm) == base

        # reflexive double dual is the identity on vertices
        reflexives = [
            [(1, 1), (1, -1), (-1, 1), (-1, -1)],
            [(1, 0), (0, 1), (-1, 0), (0, -1)],
            [(-1, -1), (0, -1), (0, 1), (1, 0), (1, 1)],
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
        ]
        for pts in reflexives:
            P = LatticePolytope(pts)
            assert is_reflexive(P)
            DD = dual_polytope(dual_polytope(P))
            assert set(DD.vertices) == set(P.vertices)

        # nef-partition double dual returns the original summands
        part_sets = [
            PENTAGON_PARTS,
            [[(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
              (0, 0, 0, 1, 0)],
             [(-1, -1, -1, -1, 0), (0, 0, 0, 0, 1), (0, 0, 0, 0, -1)]],
        ]
        for parts in part_sets:
            nef = check_nef_partition(parts)
            back = check_nef_partition(list(nef.vertex_partition))
            bdual = dual_nef_partition(back)
            for nab, orig in zip(bdual.nablas, nef.polytopes):
                assert set(nab.vertices) == set(orig.vertices)

        # the functional annihilates held-out products theta_i(F) * h
        nef = check_nef_partition(PENTAGON_PARTS)
        a = [Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)]
        fs = system_from_coefficients(nef, a)
        from toricres.residue import residue_functional
        rf = residue_functional(fs, nef)
        F = cayley_polynomial(fs)
        lower = interior_level_basis(nef, 3)
        hrng = random.Random(6)
        for _ in range(3):
            h = LaurentPolynomial(4, {
                m: Fraction(hrng.randint(-9, 9), hrng.randint(1, 9))
                for m in lower.monomials})
            for i in range(4):
                assert mixed_residue(rf, log_derivative(F, i) * h) == 0

        # reports are byte-identical across reruns with the same seed
        for argv in (
            ["residue", "conjecture310",
             "--nefpart", os.path.join(FIX, "p2split.json"), "--seed", "7"],
            ["verify", "trmc", "--family",
             os.path.join(FIX, "p2split.json"),
             "--poly", os.path.join(FIX, "x1x2.json"),
             "--order", "5", "--seed", "9"],
        ):
            outs = []
            for _ in range(2):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    assert cli_main(list(argv)) == 0
                outs.append(buf.getvalue().encode())
            assert outs[0] == outs[1]

    _run(8, 30.0, body)


def test_criterion_9_p3xp3_nef_partition_and_dual():
    def body():
        nef, _ = wps_nef_partition(P3XP3)
        assert (nef.dim, nef.r) == (6, 3)
        assert len(nef.delta.facets) == 23
        assert all(c == 1 for _, c in nef.delta.facets)
        assert [len(b) for b in nef.vertex_partition] == [4, 4, 15]
        dual = dual_nef_partition(nef)
        assert is_reflexive(dual.delta_star)
        assert is_reflexive(dual.nabla_star)

    _run(9, 1.0, body)


def test_criterion_10_p4xp1_mixed_volume_identity():
    def body():
        nef, _ = wps_nef_partition(P4XP1)
        _, fs, rf = draw_regular_coefficients(nef, random.Random(1))
        rep = check_mixed_volume_identity(fs, nef, rf)
        got = {row["k"]: row["residue"] for row in rep["rows"]}
        assert got == {(1, 6): 0, (2, 5): 0, (3, 4): 0, (4, 3): 8,
                       (5, 2): 2, (6, 1): 0}
        assert all(row["equal"] for row in rep["rows"])
        assert rep["sum"] == rep["vol"] == 10

    _run(10, 5.0, body)


def test_criterion_11_product_families_at_order_24():
    def body():
        # the termwise series equals the closed-form fixture to order 24
        for fam in (P3XP3, P4XP1):
            for k in ((3, 0), (2, 1), (1, 2), (0, 3)):
                assert verify_family(fam, 24, k=k)["ok"]

    _run(11, 3.0, body)


def test_criterion_12_fixture_expansions_at_order_60():
    def body():
        # every bundled closed form expands to order 60; expand_rational
        # refuses an expansion that fails its residual check
        fixtures = [(name, k) for name in ("P3xP3", "P4xP1")
                    for k in ((3, 0), (2, 1), (1, 2), (0, 3))]
        for name, k in fixtures + [("wps_diag", (3, 3))]:
            s = expand_rational(yukawa_fixture(name, k), 60)
            assert s.order == 60 and s.coeffs

    _run(12, 1.5, body)


def test_criterion_13_p3xp3_residue_functional():
    def body():
        # the paper-scale functional: 26829 span rows on a top piece of
        # 7876 monomials, regular at the first seeded draw; the first
        # prime's elimination reaches rank 7875 after 8030 of the rows
        nef, _ = wps_nef_partition(P3XP3)
        setup = residue_setup(nef)
        assert (len(setup.top), len(setup.lower)) == (7876, 2981)
        assert setup.vol == 16
        _, _, rf = draw_regular_coefficients(nef, random.Random(1))
        assert rf.regular and len(rf.values) == 7876

    _run(13, 5.0, body)


def test_criterion_14_p3xp3_mixed_volume_identity():
    def body():
        # Conjecture 3.10 at the paper's scale: the mixed volumes are
        # counted from graded pieces, and their sum meets the Cayley volume
        nef, _ = wps_nef_partition(P3XP3)
        residue_setup(nef)
        _, fs, rf = draw_regular_coefficients(nef, random.Random(1))
        rep = check_mixed_volume_identity(fs, nef, rf)
        got = {row["k"]: row["mixed_volume"] for row in rep["rows"]
               if row["mixed_volume"]}
        assert got == {(3, 3, 3): 9, (3, 4, 2): 3, (4, 3, 2): 3,
                       (4, 4, 1): 1}
        assert len(rep["rows"]) == 28
        assert rep["sum"] == rep["vol"] == 16
        assert rep["all_equal"]

    _run(14, 4.0, body)


def test_criterion_15_p3xp3_residue_setup_lists_each_piece_once(
        monkeypatch):
    listed = []
    real = residue.nef_piece_points

    def counting(nef, k, cuts=()):
        if cuts:
            listed.append(k)
        return real(nef, k, cuts)

    monkeypatch.setattr(residue, "nef_piece_points", counting)

    def body():
        # both interior levels at the paper's scale, every piece certified
        # from its cuts: no full piece is listed for the exact check
        nef, _ = wps_nef_partition(P3XP3)
        setup = residue_setup(nef)
        assert (len(setup.top), len(setup.lower)) == (7876, 2981)
        assert setup.vol == 16
        assert listed == []

    _run(15, 1.0, body)


def test_criterion_16_suite_builds_one_parser(monkeypatch):
    built = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.prog == "toricres":  # subparsers are named below it
                built.append(self)

    monkeypatch.setattr(cli, "_Parser", Counting)
    cli.build_parser.cache_clear()

    def body():
        # the shipping manifest, every case run through one parser
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(["suite", "--manifest",
                             os.path.join(FIX, "manifest.json")])
        assert code == 0
        assert out.getvalue().splitlines()[-2] == "SUITE PASS"
        assert len(built) == 1

    try:
        _run(16, 1.0, body)
    finally:
        # later tests build the real parser again
        cli.build_parser.cache_clear()


def test_criterion_17_product_families_at_order_40():
    def body():
        # the termwise series, one factorial table per series and
        # multinomials over each form's support only, meets the
        # closed-form fixtures to order 40
        for fam in (P3XP3, P4XP1):
            for k in ((3, 0), (2, 1), (1, 2), (0, 3)):
                assert verify_family(fam, 40, k=k)["ok"]

    _run(17, 1.0, body)


def test_criterion_19_product_series_plan_at_order_60(monkeypatch):
    listed = []
    real = series.compositions

    def counting(*args):
        listed.append(args)
        return real(*args)

    # series.py lists compositions only inside the linear-form kernel
    monkeypatch.setattr(series, "compositions", counting)

    def body():
        # every column of both families but the last has one nonzero
        # entry, so the kernel takes each coefficient as one forced
        # product times the last column's single term, listing nothing;
        # the series, taken to the fixture's chart y = scale * z, meets
        # the closed-form fixtures to order 60
        for fam, name, scale in ((P3XP3, "P3xP3", 27), (P4XP1, "P4xP1", 1)):
            for k in ((3, 0), (2, 1), (1, 2), (0, 3)):
                got = in_y_chart(product_intersection_series(fam, k, 60),
                                 scale)
                assert got == expand_rational(yukawa_fixture(name, k), 60)
        assert listed == []

    _run(19, 0.6, body)


def test_criterion_20_cicy_2222_residue_functional(monkeypatch):
    # the top piece, 31824 monomials, fits under the default TORIC_MAX_BASIS
    # too; the cap is pinned so the test does not move with the default
    monkeypatch.setenv("TORIC_MAX_BASIS", "40000")

    def body():
        # the largest CICY threefold in P^n, (2,2,2,2) in P^7: 136136 span
        # rows, regular at the first seeded draw
        nef, _ = wps_nef_partition(
            WpsFamily((1,) * 8, ((0, 1), (2, 3), (4, 5), (6, 7))))
        setup = residue_setup(nef)
        assert len(setup.top) == 31824
        _, _, rf = draw_regular_coefficients(nef, random.Random(1))
        assert rf.regular and len(rf.values) == 31824

    _run(20, 6.0, body)


def test_criterion_21_p3xp3_mixed_volumes_off_the_setup(monkeypatch):
    nef, _ = wps_nef_partition(P3XP3)
    residue_setup(nef)
    listed = []
    real = residue.nef_piece_points

    def counting(nef, k, cuts=()):
        listed.append(k)
        return real(nef, k, cuts)

    monkeypatch.setattr(residue, "nef_piece_points", counting)

    def body():
        # criterion 14's mixed volumes, with the counts at |j| = 5 and 6
        # read off the setup's level bases: only pieces up to |j| = 4 are
        # enumerated
        mvs = residue._mixed_volumes(nef)
        assert {a: mv for a, mv in mvs.items() if mv} == {
            (2, 2, 2): 9, (2, 3, 1): 3, (3, 2, 1): 3, (3, 3, 0): 1}
        assert sorted(mvs) == compositions(6, 3)
        assert listed and max(map(sum, listed)) == 4

    _run(21, 0.12, body)


def test_criterion_22_p3xp3_elimination_skips_the_koszul_rows(monkeypatch):
    nef, _ = wps_nef_partition(P3XP3)
    residue_setup(nef)
    consumed = []
    real = linalg._echelon_mod

    def counting(rows, p, *stop):
        def rows_read():
            for row in rows:
                consumed[-1] += 1
                yield row
        consumed.append(0)
        return real(rows_read(), p, *stop)

    monkeypatch.setattr(linalg, "_echelon_mod", counting)

    def body():
        # criterion 13's functional: the span lists the rows that Koszul
        # relations make redundant last, so the first prime reaches rank
        # 7875 after 8030 of the 26829 rows (24953 in natural order)
        _, _, rf = draw_regular_coefficients(nef, random.Random(1))
        assert rf.regular and len(rf.values) == 7876
        assert len(consumed) == 1 and consumed[0] <= 8100

    _run(22, 1.0, body)


def test_criterion_23_series_read_one_layout_per_shape():
    maxsize = series._layout.cache_info().maxsize
    assert type(maxsize) is int and maxsize >= 1
    series._layout.cache_clear()

    def body():
        # criterion 11's product checks (termwise series and rows) all read
        # the exponent layout of shape (2, 24); the eight termwise series at
        # order 40, taken to the chart of the yukawa benchmark's fixtures,
        # read that of (2, 40); the expansions decode their own exponents:
        # two layouts built
        for fam in (P3XP3, P4XP1):
            for k in ((3, 0), (2, 1), (1, 2), (0, 3)):
                assert verify_family(fam, 24, k=k)["ok"]
        for fam, name, scale in ((P3XP3, "P3xP3", 27), (P4XP1, "P4xP1", 1)):
            for k in ((3, 0), (2, 1), (1, 2), (0, 3)):
                got = in_y_chart(product_intersection_series(fam, k, 40),
                                 scale)
                assert got == expand_rational(yukawa_fixture(name, k), 40)
        assert series._layout.cache_info().misses == 2

    _run(23, 0.5, body)


def test_criterion_24_suite_builds_each_partition_once(monkeypatch):
    assert polytope._nef_partition.cache_info().maxsize == 1
    polytope._nef_partition.cache_clear()
    built = []
    real = residue.interior_level_basis

    def counting(nef, level, _cayley=None):
        built.append(level)
        return real(nef, level, _cayley=_cayley)

    monkeypatch.setattr(residue, "interior_level_basis", counting)

    def body():
        # the shipping manifest names two partitions, the pentagon's in six
        # calls and the quintic's in one: each is built once, and the
        # pentagon's three residue cases share one setup of two level bases
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(["suite", "--manifest",
                             os.path.join(FIX, "manifest.json")])
        assert code == 0
        assert out.getvalue().splitlines()[-2] == "SUITE PASS"
        info = polytope._nef_partition.cache_info()
        assert (info.misses, info.hits) == (2, 5)
        assert len(built) == 4

    _run(24, 1.0, body)
