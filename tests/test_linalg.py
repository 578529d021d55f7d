import ast
import glob
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from reference import cofactor_nullvector, nullspace, rank, solve_linear
from toricres import linalg, residue
from toricres.linalg import (
    NOT_UNIQUE,
    NotUnique,
    det_int,
    dot,
    integer_kernel_basis,
    primitive,
    quotient_by_vector,
    solve_functional,
)
from toricres.mirror import WpsFamily, wps_nef_partition
from toricres.polytope import LatticePolytope, halfspace_intersection_vertices


def cofactor_det(m):
    # independent oracle: Laplace expansion along the first row
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(n):
        minor = [[m[i][k] for k in range(n) if k != j] for i in range(1, n)]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(m[0][j]) * cofactor_det(minor)
    return total


def test_det_identity_and_small():
    eye3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert det_int(eye3) == 1
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[2]]) == 2
    assert det_int([]) == 1
    with pytest.raises(ValueError):
        det_int([[1, 2]])


def test_det_matches_cofactor_oracle_on_random_matrices():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_int(m) == cofactor_det(m)


def test_det_int_matches_and_handles_zero_pivots():
    m = [[0, 2, 1], [1, 0, 0], [3, 1, 0]]
    assert det_int(m) == cofactor_det(m)
    singular = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert det_int(singular) == 0


def test_det_multilinearity_and_alternating():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 4)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        c = rng.randint(-6, 6)
        scaled = [row[:] for row in rows]
        scaled[0] = [c * x for x in scaled[0]]
        assert det_int(scaled) == c * det_int(rows)
        swapped = [row[:] for row in rows]
        swapped[0], swapped[1] = swapped[1], swapped[0]
        assert det_int(swapped) == -det_int(rows)
        dup = [row[:] for row in rows]
        dup[1] = dup[0][:]
        assert det_int(dup) == 0


def test_det_multiplicative():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(2, 4)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
              for i in range(n)]
        assert det_int(ab) == det_int(a) * det_int(b)


def test_rank_and_nullspace():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    ns = nullspace([[1, 1, 1]], 3)
    assert len(ns) == 2
    for v in ns:
        assert sum(v) == 0
    assert nullspace([], 2) == [(Fraction(1), Fraction(0)),
                                (Fraction(0), Fraction(1))]


def test_solve_linear():
    assert solve_linear([[2, 0], [0, 3]], [4, 9]) == (2, 3)
    assert solve_linear([[1, 1], [2, 2]], [1, 3]) is None  # inconsistent
    assert solve_linear([[1, 1], [2, 2]], [1, 2]) is None  # underdetermined


def test_solve_functional_unique():
    lam = solve_functional([(1, 0, 0), (0, 1, 0)], (0, 0, 2), 2)
    assert lam == (0, 0, 1)


def test_solve_functional_not_unique_is_a_value():
    out = solve_functional([(1, 1, 0)], (0, 0, 1), 1)
    assert out is NOT_UNIQUE
    assert isinstance(out, NotUnique)
    assert repr(out) == "NotUnique"


def test_solve_functional_unreachable_normalization():
    # annihilator is a line but orthogonal to the target
    out = solve_functional([(1, 0), (0, 0)], (1, 0), 5)
    assert out is NOT_UNIQUE


def gauss_jordan(rows, ncols):
    # reference: dense reduced row echelon form over Fraction
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def dense_rank_and_kernel(rows, ncols):
    red, pivots = gauss_jordan(rows, ncols)
    return len(pivots), kernel_from_rref(red, pivots, ncols)


def kernel_from_rref(red, pivots, ncols):
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


def dense_solve_linear(matrix, rhs):
    ncols = len(matrix[0])
    red, pivots = gauss_jordan([list(r) + [b] for r, b in zip(matrix, rhs)],
                               ncols + 1)
    if pivots != list(range(ncols)):
        return None
    return tuple(red[r][ncols] for r in range(ncols))


def dense_solve_functional(ann, target, normalization):
    if len(ann) != 1:
        return NOT_UNIQUE
    t = sum(a * b for a, b in zip(ann[0], target))
    if t == 0 or normalization == 0:
        return NOT_UNIQUE
    return tuple(Fraction(normalization) / t * x for x in ann[0])


def corank_one_span(rng, n, extra):
    # n-1 independent rows killing a random w with w[n-1] = 1, mixed by a
    # unit-triangular (so invertible) matrix, then padded with dependent,
    # zero and duplicate rows and given random row and column orders
    w = [Fraction(rng.randint(-4, 4), rng.randint(1, 4))
         for _ in range(n - 1)]
    base = [[int(i == j) for j in range(n - 1)] + [-w[i]]
            for i in range(n - 1)]
    rows = []
    for i in range(n - 1):
        mix = [rng.choice([0, 0, 1, -2, 3]) for _ in range(i)] + [1]
        rows.append([sum(c * base[j][col] for j, c in enumerate(mix))
                     for col in range(n)])
    for _ in range(extra):
        pick = rng.sample(rows, min(2, len(rows)))
        rows.append([sum(col) for col in zip(*pick)])
    rows += [[0] * n, list(rows[0])]
    rng.shuffle(rows)
    perm = list(range(n))
    rng.shuffle(perm)
    return [[r[perm[j]] for j in range(n)] for r in rows]


def sparse(row):
    return {j: x for j, x in enumerate(row) if x}


def test_eliminator_matches_dense_gauss_jordan():
    rng = random.Random(23)
    cases = []
    for n in [2, 3, 4, 5, 8, 13, 21, 40]:
        cases.append((corank_one_span(rng, n, rng.randint(0, n // 2)), n - 1))
        density = rng.choice([0.15, 0.5, 1.0])
        m = rng.randint(1, n + 3)
        cases.append(([[rng.randint(-5, 5) if rng.random() < density else 0
                        for _ in range(n)] for _ in range(m)], None))
    solved = 0
    for rows, built_rank in cases:
        n = len(rows[0])
        dense_rank, ann = dense_rank_and_kernel(rows, n)
        assert built_rank in (None, dense_rank)
        assert rank(rows) == dense_rank
        assert nullspace(rows, n) == ann
        assert nullspace([sparse(r) for r in rows], n) == ann
        square = rows[:n]
        rhs = [rng.randint(-5, 5) for _ in square]
        if len(square) == n:
            assert solve_linear(square, rhs) == dense_solve_linear(square, rhs)
        target = tuple(rng.randint(-3, 3) for _ in range(n))
        want = dense_solve_functional(ann, target, 7)
        assert solve_functional(rows, target, 7) == want
        assert solve_functional([sparse(r) for r in rows], target, 7) == want
        solved += want is not NOT_UNIQUE
    assert solved >= 8


def rational_rows(rng, rows):
    # each row scaled by its own fraction: the same span, with denominators
    scales = [Fraction(rng.choice([-3, 1, 2, 5]), rng.randint(1, 7))
              for _ in rows]
    return [[c * x for x in r] for c, r in zip(scales, rows)]


def test_modular_solve_matches_fraction_oracle():
    # unique functionals and the three non-regular verdicts, each compared
    # with the Fraction route: an annihilator of dimension 2, a line that
    # pairs to 0 with the target, and normalization 0
    rng = random.Random(41)
    solved = 0
    for n in [3, 4, 5, 8, 13, 21, 34]:
        for kind in ["unique", "plane", "pairs_to_0", "norm_0"]:
            size = n - 1 if kind == "plane" else n
            rows = corank_one_span(rng, size, rng.randint(0, size // 2))
            if kind == "plane":
                rows = [r + [0] for r in rows]
            rows = rational_rows(rng, rows)
            target = [Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                      for _ in range(n)]
            _, ann = dense_rank_and_kernel(rows, n)
            if kind == "pairs_to_0":
                free = ann[0].index(1)
                target[free] -= dot(ann[0], target)
            norm = 0 if kind == "norm_0" else Fraction(rng.randint(1, 9),
                                                       rng.randint(1, 9))
            want = dense_solve_functional(ann, target, norm)
            assert solve_functional(rows, target, norm) == want
            assert solve_functional([sparse(r) for r in rows], target,
                                    norm) == want
            solved += want is not NOT_UNIQUE
    assert solved >= 6


def test_unlucky_first_prime_moves_on(monkeypatch):
    # q divides a pivot: a pivot column scaled by q vanishes mod q, and the
    # row (q, 1, 0) pivots at column 1 mod q; either way the rank or the
    # pivot columns mod q differ from those over Q
    q = 2**61 - 1
    calls = []
    real = linalg._echelon_mod

    def spy(rows, p, *stop):
        pivots = real(rows, p, *stop)
        calls.append((p, sorted(pivots)))
        return pivots

    monkeypatch.setattr(linalg, "_echelon_mod", spy)
    monkeypatch.setattr(linalg, "_PRIMES", (q,) + linalg._PRIMES)
    rng = random.Random(43)
    cases = [([[q, 1, 0], [0, 0, 1]], [0, 1, 0])]
    for n in [3, 5, 8, 13]:
        rows = corank_one_span(rng, n, 2)
        col = rng.choice(gauss_jordan(rows, n)[1])
        rows = [[x * q if j == col else x for j, x in enumerate(r)]
                for r in rows]
        cases.append((rows, [rng.randint(-3, 3) for _ in range(n)]))
    for rows, target in cases:
        n = len(target)
        calls.clear()
        _, ann = dense_rank_and_kernel(rows, n)
        _, pivots = gauss_jordan(rows, n)
        want = dense_solve_functional(ann, target, 7)
        assert solve_functional(rows, target, 7) == want
        assert calls[0][0] == q and calls[0][1] != pivots
        assert [c[1] for c in calls[1:]] == [pivots] * (len(calls) - 1)


def test_small_prime_wrong_lam_fails_the_exact_check(monkeypatch):
    # lam = (1, -c) with c = 5q + 3: modulo q it reconstructs as the small
    # integers (1, -3), which the exact check rejects
    q = 2**31 - 1
    c = 5 * q + 3
    proposed = []
    real, big = linalg._reconstruct, linalg._PRIMES[0]

    def spy(residues, m):
        got = real(residues, m)
        proposed.append(got)
        return got

    monkeypatch.setattr(linalg, "_reconstruct", spy)
    monkeypatch.setattr(linalg, "_PRIMES", (q,))
    with pytest.raises(AssertionError, match=r"^solve_functional: lam \. "
                       r"span != 0$"):
        solve_functional([(c, 1)], (1, 0), 1)
    assert proposed == [([1, -3], 1)]
    # with a second prime the residues combine by CRT into the right lam
    proposed.clear()
    monkeypatch.setattr(linalg, "_PRIMES", (q, big))
    assert solve_functional([(c, 1)], (1, 0), 1) == (1, -c)
    assert proposed == [([1, -3], 1), ([1, -c], 1)]


def test_rank_lifted_after_the_stop_resumes_to_not_unique(monkeypatch):
    # the leading rows reach rank n - 1; a row past the stop lifts the rank
    # to n, so the proposed kernel vector fails the exact check and the
    # resumed elimination proves the annihilator is 0
    checked = []
    real = linalg._certify

    def spy(rows, *args):
        got = real(rows, *args)
        checked.append(got)
        return got

    monkeypatch.setattr(linalg, "_certify", spy)
    rng = random.Random(47)
    for n in [2, 3, 5, 8, 13]:
        rows = corank_one_span(rng, n, rng.randint(0, n // 2))
        _, ann = dense_rank_and_kernel(rows, n)
        lift = [0] * n
        lift[ann[0].index(1)] = rng.choice([-2, 1, 3])
        rows.append(lift)
        rows += [list(r) for r in rows[:2]]
        target = tuple(rng.randint(-3, 3) for _ in range(n))
        rank, ann = dense_rank_and_kernel(rows, n)
        assert (rank, ann) == (n, [])
        checked.clear()
        assert solve_functional(rows, target, 7) is NOT_UNIQUE
        assert dense_solve_functional(ann, target, 7) is NOT_UNIQUE
        assert len(checked) == 1 and checked[0][0] is None


def test_solve_functional_with_zero_and_one_column():
    # n = 0: the annihilator is 0, never a line; n = 1: the early stop
    # proposes (1) before any row, and a nonzero row resumes to rank 1
    cases = [([], ()), ([()], ()), ([{}, ()], ()),
             ([], (3,)), ([(0,), {}], (3,)), ([{0: 0}], (-2,)),
             ([(0,), (5,)], (3,)), ([{0: Fraction(1, 2)}], (3,)),
             ([(0,)], (0,))]
    for rows, target in cases:
        n = len(target)
        _, ann = dense_rank_and_kernel([list(r) if not isinstance(r, dict)
                                        else [r.get(0, 0)] * n
                                        for r in rows], n)
        for norm in (1, Fraction(-5, 3)):
            want = dense_solve_functional(ann, target, norm)
            assert solve_functional(rows, target, norm) == want
    assert solve_functional([(0,), {}], (3,), 1) == (Fraction(1, 3),)
    assert solve_functional([(0,), (5,)], (3,), 1) is NOT_UNIQUE


def test_dict_rows_outside_the_fast_path_keep_their_errors():
    # in-range int dicts are taken as they are; any other row is checked
    # as before, the first bad row deciding the error
    with pytest.raises(TypeError):
        solve_functional([{0: 1}, {0: True}], (1, 0), 1)
    with pytest.raises(TypeError):
        solve_functional([{1: 0.5}, {9: 1}], (1, 0), 1)
    with pytest.raises(ValueError):
        solve_functional([{9: 0.5}, {1: 0.5}], (1, 0), 1)
    assert solve_functional([{1: Fraction(1, 2)}, {1: 3}], (1, 0), 2) == (
        2, 0)


def test_lazy_reduction_skips_a_zero_residue():
    # a candidate is reduced only when popped: p itself, and the grown
    # entry 1 + p - 1 = p, both vanish mod p and never become pivots
    p = linalg._PRIMES[0]
    assert linalg._echelon_mod([{0: p, 1: 2 * p + 3}], p) == {1: {}}
    assert linalg._echelon_mod([{0: 1, 1: 1}, {0: 1, 1: 1 + p}], p) == {
        0: {1: 1}}


def test_quintic_elimination_stops_before_its_last_span_row(monkeypatch):
    # the first prime stops at rank n - 1 = 125 without reducing a row to
    # zero: the span lists the Koszul-redundant rows last, and the first
    # 125 rows are independent; its functional is the one a full
    # elimination certifies
    nef, _ = wps_nef_partition(WpsFamily((1,) * 5, ((0, 1, 2, 3, 4),)))
    _, fs, rf = residue.draw_regular_coefficients(nef, random.Random(1))
    real = linalg._echelon_mod
    consumed = []

    def counting(rows, p, *stop):
        def rows_read():
            for row in rows:
                consumed[-1][0] += 1
                yield row
        consumed.append([0, len(rows)])
        return real(rows_read(), p, *stop)

    def full(rows, p, rank=None, settle=None):
        # no early stop: eliminate every row, then propose at rank n - 1
        pivots = real(rows, p)
        if len(pivots) == rank:
            settle(pivots)
        return pivots

    monkeypatch.setattr(linalg, "_echelon_mod", counting)
    stopped = residue.residue_functional(fs, nef)
    assert len(consumed) == 1
    used, total = consumed[0]
    assert total == 280 and used == 125
    monkeypatch.setattr(linalg, "_echelon_mod", full)
    whole = residue.residue_functional(fs, nef)
    assert stopped.regular and whole.regular and len(stopped.values) == 126
    assert stopped.values == whole.values == rf.values


def test_solve_linear_full_rank_against_dense():
    rng = random.Random(29)
    for n in range(1, 12):
        lower = [[int(i == j) if j >= i else rng.randint(-3, 3)
                  for j in range(n)] for i in range(n)]
        upper = [[rng.randint(1, 4) if i == j else
                  (rng.randint(-3, 3) if j > i else 0)
                  for j in range(n)] for i in range(n)]
        m = [[sum(lower[i][k] * upper[k][j] for k in range(n))
              for j in range(n)] for i in range(n)]
        rhs = [rng.randint(-9, 9) for _ in range(n)]
        x = solve_linear(m, rhs)
        assert x is not None and x == dense_solve_linear(m, rhs)
        assert [dot(row, x) for row in m] == rhs


def test_solve_functional_sparse_rows_and_edge_cases():
    # zero rows, duplicate rows and mixed dict/dense rows
    span = [{0: 1, 1: 1}, (0, 0, 0), {1: 1, 2: 1}, {0: 1, 1: 1}]
    assert solve_functional(span, (0, 0, 1), 3) == (3, -3, 3)
    # rank-deficient span: a plane of functionals, not a line
    assert solve_functional([{0: 1}, (2, 0, 0)], (0, 1, 1), 1) is NOT_UNIQUE
    assert solve_functional([], (1,), 2) == (2,)
    assert solve_functional([], (), 1) is NOT_UNIQUE
    with pytest.raises(ValueError):
        solve_functional([{3: 1}], (1, 0, 0), 1)
    with pytest.raises(ValueError):
        solve_functional([{-1: 1}], (1, 0, 0), 1)


# Stubs the rational reconstruction to return a vector that does not
# annihilate the span, at every prime; the bare assert proves the
# interpreter runs with asserts stripped.
WRONG_KERNEL = """
from toricres import linalg
assert False
linalg._reconstruct = lambda residues, m: (
    [int(j == 0) for j in range(len(residues))], 1)
linalg.solve_functional([(1, 1, 0), (0, 1, 1)], (0, 0, 1), 1)
"""


def test_solve_functional_postcondition_survives_optimize():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", WRONG_KERNEL],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode != 0
    assert "AssertionError: solve_functional: lam . span != 0" in proc.stderr


def test_library_has_no_assert_statement():
    # python -O strips assert statements; library checks use require()
    pattern = os.path.join(os.path.dirname(__file__), "..", "src",
                           "toricres", "*.py")
    paths = sorted(glob.glob(pattern))
    assert paths
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not lines, f"{path}: assert statements at lines {lines}"


def test_library_has_no_float():
    # the README's claim: arithmetic is exact, with no floats anywhere
    pattern = os.path.join(os.path.dirname(__file__), "..", "src",
                           "toricres", "*.py")
    paths = sorted(glob.glob(pattern))
    assert paths
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        lines = [n.lineno for n in ast.walk(tree)
                 if isinstance(n, ast.Constant) and isinstance(n.value, float)
                 or isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                 and n.func.id == "float"]
        assert not lines, f"{path}: float literal or call at lines {lines}"


def test_argument_checks_live_in_linalg_alone():
    # a truncation order and a multidegree each have one check, _order and
    # _multidegree; their messages anywhere else would mean a second copy
    pattern = os.path.join(os.path.dirname(__file__), "..", "src",
                           "toricres", "*.py")
    paths = sorted(glob.glob(pattern))
    assert paths
    for phrase in ("order must be >= 0", "must have nonnegative entries"):
        found = []
        for path in paths:
            with open(path) as fh:
                if phrase in fh.read():
                    found.append(os.path.basename(path))
        assert found == ["linalg.py"], (phrase, found)


def test_library_has_no_module_level_mutable_container():
    # a module-level dict, list or set outlives every call: a global cache
    # by another name.  __all__ and the cli dispatch table are fixed data.
    allowed = {("__init__.py", "__all__"), ("cli.py", "_HANDLERS")}
    displays = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                ast.SetComp)
    pattern = os.path.join(os.path.dirname(__file__), "..", "src",
                           "toricres", "*.py")
    paths = sorted(glob.glob(pattern))
    assert paths
    found = []
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            value = node.value
            mutable = isinstance(value, displays) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("dict", "list", "set"))
            base = os.path.basename(path)
            if mutable and not all(isinstance(t, ast.Name)
                                   and (base, t.id) in allowed
                                   for t in targets):
                found.append(f"{base}:{node.lineno}")
    assert not found, f"module-level mutable containers at {found}"


def test_library_parses_as_python_310():
    # the README and ROADMAP promise Python >= 3.10
    pattern = os.path.join(os.path.dirname(__file__), "..", "src",
                           "toricres", "*.py")
    paths = sorted(glob.glob(pattern))
    assert paths
    for path in paths:
        with open(path) as fh:
            ast.parse(fh.read(), path, feature_version=(3, 10))


def _python310():
    """The python3.10 on PATH if it starts and is 3.10, else None; a
    version-manager shim with no 3.10 behind it counts as absent."""
    exe = shutil.which("python3.10")
    if exe is None:
        return None
    proc = subprocess.run(
        [exe, "-c", "import sys; print(sys.version_info[:2] == (3, 10))"],
        capture_output=True, text=True, timeout=120)
    return exe if proc.stdout.strip() == "True" else None


def test_manifest_suite_passes_under_python_310():
    exe = _python310()
    if exe is None:
        pytest.skip("no python3.10 on PATH")
    root = os.path.join(os.path.dirname(__file__), "..")
    proc = subprocess.run(
        [exe, "-B", "-m", "toricres.cli", "suite", "--manifest",
         os.path.join(root, "fixtures", "manifest.json")],
        capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")))
    assert proc.returncode == 0, proc.stderr
    assert "SUITE PASS" in proc.stdout


def test_solve_functional_shape_mismatch():
    with pytest.raises(ValueError):
        solve_functional([(1, 0)], (1, 0, 0), 1)


def test_primitive():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((0, 5)) == (0, 1)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_cofactor_nullvector():
    v = cofactor_nullvector([[1, 0, 0], [0, 1, 0]], 3)
    assert v is not None
    assert dot(v, (1, 0, 0)) == 0 and dot(v, (0, 1, 0)) == 0
    assert cofactor_nullvector([[1, 2, 3], [2, 4, 6]], 3) is None
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n - 1)]
        v = cofactor_nullvector(rows, n)
        if v is not None:
            assert any(x != 0 for x in v)
            for row in rows:
                assert dot(v, row) == 0


def test_integer_kernel_basis_is_saturated():
    # kernel of (2 4) in Z^2 is generated by (2,-1), not (4,-2)
    basis = integer_kernel_basis([[2, 4]], 2)
    assert len(basis) == 1
    assert primitive(basis[0]) == basis[0]
    rng = random.Random(37)
    for _ in range(20):
        m, n = rng.randint(1, 3), rng.randint(2, 5)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        basis = integer_kernel_basis(rows, n)
        assert len(basis) == n - rank(rows)
        for b in basis:
            for row in rows:
                assert dot(row, b) == 0
        if basis:
            assert rank(basis) == len(basis)
    with pytest.raises(ValueError, match="ragged"):
        integer_kernel_basis([[1, 2], [1]], 2)


def test_quotient_by_vector():
    import math
    from itertools import combinations

    # (0, 0, -1) reduces to -1 in the last slot, which is flipped to 1
    for w in [(1, 1, 1), (1, 1, 1, 1, 1), (1, 1, 2), (2, 3, 10, 15), (1,),
              (0, 0, -1)]:
        if len(w) == 1:
            assert quotient_by_vector(w) == []
            continue
        rows = quotient_by_vector(w)
        assert len(rows) == len(w) - 1
        for r in rows:
            assert dot(r, w) == 0
        assert rank(rows) == len(w) - 1
        # surjectivity onto Z^(n-1): gcd of the maximal minors is 1
        minors = [det_int([[row[c] for c in cset] for row in rows])
                  for cset in combinations(range(len(w)), len(w) - 1)]
        assert math.gcd(*(abs(x) for x in minors)) == 1

    with pytest.raises(ValueError):
        quotient_by_vector((2, 4))


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: halfspace_intersection_vertices(
        [((1.5,), -1), ((-1,), -1)], 1), "normal entry", id="halfspace-normal"),
    pytest.param(lambda: halfspace_intersection_vertices(
        [((1,), -0.1), ((-1,), -1)], 1), "offset", id="halfspace-offset"),
    pytest.param(lambda: integer_kernel_basis([[1.5, 1]], 2),
                 "kernel row entry", id="kernel-row"),
    pytest.param(lambda: quotient_by_vector((1.0, 2.0, 3.0)), "vector entry",
                 id="quotient-vector"),
    pytest.param(lambda: LatticePolytope([(0, 0), (2, 0), (0, 2)]).contains(
        (0.5, 0.5)), "point entry", id="polytope-contains"),
    pytest.param(lambda: LatticePolytope([(0, 0), (2, 0), (0, 2)])
                 .strictly_contains((0.5, 0.5)), "point entry",
                 id="polytope-strictly-contains"),
])
def test_lattice_api_refuses_floats(call, name):
    # a float was truncated or converted to a binary fraction before
    with pytest.raises(TypeError, match=name):
        call()


def test_public_api_names_resolve():
    # a routine moved out of the library must leave __all__ with it
    import toricres

    names = toricres.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(toricres, n)] == []
    namespace = {}
    exec("from toricres import *", namespace)
    assert set(names) <= set(namespace)
