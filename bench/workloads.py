"""The benchmark's four workloads.

A workload is a list of ops, each one command's worth of library work
followed by the check of its output.  `setup` runs in the child
interpreter: it imports toricres and reads or generates the inputs, and
that whole span is what `setup_s` measures.  Ops reach the library through
module attributes (`residue.check_mixed_volume_identity`, never a name
bound at import) so that the traced run's wrappers see every call.

This module imports only the standard library at load time, so the parent
process can list workloads and op names without importing toricres.
"""

import hashlib
import io
import json
import os
import random
from collections import namedtuple
from contextlib import redirect_stdout
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "fixtures")


class CheckFailed(Exception):
    """An op's output differs from what the benchmark expects."""


def require(cond, what):
    # not an assert: the checks must also hold if someone runs under -O
    if not cond:
        raise CheckFailed(what)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------- suite

def _manifest_suite(seed, counters):
    from toricres import cli, jsonio

    path = os.path.join(FIXTURES, "manifest.json")
    cases = jsonio.load_manifest_file(path)
    goldens = sum(case["golden"] is not None for case in cases)

    def suite():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["suite", "--manifest", path])
        out = buf.getvalue()
        require(code == 0, f"suite exited {code}")
        report = json.loads(out.splitlines()[-1])
        results = report["cases"]
        require(report["ok"], "suite reports a failing case")
        require(len(results) == len(cases), "suite skipped cases")
        require(all(r["pass"] for r in results), "a case failed")
        matched = sum(r["golden_match"] is True for r in results)
        require(matched == goldens,
                f"{matched} of {goldens} golden reports match byte for byte")
        return out

    return [("suite", suite)]


# ---------------------------------------------------------------- ladder

# (op name, weights and parts of the weighted family or None for the
# bundled pentagon, normalized Cayley volume).  Top interior pieces grow
# from 10 to 210 monomials, so a solver change shows rung by rung.
RUNGS = (
    ("pentagon", None, 3),
    ("cubic", ((1, 1, 1), ((0, 1, 2),)), 3),
    ("quartic", ((1, 1, 1, 1), ((0, 1, 2, 3),)), 4),
    ("p3_22", ((1, 1, 1, 1), ((0, 1), (2, 3))), 4),
    ("quintic", ((1, 1, 1, 1, 1), ((0, 1, 2, 3, 4),)), 5),
    ("sextic", ((1, 1, 1, 1, 2), ((0, 1, 2, 3, 4),)), 6),
    ("p4_23", ((1, 1, 1, 1, 1), ((0, 1), (2, 3, 4))), 5),
)

# Draws per rung before the op counts as failed; non-regular draws are
# retries, as in the library's own draw_regular_coefficients.
MAX_DRAWS = 50


def _residue_ladder(seed, counters):
    from toricres import jsonio, laurent, mirror, polytope, residue

    rng = random.Random(seed)
    counters["draw_attempts"] = 0
    counters["regular_draws"] = 0
    ops = []
    for name, spec, vol in RUNGS:
        if spec is None:
            _, parts = jsonio.load_nefpart_file(
                os.path.join(FIXTURES, "p2split.json"))
            nef = polytope.check_nef_partition(parts)
        else:
            nef, _ = mirror.wps_nef_partition(mirror.WpsFamily(*spec))
        draws = [[Fraction(rng.randint(1, 9), rng.randint(1, 9))
                  for _ in nef.points] for _ in range(MAX_DRAWS)]
        ncomp = len(laurent.positive_compositions(nef.dim + nef.r, nef.r))
        ops.append((name, _rung(residue, nef, draws, vol, ncomp, counters)))
    return ops


def _rung(residue, nef, draws, vol, ncomp, counters):
    def op():
        for coeffs in draws:
            counters["draw_attempts"] += 1
            fs = residue.system_from_coefficients(nef, coeffs)
            try:
                report = residue.check_mixed_volume_identity(fs, nef)
            except ValueError as e:
                if str(e) != "system is not regular":
                    raise
                continue
            counters["regular_draws"] += 1
            require(report["all_equal"],
                    "a mixed residue differs from its mixed volume")
            require(report["sum_equals_vol"],
                    "mixed residues do not sum to the Cayley volume")
            require(report["vol"] == vol, f"Cayley volume {report['vol']}")
            require(len(report["rows"]) == ncomp, "missing multidegrees")
            return ";".join(f"{row['k']}:{row['residue']}"
                            for row in report["rows"])
        raise CheckFailed(f"no regular draw in {len(draws)}")
    return op


# ---------------------------------------------------------------- graded

# dim-5 partition of P4 x P1 type, as in the polytope tests
P4XP1_PARTS = (
    ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0)),
    ((-1, -1, -1, -1, 0), (0, 0, 0, 0, 1), (0, 0, 0, 0, -1)),
)

# (op name, partition, level, size, digest of the monomials), recorded
# from the reference implementation
LEVELS = (
    ("p4xp1_l6", "p4xp1", 6, 450, "087388bd2fc15d43"),
    ("p4xp1_l7", "p4xp1", 7, 1121, "200ee843e84fcc52"),
    ("p4_23_l5", "p4_23", 5, 84, "e9fe964b5b1cd592"),
    ("p4_23_l6", "p4_23", 6, 210, "acf86ff9cf19a0ac"),
)
DUAL_DIGEST = "851b44cde23f6198"


def _graded_pieces(seed, counters):
    from toricres import mirror, polytope, residue

    nefs = {
        "p4xp1": polytope.check_nef_partition(P4XP1_PARTS),
        "p4_23": mirror.wps_nef_partition(
            mirror.WpsFamily((1, 1, 1, 1, 1), ((0, 1), (2, 3, 4))))[0],
    }
    ops = [(name, _level(residue, nefs[key], level, size, want))
           for name, key, level, size, want in LEVELS]

    def dual():
        d = polytope.dual_nef_partition(nefs["p4xp1"])
        out = repr([sorted(n.vertices) for n in d.nablas]
                   + [sorted(d.delta_star.vertices),
                      sorted(d.nabla_star.vertices)])
        require(digest(out) == DUAL_DIGEST, "dual nef partition changed")
        return out

    ops.append(("p4xp1_dual", dual))
    return ops


def _level(residue, nef, level, size, want):
    def op():
        basis = residue.interior_level_basis(nef, level)
        require(len(basis) == size, f"basis size {len(basis)}, not {size}")
        out = repr(basis.monomials)
        require(digest(out) == want, "basis monomials changed")
        return out
    return op


# ---------------------------------------------------------------- series

TRMC_ORDER = 24
QUINTIC_ORDER = 400
YUKAWA_ORDER = 40
KS = ((3, 0), (2, 1), (1, 2), (0, 3))
# (fixture, indices, digest of the expanded series), recorded from the
# reference implementation
YUKAWA = (
    ("P3xP3", (3, 0), "99ccba4631e3806f"),
    ("P3xP3", (2, 1), "060b1bde5261eac5"),
    ("P3xP3", (1, 2), "123bba20251c14c9"),
    ("P3xP3", (0, 3), "ee58235e08a2829f"),
    ("P4xP1", (3, 0), "45ffcd24d4bdd3a0"),
    ("P4xP1", (2, 1), "533b4ca82fbc37c2"),
    ("P4xP1", (1, 2), "093a7c8615ff6a54"),
    ("P4xP1", (0, 3), "8e55f3585166ee7c"),
    ("wps_diag", (3, 3), "e780b07adb0244db"),
)


def _k(k):
    return "".join(map(str, k))


def _series_text(s):
    return ";".join(f"{e}:{c}" for e, c in sorted(s.coeffs.items()))


def _series_products(seed, counters):
    from toricres import laurent, mirror, series

    ops = []
    for fam_name, fam in (("p3xp3", mirror.P3XP3), ("p4xp1", mirror.P4XP1)):
        for k in KS:
            ops.append((f"trmc_{fam_name}_k{_k(k)}", _trmc(mirror, fam, k)))
    quintic = mirror.WpsFamily((1, 1, 1, 1, 1), ((0, 1, 2, 3, 4),))
    poly = laurent.LaurentPolynomial(5, {(0, 1, 1, 1, 1): 1})

    def quintic_op():
        termwise = mirror.wps_intersection_series(quintic, poly,
                                                  QUINTIC_ORDER)
        closed = series.expand_rational(
            mirror.wps_closed_form(quintic, poly), QUINTIC_ORDER)
        require(termwise == closed, "quintic termwise != closed form")
        return _series_text(closed)

    ops.append((f"quintic_o{QUINTIC_ORDER}", quintic_op))
    for name, k, want in YUKAWA:
        ops.append((f"yukawa_{name.lower()}_{_k(k)}",
                    _yukawa(mirror, series, name, k, want)))
    return ops


def _trmc(mirror, fam, k):
    def op():
        report = mirror.verify_family(fam, TRMC_ORDER, k=k)
        require(report["ok"], f"{len(report['mismatches'])} mismatches")
        return repr([(r["exponent"], r["termwise"]) for r in report["rows"]])
    return op


def _yukawa(mirror, series, name, k, want):
    def op():
        out = _series_text(series.expand_rational(
            mirror.yukawa_fixture(name, k), YUKAWA_ORDER))
        require(digest(out) == want, "expanded series changed")
        return out
    return op


# ---------------------------------------------------------------- table

# setup(seed, counters) -> [(op name, op)]; ops: the op names in order;
# why: the reason for the workload and the layers it stresses or bypasses
Workload = namedtuple("Workload", "setup ops why")


WORKLOADS = {
    "manifest_suite": Workload(
        _manifest_suite, ("suite",),
        "What a user runs: the 18-case manifest through `toricres suite`, "
        "goldens byte for byte. Stresses linalg rref/solve_functional "
        "(verify trmc draws), cli and jsonio. Seed unused."),
    "residue_ladder": Workload(
        _residue_ladder, tuple(r[0] for r in RUNGS),
        "Seeded regular systems on 7 nef partitions, top pieces 10 to 210: "
        "residue functional plus mixed volumes. Stresses the linalg solve; "
        "hull and bases are a smaller share."),
    "graded_pieces": Workload(
        _graded_pieces, tuple(lv[0] for lv in LEVELS) + ("p4xp1_dual",),
        "Interior graded pieces of P4xP1 (450, 1121) and (2,3) in P4, plus "
        "a dual nef partition. Stresses polytope hulls and lattice points; "
        "bypasses the solver. Seed unused."),
    "series_products": Workload(
        _series_products,
        tuple(f"trmc_{f}_k{_k(k)}" for f in ("p3xp3", "p4xp1") for k in KS)
        + (f"quintic_o{QUINTIC_ORDER}",)
        + tuple(f"yukawa_{n.lower()}_{_k(k)}" for n, k, _ in YUKAWA),
        "Product-family series, quintic closed form and yukawa expansions. "
        "Stresses series and mirror; runs no polytope or linalg code, the "
        "control for solver and basis changes. Seed unused."),
}
