"""Command-line behavior: exit codes, reports, determinism, suite runs."""

import json
import os
import subprocess
import sys

import pytest

from toricres import cli, linalg, residue
from toricres.cli import main

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIX, name)


def fresh_env():
    """The environment with the package on PYTHONPATH."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_fresh(*args):
    """Run a fresh interpreter with the given arguments, the package on its
    path."""
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=300, env=fresh_env())


def run_optimized(*args):
    """Run python -O with the given arguments, the package on its path."""
    return run_fresh("-O", *args)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = None
    lines = out.out.rstrip("\n").split("\n") if out.out else []
    if lines and lines[-1].startswith("{"):
        report = json.loads(lines[-1])
    return code, report, out


def test_polytope_info(capsys):
    code, report, out = run(capsys, "polytope", "info",
                            "--points", fx("square.json"))
    assert code == 0
    assert report["normalized_volume"] == "8"
    assert report["reflexive"] is True
    assert len(report["facets"]) == 4
    assert "facet normal" in out.out


def test_polytope_dual(capsys):
    code, report, _ = run(capsys, "polytope", "dual",
                          "--points", fx("square.json"))
    assert code == 0
    assert report["dual"]["normalized_volume"] == "4"
    assert sorted(report["dual"]["vertices"]) == [
        [-1, 0], [0, -1], [0, 1], [1, 0]]


def test_polytope_dual_not_reflexive(tmp_path, capsys):
    p = tmp_path / "p.json"
    p.write_text('{"dim": 2, "points": [[0, 0], [2, 0], [0, 2]]}')
    code, report, _ = run(capsys, "polytope", "dual", "--points", str(p))
    assert code == 2
    assert report["ok"] is False


def test_missing_file_is_usage_error(capsys):
    code, report, out = run(capsys, "polytope", "info",
                            "--points", fx("no_such.json"))
    assert code == 1
    assert report is None
    assert "not found" in out.err


@pytest.mark.parametrize("argv, text", [
    (("polytope", "info", "--points"), '{"dim": true, "points": [[0], [3]]}'),
    (("nefpart", "check", "--nefpart"),
     '{"dim": false, "parts": [[[1, 0]], [[0, 1], [-1, -1]]]}'),
    (("mixedvol", "--polytopes"), '{"dim": true, "polytopes": [[[0], [3]]]}'),
])
def test_boolean_integers_are_rejected(tmp_path, capsys, argv, text):
    # JSON true loads as the Python int 1; it must not pass for dim 1
    p = tmp_path / "b.json"
    p.write_text(text)
    code, report, out = run(capsys, *argv, str(p))
    assert code == 1
    assert report is None
    assert "key 'dim' has the wrong type" in out.err


@pytest.mark.parametrize("argv, text, where", [
    (("nefpart", "check", "--nefpart"), '{"dim": 1, "parts": [5]}',
     "part 0"),
    (("mixedvol", "--polytopes"), '{"dim": 1, "polytopes": [5]}',
     "polytope 0"),
])
def test_point_list_must_be_a_list(tmp_path, capsys, argv, text, where):
    p = tmp_path / "n.json"
    p.write_text(text)
    code, report, out = run(capsys, *argv, str(p))
    assert code == 1
    assert report is None
    assert f"n.json {where}: expected a list of points" in out.err


def test_malformed_json_position(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"dim": 2,\n "points": [[1,]]}')
    code, _, out = run(capsys, "polytope", "info", "--points", str(p))
    assert code == 1
    assert "line 2" in out.err
    assert "column" in out.err


def test_float_rejected(tmp_path, capsys):
    p = tmp_path / "f.json"
    p.write_text('{"coeffs": [0.25, "1/5", "1/7"]}')
    code, _, out = run(capsys, "residue", "functional",
                       "--nefpart", fx("p2split.json"), "--coeffs", str(p))
    assert code == 1
    assert "0.25" in out.err


def test_unknown_command(capsys):
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "polytope", "frobnicate")[0] == 1


def test_bad_k_list(capsys):
    code, _, out = run(capsys, "series", "product",
                       "--family", fx("p3xp3.json"),
                       "--k", "2,x", "--order", "2")
    assert code == 1
    assert "--k" in out.err


def test_nefpart_check(capsys):
    code, report, _ = run(capsys, "nefpart", "check",
                          "--nefpart", fx("p2split.json"))
    assert code == 0
    assert report["ok"] is True
    assert report["volume"] == "5"
    assert report["r"] == 2


def test_nefpart_check_rejects(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"dim": 2, "parts": [[[2, 0]], [[0, 1], [-1, -1]]]}')
    code, report, _ = run(capsys, "nefpart", "check", "--nefpart", str(p))
    assert code == 2
    assert report["ok"] is False
    assert "error" in report


def test_nefpart_dual(capsys):
    code, report, _ = run(capsys, "nefpart", "dual",
                          "--nefpart", fx("p2split.json"))
    assert code == 0
    assert len(report["nablas"]) == 2
    assert report["delta_star_vertices"]


def test_cayley_build(capsys):
    code, report, _ = run(capsys, "cayley", "build",
                          "--nefpart", fx("p2split.json"))
    assert code == 0
    assert report["ambient_dim"] == 4
    assert report["affine_dim"] == 3
    assert report["normalized_volume"] == "3"


def test_hessian_full_and_mixed(capsys):
    code, full, _ = run(capsys, "hessian", "full",
                        "--system", fx("pentagon_system.json"))
    assert code == 0
    code, mixed, _ = run(capsys, "hessian", "mixed",
                         "--system", fx("pentagon_system.json"),
                         "--k", "2,2")
    assert code == 0
    full_terms = {tuple(t["exp"]): t["coef"]
                  for t in full["hessian"]["terms"]}
    for t in mixed["hessian"]["terms"]:
        assert t["exp"][-2:] == [2, 2]
        assert full_terms[tuple(t["exp"])] == t["coef"]


def test_mixedvol(capsys):
    code, report, _ = run(capsys, "mixedvol",
                          "--polytopes", fx("segtri.json"))
    assert code == 0
    assert report["mixed_volume"] == "2"


def test_mixedvol_count_mismatch(tmp_path, capsys):
    p = tmp_path / "m.json"
    p.write_text('{"dim": 2, "polytopes": [[[0, 0], [1, 0]]]}')
    assert run(capsys, "mixedvol", "--polytopes", str(p))[0] == 1


def test_residue_functional_explicit(capsys):
    code, report, _ = run(capsys, "residue", "functional",
                          "--nefpart", fx("p2split.json"),
                          "--coeffs", fx("a.json"))
    assert code == 0
    assert report["regular"] is True
    assert report["volume"] == "3"
    assert len(report["basis"]) == len(report["values"]) == 15
    assert report["coefficients"] == ["1/3", "1/5", "1/7"]


def test_residue_functional_seeded(capsys):
    code, report, _ = run(capsys, "residue", "functional",
                          "--nefpart", fx("p2split.json"), "--seed", "5")
    assert code == 0
    assert report["regular"] is True


def test_residue_eval(tmp_path, capsys):
    h = tmp_path / "h.json"
    h.write_text('{"dim": 4, "terms": [{"exp": [0, 0, 1, 3], "coef": 1}]}')
    code, report, _ = run(capsys, "residue", "eval",
                          "--nefpart", fx("p2split.json"),
                          "--coeffs", fx("a.json"),
                          "--poly", str(h), "--k", "1,3")
    assert code == 0
    assert report["residue"] == "420/101"
    code2, report2, _ = run(capsys, "residue", "eval",
                            "--nefpart", fx("p2split.json"),
                            "--coeffs", fx("a.json"), "--poly", str(h))
    assert code2 == 0
    assert report2["residue"] == "420/101"


def test_residue_eval_needs_poly(capsys):
    assert run(capsys, "residue", "eval",
               "--nefpart", fx("p2split.json"))[0] == 1


def test_residue_eval_checks_inputs_before_solving(tmp_path, capsys,
                                                   monkeypatch):
    # a missing --poly, a malformed --k, one without an entry per part or
    # one with a negative entry exits 1 before any functional is solved, on
    # the seeded and on the explicit route alike
    calls = []

    def counting(module):
        real = module.residue_functional

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(module, "residue_functional", counted)

    counting(residue)
    counting(cli)
    h = tmp_path / "h.json"
    h.write_text('{"dim": 4, "terms": [{"exp": [0, 0, 1, 3], "coef": 1}]}')
    for point in ((), ("--coeffs", fx("a.json"))):
        for argv in ((), ("--poly", str(h), "--k", "a"),
                     ("--poly", str(h), "--k", "3"),
                     ("--poly", str(h), "--k", "1,1,3"),
                     ("--poly", str(h), "--k", "2,-1")):
            code, report, out = run(capsys, "residue", "eval",
                                    "--nefpart", fx("p2split.json"),
                                    *point, *argv)
            assert code == 1 and report is None
            assert out.err.startswith("error: ")
    assert calls == []
    # the same inputs with a valid --k do reach the solve
    code, report, _ = run(capsys, "residue", "eval",
                          "--nefpart", fx("p2split.json"),
                          "--coeffs", fx("a.json"),
                          "--poly", str(h), "--k", "1,3")
    assert code == 0 and report["residue"] == "420/101"
    assert len(calls) == 1


def test_conjecture310_explicit_point(capsys):
    code, report, out = run(capsys, "residue", "conjecture310",
                            "--nefpart", fx("p2split.json"),
                            "--coeffs", fx("a.json"))
    assert code == 0
    assert report["ok"] is True
    assert report["sum"] == report["volume"] == "3"
    rows = {tuple(r["k"]): r for r in report["rows"]}
    assert rows[(1, 3)]["residue"] == "1"
    assert rows[(2, 2)]["residue"] == "2"
    assert rows[(3, 1)]["residue"] == "0"
    assert all(r["equal"] for r in report["rows"])
    assert len(report["rows"]) == 3
    assert "sum = 3" in out.out


def test_conjecture310_seeded_and_deterministic(capsys):
    code1, r1, out1 = run(capsys, "residue", "conjecture310",
                          "--nefpart", fx("p2split.json"), "--seed", "3")
    code2, r2, out2 = run(capsys, "residue", "conjecture310",
                          "--nefpart", fx("p2split.json"), "--seed", "3")
    assert code1 == code2 == 0
    assert out1.out == out2.out
    assert r1 == r2
    assert r1["ok"] is True


def test_series_wps(capsys):
    code, report, _ = run(capsys, "series", "wps",
                          "--family", fx("quintic.json"),
                          "--poly", fx("quintic_poly.json"),
                          "--order", "2")
    assert code == 0
    vals = {tuple(c["exp"]): c["value"]
            for c in report["series"]["coeffs"]}
    assert vals[(0,)] == "1"
    assert vals[(1,)] == "3125"
    assert vals[(2,)] == str(3125 ** 2)
    assert report["closed_form_mu"] == "3125"


def test_series_wps_requires_wps_family(capsys):
    assert run(capsys, "series", "wps", "--family", fx("p3xp3.json"),
               "--poly", fx("quintic_poly.json"), "--order", "2")[0] == 1


QUINTIC_MATRIX = '{"dims": [4], "matrix": [[5]]}'
P2SPLIT_WEIGHTS = '{"weights": [1, 1, 1], "parts": [[0], [1, 2]]}'


@pytest.mark.parametrize("named, text, argv", [
    ("quintic.json", QUINTIC_MATRIX,
     ("series", "wps", "--poly", fx("quintic_poly.json"), "--order", "3")),
    ("quintic.json", QUINTIC_MATRIX,
     ("series", "product", "--k", "3", "--order", "3")),
    ("quintic.json", QUINTIC_MATRIX,
     ("verify", "trmc", "--poly", fx("quintic_poly.json"), "--order", "3")),
    ("p2split.json", P2SPLIT_WEIGHTS,
     ("verify", "trmc", "--poly", fx("x1x2.json"), "--order", "8")),
], ids=["series-wps", "series-product", "verify-quintic", "verify-p2split"])
def test_one_family_in_any_spelling_gives_one_output(tmp_path, capsys, named,
                                                     text, argv):
    other = tmp_path / "family.json"
    other.write_text(text)
    code, _, out = run(capsys, *argv, "--family", fx(named))
    code2, _, out2 = run(capsys, *argv, "--family", str(other))
    assert code == code2 == 0
    assert out.out == out2.out and out.err == out2.err == ""


@pytest.mark.parametrize("argv, message", [
    (("verify", "trmc", "--family", fx("quintic.json"), "--k", "3",
      "--order", "2"), "no bundled closed form matches this family"),
    (("series", "wps", "--family", fx("p3xp3.json"),
      "--poly", fx("quintic_poly.json"), "--order", "2"),
     "P goes with a one-factor family, not 2 factors"),
])
def test_a_refusal_names_only_flags_given(capsys, argv, message):
    code, report, out = run(capsys, *argv)
    assert code == 1 and report is None
    assert out.err == f"error: {message}\n"


def test_verify_trmc_refuses_a_fake_weighted_family_file(tmp_path, capsys):
    # P^2/Z_3 (volume 9) would pass as P^2 and print the rows of the
    # cubic, whose volume is 3; nefpart check still accepts the partition
    fam = tmp_path / "fam.json"
    fam.write_text('{"dim": 2, "parts": [[[2, -1], [-1, -1], [-1, 2]]]}')
    code, report, out = run(capsys, "verify", "trmc", "--family", str(fam),
                            "--poly", fx("x1x2.json"), "--order", "3")
    assert code == 1 and report is None
    assert "sublattice of index 3" in out.err
    assert run(capsys, "nefpart", "check", "--nefpart", str(fam))[0] == 0


def test_series_product(capsys):
    code, report, _ = run(capsys, "series", "product",
                          "--family", fx("p3xp3.json"),
                          "--k", "2,1", "--order", "2")
    assert code == 0
    vals = {tuple(c["exp"]): c["value"]
            for c in report["series"]["coeffs"]}
    # in z; the bundled closed form's chart y = 27z would read 9, 18, 9
    assert vals[(0, 0)] == "9"
    assert vals[(1, 0)] == str(18 * 27)
    assert vals[(0, 1)] == str(9 * 27)


def test_series_negative_order(capsys):
    assert run(capsys, "series", "product", "--family", fx("p3xp3.json"),
               "--k", "2,1", "--order", "-1")[0] == 1


def test_verify_trmc_invariant_under_lattice_isomorphism(tmp_path, capsys):
    # the README's claim: presentations of a nef partition related by a
    # lattice isomorphism give the same residues, hence the same report
    with open(fx("p2split.json")) as fh:
        nef = json.load(fh)
    argv = ["verify", "trmc", "--poly", fx("x1x2.json"), "--order", "8"]
    code, _, base = run(capsys, *argv, "--family", fx("p2split.json"))
    assert code == 0
    for u in ([[1, 0], [1, 1]], [[0, 1], [1, 0]], [[1, 2], [0, 1]]):
        parts = [[[sum(a * x for a, x in zip(row, p)) for row in u]
                  for p in part] for part in nef["parts"]]
        path = tmp_path / "image.json"
        path.write_text(json.dumps({"dim": 2, "parts": parts}))
        code, _, out = run(capsys, *argv, "--family", str(path))
        assert code == 0
        assert out.out == base.out


def test_yukawa(capsys):
    code, report, _ = run(capsys, "yukawa", "--fixture", "P4xP1",
                          "--indices", "3,0", "--order", "1")
    assert code == 0
    vals = {tuple(c["exp"]): c["value"]
            for c in report["series"]["coeffs"]}
    assert vals[(0, 0)] == "8"
    assert vals[(1, 0)] == "4096"


def test_yukawa_unknown_fixture(capsys):
    assert run(capsys, "yukawa", "--fixture", "P2xP2",
               "--indices", "2,0", "--order", "1")[0] == 1


def test_verify_trmc_wps(capsys):
    code, report, out = run(capsys, "verify", "trmc",
                            "--family", fx("p2split.json"),
                            "--poly", fx("x1x2.json"), "--order", "8")
    assert code == 0
    assert report["ok"] is True
    assert report["mode"] == "wps"
    assert len(report["rows"]) == 9
    assert len(report["points"]) == 2
    assert all(p["equal"] for p in report["points"])
    assert "VERIFIED" in out.out


def test_each_point_solves_its_functional_once(capsys, monkeypatch):
    # the seeded draws below are regular at the first attempt, so every
    # solve belongs to a point that is then checked
    calls = []
    solve = residue._solve_functional

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(residue, "_solve_functional", counted)
    code, report, _ = run(capsys, "verify", "trmc",
                          "--family", fx("p2split.json"),
                          "--poly", fx("x1x2.json"), "--order", "4")
    assert code == 0 and len(report["points"]) == 2
    assert len(calls) == 2
    for argv in (("--coeffs", fx("a.json")), ("--seed", "3")):
        calls.clear()
        code, report, _ = run(capsys, "residue", "conjecture310",
                              "--nefpart", fx("p2split.json"), *argv)
        assert code == 0 and report["ok"]
        assert len(calls) == 1


def test_exhausted_primes_exit_2(capsys, monkeypatch):
    # one prime far too small to reconstruct the functional, and no other
    monkeypatch.setattr(linalg, "_PRIMES", (101,))
    code, report, out = run(capsys, "residue", "functional",
                            "--nefpart", fx("p2split.json"),
                            "--coeffs", fx("a.json"))
    assert code == 2 and report is None and out.out == ""
    assert out.err == ("check failed: solve_functional: lam has no "
                       "rational reconstruction\n")


def test_verify_trmc_product(capsys):
    code, report, _ = run(capsys, "verify", "trmc",
                          "--family", fx("p4xp1.json"),
                          "--k", "3,0", "--order", "4")
    assert code == 0
    assert report["mode"] == "product"
    assert report["mismatches"] == []


@pytest.mark.parametrize("k", ["3,0", "2,1", "1,2", "0,3"])
def test_verify_trmc_plain_p3xp3_file(tmp_path, capsys, k):
    # the family file holds dims and matrix only; the series is in z
    fam = tmp_path / "fam.json"
    fam.write_text('{"dims": [3, 3], "matrix": [[3, 0, 1], [0, 3, 1]]}')
    code, report, _ = run(capsys, "verify", "trmc", "--family", str(fam),
                          "--k", k, "--order", "6")
    assert code == 0
    assert report["mode"] == "product" and report["mismatches"] == []


def test_product_family_file_refuses_a_chart_scale(tmp_path, capsys):
    # an old file with the removed scale key would otherwise rescale the
    # series by 27^|beta| without a word
    fam = tmp_path / "fam.json"
    fam.write_text('{"dims": [3, 3], "matrix": [[3, 0, 1], [0, 3, 1]], '
                   '"y_scales": [27, 27]}')
    for argv in (("verify", "trmc"), ("series", "product")):
        code, report, out = run(capsys, *argv, "--family", str(fam),
                                "--k", "2,1", "--order", "2")
        assert code == 1 and report is None
        assert "unknown key 'y_scales'" in out.err


def test_weighted_family_file_refuses_an_unknown_key(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    fam.write_text('{"weights": [1, 1, 1, 1, 1], "parts": [[0, 1, 2, 3, 4]], '
                   '"scale": 5}')
    code, report, out = run(capsys, "series", "wps", "--family", str(fam),
                            "--poly", fx("quintic_poly.json"), "--order", "2")
    assert code == 1 and report is None
    assert "unknown key 'scale'" in out.err


def test_verify_trmc_flag_requirements(capsys):
    assert run(capsys, "verify", "trmc", "--family", fx("p2split.json"),
               "--order", "4")[0] == 1
    assert run(capsys, "verify", "trmc", "--family", fx("p3xp3.json"),
               "--order", "4")[0] == 1


@pytest.mark.parametrize("argv, stray", [
    (("--family", fx("p4xp1.json"), "--k", "3,0",
      "--poly", fx("x1x2.json")), "P: weighted-family arguments"),
    (("--family", fx("quintic.json"), "--poly", fx("quintic_poly.json"),
      "--k", "9,9"), "k belongs to product families"),
])
def test_verify_trmc_refuses_the_other_kinds_flag(capsys, argv, stray):
    code, report, out = run(capsys, "verify", "trmc", *argv, "--order", "2")
    assert code == 1
    assert report is None
    assert f"error: {stray}" in out.err


@pytest.mark.parametrize("command, fields", [
    ("functional", {"regular": False, "values": None}),
    ("eval", {"regular": False}),
    ("conjecture310", {"ok": False, "error": "system is not regular"}),
])
def test_residue_non_regular_point_exits_2(tmp_path, capsys, command,
                                           fields):
    coeffs = tmp_path / "c.json"
    coeffs.write_text('{"coeffs": [1, "1/2", "1/2"]}')
    extra = ("--poly", fx("x1x2.json")) if command == "eval" else ()
    code, report, _ = run(capsys, "residue", command,
                          "--nefpart", fx("p2split.json"),
                          "--coeffs", str(coeffs), *extra)
    assert code == 2
    assert report["coefficients"] == ["1", "1/2", "1/2"]
    assert {key: report[key] for key in fields} == fields


def test_out_writes_canonical_report(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, report, out = run(capsys, "mixedvol",
                            "--polytopes", fx("segtri.json"),
                            "--out", str(dest))
    assert code == 0
    text = dest.read_text()
    assert text.endswith("\n")
    assert text.rstrip("\n") == out.out.rstrip("\n").split("\n")[-1]
    assert json.loads(text) == report


def test_out_is_written_when_the_reader_stops_after_one_line(tmp_path):
    # `toricres ... --out F | head -1`: F is written before stdout, and the
    # reader closing the pipe ends the output with no traceback, exit 0
    argv = ["-m", "toricres.cli", "series", "wps",
            "--family", fx("quintic.json"), "--poly", fx("quintic_poly.json"),
            "--order", "300"]
    dest = tmp_path / "report.json"
    proc = subprocess.Popen([sys.executable, *argv, "--out", str(dest)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=fresh_env())
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 0
    assert err == b""
    whole = run_fresh(*argv)
    # more than a pipe buffer, so the writer met the closed pipe
    assert len(whole.stdout) > 1 << 17
    assert first.decode() == whole.stdout.splitlines(keepends=True)[0]
    assert dest.read_text() == whole.stdout.splitlines()[-1] + "\n"


def test_closed_stdout_keeps_the_exit_code(tmp_path):
    # stdout closed before the command prints: a non-regular point still
    # exits 2, quietly
    coeffs = tmp_path / "c.json"
    coeffs.write_text('{"coeffs": [1, "1/2", "1/2"]}')
    read, write = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-m", "toricres.cli", "residue", "functional",
         "--nefpart", fx("p2split.json"), "--coeffs", str(coeffs)],
        stdout=write, stderr=subprocess.PIPE, env=fresh_env())
    os.close(read)
    os.close(write)
    err = proc.communicate(timeout=300)[1]
    assert proc.returncode == 2
    assert err == b""


def test_byte_determinism_same_seed(capsys):
    argv = ("verify", "trmc", "--family", fx("p2split.json"),
            "--poly", fx("x1x2.json"), "--order", "5", "--seed", "9")
    _, _, out1 = run(capsys, *argv)
    _, _, out2 = run(capsys, *argv)
    assert out1.out.encode() == out2.out.encode()


def test_reused_parser_forgets_the_last_seed(capsys):
    # one process, one parser: a command without --seed draws at seed 0
    # whatever the command before it passed
    argv = ("residue", "functional", "--nefpart", fx("p2split.json"))
    _, seeded, _ = run(capsys, *argv, "--seed", "3")
    _, report, out = run(capsys, *argv)
    assert seeded["coefficients"] != report["coefficients"]
    proc = run_fresh("-m", "toricres.cli", *argv)
    assert proc.returncode == 0
    assert out.out.encode() == proc.stdout.encode()


def test_parse_errors_leave_golden_cases_intact(tmp_path, capsys):
    # every shipping golden case, each run right after a case that the
    # shared parser refuses
    refused = [["nefpart", "check", "--nefpart", fx("p2split.json"),
                "--bogus"],
               ["verify", "trmc", "--family", fx("p2split.json"),
                "--poly", fx("x1x2.json"), "--order", "x"]]
    cases = []
    shipping = json.load(open(fx("manifest.json")))["cases"]
    for i, case in enumerate(c for c in shipping if "golden" in c):
        cases.append({"name": f"refused-{i}", "argv": refused[i % 2],
                      "expect_exit": 1})
        case["argv"] = [fx(t) if t.endswith(".json") else t
                        for t in case["argv"]]
        cases.append(case)
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"cases": cases}))
    code, report, out = run(capsys, "suite", "--manifest", str(p))
    assert code == 0 and report["ok"]
    assert [c["golden_match"] for c in report["cases"]] == [None, True] * 9
    assert "unrecognized arguments: --bogus" in out.err
    assert "invalid int value: 'x'" in out.err


def test_help_after_suite_matches_fresh_interpreter(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["suite", "--manifest", fx("manifest.json")]) == 0
    capsys.readouterr()
    assert main(["verify", "trmc", "-h"]) == 0
    text = capsys.readouterr().out
    proc = run_fresh("-m", "toricres.cli", "verify", "trmc", "-h")
    assert proc.returncode == 0
    assert text.startswith("usage: toricres verify trmc")
    assert text == proc.stdout


def test_suite_shipping_manifest(capsys):
    code, report, out = run(capsys, "suite",
                            "--manifest", fx("manifest.json"))
    assert code == 0
    assert report["ok"] is True
    assert all(c["pass"] for c in report["cases"])
    assert "SUITE PASS" in out.out
    # every check still runs under python -O, with the same stdout
    proc = run_optimized("-m", "toricres.cli", "suite",
                         "--manifest", fx("manifest.json"))
    assert proc.returncode == 0
    assert proc.stdout == out.out


def test_suite_twice_in_one_process_prints_the_same(capsys):
    # the second run meets partitions and residue setups the first kept
    outs = []
    for _ in range(2):
        assert main(["suite", "--manifest", fx("manifest.json")]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_suite_empty_manifest(tmp_path, capsys):
    p = tmp_path / "m.json"
    p.write_text('{"cases": []}')
    code, report, _ = run(capsys, "suite", "--manifest", str(p))
    assert code == 0
    assert report["cases"] == []


def test_suite_perturbed_golden_fails(tmp_path, capsys):
    manifest = json.load(open(fx("manifest.json")))
    case = next(c for c in manifest["cases"]
                if c["name"] == "pentagon-conjecture310")
    case["golden"]["sum"] = "4"
    for c in manifest["cases"]:
        for i, tok in enumerate(c["argv"]):
            if tok.endswith(".json"):
                c["argv"][i] = fx(tok)
    p = tmp_path / "m.json"
    p.write_text(json.dumps(manifest))
    code, report, out = run(capsys, "suite", "--manifest", str(p))
    assert code == 2
    bad = next(c for c in report["cases"]
               if c["name"] == "pentagon-conjecture310")
    assert bad["golden_match"] is False
    assert bad["pass"] is False
    assert "SUITE FAIL" in out.out


def test_help_case_does_not_end_the_suite(tmp_path, capsys):
    # argparse's help action exits; the suite records exit 0 and goes on
    cases = [
        {"name": "help", "argv": ["polytope", "info", "-h"]},
        {"name": "missing", "expect_exit": 0,
         "argv": ["polytope", "info", "--points", "missing_file.json"]},
    ]
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"cases": cases}))
    code, report, out = run(capsys, "suite", "--manifest", str(p))
    assert code == 2
    assert [(c["name"], c["exit"], c["pass"]) for c in report["cases"]] == [
        ("help", 0, True), ("missing", 1, False)]
    assert "SUITE FAIL" in out.out
    assert main(["-h"]) == 0
    assert "usage: toricres" in capsys.readouterr().out


def test_suite_records_erroring_case(tmp_path, capsys):
    # a case that raises gets the exit code main gives it, and the suite
    # goes on to the next case
    cases = [
        {"name": "missing", "expect_exit": 1,
         "argv": ["polytope", "info", "--points", "missing_file.json"]},
        {"name": "negative-order", "expect_exit": 1,
         "argv": ["series", "product", "--family", fx("p4xp1.json"),
                  "--k", "3,0", "--order", "-1"]},
        {"name": "check", "argv": ["nefpart", "check",
                                   "--nefpart", fx("p2split.json")]},
    ]
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"cases": cases}))
    code, report, out = run(capsys, "suite", "--manifest", str(p))
    assert code == 0
    assert [(c["name"], c["exit"], c["golden_match"], c["pass"])
            for c in report["cases"]] == [
        ("missing", 1, None, True), ("negative-order", 1, None, True),
        ("check", 0, None, True)]
    assert "not found" in out.err
    assert "order must be >= 0" in out.err
    # an erroring case never matches its golden
    cases[1]["golden"] = {}
    p.write_text(json.dumps({"cases": cases}))
    code, report, out = run(capsys, "suite", "--manifest", str(p))
    assert code == 2
    assert report["cases"][1]["golden_match"] is False
    assert report["cases"][1]["pass"] is False
    assert [c["pass"] for c in report["cases"]] == [True, False, True]


def test_suite_rejects_nested_suite(tmp_path, capsys):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"cases": [
        {"name": "loop", "argv": ["suite", "--manifest", str(p)]}]}))
    assert run(capsys, "suite", "--manifest", str(p))[0] == 1


def test_expected_failure_case_passes(tmp_path, capsys):
    bad = tmp_path / "bad_nef.json"
    bad.write_text('{"dim": 2, "parts": [[[2, 0]], [[0, 1], [-1, -1]]]}')
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"cases": [
        {"name": "expected-reject",
         "argv": ["nefpart", "check", "--nefpart", str(bad)],
         "expect_exit": 2}]}))
    code, report, _ = run(capsys, "suite", "--manifest", str(p))
    assert code == 0
    assert report["cases"][0]["pass"] is True


# Shifts every facet offset of the Cayley cone that residue_functional
# builds, so interior_basis's cone check fails; the bare assert proves the
# interpreter runs with asserts stripped.
BROKEN_CONE = """
import sys
from types import SimpleNamespace
from toricres import cli, residue
assert False
real = residue.cayley_polytope


def broken(parts):
    cay = real(parts)
    fake = {s: getattr(cay, s) for s in cay.__slots__}
    fake["facets"] = [(n, c - 1) for n, c in cay.facets]
    return SimpleNamespace(**fake)


residue.cayley_polytope = broken
sys.exit(cli.main(sys.argv[1:]))
"""


def test_failed_check_exits_2_under_optimize(tmp_path):
    argv = ["residue", "functional", "--nefpart", fx("p2split.json"),
            "--coeffs", fx("a.json")]
    proc = run_optimized("-c", BROKEN_CONE, *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(
        "check failed: interior piece at multidegree (")
    assert proc.stderr.count("\n") == 1
    assert "the strict points of the full piece differ" in proc.stderr
    # inside a suite the broken case is recorded and the next one runs
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"cases": [
        {"name": "broken", "argv": argv},
        {"name": "check", "argv": ["nefpart", "check",
                                   "--nefpart", fx("p2split.json")]}]}))
    proc = run_optimized("-c", BROKEN_CONE, "suite", "--manifest", str(p))
    assert proc.returncode == 2
    report = json.loads(proc.stdout.splitlines()[-1])
    assert [(c["name"], c["exit"], c["pass"]) for c in report["cases"]] == [
        ("broken", 2, False), ("check", 0, True)]
    assert "check failed: interior piece at multidegree" in proc.stderr


# Adds 1 to the Cayley triangulation's (1, 1) total on the residue setup,
# so the identity's counted mixed volume no longer matches it.
SKEWED_TYPED_VOLUME = """
import sys
from toricres import cli, residue
assert False
real = residue.residue_setup


def skewed(nef):
    setup = real(nef)
    typed = dict(setup.typed)
    typed[(1, 1)] += 1
    return setup._replace(typed=typed)


residue.residue_setup = skewed
sys.exit(cli.main(sys.argv[1:]))
"""


def test_counted_mixed_volume_checked_against_triangulation():
    proc = run_optimized("-c", SKEWED_TYPED_VOLUME, "residue", "conjecture310",
                         "--nefpart", fx("p2split.json"),
                         "--coeffs", fx("a.json"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "check failed: mixed volume of the parts taken (1, 1) times: "
        "piece counts give 2, the Cayley triangulation 3\n")
