"""Batch command-line front end: JSON in, aligned tables plus JSON out.

Exit codes: 0 success/verified, 2 mathematical mismatch or failed check,
1 usage or input error.  Reports are canonical JSON (sorted keys, fixed
separators), so a rerun with the same inputs and seed is byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from fractions import Fraction

from .jsonio import (
    InputError,
    canonical_json,
    laurent_json,
    load_coeffs_file,
    load_family_file,
    load_laurent,
    load_manifest_file,
    load_nefpart_file,
    load_polytope_file,
    load_polytopes_file,
    load_system_file,
    rat_str,
    series_json,
)
from .laurent import cayley_polynomial, hessian, mixed_hessian
from .linalg import _multidegree
from .mirror import (
    product_intersection_series,
    verify_family,
    wps_closed_form,
    wps_intersection_series,
    yukawa_fixture,
)
from .polytope import (
    NefPartitionError,
    cayley_polytope,
    check_nef_partition,
    dual_nef_partition,
    dual_polytope,
    interior_lattice_points,
    is_reflexive,
    lattice_points,
    mixed_volume,
)
from .residue import (
    check_mixed_volume_identity,
    draw_regular_coefficients,
    mixed_residue,
    residue_functional,
    system_from_coefficients,
)
from .series import expand_rational


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _parse_ints(text, flag):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"{flag} expects comma-separated integers, got "
                         f"{text!r}")


def _table(headers, rows):
    widths = [len(h) for h in headers]
    for row in rows:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return lines


def _polytope_report(poly):
    return {
        "ambient_dim": poly.ambient_dim,
        "affine_dim": poly.affine_dim,
        "vertices": [list(v) for v in poly.vertices],
        "facets": [{"normal": list(n), "offset": c} for n, c in poly.facets],
        "equations": [{"normal": list(u), "value": v}
                      for u, v in poly.equations],
        "normalized_volume": rat_str(poly.normalized_volume()),
        "num_lattice_points": len(lattice_points(poly)),
        "num_interior_points": (len(interior_lattice_points(poly))
                                if poly.is_full_dim else 0),
    }


def _poly_lines(report):
    lines = [f"ambient dim        {report['ambient_dim']}",
             f"affine dim         {report['affine_dim']}",
             f"normalized volume  {report['normalized_volume']}",
             f"lattice points     {report['num_lattice_points']}",
             f"interior points    {report['num_interior_points']}"]
    rows = [(str(f["normal"]), str(f["offset"])) for f in report["facets"]]
    lines += _table(["facet normal", "offset"], rows)
    return lines


def cmd_polytope(args):
    poly = load_polytope_file(args.points)
    report = _polytope_report(poly)
    report["reflexive"] = is_reflexive(poly)
    if args.subcommand == "info":
        report["command"] = "polytope info"
        return report, 0, _poly_lines(report)
    report["command"] = "polytope dual"
    if not report["reflexive"]:
        report["ok"] = False
        return report, 2, ["polytope is not reflexive; no lattice dual"]
    dual = dual_polytope(poly)
    report["dual"] = _polytope_report(dual)
    report["ok"] = True
    return report, 0, _poly_lines(report["dual"])


def _load_nef(path):
    dim, parts = load_nefpart_file(path)
    return check_nef_partition(parts, dim)


def cmd_nefpart(args):
    try:
        nef = _load_nef(args.nefpart)
    except NefPartitionError as e:
        report = {"command": f"nefpart {args.subcommand}", "ok": False,
                  "error": str(e)}
        return report, 2, [f"not a nef partition: {e}"]
    report = {
        "command": f"nefpart {args.subcommand}",
        "ok": True,
        "dim": nef.dim,
        "r": nef.r,
        "parts": [[list(p) for p in part] for part in nef.parts],
        "delta_vertices": [list(v) for v in nef.delta.vertices],
        "volume": rat_str(nef.delta.normalized_volume()),
    }
    lines = [f"dim {nef.dim}, parts {nef.r}, volume "
             f"{report['volume']}"]
    if args.subcommand == "dual":
        dn = dual_nef_partition(nef)
        report["nablas"] = [[list(v) for v in nab.vertices]
                            for nab in dn.nablas]
        report["delta_star_vertices"] = [list(v)
                                         for v in dn.delta_star.vertices]
        report["nabla_star_vertices"] = [list(v)
                                         for v in dn.nabla_star.vertices]
        lines.append(f"dual parts: {len(dn.nablas)}")
    return report, 0, lines


def cmd_cayley(args):
    nef = _load_nef(args.nefpart)
    cay = cayley_polytope(nef.polytopes)
    report = _polytope_report(cay)
    report["command"] = "cayley build"
    report["base_dim"] = nef.dim
    report["r"] = nef.r
    return report, 0, _poly_lines(report)


def cmd_hessian(args):
    dim, fs = load_system_file(args.system)
    F = cayley_polynomial(fs)
    if args.subcommand == "full":
        H = hessian(F)
        report = {"command": "hessian full", "dim": F.dim, "r": len(fs),
                  "hessian": laurent_json(H)}
    else:
        k = _parse_ints(args.k, "--k")
        H = mixed_hessian(fs, k)
        report = {"command": "hessian mixed", "dim": F.dim, "r": len(fs),
                  "k": list(k), "hessian": laurent_json(H)}
    rows = [(str(t["exp"]), t["coef"]) for t in report["hessian"]["terms"]]
    return report, 0, _table(["exponent", "coefficient"], rows)


def cmd_mixedvol(args):
    dim, polys = load_polytopes_file(args.polytopes)
    if len(polys) != dim:
        raise InputError(
            f"{args.polytopes}: need exactly {dim} polytopes, got "
            f"{len(polys)}")
    value = mixed_volume(polys)
    report = {"command": "mixedvol", "dim": dim,
              "mixed_volume": rat_str(value)}
    return report, 0, [f"mixed volume  {report['mixed_volume']}"]


def _system_for(args, nef):
    if args.coeffs is not None:
        coeffs = load_coeffs_file(args.coeffs, len(nef.points))
        fs = system_from_coefficients(nef, coeffs)
        return coeffs, fs, residue_functional(fs, nef)
    rng = random.Random(args.seed)
    return draw_regular_coefficients(nef, rng)


def cmd_residue(args):
    nef = _load_nef(args.nefpart)
    if args.subcommand == "eval":
        # every input is checked before the functional is solved
        h = load_laurent(args.poly, args.poly)
        k = (None if args.k is None
             else _multidegree(_parse_ints(args.k, "--k"), nef.r, "--k"))
    coeffs, fs, rf = _system_for(args, nef)
    base = {"coefficients": [rat_str(c) for c in coeffs]}
    if args.subcommand == "functional":
        report = {"command": "residue functional", "regular": rf.regular,
                  "volume": rat_str(rf.vol),
                  "basis": [list(m) for m in rf.basis.monomials], **base}
        if not rf.regular:
            report["values"] = None
            return report, 2, ["system is not regular"]
        report["values"] = [rat_str(v) for v in rf.values]
        rows = [(str(list(m)), rat_str(v))
                for m, v in zip(rf.basis.monomials, rf.values)]
        return report, 0, _table(["monomial", "value"], rows)
    if args.subcommand == "eval":
        if not rf.regular:
            report = {"command": "residue eval", "regular": False, **base}
            return report, 2, ["system is not regular"]
        value = mixed_residue(rf, h, k)
        report = {"command": "residue eval", "regular": True,
                  "k": None if k is None else list(k),
                  "residue": rat_str(value), **base}
        return report, 0, [f"residue  {report['residue']}"]
    # conjecture310: mixed residues of the mixed hessian components
    # against mixed volumes, plus the volume sum rule
    try:
        result = check_mixed_volume_identity(fs, nef, rf)
    except ValueError as e:
        report = {"command": "residue conjecture310", "ok": False,
                  "error": str(e), **base}
        return report, 2, [str(e)]
    rows = [{"k": list(r["k"]), "residue": rat_str(r["residue"]),
             "mixed_volume": rat_str(r["mixed_volume"]),
             "equal": r["equal"]} for r in result["rows"]]
    ok = result["all_equal"] and result["sum_equals_vol"]
    report = {"command": "residue conjecture310", "rows": rows,
              "sum": rat_str(result["sum"]), "volume": rat_str(result["vol"]),
              "sum_equals_vol": result["sum_equals_vol"],
              "all_equal": result["all_equal"], "ok": ok, **base}
    lines = _table(
        ["k", "residue", "mixed volume", "equal"],
        [(str(r["k"]), r["residue"], r["mixed_volume"], str(r["equal"]))
         for r in rows])
    lines.append(f"sum = {report['sum']}, volume = {report['volume']}, "
                 f"equal = {result['sum_equals_vol']}")
    return report, 0 if ok else 2, lines


def _series_lines(sjson):
    rows = [(str(c["exp"]), c["value"]) for c in sjson["coeffs"]]
    return _table(["exponent", "value"], rows)


def cmd_series(args):
    fam = load_family_file(args.family)
    if args.subcommand == "wps":
        P = load_laurent(args.poly, args.poly)
        series = wps_intersection_series(fam, P, args.order)
        cf = wps_closed_form(fam, P)
        mu = -cf.denominator_factors[0][0][(1,)]
        numer = cf.numerator.get((0,), Fraction(0))
        report = {"command": "series wps", "order": args.order,
                  "weights": list(fam.weights),
                  "series": series_json(series),
                  "closed_form_numerator": rat_str(numer),
                  "closed_form_mu": rat_str(mu)}
    else:
        k = _parse_ints(args.k, "--k")
        series = product_intersection_series(fam, k, args.order)
        report = {"command": "series product", "order": args.order,
                  "dims": list(fam.dims), "k": list(k),
                  "series": series_json(series)}
    return report, 0, _series_lines(report["series"])


def cmd_yukawa(args):
    indices = _parse_ints(args.indices, "--indices")
    spec = yukawa_fixture(args.fixture, indices)
    series = expand_rational(spec, args.order)
    report = {"command": "yukawa", "fixture": args.fixture,
              "indices": list(indices), "order": args.order,
              "series": series_json(series)}
    return report, 0, _series_lines(report["series"])


def cmd_verify(args):
    fam = load_family_file(args.family)
    # verify_family alone chooses its route from the arguments; the seed
    # draws coefficient points only when the flags pick the P route
    P = None if args.poly is None else load_laurent(args.poly, args.poly)
    k = None if args.k is None else _parse_ints(args.k, "--k")
    rng = random.Random(args.seed) if P is not None and k is None else None
    raw = verify_family(fam, args.order, P=P, k=k, rng=rng)
    rows = [{"exponent": list(r["exponent"]), "termwise": rat_str(r["termwise"]),
             "closed_form": rat_str(r["closed_form"]), "equal": r["equal"]}
            for r in raw["rows"]]
    points = [{"a": [rat_str(x) for x in p["a"]], "y": rat_str(p["y"]),
               "closed_form": rat_str(p["closed_form"]),
               "residue": rat_str(p["residue"]), "equal": p["equal"]}
              for p in raw["points"]]
    report = {"command": "verify trmc", "order": args.order, "ok": raw["ok"],
              "mode": raw["mode"], "rows": rows, "points": points,
              "mismatches": [r for r in rows if not r["equal"]]}
    lines = _table(
        ["exponent", "termwise", "closed form", "equal"],
        [(str(r["exponent"]), r["termwise"], r["closed_form"],
          str(r["equal"])) for r in rows])
    if points:
        lines += _table(
            ["point y", "closed form", "residue", "equal"],
            [(p["y"], p["closed_form"], p["residue"], str(p["equal"]))
             for p in points])
    lines.append("VERIFIED" if raw["ok"] else "MISMATCH")
    return report, 0 if raw["ok"] else 2, lines


def cmd_suite(args):
    cases = load_manifest_file(args.manifest)
    base = os.path.dirname(os.path.abspath(args.manifest))
    results = []
    all_pass = True
    for case in cases:
        if case["argv"][:1] == ["suite"]:
            raise InputError(f"case {case['name']!r}: nested suites are "
                             "not allowed")
        argv = [tok if os.path.isabs(tok) or not tok.endswith(".json")
                else os.path.join(base, tok) for tok in case["argv"]]
        _, report, code, _ = _run(argv)
        golden_match = None
        if case["golden"] is not None:
            golden_match = report is not None and canonical_json(
                report) == canonical_json(case["golden"])
        passed = code == case["expect_exit"] and golden_match is not False
        all_pass = all_pass and passed
        results.append({"name": case["name"], "exit": code,
                        "expect_exit": case["expect_exit"],
                        "golden_match": golden_match, "pass": passed})
    report = {"command": "suite", "cases": results, "ok": all_pass}
    rows = [(r["name"], str(r["exit"]), str(r["expect_exit"]),
             {None: "-", True: "yes", False: "NO"}[r["golden_match"]],
             "PASS" if r["pass"] else "FAIL") for r in results]
    lines = _table(["case", "exit", "expected", "golden", "status"], rows)
    lines.append("SUITE PASS" if all_pass else "SUITE FAIL")
    return report, 0 if all_pass else 2, lines


@functools.cache
def build_parser():
    """The command-line parser, built once per process.

    Building it costs a few milliseconds, more than most small commands,
    so `main` and every `suite` case share one.  Reuse is safe: each
    `parse_args` fills a fresh Namespace, and `_Parser.error` raises
    without leaving state behind.  With no arguments the cache holds one
    parser.
    """
    parser = _Parser(prog="toricres", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(parent, name, **flags):
        p = parent.add_parser(name)
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag}", **kwargs)
        p.add_argument("--out", help="write the JSON report to this path")
        return p

    required = {"required": True}
    order = {"type": int, "required": True}
    seed = {"type": int, "default": 0}

    g = sub.add_parser("polytope").add_subparsers(dest="subcommand",
                                                  required=True)
    for name in ("info", "dual"):
        add(g, name, points=required)

    g = sub.add_parser("nefpart").add_subparsers(dest="subcommand",
                                                 required=True)
    for name in ("check", "dual"):
        add(g, name, nefpart=required)

    g = sub.add_parser("cayley").add_subparsers(dest="subcommand",
                                                required=True)
    add(g, "build", nefpart=required)

    g = sub.add_parser("hessian").add_subparsers(dest="subcommand",
                                                 required=True)
    add(g, "full", system=required)
    add(g, "mixed", system=required, k=required)

    add(sub, "mixedvol", polytopes=required)

    g = sub.add_parser("residue").add_subparsers(dest="subcommand",
                                                 required=True)
    add(g, "functional", nefpart=required, coeffs={}, seed=seed)
    add(g, "eval", nefpart=required, coeffs={}, seed=seed, poly=required, k={})
    add(g, "conjecture310", nefpart=required, coeffs={}, seed=seed)

    g = sub.add_parser("series").add_subparsers(dest="subcommand",
                                                required=True)
    add(g, "wps", family=required, poly=required, order=order)
    add(g, "product", family=required, k=required, order=order)

    add(sub, "yukawa", fixture=required, indices=required, order=order)

    g = sub.add_parser("verify").add_subparsers(dest="subcommand",
                                                required=True)
    add(g, "trmc", family=required, poly={}, k={}, order=order, seed=seed)

    add(sub, "suite", manifest=required)
    return parser


_HANDLERS = {
    "polytope": cmd_polytope,
    "nefpart": cmd_nefpart,
    "cayley": cmd_cayley,
    "hessian": cmd_hessian,
    "mixedvol": cmd_mixedvol,
    "residue": cmd_residue,
    "series": cmd_series,
    "yukawa": cmd_yukawa,
    "verify": cmd_verify,
    "suite": cmd_suite,
}


def _run(argv):
    """Parse and run one command: (args, report, exit code, table lines).

    `main` and every `suite` case run their command here, in-process,
    through the one parser that `build_parser` caches.  An input error
    exits 1 and a failed internal check (a require() in the library) exits
    2; either is named on stderr, and args and report are then None.  A
    help request exits 0 after argparse prints the usage.
    """
    try:
        args = build_parser().parse_args(argv)
        report, code, lines = _HANDLERS[args.command](args)
    except SystemExit as e:  # only argparse's help action raises it
        return None, None, e.code or 0, []
    except (InputError, ValueError, TypeError, ZeroDivisionError,
            RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return None, None, 1, []
    except AssertionError as e:
        print(f"check failed: {e}", file=sys.stderr)
        return None, None, 2, []
    return args, report, code, lines


def main(argv=None):
    """Run one command: write --out first, then print the table and the
    report.  A reader that closes stdout early (`| head`) ends the output
    quietly; the exit code stays the command's."""
    args, report, code, lines = _run(argv)
    if report is None:
        return code
    payload = canonical_json(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    try:
        for line in lines:
            print(line)
        print(payload)
        sys.stdout.flush()
    except BrokenPipeError:
        # the flush at exit would fail again: send what is left to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
