"""JSON input parsing and canonical report serialization.

All numbers travel as exact integers or rational strings "p/q"; float
literals are rejected at parse time.  Reports are serialized canonically
(sorted keys, fixed separators) so identical runs produce identical bytes.
A family file spells the one family kind in one of three ways;
`load_family_file` returns the Family alone, so callers route by what the
family is and by their own arguments, never by the spelling.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import accumulate

from .laurent import LaurentPolynomial
from .linalg import det_int, integer_kernel_basis
from .mirror import ProductFamily, WpsFamily
from .polytope import LatticePolytope, check_nef_partition
from .series import TruncatedSeries


class InputError(Exception):
    """A problem with usage or input files (exit code 1)."""


def rat_str(x):
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(value, where):
    if isinstance(value, bool):
        raise InputError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"{where}: bad rational literal {value!r}")
    raise InputError(f"{where}: expected an integer or 'p/q' string")


def _reject_float(text):
    raise InputError(
        f"floating point literal {text!r} is not accepted; "
        "write an integer or a 'p/q' string")


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh, parse_float=_reject_float,
                             parse_constant=_reject_float)
    except InputError as e:
        raise InputError(f"{path}: {e}")
    except FileNotFoundError:
        raise InputError(f"input file not found: {path}")
    except IsADirectoryError:
        raise InputError(f"input path is a directory: {path}")
    except json.JSONDecodeError as e:
        raise InputError(
            f"{path}: invalid JSON at line {e.lineno} column {e.colno}: "
            f"{e.msg}")


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _need(data, key, path, kind=None):
    if not isinstance(data, dict) or key not in data:
        raise InputError(f"{path}: missing required key {key!r}")
    value = data[key]
    # a JSON boolean loads as a Python int, but never stands for one here
    if kind is not None and (isinstance(value, bool)
                             or not isinstance(value, kind)):
        raise InputError(f"{path}: key {key!r} has the wrong type")
    return value


def _int_tuple(values, where):
    if not isinstance(values, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in values):
        raise InputError(f"{where}: expected a list of integers, got "
                         f"{values!r}")
    return tuple(values)


def _point_list(values, dim, where):
    if not isinstance(values, list):
        raise InputError(f"{where}: expected a list of points, got "
                         f"{values!r}")
    points = []
    for p in values:
        pt = _int_tuple(p, where)
        if len(pt) != dim:
            raise InputError(
                f"{where}: point {list(pt)} does not have {dim} coordinates")
        points.append(pt)
    if not points:
        raise InputError(f"{where}: empty point list")
    return points


def load_polytope_file(path):
    data = load_json(path)
    dim = _need(data, "dim", path, int)
    points = _point_list(_need(data, "points", path, list), dim, path)
    return LatticePolytope(points)


def load_polytopes_file(path):
    """(dim, hulls) of a file listing one point list per polytope."""
    data = load_json(path)
    dim = _need(data, "dim", path, int)
    return dim, [LatticePolytope(_point_list(pts, dim, f"{path} polytope {i}"))
                 for i, pts in enumerate(_need(data, "polytopes", path, list))]


def load_nefpart_file(path):
    """Parts of a proposed decomposition, unvalidated points per summand."""
    return _nefpart(load_json(path), path)


def _nefpart(data, path):
    dim = _need(data, "dim", path, int)
    raw = _need(data, "parts", path, list)
    if not raw:
        raise InputError(f"{path}: empty parts list")
    return dim, [_point_list(part, dim, f"{path} part {i}")
                 for i, part in enumerate(raw)]


def load_laurent(data, where):
    if isinstance(data, str):
        where = data
        data = load_json(data)
    dim = _need(data, "dim", where, int)
    terms = {}
    for i, t in enumerate(_need(data, "terms", where, list)):
        exp = _int_tuple(_need(t, "exp", f"{where} term {i}"),
                         f"{where} term {i}")
        if len(exp) != dim:
            raise InputError(f"{where} term {i}: exponent length != {dim}")
        if exp in terms:
            raise InputError(f"{where} term {i}: repeated exponent {list(exp)}")
        terms[exp] = parse_rational(_need(t, "coef", f"{where} term {i}"),
                                    f"{where} term {i}")
    return LaurentPolynomial(dim, terms)


def laurent_json(poly):
    return {"dim": poly.dim,
            "terms": [{"exp": list(e), "coef": rat_str(c)}
                      for e, c in sorted(poly.terms.items())]}


def load_system_file(path):
    data = load_json(path)
    dim = _need(data, "dim", path, int)
    polys = _need(data, "polys", path, list)
    if not polys:
        raise InputError(f"{path}: empty system")
    out = []
    for i, p in enumerate(polys):
        f = load_laurent(p, f"{path} poly {i}")
        if f.dim != dim:
            raise InputError(f"{path} poly {i}: dimension != {dim}")
        out.append(f)
    return dim, out


def load_coeffs_file(path, count=None):
    data = load_json(path)
    raw = _need(data, "coeffs", path, list)
    coeffs = [parse_rational(v, f"{path} coeff {i}")
              for i, v in enumerate(raw)]
    if count is not None and len(coeffs) != count:
        raise InputError(
            f"{path}: expected {count} coefficients, got {len(coeffs)}")
    return coeffs


def series_json(series):
    if not isinstance(series, TruncatedSeries):
        raise TypeError("expected a TruncatedSeries")
    return {"vars": series.nvars, "order": series.order,
            "coeffs": [{"exp": list(e), "value": rat_str(c)}
                       for e, c in series.items()]}


def weights_from_points(points, where):
    """The unique positive primitive relation among fan points.

    points: n lattice points in Z^d whose kernel (as columns) has rank 1
    and which span Z^d; the generator, sign-fixed to be positive, is the
    weight vector.
    """
    n = len(points)
    d = len(points[0])
    rows = [[p[j] for p in points] for j in range(d)]
    kernel = integer_kernel_basis(rows, n)
    if len(kernel) != 1:
        raise InputError(
            f"{where}: the points do not define a weighted family "
            f"(relation rank {len(kernel)}, expected 1)")
    w = list(kernel[0])
    if all(x <= 0 for x in w):
        w = [-x for x in w]
    if any(x <= 0 for x in w):
        raise InputError(
            f"{where}: the point relation {w} is not positive")
    # the fan of P(w) spans Z^d; points spanning a sublattice of index m > 1
    # give the fake weighted space P(w)/Z_m, which P(w)'s series misdescribes
    index = abs(det_int(points[1:])) // w[0] if n == d + 1 else 0
    if index != 1:
        raise InputError(
            f"{where}: the points span a sublattice of index "
            f"{index or 'infinite'}, not the whole lattice")
    return tuple(w)


def load_family_file(path):
    """The Family in a family file, in one of three spellings of the one
    family kind (see the mirror module): dims and a degree matrix, factor
    i's coordinates dealt to the parts in order; weights with index
    groups; or a nef partition whose points give the weights and whose
    i-th point is coordinate i.  A spelling refuses any key outside its
    own, and the loaded family does not remember which one it came from.
    """
    data = load_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    # marker key: (the vector key, the rows key, the constructor)
    spellings = {"matrix": ("dims", "matrix", ProductFamily),
                 "weights": ("weights", "parts", WpsFamily),
                 "dim": ("dim", "parts", None)}
    marker = next((key for key in spellings if key in data), None)
    if marker is None:
        raise InputError(
            f"{path}: family file needs 'matrix', 'weights', or "
            "nef-partition style 'dim'/'parts' keys")
    first, rows, build = spellings[marker]
    extra = sorted(set(data) - {first, rows})
    if extra:
        raise InputError(f"{path}: unknown key {extra[0]!r}")
    try:
        if build is not None:
            vector = _int_tuple(_need(data, first, path, list), path)
            table = _need(data, rows, path, list)
            return build(vector, [_int_tuple(r, path) for r in table])
        dim, parts = _nefpart(data, path)
        nef = check_nef_partition(parts, dim)
        weights = weights_from_points(nef.points, path)
        ends = list(accumulate(map(len, nef.parts), initial=0))
        return WpsFamily(weights, map(range, ends, ends[1:]))
    except ValueError as e:
        raise InputError(f"{path}: {e}")


def load_manifest_file(path):
    data = load_json(path)
    raw = _need(data, "cases", path, list)
    cases = []
    for i, case in enumerate(raw):
        where = f"{path} case {i}"
        name = _need(case, "name", where, str)
        argv = _need(case, "argv", where, list)
        if not all(isinstance(a, str) for a in argv):
            raise InputError(f"{where}: argv must be a list of strings")
        expect = case.get("expect_exit", 0)
        if not isinstance(expect, int) or isinstance(expect, bool):
            raise InputError(f"{where}: expect_exit must be an integer")
        golden = case.get("golden")
        if golden is not None and not isinstance(golden, dict):
            raise InputError(f"{where}: golden must be an object")
        cases.append({"name": name, "argv": list(argv),
                      "expect_exit": expect, "golden": golden})
    return cases
