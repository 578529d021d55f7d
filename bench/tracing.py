"""Spans around toricres' layers, installed from outside the library.

The library itself carries no instrumentation.  `Tracer.install` wraps the
public functions of each module, plus the few private functions and
methods the per-layer metrics need, and rebinds every module-level name
that holds the original: `residue`'s `from .linalg import
solve_functional` copy, the package namespace and the cli handler table
all pass through the wrapper.  A wrapper records one span (name, start,
end, enclosing span, op) in memory; `Tracer.dump` writes them once, at the
end of the repetition, and `reduce_spans` turns them into the per-layer
metrics.
"""

import functools
import importlib
import inspect
import json
import time

MODULES = ("linalg", "polytope", "laurent", "residue", "series", "mirror",
           "jsonio", "cli")

# Leaf helpers called millions of times, whose bodies cost about what a
# wrapper costs; their time stays in their callers' self time.
UNTRACED = {"linalg.dot", "linalg.primitive"}

# Private functions traced anyway: one call per residue-checked
# coefficient point of `verify trmc`.
PRIVATE = {"mirror._wps_residue_value"}

# (module, class, method, span name)
METHODS = (
    ("polytope", "LatticePolytope", "__init__", "polytope.LatticePolytope"),
    ("laurent", "LaurentPolynomial", "__mul__", "laurent.mul"),
)


def _add(stats, key, value):
    stats[key] = stats.get(key, 0) + value


def _shape(stats, name, rows, cols):
    # total cells over all calls, and the shape of the largest call
    cells = rows * cols
    _add(stats, name + ".cells", cells)
    if cells >= stats.get(name + ".max_cells", 0):
        stats[name + ".max_cells"] = cells
        stats[name + ".rows"] = rows
        stats[name + ".cols"] = cols


def _rref(stats, args, result):
    rows, _ = result
    _shape(stats, "linalg.rref", len(rows), len(rows[0]) if rows else 0)


def _solve(stats, args, result):
    span, target = args[0], args[1]
    if hasattr(span, "__len__") and hasattr(target, "__len__"):
        _shape(stats, "linalg.solve_functional", len(span), len(target))


def _cofactor(stats, args, result):
    _add(stats, "linalg.cofactor_nullvector.dependent", result is None)


def _lattice_points(stats, args, result):
    box = 1
    for coords in zip(*args[0].vertices):
        box *= max(coords) - min(coords) + 1
    _add(stats, "polytope.lattice_points.box", box)
    _add(stats, "polytope.lattice_points.hits", len(result))


def _basis_size(stats, args, result):
    _add(stats, "residue.interior_level_basis.size", len(result))


def _json_bytes(stats, args, result):
    _add(stats, "jsonio.canonical_json.bytes", len(result))


HOOKS = {
    "linalg.rref": _rref,
    "linalg.solve_functional": _solve,
    "linalg.cofactor_nullvector": _cofactor,
    "polytope.lattice_points": _lattice_points,
    "residue.interior_level_basis": _basis_size,
    "jsonio.canonical_json": _json_bytes,
}


class Tracer:
    """In-memory span recorder for one repetition of one workload."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stats = {}
        self.op = -1
        self._stack = []

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, stats = self.spans, self._stack, self.stats
        hook = HOOKS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, tracer.op)
            if hook is not None:
                hook(stats, args, result)
            return result

        return traced

    def install(self):
        package = importlib.import_module("toricres")
        mods = {m: importlib.import_module("toricres." + m) for m in MODULES}
        wrapped = {}  # id(original) -> (original, wrapper)
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and (not attr.startswith("_") or name in PRIVATE)
                        and name not in UNTRACED
                        and not inspect.isgeneratorfunction(fn)):
                    wrapped[id(fn)] = (fn, self.wrap(name, fn))

        def swap(value):
            hit = wrapped.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else value

        for mod in (package, *mods.values()):
            for attr, value in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if isinstance(value, dict):  # e.g. cli._HANDLERS
                    for key, item in value.items():
                        value[key] = swap(item)
                elif swap(value) is not value:
                    setattr(mod, attr, swap(value))
        for short, cls, meth, name in METHODS:
            klass = getattr(mods[short], cls)
            setattr(klass, meth, self.wrap(name, getattr(klass, meth)))

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "stats": self.stats}, fh)


# ------------------------------------------------------------- reduction

CALLS_AND_SELF = (
    "linalg.rref", "linalg.solve_functional", "linalg.cofactor_nullvector",
    "polytope.LatticePolytope", "polytope.minkowski_sum_all",
    "polytope.lattice_points", "residue.interior_level_basis",
    "residue.residue_functional", "laurent.mul", "laurent.mixed_hessian",
    "laurent.hessian_by_subsets", "series.linear_form_power_coefficient",
    "series.expand_rational", "mirror.product_intersection_series",
    "mirror.verify_family", "jsonio.canonical_json", "jsonio.load_json",
)
TOTAL = ("residue.interior_level_basis", "residue.residue_functional")
CLI_COMMANDS = ("polytope", "nefpart", "cayley", "hessian", "mixedvol",
                "residue", "series", "yukawa", "verify", "suite")
SHARES = MODULES + ("outside",)


def layer_metrics():
    """(name, unit, better) of every metric `reduce_spans` returns.

    Every workload reports all of them, with 0 where it does not exercise
    a layer, so that a change's effect on the workloads predicted flat
    shows as well.
    """
    out = []
    for name in CALLS_AND_SELF:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out += [(f"{name}.total_s", "s", "lower") for name in TOTAL]
    out += [
        ("linalg.rref.rows", "count", "lower"),
        ("linalg.rref.cols", "count", "lower"),
        ("linalg.rref.cells", "count", "lower"),
        ("linalg.solve_functional.rows", "count", "lower"),
        ("linalg.solve_functional.cols", "count", "lower"),
        ("linalg.cofactor_nullvector.dependent_ratio", "ratio", "lower"),
        ("polytope.lattice_points.hit_ratio", "ratio", "higher"),
        ("residue.interior_level_basis.size", "count", "lower"),
        ("residue.residue_functional.calls_per_point", "count", "lower"),
        ("residue.draw_attempts", "count", "lower"),
        ("residue.regular_ratio", "ratio", "higher"),
        ("jsonio.canonical_json.bytes", "B", "lower"),
    ]
    out += [(f"cli.cmd_{c}.self_s", "s", "lower") for c in CLI_COMMANDS]
    out += [(f"share.{m}", "frac", "lower") for m in SHARES]
    out.append(("share.rref_solve", "frac", "lower"))
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def _has_ancestor(spans, names, idx, want):
    idx = spans[idx][3]
    while idx >= 0:
        if names[spans[idx][0]] == want:
            return True
        idx = spans[idx][3]
    return False


def reduce_spans(data, wall_s, counters):
    """Per-layer metrics of one traced repetition.

    Self time is a span's duration minus that of its direct children
    (spans nest on the one thread, so they never overlap).  Shares divide
    each module's self time by the repetition's wall time; `outside` is
    what no span covers: the benchmark's own op code and checks.
    """
    names, spans, stats = data["names"], data["spans"], data["stats"]
    child = [0.0] * len(spans)
    for nid, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_s, total_s = {}, {}, {}
    for i, (nid, start, end, _, _) in enumerate(spans):
        name = names[nid]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        total_s[name] = total_s.get(name, 0.0) + end - start

    m = {}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in TOTAL:
        m[f"{name}.total_s"] = total_s.get(name, 0.0)
    for key in ("linalg.rref.rows", "linalg.rref.cols", "linalg.rref.cells",
                "linalg.solve_functional.rows",
                "linalg.solve_functional.cols"):
        m[key] = stats.get(key, 0)
    m["linalg.cofactor_nullvector.dependent_ratio"] = _ratio(
        stats.get("linalg.cofactor_nullvector.dependent", 0),
        calls.get("linalg.cofactor_nullvector", 0))
    m["polytope.lattice_points.hit_ratio"] = _ratio(
        stats.get("polytope.lattice_points.hits", 0),
        stats.get("polytope.lattice_points.box", 0))
    m["residue.interior_level_basis.size"] = stats.get(
        "residue.interior_level_basis.size", 0)
    m["jsonio.canonical_json.bytes"] = stats.get(
        "jsonio.canonical_json.bytes", 0)

    # residue functionals solved for verify trmc, per checked point
    rf = [i for i, s in enumerate(spans)
          if names[s[0]] == "residue.residue_functional"]
    m["residue.residue_functional.calls_per_point"] = _ratio(
        sum(_has_ancestor(spans, names, i, "cli.cmd_verify") for i in rf),
        calls.get("mirror._wps_residue_value", 0))
    # coefficient draws: the library's own retry loop plus the ladder's
    lib_attempts = sum(
        spans[i][3] >= 0
        and names[spans[spans[i][3]][0]] == "residue.draw_regular_coefficients"
        for i in rf)
    attempts = lib_attempts + counters.get("draw_attempts", 0)
    regular = (calls.get("residue.draw_regular_coefficients", 0)
               + counters.get("regular_draws", 0))
    m["residue.draw_attempts"] = attempts
    m["residue.regular_ratio"] = _ratio(regular, attempts)

    for c in CLI_COMMANDS:
        m[f"cli.cmd_{c}.self_s"] = self_s.get(f"cli.cmd_{c}", 0.0)
    covered = 0.0
    for mod in MODULES:
        t = sum(v for k, v in self_s.items() if k.split(".")[0] == mod)
        m[f"share.{mod}"] = t / wall_s
        covered += t
    m["share.outside"] = 1.0 - covered / wall_s
    m["share.rref_solve"] = (self_s.get("linalg.rref", 0.0)
                             + self_s.get("linalg.solve_functional", 0.0)
                             ) / wall_s
    return m
