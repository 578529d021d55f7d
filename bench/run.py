"""toricres benchmark: four workloads, end-to-end times, per-layer spans.

    python3 bench/run.py --workload residue_ladder --seed 3 --trace 0
    python3 bench/run.py                 # every workload, one table
    python3 bench/run.py --trace 1       # every workload, layer shares
    python3 bench/run.py --write-spec    # rewrite BENCHMARK.json

Every repetition of a workload runs in a fresh single-threaded interpreter
(bench/child.py), because every CLI call pays its caches cold.  A run
repeats the workload until --seconds have passed and reports medians over
the repetitions; every repetition uses the same seeded inputs.

The host is shared and its speed swings by up to 2x over seconds to
minutes, so untraced repetitions probe it (bench/probe.py) and every time
below is in reference seconds: the wall time, without the probes, over the
host's slowdown while it was measured.

--trace 0 reports the end-to-end metrics of untraced repetitions:
  wall_s        first op start to last op end, output checks included
  op_max_s      the slowest single op, the longest a user waits on one command
  setup_s       importing toricres plus reading or generating the inputs
  peak_rss_mib  peak resident memory of the repetition's process
The table also shows ops_failed_frac, failed over attempted ops; the JSON
line carries the same as `attempted` and `failed`.

--trace 1 alternates untraced and traced repetitions.  Traced ones wrap the
library from outside (bench/tracing.py) and report the per-layer metrics:
calls and self time per layer function, sizes and ratios, each module's
share of wall_s, per-op times of the untraced repetitions, their raw wall
time and the host's slowdown, and the tracer's own overhead.  Both kinds
must give the same outputs.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The benchmark refuses to run under `python -O`: the library's
asserts are correctness checks and their cost is part of every timing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# (name, unit, bound): bound is the share of the parent's median by which
# a metric may worsen before a change counts as a regression.
END_TO_END = (
    ("wall_s", "s", 0.2),
    ("op_max_s", "s", 0.2),
    ("setup_s", "s", 0.25),
    ("peak_rss_mib", "MiB", 0.05),
)
RUN_SECONDS = 32
# a run ends within 180 s even if the program under test is slow
RUN_LIMIT_S = 170


class BenchError(Exception):
    """A repetition could not run; the benchmark prints no result."""


def _child(workload, seed, spans_path, deadline):
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), workload,
           str(seed)] + ([spans_path] if spans_path else [])
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    # import from cached bytecode, as an installed package does
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{workload}: out of time after {RUN_LIMIT_S} s")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: repetition still running after "
                         f"{RUN_LIMIT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{workload}: repetition exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _traced(workload, seed, deadline):
    fd, path = tempfile.mkstemp(prefix=".spans-", suffix=".json", dir=BENCH)
    os.close(fd)
    try:
        rep = _child(workload, seed, path, deadline)
        with open(path) as fh:
            spans = json.load(fh)
    finally:
        os.remove(path)
    rep["layers"] = tracing.reduce_spans(spans, rep["wall_s"],
                                         rep["counters"])
    return rep


def per_layer():
    """(name, unit, better) of every metric a --trace 1 run reports: the
    layers, the tracer's overhead and the op times of every workload."""
    return tracing.layer_metrics() + [
        ("host.wall_raw_s", "s", "lower"),
        ("host.slowdown", "ratio", "lower"),
        ("trace.overhead_frac", "frac", "lower")] + [
        (f"{w}.{op}.op_s", "s", "lower")
        for w, wl in workloads.WORKLOADS.items() for op in wl.ops]


def run_workload(workload, seed, seconds, trace):
    """Repetitions of one workload for `seconds`; returns its result."""
    ops = workloads.WORKLOADS[workload].ops
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    plain, traced = [], []
    while True:
        n = len(plain) + len(traced)
        elapsed = time.monotonic() - start
        # stop before a repetition that would overrun `seconds`
        enough = plain and (traced or not trace)
        if enough and elapsed * (n + 1) / n > seconds:
            break
        if trace and len(traced) < len(plain):
            traced.append(_traced(workload, seed, deadline))
        else:
            plain.append(_child(workload, seed, None, deadline))

    # every repetition, traced or not, must give the first one's outputs
    want = [op["out"] for op in plain[0]["ops"]]
    attempted = failed = 0
    for rep in plain + traced:
        names = [op["name"] for op in rep["ops"]]
        if names != list(ops):
            raise BenchError(f"{workload}: ran ops {names}, expected {ops}")
        for op, out in zip(rep["ops"], want):
            attempted += 1
            failed += not op["ok"] or op["out"] != out

    med = statistics.median
    # op times on the reference host: wall time over the host's slowdown
    ref = [[op["s"] / op["slow"] for op in r["ops"]] for r in plain]
    if trace:
        metrics = {name: 0 for name, _, _ in per_layer()}
        for name in traced[0]["layers"]:
            metrics[name] = med(r["layers"][name] for r in traced)
        for i, op in enumerate(ops):
            metrics[f"{workload}.{op}.op_s"] = med(r[i] for r in ref)
        raw = med(r["wall_s"] for r in plain)
        metrics["host.wall_raw_s"] = raw
        metrics["host.slowdown"] = med(
            r["wall_s"] / sum(t) for r, t in zip(plain, ref))
        metrics["trace.overhead_frac"] = (
            med(r["wall_s"] for r in traced) / raw - 1)
        units = {n: u for n, u, _ in per_layer()}
    else:
        metrics = {
            "wall_s": med(sum(t) for t in ref),
            "op_max_s": med(max(t) for t in ref),
            "setup_s": med(r["setup_s"] / r["setup_slow"] for r in plain),
            "peak_rss_mib": med(r["rss_kib"] for r in plain) / 1024,
        }
        units = {n: u for n, u, _ in END_TO_END}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "reps": len(plain) + len(traced),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }


def _print_table(results, trace):
    if trace:
        cols = [f"share.{m}" for m in tracing.SHARES] + [
            "share.rref_solve", "trace.overhead_frac"]
        head = [c.split(".", 1)[1] for c in cols]
        print("share of wall_s per layer (self time of traced spans); "
              "overhead of tracing on wall_s")
    else:
        cols = [n for n, _, _ in END_TO_END]
        head = [f"{n} [{u}]" for n, u, _ in END_TO_END] + [
            "ops_failed_frac", "ops", "reps"]
    rows = []
    for w, res in results.items():
        m = res["metrics"]
        row = [f"{m[c]['value']:.4g}" for c in cols]
        if not trace:
            row += [f"{res['failed'] / res['attempted']:.4g}",
                    str(res["attempted"]), str(res["reps"])]
        rows.append([w] + row)
    table = [["workload"] + head] + rows
    widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
    for r in table:
        print("  ".join(c.rjust(w) for c, w in zip(r, widths)))


def write_spec(path):
    spec = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": wl.why}
                      for w, wl in workloads.WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": "lower", "bound": b}
                       for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in per_layer()],
    }
    with open(path, "w") as fh:
        json.dump(spec, fh, indent=2)
        fh.write("\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                   help="run one workload (default: all of them)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true",
                   help="rewrite BENCHMARK.json and exit")
    args = p.parse_args(argv)

    if args.write_spec:
        write_spec(os.path.join(ROOT, "BENCHMARK.json"))
        return 0
    if sys.flags.optimize:
        print("error: refusing to run under python -O; the library's "
              "asserts are its correctness checks", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "toricres", "__init__.py")):
        print(f"error: no toricres sources under {SRC}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace)
                   for w in names}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    _print_table(results, args.trace)
    if args.workload:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, res in results.items()
                   for k, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
