"""One repetition of one workload, in a fresh interpreter.

    python3 bench/child.py WORKLOAD SEED [SPANS_PATH]

run.py starts this with `src` on PYTHONPATH.  With SPANS_PATH the library
is traced and the spans are written there at exit; without it the host's
speed is probed (probe.py).  Times exclude the probes.  The last line of
stdout is a JSON record of the repetition.
"""

import hashlib
import json
import resource
import sys
import time
import traceback

import probe


def main(argv):
    if sys.flags.optimize:
        sys.exit("error: the library's asserts are checks; run without -O")
    workload, seed = argv[0], int(argv[1])
    spans_path = argv[2] if len(argv) > 2 else None

    # untraced repetitions probe the host's speed; traced ones do not, so
    # that no probe lands in a span
    sampler = None if spans_path else probe.Sampler()
    if sampler is not None:
        sampler.start()

    def timed(t0, t1):
        # seconds of [t0, t1) without the probes in it, and the slowdown
        if sampler is None:
            return t1 - t0, 1.0
        return t1 - t0 - sampler.spent(t0, t1), sampler.slowdown(t0, t1)

    t0 = time.perf_counter()
    import workloads
    counters = {}
    ops = workloads.WORKLOADS[workload].setup(seed, counters)
    t1 = time.perf_counter()

    tracer = None
    if spans_path:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    runs = []
    for i, (name, run) in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t = time.perf_counter()
        try:
            out = run()
            ok = True
        except Exception:  # an op that raises is a failed op; go on
            traceback.print_exc()
            out, ok = "", False
        runs.append((name, t, time.perf_counter(), ok,
                      hashlib.sha256(out.encode()).hexdigest()))
    if sampler is not None:
        sampler.stop()

    setup_s, setup_slow = timed(t0, t1)
    records = []
    for name, t, t_end, ok, out in runs:
        s, slow = timed(t, t_end)
        records.append({"name": name, "s": s, "slow": slow, "ok": ok,
                        "out": out})
    if tracer is not None:
        tracer.dump(spans_path)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"setup_s": setup_s, "setup_slow": setup_slow,
                      "wall_s": sum(r["s"] for r in records),
                      "ops": records, "rss_kib": rss_kib,
                      "counters": counters}))


if __name__ == "__main__":
    main(sys.argv[1:])
