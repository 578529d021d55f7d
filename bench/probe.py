"""The host's momentary speed, sampled while a repetition runs.

The benchmark runs on a shared host whose speed swings by up to 2x over
seconds to minutes: other tenants compete for the same cores and caches.
No choice of repetitions averages that out, so the benchmark measures it.
A timer signal interrupts the workload every INTERVAL_S and runs a fixed
slice of exact arithmetic (a Fraction row reduction written here, not the
library's, so no change to the library moves it).  The slice takes REF_S
on the reference host when nothing competes; its time now over REF_S is the
host's slowdown.  An op's time is its wall time minus the probes inside it,
divided by the trimmed mean slowdown of the probes around it: the seconds it
would take on the reference host unloaded.

Reference host: 2-vCPU KVM guest, Python 3.11.7.
"""

import signal
import statistics
import time
from fractions import Fraction

# probe time on the reference host, nothing else running
REF_S = 0.0007
INTERVAL_S = 0.025
# fewest probes an op's slowdown is taken from; an op shorter than that
# many intervals borrows the probes nearest to it
MIN_SAMPLES = 10

N = 6
_MATRIX = [[Fraction((3 * i + 7 * j) % 11 + 1, (i + 2 * j) % 5 + 1)
            for j in range(N + 1)] for i in range(N)]


def _work():
    m = [row[:] for row in _MATRIX]
    for c in range(N):
        p = m[c][c]
        m[c] = [x / p for x in m[c]]
        for r in range(N):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return m


class Sampler:
    """Probes at a fixed interval between `start` and `stop`."""

    def __init__(self):
        self.samples = []  # (start, seconds) of each probe

    def _probe(self, signum, frame):
        t = time.perf_counter()
        _work()
        self.samples.append((t, time.perf_counter() - t))

    def start(self):
        _work()  # warm up before the first timed probe
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, t0, t1):
        """Seconds the probes took inside [t0, t1)."""
        return sum(s for t, s in self.samples if t0 <= t < t1)

    def slowdown(self, t0, t1):
        """Host slowdown over [t0, t1), against the reference host."""
        inside = [s for t, s in self.samples if t0 <= t < t1]
        if len(inside) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            near = sorted(self.samples, key=lambda ts: abs(ts[0] - mid))
            inside = [s for _, s in near[:MIN_SAMPLES]]
        # a probe preempted outright, or one that ran alone on a core, says
        # little about the op's time: drop a tenth of the probes each side
        inside.sort()
        cut = len(inside) // 10
        return statistics.mean(inside[cut:len(inside) - cut]) / REF_S
