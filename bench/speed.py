"""Host-speed normalization of measured times.

A shared host's speed drifts by tens of percent within seconds, and that
drift moves every timing of a run alike.  While a pass runs, a sampler
thread repeats a fixed pure-Python reference loop every 20 ms and records
its duration.  The benchmark runs pinned to one CPU (see run.py), because
another CPU of the host runs at another speed; the loop takes the
interpreter lock for far less than its switch interval, so the ops do not
interrupt it, and long ops are sampled throughout.  Each op's latency is
scaled by ``REFERENCE_NS / (median loop time during the op)``: a time at reference
speed, in the unit of the raw time.  ``REFERENCE_NS`` is the loop's typical
duration on an unloaded 2-vCPU x86-64 VM with CPython 3.11, so on such a
host scaled and raw times agree.  Raw times are reported alongside.  The
sampler takes about 3% of a pass, alike on every commit.
"""

import gc
import statistics
import threading
import time
from bisect import bisect_left, bisect_right

REFERENCE_NS = 340_000
SAMPLE_EVERY_S = 0.02
WINDOW_NS = 10_000_000  # samples this close to an op judge its speed

_now = time.perf_counter_ns


class _Pair:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def reference():
    """The reference loop, in three parts like the code it calibrates: dict,
    int and str work; a dense list convolution as in the series kernel; and
    tuple and object creation with a sort as in the enumerators.  Returns
    its duration in ns.

    The cyclic garbage collector is off during the loop: otherwise the loop's
    allocations start collections whose cost grows with the objects the
    workload keeps alive, and the loop would judge the host slower during ops
    with a large heap."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _reference_loop()
    finally:
        if collecting:
            gc.enable()


def _reference_loop():
    start = _now()
    table = {}
    total = 0
    for i in range(500):
        table[i & 255] = table.get(i & 255, 0) + i * i % 7
        total += len(str(i))
    for _ in range(3):
        a = list(range(1, 33))
        out = [0] * 32
        for i, ai in enumerate(a):
            for j in range(32 - i):
                out[i + j] += ai * a[j]
    pairs = [_Pair((i, i + 1, bool(i & 1)), i) for i in range(300)]
    sorted((p.x[0] + p.y for p in pairs), key=lambda v: -v)
    return _now() - start


class SpeedLog:
    """Reference samples taken during a pass (use as a context manager), and
    the scale they imply for any interval of the pass."""

    def __init__(self):
        self.times = []  # perf_counter ns at the middle of each sample
        self.durations = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def _sample(self):
        while True:
            took = reference()
            self.durations.append(took)
            self.times.append(_now() - took // 2)
            if self._stop.wait(SAMPLE_EVERY_S):
                return

    def scale(self, start, end):
        """Factor that turns a time measured over [start, end] into a time at
        reference speed: the median sample within WINDOW_NS of the interval,
        or the nearest sample when none is that close."""
        lo = bisect_left(self.times, start - WINDOW_NS)
        hi = bisect_right(self.times, end + WINDOW_NS)
        if lo == hi:
            after = min(lo, len(self.times) - 1)
            before = max(lo - 1, 0)
            mid = (start + end) // 2
            lo = min((before, after), key=lambda i: abs(self.times[i] - mid))
            hi = lo + 1
        return REFERENCE_NS / statistics.median(self.durations[lo:hi])
