"""A thread that samples how fast the machine runs while the benchmark times.

On a shared host the speed of a core swings by up to half within seconds, as
neighbours come and go, with almost no steal time, so CPU time swings as
much as wall time; and each core swings on its own. While the timed loop in
run.py waits for a child, this thread runs a fixed pure-Python loop of
about a quarter of a millisecond every PERIOD_S seconds, on the CPU the
child is pinned to, and records how long it took. A unit timed from START
to END (one child process) is scaled by REF_S / (median loop time in
[START, END]): the time it would have taken had the core run the loop in
REF_S seconds throughout. Nothing of the package runs in the loop, so a
slower program still reads slower. The loop takes about 2% of the CPU.
"""

from __future__ import annotations

import statistics
import threading
import time

# Median loop time on a 2-CPU shared virtual machine (Intel Xeon,
# Python 3.11.7). Scaled times are seconds at that speed; only their
# ratios between two commits matter.
REF_S = 2.5e-4
PERIOD_S = 0.01
MIN_SAMPLES = 5


def _loop():
    s = 0
    for i in range(3000):
        s += i * i % 7
    return s


class SpeedProbe:
    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.samples = []  # (midpoint on clock, loop seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self):
        while not self._stop.is_set():
            start, t = self.clock(), time.perf_counter()
            _loop()
            took = time.perf_counter() - t
            self.samples.append((start + took / 2, took))
            self._stop.wait(PERIOD_S)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self, start, end):
        """REF_S over the median loop time in [start, end], widened to the
        MIN_SAMPLES samples nearest its middle when it holds fewer."""
        samples = list(self.samples)
        window = [took for mid, took in samples if start <= mid <= end]
        if len(window) < MIN_SAMPLES:
            middle = (start + end) / 2
            window = [took for _, took in sorted(samples, key=lambda s: abs(s[0] - middle))[:MIN_SAMPLES]]
        return REF_S / statistics.median(window)
