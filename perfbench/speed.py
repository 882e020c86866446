"""Host speed sampler: a fixed reference loop timed on the benchmark's CPU.

On a shared host one vCPU's speed drifts by a third within seconds, while
the other vCPU drifts independently, so timings taken minutes apart are
not comparable.  The benchmark pins itself to one CPU, and a helper
process pinned to the same CPU times REFERENCE_ITERATIONS of a small
interpreter-bound loop every PERIOD_S (about 2% of the CPU).  A pass's
time scaled to the reference speed is

    seconds * NOMINAL_S / (mean loop CPU time sampled while the pass ran)

NOMINAL_S is roughly the loop's time on a quiet core of the reference
host (2 vCPUs, Python 3.11), so scaled and raw seconds agree there.
speed_factor gives that ratio for a time window.

Run as a script, this module is the helper: it samples until its stdin
closes, then prints the samples as JSON.
"""

from __future__ import annotations

import json
import select
import statistics
import subprocess
import sys
import time

REFERENCE_ITERATIONS = 8000
PERIOD_S = 0.05
NOMINAL_S = 1.0e-3
NEAREST = 6             # fewest loop samples behind one factor


def reference_loop(n: int = REFERENCE_ITERATIONS) -> float:
    total = 0.0
    seen = {}
    for i in range(n):
        total += (i * 0.5) ** 0.5
        seen[i & 255] = total
    return total


def _sample_until_eof() -> None:
    samples = []
    while True:
        # CPU time, so that the pass this helper shares the CPU with does
        # not count when the scheduler interleaves the two.
        t0, c0 = time.perf_counter(), time.thread_time()
        reference_loop()
        samples.append((t0, time.thread_time() - c0))
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if ready:  # the benchmark closed our stdin
            break
    json.dump(samples, sys.stdout)


class SpeedSampler:
    """The helper process; it inherits the caller's CPU affinity."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        self.samples: list[tuple[float, float]] = []

    def stop(self) -> list[tuple[float, float]]:
        if self._proc.returncode is None:
            try:
                out, _ = self._proc.communicate(input="", timeout=30)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.communicate()
                raise
            self.samples = [tuple(s) for s in json.loads(out)] if out else []
        return self.samples

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def speed_factor(start: float, end: float, samples) -> float:
    """NOMINAL_S over the mean loop CPU time sampled in [start, end]."""
    inside = [d for t, d in samples if start <= t <= end]
    if len(inside) < NEAREST:  # a short window: the samples nearest its middle
        mid = (start + end) / 2
        inside = [d for t, d in sorted(samples, key=lambda s: abs(s[0] - mid))[:NEAREST]]
    return NOMINAL_S / statistics.fmean(inside)


if __name__ == "__main__":
    _sample_until_eof()
