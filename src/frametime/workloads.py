"""Frequency schedules for runtime-style synthetic runs.

The shipped workloads themselves are defined by the files under configs/;
this module holds the clock that `characterize --mode runtime` drives
them with.
"""

from __future__ import annotations

import numpy as np

from .trace import FrequencyTable

P_STEP = 0.35   # chance per interval of moving one level up or down
P_JUMP = 0.07   # chance per interval of jumping to a uniformly drawn level


def random_walk_freqs(table: FrequencyTable, n: int, seed: int) -> tuple[float, ...]:
    """Frequency schedule that wanders the ladder, one level at a time
    with occasional jumps, starting from the top."""
    rng = np.random.default_rng(seed)
    i = len(table) - 1
    out = []
    for _ in range(n):
        r = rng.random()
        if r < P_STEP:
            # the draw rng.choice((-1, 1)) makes, without its overhead
            i = min(max(i + (1 if rng.integers(2) else -1), 0), len(table) - 1)
        elif r < P_STEP + P_JUMP:
            i = int(rng.integers(0, len(table)))
        out.append(table.freqs_mhz[i])
    return tuple(out)
