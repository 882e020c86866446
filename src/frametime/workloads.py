"""Frequency schedules for runtime-style synthetic runs.

The shipped workloads themselves are defined by the files under configs/;
this module holds the clock that `characterize --mode runtime` drives
them with, drawn from trace.seeded_stream like the frame-time noise.
"""

from __future__ import annotations

from .trace import FrequencyTable, seeded_stream

P_STEP = 0.35   # chance per interval of moving one level up or down
P_JUMP = 0.07   # chance per interval of jumping to a uniformly drawn level


def random_walk_freqs(table: FrequencyTable, n: int, seed: int) -> tuple[float, ...]:
    """Frequency schedule that wanders the ladder, one level at a time
    with occasional jumps, starting from the top.

    Each interval draws u from trace.seeded_stream(seed), random() alone:
    u < P_STEP steps one level, up when the next draw is below 0.5;
    otherwise u < P_STEP + P_JUMP jumps to level int(u' * levels) of a
    fresh draw u'."""
    stream = seeded_stream(seed)
    top = len(table) - 1
    i, out = top, []
    for _ in range(n):
        u = stream.random()
        if u < P_STEP:
            i = min(max(i + (1 if stream.random() < 0.5 else -1), 0), top)
        elif u < P_STEP + P_JUMP:
            i = int(stream.random() * len(table))
        out.append(table.freqs_mhz[i])
    return tuple(out)
