"""Frame-time what-if deltas and frequency sensitivity.

Everything here reads estimator coefficients without mutating them: the
what-if delta for a candidate frequency, the what-if at the table levels
around each row's clock (the one map from a clock to its neighbouring
levels), and the derivative of that what-if with respect to frequency
at the row's own clock, in closed form.  The delta takes the two
frequency coefficients, as Python floats or as arrays it broadcasts over;
the derivative takes coefficient rows, one (M,) vector or a replay's
(n, M) coefficient history.

Units: estimator coefficients see the frequency delta in GHz (see
estimator.estimator_units), candidate frequencies arrive in MHz, and
derivatives are reported in ms per MHz.
"""

from __future__ import annotations

import numpy as np

from .estimator import MHZ_PER_GHZ
from .trace import FrequencyTable


def candidate_delta(a0, a1, prev_frame_time, f_k, f_new):
    """Predicted frame-time change (ms) if the clock moved from f_k to f_new.

    Only the two frequency coefficients a0 and a1 contribute: the online
    counters are frequency independent by construction, so their deltas
    for a pure frequency change are zero.  The same expression runs on
    arrays and on Python floats, which round each operation alike, so the
    float references of tests/scenarios.py check the array form bit for
    bit (tests/test_model.py::TestCandidateDelta::test_floats_equal_arrays_bitwise).
    Nothing is checked: the frequencies are table levels, which
    FrequencyTable keeps positive.
    """
    return a0 * prev_frame_time * (f_k / f_new - 1.0) + a1 * (f_new - f_k) / MHZ_PER_GHZ


def what_if(a, base, f_k, table: FrequencyTable, jumps: int):
    """Predicted frame-time deltas from each row's clock to the table levels
    1..jumps above and below it.

    Row i moves from f_k[i], with frame time base[i], under coefficients
    a[i], or a itself if it is one (M,) row.  Returns (level, valid, delta),
    each (jumps, 2, rows), the layout they are computed in, so numpy's
    loops run along the rows: jump j + 1 up at [j, 0], down at [j, 1].  A
    candidate beyond the table edge is not valid; its level is held at the
    edge, so its delta is only a placeholder.
    """
    a = np.asarray(a, dtype=float)
    f_k = np.asarray(f_k, dtype=float)
    freqs = np.asarray(table.freqs_mhz)
    top_level = freqs.size - 1
    at = np.searchsorted(freqs, f_k)
    if np.any(freqs[np.minimum(at, top_level)] != f_k):
        raise ValueError("f_k must be frequency table entries")
    target = np.add.outer(np.arange(1, jumps + 1)[:, None] * np.array([1, -1]), at)
    level = np.minimum(np.maximum(target, 0), top_level)
    delta = candidate_delta(a[..., 0], a[..., 1], np.asarray(base, dtype=float), f_k,
                            freqs[level])
    return level, level == target, delta


def frequency_sensitivity(a, base, f_k):
    """d(frame time)/d(frequency) at each row's f_k, in ms per MHz.

    The what-if base + candidate_delta(a0, a1, base, f_k, f) is linear in
    the two frequency coefficients, so its derivative at f = f_k is exact:
    -a0 * base / f_k + a1 / MHZ_PER_GHZ.  a is one (M,) coefficient row or
    (n, M) rows, which base and f_k broadcast against; the expression
    rounds alike when a caller writes it on Python floats.
    """
    return -a[..., 0] * base / f_k + a[..., 1] / MHZ_PER_GHZ
