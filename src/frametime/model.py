"""Frame-time what-if deltas and frequency sensitivity.

Everything here reads estimator coefficients without mutating them: the
what-if delta for a candidate frequency, the what-if at the table levels
around each row's clock (the one map from a clock to its neighbouring
levels), and the numerical derivative of frame time with respect to
frequency, read off the one-level what-if.  The delta takes the two
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
    arrays and on Python floats, which round each operation alike, so a
    single row costs no numpy calls.  Nothing is checked: the frequencies
    are table levels, which FrequencyTable keeps positive.
    """
    return a0 * prev_frame_time * (f_k / f_new - 1.0) + a1 * (f_new - f_k) / MHZ_PER_GHZ


def three_point_derivative(t_lo, t_mid, t_hi, df1, df2):
    """Derivative at the middle of three points spaced df1 below, df2 above.

    Differentiates the interpolating parabola, so any quadratic is
    recovered exactly.  Equal spacing takes the central-difference form
    directly, which the general expression reduces to algebraically.
    Scalars give a float, arrays an elementwise array.
    """
    df1 = np.asarray(df1, dtype=float)
    df2 = np.asarray(df2, dtype=float)
    if np.any(df1 <= 0) or np.any(df2 <= 0):
        raise ValueError("spacings must be > 0")
    central = (t_hi - t_lo) / (2.0 * df1)
    num = df1 * df1 * t_hi + (df2 * df2 - df1 * df1) * t_mid - df2 * df2 * t_lo
    out = np.where(df1 == df2, central, num / (df1 * df2 * (df1 + df2)))
    return float(out) if out.ndim == 0 else out


def what_if(a, base, f_k, table: FrequencyTable, jumps: int):
    """Predicted frame-time deltas from each row's clock to the table levels
    1..jumps above and below it.

    Row i moves from f_k[i], with frame time base[i], under coefficients
    a[i], or a itself if it is one (M,) row.  Returns (level, valid, delta),
    each (jumps, 2, rows): jump j + 1 up at [j, 0], down at [j, 1].  A
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


def frequency_sensitivity(a, prev_frame_time, f_k, table: FrequencyTable):
    """d(frame time)/d(frequency) at each row's f_k, in ms per MHz.

    Interior frequencies differentiate the parabola through the predicted
    frame times one table level down, at f_k, and one level up, which
    handles uneven level spacing.  At the table edges there is no
    neighbor pair, so the secant toward the single neighbor is used.
    Both read what_if's one-level answer.  Returns (dtf_df, one_sided)
    arrays, one entry per coefficient row.
    """
    a = np.asarray(a, dtype=float)
    prev_t, f_k, _ = np.broadcast_arrays(np.asarray(prev_frame_time, dtype=float),
                                         np.asarray(f_k, dtype=float), a[..., 0])
    level, valid, delta = what_if(a, prev_t, f_k, table, 1)
    d_hi, d_lo = delta[0]
    upper, lower = np.asarray(table.freqs_mhz)[level[0]]
    top, bottom = ~valid[0]
    inner = ~(bottom | top)
    dtf = np.empty(f_k.shape)
    dtf[bottom] = d_hi[bottom] / (upper - f_k)[bottom]
    dtf[top] = d_lo[top] / (lower - f_k)[top]
    mid = prev_t[inner]
    dtf[inner] = three_point_derivative(mid + d_lo[inner], mid, mid + d_hi[inner],
                                        (f_k - lower)[inner], (upper - f_k)[inner])
    return dtf, ~inner
