"""Online estimators for the differential frame-time model.

Three adaptive algorithms share the same job, learning the coefficients a
of delta_t ~= h' a from a stream of (feature vector, observed delta) pairs:

* covariance-form recursive least squares (no matrix inversion),
* its dichotomous coordinate descent variant, whose coordinate solve is
  linear in the feature count M (the correlation update lam R + h h' is
  still O(M^2)),
* a normalized-LMS autoregressive baseline that predicts frame time from
  past frame times only.

The tests hold the direct ridge solve the recursive forms must reproduce
and the per-update operation counts of the two RLS forms
(tests/scenarios.py).

Each algorithm is one step (rls_step, dcd_step, arlms_step) on bare
state, and rls_init and dcd_rls_init check the settings and return the
state an RLS form starts from.  A step checks nothing: the data reach it
already checked where they enter the program.  RegressionDataset rejects
a non-finite feature or target, governor.realize rejects non-finite
counters and frame times before any policy runs, and Trace validation
rejects a negative or non-finite frame time.  Each step returns the prediction
it made before updating, so a replay computes it once.  Inside a step
only the BLAS reductions (h'a, P h, h'P h) stay in numpy: their
summation order sets the rounding that the outputs depend on.  They are
called as ndarray.dot, which costs less per call than @ and gives the
same bits, except that a sum of zeros may come out -0.0 where @ gives
+0.0.  Each prediction adds +0.0 to keep that zero positive; in P h and
h'P h the sign of a zero reaches no output, since a zero there only ever
meets +0.0 or a nonzero.  A feature row with no nonzero entry, a steady
interval at one clock, is the zero-row identity of rls_step and the
skip of dcd_step; each one's docstring says why.  The DCD state
keeps R and beta as lists of Python floats, because its correlation
update and coordinate ladder are elementwise, and Python rounds each
element as numpy does at a fraction of the per-call cost on M of about 4.

Feature convention at this boundary: rows arrive in estimator units
(estimator_units), with the frequency delta in GHz and counter deltas
divided by per-counter scales fixed from the first observation window,
so feature entries are O(1).  Coefficients are in those units.
differential_features is the one builder of these rows, in raw units;
replay and the governor's rls policy divide them by estimator_units,
and the offline selection (features) fits them raw.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_MU = 1e-14
DEFAULT_LAMBDA = 1.0
DCD_STEP_AMPLITUDE = 1.0   # largest DCD coordinate step, halved down the ladder
DCD_NU = 4                 # coordinate updates per DCD step
DCD_MB = 16                # levels of the DCD step ladder
ARLMS_ORDER = 10           # past frame times the AR baseline predicts from
ARLMS_STEP_SIZE = 0.5      # NLMS step, stable in (0, 2)
ARLMS_EPS = 1e-6           # keeps the NLMS normalization finite on a zero history

MHZ_PER_GHZ = 1000.0
SCALE_WINDOW = 20   # leading samples whose counter magnitudes fix the scales
SCALE_FLOOR = 1.0


def differential_features(t_prev, f_prev, f_cur, dx) -> np.ndarray:
    """Raw-unit feature rows [scalable-time term, f_cur - f_prev, dx...].

    The scalable-time term is t_prev (ms) times the relative clock step
    f_prev / f_cur - 1.  Takes one interval (scalars and a counter-delta
    vector) or many (arrays of rows and a rows-by-counters delta matrix);
    frequencies in MHz, counter deltas in counts.
    """
    dx = np.asarray(dx, dtype=float)
    h = np.empty(dx.shape[:-1] + (2 + dx.shape[-1],))
    h[..., 0] = t_prev * (f_prev / f_cur - 1.0)
    h[..., 1] = f_cur - f_prev
    h[..., 2:] = dx
    return h


def estimator_units(counters) -> np.ndarray:
    """Per-sample divisors [1, MHZ_PER_GHZ, counter scales...] into estimator units.

    Dividing a raw feature row that ends at sample i by row i feeds the
    frequency delta in GHz and each counter delta relative to its scale,
    keeping every entry O(1) so the tiny default ridge weight stays
    numerically benign.  A counter's scale at sample i is the running max
    of |counter| over samples 0..i, at least SCALE_FLOOR; after the first
    SCALE_WINDOW samples the scales stay frozen, so later counter bursts
    do not change the units.
    """
    scales = np.maximum(np.maximum.accumulate(np.abs(np.asarray(counters, dtype=float)),
                                              axis=0), SCALE_FLOOR)
    scales[SCALE_WINDOW:] = scales[SCALE_WINDOW - 1:SCALE_WINDOW]
    units = np.empty((scales.shape[0], 2 + scales.shape[1]))
    units[:, 0] = 1.0
    units[:, 1] = MHZ_PER_GHZ
    units[:, 2:] = scales
    return units


def _initial_coefs(m: int, mu: float, a_init) -> np.ndarray:
    """Check the settings both RLS forms start from; return a copy of
    a_init, all ones by default."""
    if m < 1:
        raise ValueError("m must be >= 1")
    # rls_init's P = I/mu is doubled in the step's (P + P')/2, so 2/mu must be finite
    if not (math.isfinite(mu) and mu > 0 and math.isfinite(2.0 / float(mu))):
        raise ValueError(f"mu must be finite and > 0 with 2/mu finite, got {mu}")
    # + 0.0 copies a_init and turns any -0.0 into +0.0 (see rls_step)
    a0 = np.ones(m) if a_init is None else np.asarray(a_init, dtype=float) + 0.0
    if a0.shape != (m,):
        raise ValueError(f"a_init has shape {a0.shape}, expected ({m},)")
    if not np.isfinite(a0).all():
        raise ValueError("a_init must be finite")
    return a0


def rls_init(m: int, mu: float = DEFAULT_MU, a_init=None):
    """Fresh RLS state (a, P): a = a_init (default all ones), P = I/mu.

    The all-ones start treats frames as fully scalable until data says
    otherwise.  mu is the ridge weight pulling coefficients toward a_init.
    """
    return _initial_coefs(m, mu, a_init), np.eye(m) / mu


def rls_step(a: np.ndarray, P: np.ndarray, h: np.ndarray, d: float,
             lam: float = DEFAULT_LAMBDA):
    """One covariance-form update on the target d for feature row h:
    returns the new (a, P) and the prediction h'a made before the update.

    Gain G = P h / (h' P h + lam); the denominator is a scalar, so no
    matrix inversion is performed, and P is symmetrized after the update.
    lam is the forgetting factor, in (0, 1].

    P starts at I/mu, so a reordered step would round differently; the
    step runs in full but for dividing by lam == 1.0, an exact no-op.

    The zero-row identity: at lam == 1.0 a row with no nonzero entry
    gives a and P back bit for bit, so the replay skips such rows and the
    governor steps once per held run.  P h and G are then +-0, so
    P - G (P h)' gives back P, (P + P')/2 gives back P because P is
    exactly symmetric after every step (and 2P finite, which only a mu
    near the smallest normal float breaks), and while a is finite, so is
    e = d - h'a, and a + G e gives back a.  That holds because neither a
    nor P ever holds -0.0: they start from ones (or a_init with its zeros
    made +0.0) and from I/mu with +0.0 off the diagonal, and under
    round-to-nearest a sum or difference that comes out exactly zero is
    +0.0 unless both operands are -0.0.  Below lam == 1.0, P / lam grows
    on such a row.
    """
    pred = float(h.dot(a)) + 0.0
    Ph = P.dot(h)
    G = Ph / (float(h.dot(Ph)) + lam)
    P = P - G[:, None] * Ph
    if lam != 1.0:
        P = P / lam
    return a + G * (d - pred), (P + P.T) / 2.0, pred


def dcd_rls_init(m: int, mu: float = DEFAULT_MU, a_init=None):
    """Fresh DCD-RLS state (a, R, beta): a = a_init (default all ones),
    R = mu I as rows of Python floats, beta a list of zeros."""
    return _initial_coefs(m, mu, a_init), (np.eye(m) * mu).tolist(), [0.0] * m


def dcd_step(a: np.ndarray, R: list, beta: list, h: np.ndarray, d: float,
             lam: float = DEFAULT_LAMBDA, nu: int = DCD_NU, mb: int = DCD_MB):
    """One traversal-form update with an inexact coordinate-descent solve,
    R (rows) and beta as lists of Python floats: returns the new (a, R,
    beta) and the prediction h'a made before the update.

    R <- lam R + h h' accumulates the exponentially weighted feature
    correlation, exactly symmetric, and beta the residual of the normal
    equations R a = rhs.  The innovation enters the residual and the
    coefficient increment comes from at most nu coordinate updates; the
    unsolved residual carries over, so nothing is lost to truncation.

    Besides the prediction, numpy only adds the increment to a; the rest
    runs on Python floats, which round each element as numpy's elementwise
    operations do.  Only exact no-ops are skipped.  Scaling by lam == 1.0
    is one.  At lam == 1.0, on a row with no nonzero entry, the updates
    R + h h' and beta + err h are another, and the ladder starts from
    beta itself: h h' and err h are then +-0, because err = d - h'a is
    finite (d is checked data, and a starts finite and moves by at most
    nu steps of at most DCD_STEP_AMPLITUDE), and adding +-0 gives back
    every value but -0.0, which R and beta, starting from mu I and zeros,
    never hold, for the reason rls_step gives for a and P.  So the replay
    steps DCD on every row: its ladder keeps working on the carried beta.

    The coordinate solve of R da = beta + err h is leading-element DCD:
    steps are quantized to DCD_STEP_AMPLITUDE / 2^level, the amplitude
    halving whenever the leading residual no longer justifies the current
    step, down to mb levels, and at most nu coordinate updates are
    applied, each costing one column combination.  Level L steps when the
    leading residual lead = |r_j| exceeds DCD_STEP_AMPLITUDE R_jj / 2^L,
    computed with math.ldexp, which scales by a power of two exactly, as
    repeated halving would.  With lead = f 2^e and that diagonal F 2^E, f
    and F in [0.5, 1), every level below E - e has a threshold above lead,
    so the ladder looks from there on, at one or two levels, instead of
    halving through each; it walks to mb when lead is 0.  The test stays
    lead <= the threshold, which a nan residual fails, so that residual
    still steps at the level it meets.  R is exactly symmetric (it starts at mu I, and
    h_i h_j == h_j h_i), so row j serves as column j.  max/index picks the
    first largest residual, as argmax does while no residual is nan.
    """
    pred = float(h.dot(a)) + 0.0
    hs = h.tolist()
    if lam == 1.0 and not any(hs):
        r = beta
    else:
        err = d - pred
        if lam != 1.0:
            R = [[lam * v for v in row] for row in R]
            beta = [lam * v for v in beta]
        R = [[v + hi * hj for v, hj in zip(row, hs)] for row, hi in zip(R, hs)]
        r = [v + err * hi for v, hi in zip(beta, hs)]
    da = [0.0] * len(r)
    level = 1
    for _ in range(nu):
        mags = list(map(abs, r))
        lead = max(mags)
        j = mags.index(lead)
        rjj = DCD_STEP_AMPLITUDE * R[j][j]
        if lead <= math.ldexp(rjj, -level):
            # the thresholds of the levels below E - e exceed lead
            level = max(level + 1, math.frexp(rjj)[1] - math.frexp(lead)[1])
            while level <= mb and lead <= math.ldexp(rjj, -level):
                level += 1
            if level > mb:
                return a + np.array(da), R, r, pred
        step = math.copysign(math.ldexp(DCD_STEP_AMPLITUDE, 1 - level), r[j])
        da[j] += step
        r = [v - step * c for v, c in zip(r, R[j])]
    return a + np.array(da), R, r, pred


def arlms_step(w: np.ndarray, hist: np.ndarray, frame_time: float):
    """Normalized LMS weights after the error on frame_time, and the
    prediction w'hist of frame_time they were made from.

    hist holds the ARLMS_ORDER frame times before frame_time, oldest
    first; the baseline starts from ARLMS_ORDER zero weights.
    """
    pred = float(w.dot(hist)) + 0.0
    err = frame_time - pred
    return w + ARLMS_STEP_SIZE * err * hist / (ARLMS_EPS + float(hist.dot(hist))), pred
