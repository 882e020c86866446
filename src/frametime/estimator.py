"""Online estimators for the differential frame-time model.

Three adaptive algorithms share the same job, learning the coefficients a
of delta_t ~= h' a from a stream of (feature vector, observed delta) pairs:

* covariance-form recursive least squares (no matrix inversion),
* its dichotomous coordinate descent variant, whose coordinate solve is
  linear in the feature count M (the correlation update lam R + h h' is
  still O(M^2)),
* a normalized-LMS autoregressive baseline that predicts frame time from
  past frame times only.

A direct ridge solver is included as the reference the recursive forms
must reproduce, plus the per-update arithmetic operation counts of the
two RLS forms.

Each public update checks its input and calls one unchecked step
(_rls_step, _dcd_step, _arlms_step), which hot loops call directly; each
step also returns the prediction it made before updating, so a replay
computes it once.  Inside a step only the BLAS reductions (h'a, P h,
h'P h) stay in numpy: their summation order sets the rounding that the
outputs depend on.  The DCD step keeps R and beta as lists of Python
floats from one step to the next, because its correlation update and
coordinate ladder are elementwise, and Python rounds each element as
numpy does at a fraction of the per-call cost on M of about 4.

Feature convention at this boundary: rows arrive in estimator units
(features.estimator_units), with the frequency delta in GHz and counter
deltas divided by per-counter scales fixed from the first observation
window, so feature entries are O(1).  Coefficients are in those units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

DEFAULT_MU = 1e-14
DEFAULT_LAMBDA = 1.0
DCD_STEP_AMPLITUDE = 1.0   # largest DCD coordinate step, halved down the ladder
ARLMS_EPS = 1e-6           # keeps the NLMS normalization finite on a zero history


@dataclass(frozen=True)
class RlsState:
    """Covariance-form RLS state: coefficients a and covariance P."""

    a: np.ndarray
    P: np.ndarray
    lam: float

    @property
    def m(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class DcdRlsState:
    """Traversal-form RLS state solved by dichotomous coordinate descent.

    R accumulates the exponentially weighted feature correlation matrix,
    exactly symmetric, and beta the residual of the normal equations
    R * a = rhs.  nu bounds the coordinate updates per sample and mb is the
    bit depth of the halving step ladder.
    """

    a: np.ndarray
    R: np.ndarray
    beta: np.ndarray
    lam: float
    nu: int = 4
    mb: int = 16

    @property
    def m(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class ArLmsState:
    """Autoregressive frame-time predictor trained by normalized LMS."""

    w: np.ndarray
    history: tuple[float, ...]
    order: int = 10
    step_size: float = 0.5

    @property
    def warm(self) -> bool:
        return len(self.history) == self.order


def _check_vector(h, m: int) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if h.shape != (m,):
        raise ValueError(f"feature vector has shape {h.shape}, expected ({m},)")
    return h


def rls_init(m: int, mu: float = DEFAULT_MU, lam: float = DEFAULT_LAMBDA,
             a_init=None) -> RlsState:
    """Fresh RLS state: a = a_init (default all ones), P = I/mu.

    The all-ones start treats frames as fully scalable until data says
    otherwise.  mu is the ridge weight pulling coefficients toward a_init.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if mu <= 0:
        raise ValueError("mu must be > 0")
    if not 0 < lam <= 1:
        raise ValueError("lambda must be in (0, 1]")
    a0 = np.ones(m) if a_init is None else np.asarray(a_init, dtype=float).copy()
    if a0.shape != (m,):
        raise ValueError(f"a_init has shape {a0.shape}, expected ({m},)")
    return RlsState(a=a0, P=np.eye(m) / mu, lam=lam)


def _rls_step(a: np.ndarray, P: np.ndarray, h: np.ndarray, d: float, lam: float):
    """rls_update on bare arrays, unchecked: returns the new (a, P) and the
    prediction h'a made before the update.

    P starts at I/mu, so a reordered step would round differently; only
    the exact no-op of dividing by lam == 1.0 is skipped.
    """
    pred = float(h @ a)
    Ph = P @ h
    G = Ph / (float(h @ Ph) + lam)
    P = P - G[:, None] * Ph
    if lam != 1.0:
        P = P / lam
    return a + G * (d - pred), (P + P.T) / 2.0, pred


def rls_update(state: RlsState, h, actual_delta: float) -> RlsState:
    """One covariance-form update.

    Gain G = P h / (h' P h + lambda); the denominator is a scalar so no
    matrix inversion is performed.  P is symmetrized after the update.
    Non-finite inputs raise and the caller's state stays untouched.
    """
    h = _check_vector(h, state.m)
    if not np.all(np.isfinite(h)) or not np.isfinite(actual_delta):
        raise ValueError("non-finite update input, state left unchanged")
    a, P, _ = _rls_step(state.a, state.P, h, float(actual_delta), state.lam)
    return RlsState(a=a, P=P, lam=state.lam)


def dcd_rls_init(m: int, mu: float = DEFAULT_MU, lam: float = DEFAULT_LAMBDA,
                 a_init=None, nu: int = 4, mb: int = 16) -> DcdRlsState:
    """Fresh DCD-RLS state: R = mu*I, beta = 0, a = a_init (default ones)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if mu <= 0:
        raise ValueError("mu must be > 0")
    if not 0 < lam <= 1:
        raise ValueError("lambda must be in (0, 1]")
    if nu < 1 or mb < 1:
        raise ValueError("need nu >= 1, mb >= 1")
    a0 = np.ones(m) if a_init is None else np.asarray(a_init, dtype=float).copy()
    if a0.shape != (m,):
        raise ValueError(f"a_init has shape {a0.shape}, expected ({m},)")
    return DcdRlsState(a=a0, R=np.eye(m) * mu, beta=np.zeros(m), lam=lam, nu=nu, mb=mb)


def _dcd_step(a: np.ndarray, R: list, beta: list, h: np.ndarray, d: float,
              lam: float, nu: int, mb: int):
    """dcd_rls_update, unchecked, with R (rows) and beta as lists of Python
    floats: returns the new (a, R, beta) and the prediction h'a made before
    the update.

    Besides the prediction, numpy only adds the increment to a; the rest
    runs on Python floats, which round each element as numpy's elementwise
    operations do.  Scaling by lam == 1.0 is skipped as the exact no-op it
    is.

    The coordinate solve of R da = beta + err h is leading-element DCD:
    steps are quantized to DCD_STEP_AMPLITUDE / 2^level, the amplitude
    halving whenever the leading residual no longer justifies the current
    step, and at most nu coordinate updates are applied, each costing one
    column combination.  R is exactly symmetric (it starts at mu I, and
    h_i h_j == h_j h_i), so row j serves as column j.  max/index picks the
    first largest residual, as argmax does while no residual is nan.
    """
    pred = float(h @ a)
    err = d - pred
    hs = h.tolist()
    if lam != 1.0:
        R = [[lam * v for v in row] for row in R]
        beta = [lam * v for v in beta]
    R = [[v + hi * hj for v, hj in zip(row, hs)] for row, hi in zip(R, hs)]
    r = [v + err * hi for v, hi in zip(beta, hs)]
    da = [0.0] * len(r)
    alpha = DCD_STEP_AMPLITUDE
    level = 1
    for _ in range(nu):
        mags = list(map(abs, r))
        j = mags.index(max(mags))
        while mags[j] <= (alpha / 2.0) * R[j][j]:
            level += 1
            if level > mb:
                return a + np.array(da), R, r, pred
            alpha /= 2.0
        step = math.copysign(alpha, r[j])
        da[j] += step
        r = [v - step * c for v, c in zip(r, R[j])]
    return a + np.array(da), R, r, pred


def dcd_rls_update(state: DcdRlsState, h, actual_delta: float) -> DcdRlsState:
    """One traversal-form update with an inexact coordinate-descent solve.

    R <- lam R + h h'; the innovation enters the residual vector and the
    coefficient increment comes from at most nu DCD coordinate updates.
    The unsolved residual carries over, so nothing is lost to truncation.
    """
    h = _check_vector(h, state.m)
    if not np.all(np.isfinite(h)) or not np.isfinite(actual_delta):
        raise ValueError("non-finite update input, state left unchanged")
    a, R, beta, _ = _dcd_step(state.a, state.R.tolist(), state.beta.tolist(), h,
                              float(actual_delta), state.lam, state.nu, state.mb)
    return replace(state, a=a, R=np.array(R), beta=np.array(beta))


def arlms_init(order: int = 10, step_size: float = 0.5) -> ArLmsState:
    if order < 1:
        raise ValueError("order must be >= 1")
    if not 0 < step_size < 2:
        raise ValueError("step_size must be in (0, 2)")
    return ArLmsState(w=np.zeros(order), history=(), order=order, step_size=step_size)


def _arlms_step(w: np.ndarray, hist: np.ndarray, frame_time: float, step_size: float):
    """Normalized LMS weights after the error on frame_time, and the
    prediction w'hist of frame_time they were made from."""
    pred = float(w @ hist)
    err = frame_time - pred
    return w + step_size * err * hist / (ARLMS_EPS + float(hist @ hist)), pred


def arlms_update(state: ArLmsState, frame_time: float) -> tuple[ArLmsState, float]:
    """Consume one frame time, return the prediction for the next one.

    Until `order` samples have been seen the filter only fills its history
    and predicts 0.  Once warm, the weights move by the normalized LMS
    rule against the error on the sample just consumed.
    """
    if frame_time < 0:
        raise ValueError("frame_time must be >= 0")
    w = state.w
    if state.warm:
        w, _ = _arlms_step(w, np.array(state.history), frame_time, state.step_size)
        history = state.history[1:] + (frame_time,)
    else:
        history = state.history + (frame_time,)
    new = replace(state, w=w, history=history)
    prediction = float(w @ np.array(history)) if new.warm else 0.0
    return new, prediction


def batch_ridge_solve(h_rows, targets, mu: float, a_init) -> np.ndarray:
    """Direct minimizer of (a - a_init)' (mu I) (a - a_init) + sum (d - h'a)^2.

    Solves (mu I + H'H) a = mu a_init + H'd.  This is the closed form the
    recursive updates must match at lambda = 1, so it serves as the test
    reference for them.
    """
    H = np.asarray(h_rows, dtype=float)
    d = np.asarray(targets, dtype=float)
    if H.ndim != 2 or H.shape[0] == 0:
        raise ValueError("need a non-empty matrix of feature rows")
    if d.shape != (H.shape[0],):
        raise ValueError("targets must align with feature rows")
    if mu <= 0:
        raise ValueError("mu must be > 0")
    a0 = np.asarray(a_init, dtype=float)
    m = H.shape[1]
    if a0.shape != (m,):
        raise ValueError(f"a_init has shape {a0.shape}, expected ({m},)")
    A = mu * np.eye(m) + H.T @ H
    b = mu * a0 + H.T @ d
    return np.linalg.solve(A, b)


def op_count(m: int, algo: str) -> int:
    """Arithmetic operations per update: 2M^2 + 8M + 2 for rls, 17M for dcd_rls."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if algo == "rls":
        return 2 * m * m + 8 * m + 2
    if algo == "dcd_rls":
        return 17 * m
    raise ValueError(f"unknown algorithm {algo!r}")
