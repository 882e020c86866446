"""Test scenarios, derived from the shipped configs wherever one defines them.

A workload that a file under configs/ defines is loaded from that file,
and a test that needs a variant changes the loaded spec, or a record
such as a CounterModel, with the record's _replace.  Only what no config holds is written out here: the
light ramp governor run, the step-change workload of the convergence
criterion, and the seeds of the acceptance sweeps.

The estimators written out in full are here too, as the references the
estimator, replay and governor tests check the package's steps against:
reference_rls, the covariance-form update, reference_dcd, the DCD-RLS
update with its coordinate ladder, and reference_arlms, the AR baseline
with its warm-up; the governor's closed loops one interval at a time,
reference_rls_policy (with reference_rls_choice) and reference_ondemand,
the one-row choice rule reference_cheapest_level and the noise draw
reference_noise; batch_ridge_solve, the closed form the RLS forms must
reproduce at lambda = 1, and op_count, the paper's per-update operation
counts of the two RLS forms.  So is the analytic workload at one (complexity,
frequency) point, on Python floats, which the trace, governor and
acceptance tests compare the package's columns with:
reference_frame_time, reference_derivative and reference_counters.
Four more references keep earlier forms of package code whose output must
not change: reference_serialize, the trace serializer with one dict of
formatted values per block column; reference_standardize, the column
standardization of the lasso fits written with numpy's mean, std and ptp;
reference_lasso_path, the knot loop with its bookkeeping on numpy arrays;
and reference_cv_path, the cross-validation with boolean-mask folds.
"""

import math
import random
from pathlib import Path

import numpy as np

from frametime.config import load_config, parse_schedule
from frametime.estimator import (ARLMS_EPS, ARLMS_ORDER, ARLMS_STEP_SIZE,
                                 DCD_STEP_AMPLITUDE, MHZ_PER_GHZ, differential_features,
                                 estimator_units, rls_init)
from frametime.features import (CV_FOLDS, ETA_GRID_POINTS, ETA_GRID_RATIO, _lasso_path,
                                _raises_rank, _standardize)
from frametime.trace import AffineMap, CounterModel, WorkloadSpec
from frametime.workloads import random_walk_freqs

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SWEEP_SEED = 42       # the noisy characterization sweep of criteria 4 and 7
SELECTION_SEED = 7    # the selection sweep of criterion 11


def reference_rls(a, P, h, d, lam):
    """The covariance-form update written as plain numpy, every operation
    kept, zero rows included: returns the new (a, P)."""
    err = float(d) - float(h @ a)
    Ph = P @ h
    G = Ph / (float(h @ Ph) + lam)
    P = (P - np.outer(G, Ph)) / lam
    P = (P + P.T) / 2.0
    return a + G * err, P


def reference_noise(spec, seed):
    """The per-interval noise factors a governor run at this seed draws,
    max(1 + noise_sigma z, 0), as Python floats: the z in order, two per
    pair of random() draws (u1, u2) of random.Random(seed) by Box-Muller,
    r cos theta then r sin theta with r = sqrt(-2 ln(1 - u1)) and
    theta = 2 pi u2, the last sine dropped when the count is odd."""
    n = len(spec.complexity_schedule)
    stream, z = random.Random(seed), []
    while len(z) < n:
        u1 = stream.random()
        u2 = stream.random()
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        z.append(r * math.cos(2.0 * math.pi * u2))
        if len(z) < n:
            z.append(r * math.sin(2.0 * math.pi * u2))
    return [max(1.0 + spec.noise_sigma * v, 0.0) for v in z]


def reference_cheapest_level(frame_ms, power, cfg, pm):
    """The governor's choice for one row of predicted frame times (ms), one
    level at a time on Python floats: among the levels within the frame
    budget, the first of least interval energy at its active power (W),
    else the top level."""
    level, least = len(power) - 1, math.inf
    for i, (t, p) in enumerate(zip(frame_ms, power)):
        if t <= cfg.frame_budget_ms:
            active = min(cfg.frames_per_interval * max(t, 0.0), cfg.period)
            energy = (p * active + pm.p_idle * (cfg.period - active)) / 1000.0
            if energy < least:
                level, least = i, energy
    return level


def reference_rls_choice(a0, a1, t, f, table, cfg, pm):
    """The level the rls policy chooses after a frame time of t ms at f MHz,
    from its frequency coefficients a0, a1: reference_cheapest_level on the
    what-if frame time t + a0 t (f/g - 1) + a1 (g - f)/1000 at each level g."""
    levels = table.freqs_mhz
    predicted = [t + (a0 * t * (f / g - 1.0) + a1 * (g - f) / MHZ_PER_GHZ) for g in levels]
    return reference_cheapest_level(predicted, pm.active_power(np.asarray(levels)).tolist(),
                                    cfg, pm)


def reference_rls_policy(spec, table, cfg, pm, seed):
    """The rls policy's closed loop, one interval at a time: from the top
    level, each interval realizes its frame time, then (from the second)
    makes a full reference_rls update on its differential feature row in
    estimator units, then (from interval warmup_intervals - 1) chooses the
    next level by reference_rls_choice.  Returns the frequencies and the
    realized frame times, as lists."""
    schedule = spec.complexity_schedule
    n_dep, n_indep = len(spec.dep_counters), len(spec.indep_counters)
    x = np.array([reference_counters(spec, c, table.freqs_mhz[-1])[n_dep:] for c in schedule])
    x = x.reshape(len(schedule), n_indep)
    units = estimator_units(x)
    (a, P), f, freqs, realized = rls_init(n_indep + 2), table.freqs_mhz[-1], [], []
    for k, (c, z) in enumerate(zip(schedule, reference_noise(spec, seed))):
        t = reference_frame_time(spec, c, f) * z
        freqs.append(f)
        realized.append(t)
        if k > 0:
            h = differential_features(realized[-2], freqs[-2], f, x[k] - x[k - 1])
            a, P = reference_rls(a, P, h / units[k], t - realized[-2], 1.0)
        if k + 1 >= cfg.warmup_intervals:
            f = table.freqs_mhz[reference_rls_choice(float(a[0]), float(a[1]), t, f,
                                                     table, cfg, pm)]
    return freqs, realized


def reference_ondemand(spec, table, cfg, seed):
    """The ondemand policy's closed loop, one interval at a time: from the
    top level, an interval whose utilization min(frames * t, period) /
    period is above up_threshold moves to the top level, one below
    down_threshold one level down (the bottom level stays), any other
    holds.  Returns the frequencies and the realized frame times, as lists."""
    levels = table.freqs_mhz
    level, freqs, realized = len(levels) - 1, [], []
    for c, z in zip(spec.complexity_schedule, reference_noise(spec, seed)):
        t = reference_frame_time(spec, c, levels[level]) * z
        freqs.append(levels[level])
        realized.append(t)
        busy = min(cfg.frames_per_interval * t, cfg.period) / cfg.period
        if busy > cfg.up_threshold:
            level = len(levels) - 1
        elif busy < cfg.down_threshold:
            level = max(level - 1, 0)
    return freqs, realized


def reference_dcd(a, R, beta, h, d, lam, nu, mb):
    """The DCD-RLS update with its coordinate ladder on numpy arrays:
    returns the new (a, R, beta)."""
    err = float(d) - float(h @ a)
    R = lam * R + np.outer(h, h)
    r = lam * beta + err * h
    da = np.zeros_like(r)
    alpha, level = DCD_STEP_AMPLITUDE, 1
    diag = np.diag(R)
    for _ in range(nu):
        j = int(np.argmax(np.abs(r)))
        while abs(r[j]) <= (alpha / 2.0) * diag[j]:
            level += 1
            if level > mb:
                return a + da, R, r
            alpha /= 2.0
        step = math.copysign(alpha, r[j])
        da[j] += step
        r = r - step * R[:, j]
    return a + da, R, r


def reference_arlms(frame_times):
    """The AR baseline over a stream of frame times: after each one, the
    prediction of the next, 0.0 until ARLMS_ORDER frame times fill the
    history.  The weights start at zero and, once the history is full,
    move by normalized LMS against the error on each new frame time
    before it enters the history."""
    w, history, predictions = np.zeros(ARLMS_ORDER), [], []
    for t in frame_times:
        t = float(t)
        if len(history) == ARLMS_ORDER:
            x = np.array(history)
            err = t - float(w @ x)
            w = w + ARLMS_STEP_SIZE * err * x / (ARLMS_EPS + float(x @ x))
            history = history[1:]
        history.append(t)
        warm = len(history) == ARLMS_ORDER
        predictions.append(float(w @ np.array(history)) if warm else 0.0)
    return predictions


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
    if not (math.isfinite(mu) and mu > 0):
        raise ValueError(f"mu must be finite and > 0, got {mu}")
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


def reference_serialize(trace):
    """The trace log format, one dict of reprs per column of each block of
    256 rows, keyed by bit pattern so that -0.0 stays apart from 0.0."""
    lines = ["# freq_table_mhz = " + ",".join(repr(f) for f in trace.freq_table),
             ",".join(("time", "frame_time_ms", "frame_count", "gpu_freq_mhz")
                      + trace.counter_names)]
    columns = [trace.timestamps, trace.frame_times, trace.frame_counts, trace.freqs,
               *trace.counters.T]
    for start in range(0, len(trace), 256):
        cells = []
        for column in columns:
            block = column[start:start + 256]
            keys = block.view(np.int64).tolist()
            strs = {key: repr(value) for key, value in zip(keys, block.tolist())}
            cells.append([strs[key] for key in keys])
        lines.extend(",".join(row) for row in zip(*cells))
    return "\n".join(lines) + "\n"


def reference_standardize(h, y):
    """(X, yc, x_mean, x_std, y_mean) of the lasso fits: a constant column
    (zero range) is centred on its first value, any other on its mean; the
    columns are divided by their population std, or by 1 where it is 0."""
    x_mean = np.where(np.ptp(h, axis=0) == 0, h[0], h.mean(axis=0))
    x_std = h.std(axis=0)
    x_std = np.where(x_std == 0, 1.0, x_std)
    y_mean = y.mean()
    return (h - x_mean) / x_std, y - y_mean, x_mean, x_std, y_mean


def reference_lasso_path(X, y, lam_min):
    """The lasso path's knots (lams, coefs) with every per-knot quantity a
    numpy array: up, down, hit and gamma by np.where, np.maximum and
    np.minimum over all columns, under np.errstate for the quotients
    np.where masks out.  features._lasso_path must return the same bytes."""
    if X.shape[0] == 0:
        raise ValueError("empty dataset")
    if lam_min < 0:
        raise ValueError("eta must be >= 0")
    gram = X.T @ X
    xy = X.T @ y
    R = np.linalg.qr(X, mode="r")
    m = X.shape[1]
    a = np.zeros(m)
    signs = np.zeros(m)
    c = xy
    lam = float(np.max(np.abs(c)))
    lams, knots = [lam], [a.copy()]
    active: list[int] = []
    dropped = None
    # np.where computes the quotients it masks out too, and those may divide by zero
    with np.errstate(divide="ignore", invalid="ignore"):
        while lam > lam_min:
            d = np.zeros(m)  # coefficient change per unit decrease of lam
            if active:
                d[active] = np.linalg.solve(gram[active][:, active], signs[active])
            w = gram @ d     # correlation change per unit decrease of lam
            step, join, leave = lam - lam_min, None, None
            up = np.where(w < 1, np.maximum(lam - c, 0.0) / (1.0 - w), np.inf)
            down = np.where(w > -1, np.maximum(lam + c, 0.0) / (1.0 + w), np.inf)
            hit = np.where(d != 0, -a / d, np.inf)
            if dropped is not None:
                # it left with |c| = lam and may only come back with the other sign
                (up if signs[dropped] > 0 else down)[dropped] = np.inf
            gamma = np.minimum(up, down)
            for j in sorted(set(range(m)) - set(active), key=gamma.__getitem__):
                if gamma[j] >= step:
                    break
                if _raises_rank(R, active, j):
                    step, join = gamma[j], j
                    break
            for j in active:
                if 0 < hit[j] < step:
                    step, join, leave = hit[j], None, j
            a += step * d
            lam = lam - step if join is not None or leave is not None else lam_min
            c = xy - gram @ a
            dropped = leave
            if join is not None:
                active.append(join)
                signs[join] = 1.0 if up[join] <= down[join] else -1.0
            if leave is not None:
                active.remove(leave)
                a[leave] = 0.0
            lams.append(lam)
            knots.append(a.copy())
    return np.array(lams), np.array(knots)


def reference_cv_path(dataset):
    """(etas, coefs, cv_mean_mse, cv_stderr) of features.cross_validated_path
    with each fold's training and test rows picked by boolean masks, from
    the module's own _standardize and _lasso_path."""
    h, y, n = dataset.h, dataset.targets, len(dataset)

    def fit(X, yc, x_mean, x_std, y_mean):
        lams, knots = _lasso_path(X, yc, etas[-1] / 2.0)
        a = np.column_stack([np.interp(etas / 2.0, lams[::-1], col[::-1]) for col in knots.T])
        coefs = a / x_std
        return coefs, y_mean - coefs @ x_mean

    full = _standardize(h, y)
    eta_max = 2.0 * float(np.max(np.abs(full[0].T @ full[1]))) or 1.0
    etas = np.geomspace(eta_max, eta_max * ETA_GRID_RATIO, ETA_GRID_POINTS)
    coefs, _ = fit(*full)
    bounds = np.linspace(0, n, CV_FOLDS + 1, dtype=int)
    fold_mse = np.empty((etas.size, CV_FOLDS))
    for k in range(CV_FOLDS):
        test = np.zeros(n, dtype=bool)
        test[bounds[k]:bounds[k + 1]] = True
        fold_coefs, intercepts = fit(*_standardize(h[~test], y[~test]))
        err = y[test, None] - (h[test] @ fold_coefs.T + intercepts)
        fold_mse[:, k] = np.mean(err * err, axis=0)
    return (etas, coefs, fold_mse.mean(axis=1),
            fold_mse.std(axis=1, ddof=1) / np.sqrt(CV_FOLDS))


def reference_frame_time(spec, c, f):
    """Noiseless frame time in ms at complexity c and f MHz:
    scalable_ms(c) * ref_freq / f + unscalable_ms(c)."""
    return spec.scalable_ms(c) * spec.ref_freq / f + spec.unscalable_ms(c)


def reference_derivative(spec, c, f):
    """d(frame time)/d(frequency) in ms per MHz at (c, f): -scalable_ms(c) * ref_freq / f^2."""
    return -spec.scalable_ms(c) * spec.ref_freq / (f * f)


def reference_counters(spec, c, f):
    """Counter values at (c, f) in counter_names order: each dep counter's
    response times f / ref_freq, then each indep counter's response."""
    dep = [cm.response(c) * (f / spec.ref_freq) for cm in spec.dep_counters]
    return tuple(dep + [cm.response(c) for cm in spec.indep_counters])


def shipped(name: str):
    """The loaded bundle of configs/<name>.ini."""
    return load_config(CONFIG_DIR / f"{name}.ini")


def truncated(spec: WorkloadSpec, n: int) -> WorkloadSpec:
    """spec with its complexity schedule cut to the first n intervals."""
    assert n <= len(spec.complexity_schedule)
    return spec._replace(complexity_schedule=spec.complexity_schedule[:n])


def sensitivity_run(n: int, seed: int) -> tuple[WorkloadSpec, tuple[float, ...]]:
    """The characterization workload without noise, cut to n intervals,
    and a random-walk clock for it: (spec, per-interval frequencies).
    Generate the trace on the characterization config's table."""
    bundle = shipped("characterization")
    spec = truncated(bundle.workload, n)._replace(noise_sigma=0.0)
    return spec, random_walk_freqs(bundle.freq_table, n, seed)


def heavy_runs(n: int) -> dict[str, WorkloadSpec]:
    """The heavy governor config's workload under four schedules of n
    intervals: its own square wave, two other square waves and a steady
    load.  The frame budget holds only at mid-to-high frequencies."""
    heavy = shipped("governor_heavy").workload

    def under(schedule):
        return heavy._replace(complexity_schedule=parse_schedule(schedule))

    return {
        "heavy_square_a": truncated(heavy, n),
        "heavy_square_b": under(f"square:37:56:50:{n}"),
        "heavy_square_c": under(f"square:42:48:30:{n}"),
        "heavy_steady": under(f"constant:37:{n}"),
    }


def light_runs(n: int) -> dict[str, WorkloadSpec]:
    """Runs feasible at every frequency: the light governor config cut to
    n intervals, and a complexity ramp from 10 to 30 on a lighter
    frame-time model."""
    light = shipped("governor_light").workload
    ramp = tuple(10.0 + 20.0 * k / max(n - 1, 1) for k in range(n))
    return {
        "light_square": truncated(light, n),
        "light_ramp": light._replace(complexity_schedule=ramp,
                                     scalable_ms=AffineMap(0.02, 0.3),
                                     unscalable_ms=AffineMap(0.06, 1.5)),
    }


# Square-wave complexity at a fixed clock, for the convergence criterion
STEP_CHANGE = WorkloadSpec(
    complexity_schedule=parse_schedule("square:20:45:30:120"),
    scalable_ms=AffineMap(0.28, 1.0),
    unscalable_ms=AffineMap(0.01, 0.5),
    ref_freq=200.0,
    dep_counters=(CounterModel("render_busy_kcycles", AffineMap(30.0, 300.0)),),
    indep_counters=(CounterModel("workload_units", AffineMap(8.0, 50.0)),),
    noise_sigma=0.0,
)
