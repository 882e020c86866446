"""Test scenarios, derived from the shipped configs wherever one defines them.

A workload that a file under configs/ defines is loaded from that file,
and a test that needs a variant changes the loaded spec with
dataclasses.replace.  Only what no config holds is written out here: the
light ramp governor run, the step-change workload of the convergence
criterion, and the seeds of the acceptance sweeps.

The estimators written out in full are here too, as the references the
estimator, replay and governor tests check the package's steps against:
reference_rls, the covariance-form update, reference_dcd, the DCD-RLS
update with its coordinate ladder, and reference_arlms, the AR baseline
with its warm-up.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from frametime.config import load_config, parse_schedule
from frametime.estimator import (ARLMS_EPS, ARLMS_ORDER, ARLMS_STEP_SIZE,
                                 DCD_STEP_AMPLITUDE)
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


def shipped(name: str):
    """The loaded bundle of configs/<name>.ini."""
    return load_config(CONFIG_DIR / f"{name}.ini")


def truncated(spec: WorkloadSpec, n: int) -> WorkloadSpec:
    """spec with its complexity schedule cut to the first n intervals."""
    assert n <= len(spec.complexity_schedule)
    return replace(spec, complexity_schedule=spec.complexity_schedule[:n])


def sensitivity_run(n: int, seed: int) -> tuple[WorkloadSpec, tuple[float, ...]]:
    """The characterization workload without noise, cut to n intervals,
    and a random-walk clock for it: (spec, per-interval frequencies).
    Generate the trace on the characterization config's table."""
    bundle = shipped("characterization")
    spec = replace(truncated(bundle.workload, n), noise_sigma=0.0)
    return spec, random_walk_freqs(bundle.freq_table, n, seed)


def heavy_runs(n: int) -> dict[str, WorkloadSpec]:
    """The heavy governor config's workload under four schedules of n
    intervals: its own square wave, two other square waves and a steady
    load.  The frame budget holds only at mid-to-high frequencies."""
    heavy = shipped("governor_heavy").workload

    def under(schedule):
        return replace(heavy, complexity_schedule=parse_schedule(schedule))

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
        "light_ramp": replace(light, complexity_schedule=ramp,
                              scalable_ms=AffineMap(0.02, 0.3),
                              unscalable_ms=AffineMap(0.06, 1.5)),
    }


# Square-wave complexity at a fixed clock, for the convergence criterion
STEP_CHANGE = WorkloadSpec(
    complexity_schedule=parse_schedule("square:20:45:30:120"),
    scalable_ms=AffineMap(0.28, 1.0),
    unscalable_ms=AffineMap(0.01, 0.5),
    ref_freq=200.0,
    dep_counters=(CounterModel("render_busy_kcycles", "dep", AffineMap(30.0, 300.0)),),
    indep_counters=(CounterModel("workload_units", "indep", AffineMap(8.0, 50.0)),),
    noise_sigma=0.0,
)
