"""Test scenarios, derived from the shipped configs wherever one defines them.

A workload that a file under configs/ defines is loaded from that file,
and a test that needs a variant changes the loaded spec with
dataclasses.replace.  Only what no config holds is written out here: the
light ramp governor run, the step-change workload of the convergence
criterion, and the seeds of the acceptance sweeps.

reference_rls, the covariance-form update written out in full, is here
too: the estimator and governor tests both check the package's update
against it.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from frametime.config import load_config, parse_schedule
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
