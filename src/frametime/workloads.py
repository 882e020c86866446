"""Built-in synthetic workloads.

These are the desk-scale stand-ins for real characterization and gaming
runs: a frequency sweep workload with a mixed counter population for
offline feature selection and replay accuracy studies, a step-change
workload for convergence comparisons, and governor runs split into
heavy runs (frame budget only holds at mid-to-high frequencies, used for
energy-savings comparisons) and light runs (feasible everywhere,
idle-dominated).

The sweep uses a nine-entry frequency ladder spanning 200 to 511 MHz.
Only seven entries of the reference platform's ladder are public, so the
two extra interior values here (244 and 278 MHz) are synthetic choices,
not platform data.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .trace import (AffineMap, CounterModel, FrequencyTable, HashNoiseMap,
                    PiecewiseLinearMap, WorkloadSpec)

SWEEP_FREQS_MHZ = (200.0, 244.0, 278.0, 311.0, 355.0, 400.0, 444.0, 489.0, 511.0)
SWEEP_TABLE = FrequencyTable(SWEEP_FREQS_MHZ)

SWEEP_COMPLEXITIES = tuple(float(c) for c in range(1, 65))
SWEEP_REPEATS = 10
SWEEP_SEED = 42

SELECTION_REPEATS = 4
SELECTION_NOISE_SIGMA = 0.003
SELECTION_SEED = 7


def characterization_workload(noise_sigma: float = 0.03) -> WorkloadSpec:
    """Mixed-counter sweep workload, mostly frequency scalable.

    The scalable time is the sum of a geometry-shaped part (piecewise
    linear in complexity, knee at C=32) and a shader-shaped part (linear
    in complexity); one frequency-independent counter mirrors each part,
    so both are needed to explain frame-time changes.  Two busy-cycle
    style counters track the clock and two junk counters are frequency
    independent but carry no workload signal.
    """
    levels = [float(c) for c in range(4, 65, 4)]
    schedule = tuple(levels[(k // 8) % len(levels)] for k in range(2400))
    return WorkloadSpec(
        complexity_schedule=schedule,
        # geometry part (1, 0.8) (32, 3.2) (64, 12.0) plus shader part 0.125*C
        scalable_ms=PiecewiseLinearMap(((1.0, 0.925), (32.0, 7.2), (64.0, 20.0))),
        unscalable_ms=AffineMap(0.02, 0.3),
        ref_freq=200.0,
        dep_counters=(
            CounterModel("render_busy_kcycles", "dep", AffineMap(50.0, 500.0)),
            CounterModel("dispatch_busy_kcycles", "dep", AffineMap(12.0, 100.0)),
        ),
        indep_counters=(
            CounterModel("geometry_batches", "indep",
                         PiecewiseLinearMap(((1.0, 12.0), (32.0, 48.0), (64.0, 180.0)))),
            CounterModel("shader_slots", "indep", AffineMap(4.0, 40.0)),
            CounterModel("probe_jitter_a", "indep", HashNoiseMap(200.0, salt=3.0)),
            CounterModel("probe_jitter_b", "indep", HashNoiseMap(200.0, salt=11.0)),
        ),
        noise_sigma=noise_sigma,
    )


def selection_workload() -> WorkloadSpec:
    """Low-noise variant of the sweep workload for offline feature selection."""
    return characterization_workload(noise_sigma=SELECTION_NOISE_SIGMA)


def random_walk_freqs(table: FrequencyTable, n: int, seed: int,
                      p_step: float = 0.35, p_jump: float = 0.07) -> tuple[float, ...]:
    """Frequency schedule that wanders the ladder, one level at a time
    with occasional jumps, starting from the top."""
    rng = np.random.default_rng(seed)
    i = len(table) - 1
    out = []
    for _ in range(n):
        r = rng.random()
        if r < p_step:
            i = min(max(i + int(rng.choice((-1, 1))), 0), len(table) - 1)
        elif r < p_step + p_jump:
            i = int(rng.integers(0, len(table)))
        out.append(table.freqs_mhz[i])
    return tuple(out)


def sensitivity_replay(n: int = 2400, seed: int = 5) -> tuple[WorkloadSpec, tuple[float, ...]]:
    """Runtime-style run for frequency-sensitivity studies.

    The sweep workload's own staircase schedule holds each complexity
    level for several intervals, so most consecutive samples share their
    workload; the frequency random-walks the ladder, which is what lets
    the online model identify the two frequency terms.  Returns (workload
    spec, per-interval frequency schedule); generate the trace with
    trace.generate_runtime.
    """
    base = noiseless(characterization_workload())
    schedule = tuple(base.complexity_schedule[k % len(base.complexity_schedule)]
                     for k in range(n))
    spec = replace(base, complexity_schedule=schedule)
    return spec, random_walk_freqs(SWEEP_TABLE, n, seed)


def step_change_workload(lo: float = 20.0, hi: float = 45.0, half_period: int = 30,
                         n: int = 120) -> WorkloadSpec:
    """Square-wave complexity at fixed frequency, for convergence studies."""
    schedule = tuple(lo if (k // half_period) % 2 == 0 else hi for k in range(n))
    return WorkloadSpec(
        complexity_schedule=schedule,
        scalable_ms=AffineMap(0.28, 1.0),
        unscalable_ms=AffineMap(0.01, 0.5),
        ref_freq=200.0,
        dep_counters=(CounterModel("render_busy_kcycles", "dep", AffineMap(30.0, 300.0)),),
        indep_counters=(CounterModel("workload_units", "indep", AffineMap(8.0, 50.0)),),
        noise_sigma=0.0,
    )


def _governor_spec(schedule, scalable, unscalable) -> WorkloadSpec:
    return WorkloadSpec(
        complexity_schedule=tuple(schedule),
        scalable_ms=scalable,
        unscalable_ms=unscalable,
        ref_freq=200.0,
        dep_counters=(CounterModel("render_busy_kcycles", "dep", AffineMap(20.0, 200.0)),),
        indep_counters=(CounterModel("workload_units", "indep", AffineMap(8.0, 50.0)),),
        noise_sigma=0.01,
    )


def _square(lo, hi, half, n):
    return [lo if (k // half) % 2 == 0 else hi for k in range(n)]


def heavy_workloads(n: int = 600) -> dict[str, WorkloadSpec]:
    """Runs where the frame budget forces mid-to-high frequencies.

    Complexity levels are placed so the realized frame time at the best
    feasible frequency sits well inside the budget while one level lower
    clearly misses it; utilization stays inside the hold band of the
    threshold governor, which therefore never leaves the maximum it
    started at.
    """
    heavy_scalable = AffineMap(0.5, 2.0)
    heavy_unscalable = AffineMap(0.0, 0.8)
    return {
        "heavy_square_a": _governor_spec(_square(32, 42, 40, n), heavy_scalable, heavy_unscalable),
        "heavy_square_b": _governor_spec(_square(37, 56, 50, n), heavy_scalable, heavy_unscalable),
        "heavy_square_c": _governor_spec(_square(42, 48, 30, n), heavy_scalable, heavy_unscalable),
        "heavy_steady": _governor_spec([37] * n, heavy_scalable, heavy_unscalable),
    }


def light_workloads(n: int = 600) -> dict[str, WorkloadSpec]:
    """Runs feasible at every frequency, where all policies should agree."""
    return {
        "light_square": _governor_spec(_square(15, 25, 50, n),
                                       AffineMap(0.05, 0.5), AffineMap(0.05, 2.0)),
        "light_ramp": _governor_spec(
            [10.0 + 20.0 * k / max(n - 1, 1) for k in range(n)],
            AffineMap(0.02, 0.3), AffineMap(0.06, 1.5)),
    }


def noiseless(spec: WorkloadSpec) -> WorkloadSpec:
    return replace(spec, noise_sigma=0.0)
