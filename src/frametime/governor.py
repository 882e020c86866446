"""Discrete-time DVFS policy simulation.

Three policies run the same closed loop against the analytic workload:
a model-predictive policy driven by the adaptive frame-time estimator, a
clairvoyant per-interval optimum, and a utilization-threshold governor in
the style of the Linux ondemand default.  Each interval the policy picks
a frequency, the workload realizes a frame time (with a common,
per-interval noise draw shared by all policies at a given seed), and the
interval's energy comes from a parametric power model.

simulate evaluates the workload's maps once (trace.workload_columns,
which rejects the workloads that characterize rejects), checks the frame
times at every level and the counters for being finite once, and lets
each policy only choose levels.  PolicyResult holds a run by column.

The power model is a simulation stand-in, not measured hardware: static
plus cubic-in-frequency dynamic power while the GPU renders, a floor
while it idles out the rest of the interval.

An rls interval makes one estimator step (estimator.rls_step, whose BLAS
reductions set the rounding) and asks model.candidate_delta one what-if
question per table level; neither checks anything.  In a steady
interval, at the same clock and complexity as the last, the feature row
is all zeros, and at lambda = 1 the step then returns the state at once,
as the full update would leave it bit for bit.  The questions and the
cheapest-feasible choice among their answers run on Python floats
(_rls_choice), which round each operation as numpy's elementwise
operations do, so the choice equals the oracle's matrix rule
(_cheapest_feasible) bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .config import POLICIES, GovernorConfig, PowerModel
from .estimator import rls_init, rls_step
from .features import MHZ_PER_GHZ, _frequency_terms, estimator_units
from .trace import FrequencyTable, WorkloadSpec, frame_times, workload_columns


@dataclass(frozen=True)
class PolicyResult:
    """A run by column, one entry per interval: chosen MHz, realized frame
    time (ms), energy (J), and whether the frame time missed the budget."""
    policy: str
    freqs: np.ndarray
    frame_ms: np.ndarray
    energies: np.ndarray
    violations: np.ndarray

    @property
    def fps_violations(self) -> int:
        return int(np.count_nonzero(self.violations))

    @property
    def total_energy(self) -> float:
        return sum(self.energies.tolist())


def interval_energy(power, active_ms, period_ms: float, p_idle: float):
    """Joules for intervals with active_ms of rendering at active power
    (W) and p_idle for the rest of the period; active_ms is already capped
    at the period.  On arrays or on Python floats."""
    return (power * active_ms + p_idle * (period_ms - active_ms)) / 1000.0


def _cheapest_feasible(frame_ms: np.ndarray, power: np.ndarray, cfg: GovernorConfig,
                       pm: PowerModel) -> np.ndarray:
    """Table level of least predicted energy that holds the frame rate, per row.

    frame_ms holds predicted frame times, (rows, levels) in table order, and
    power the active power of each level.  Where no level is within the
    frame budget, the top level is the safe fallback; ties go to the lower
    level.
    """
    frame_ms = np.maximum(frame_ms, 0.0)
    active = np.minimum(cfg.frames_per_interval * frame_ms, cfg.period)
    energy = interval_energy(power, active, cfg.period, pm.p_idle)
    feasible = frame_ms <= cfg.frame_budget_ms
    cheapest = np.where(feasible, energy, np.inf).argmin(axis=-1)
    return np.where(feasible.any(axis=-1), cheapest, power.size - 1)


def _cheapest_level(frame_ms: list, power: list, cfg: GovernorConfig,
                    pm: PowerModel) -> int:
    """_cheapest_feasible for one row of Python floats.

    A level count this small costs less on floats than in numpy calls.
    The first level of strictly least energy wins, as argmin picks.
    """
    n_frames, period, budget = cfg.frames_per_interval, cfg.period, cfg.frame_budget_ms
    level, least = len(power) - 1, math.inf
    for i, (t, p) in enumerate(zip(frame_ms, power)):
        # the budget is positive, so clamping t at 0 first decides nothing
        if t <= budget:
            active = min(n_frames * max(t, 0.0), period)
            energy = interval_energy(p, active, period, pm.p_idle)
            if energy < least:
                level, least = i, energy
    return level


def _rls_choice(a0: float, a1: float, t: float, f: float, levels, power: list,
                cfg: GovernorConfig, pm: PowerModel) -> int:
    """Level of the rls policy's choice from frequency coefficients a0, a1,
    the last frame time t ms at f MHz, the table levels and their active
    power, all on Python floats."""
    return _cheapest_level([t + model.candidate_delta(a0, a1, t, f, g) for g in levels],
                           power, cfg, pm)


def ondemand_policy_step(utilization: float, current_f: float,
                         table: FrequencyTable, cfg: GovernorConfig) -> float:
    """Utilization-threshold rule: saturate to max, step down, or hold."""
    if not 0 <= utilization <= 1:
        raise ValueError("utilization must be in [0, 1]")
    if utilization > cfg.up_threshold:
        return table.max
    if utilization < cfg.down_threshold:
        i = table.index(current_f)
        return table.freqs_mhz[max(i - 1, 0)]
    return current_f


def _policy_result(policy: str, levels: np.ndarray, frame_ms: np.ndarray, chosen,
                   cfg: GovernorConfig, pm: PowerModel) -> PolicyResult:
    """The run's columns from the table level chosen in each interval and
    the (intervals, levels) frame times."""
    chosen = np.asarray(chosen, dtype=np.intp)
    freqs, realized = levels[chosen], frame_ms[np.arange(chosen.size), chosen]
    active = np.minimum(cfg.frames_per_interval * realized, cfg.period)
    energies = interval_energy(pm.active_power(freqs), active, cfg.period, pm.p_idle)
    return PolicyResult(policy, freqs, realized, energies, realized > cfg.frame_budget_ms)


def simulate(policy: str, spec: WorkloadSpec, table: FrequencyTable,
             cfg: GovernorConfig, pm: PowerModel, seed: int = 0) -> PolicyResult:
    """Closed-loop run of one policy over the workload's schedule.

    The workload's maps are evaluated once, into the (intervals, levels)
    grid of frame times with noise drawn once per interval from the seed,
    shared across policies.  Each policy only chooses a level per
    interval, and the estimator behind the rls policy learns from each
    realized sample.  Deterministic for a given (policy, spec, seed).
    Energy never feeds back into a decision, so it is computed after the
    loop.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}, expected one of {POLICIES}")
    schedule = spec.complexity_schedule
    n = len(schedule)
    rng = np.random.default_rng(seed)
    if spec.noise_sigma > 0:
        noise = np.maximum(1.0 + rng.normal(0.0, spec.noise_sigma, size=n), 0.0)
    else:
        noise = np.ones(n)
    columns = workload_columns(spec, schedule)
    freqs = np.asarray(table.freqs_mhz)
    with np.errstate(over="ignore", invalid="ignore"):   # inf * 0 noise is nan
        frame_ms = frame_times(spec, columns[:, None, :], freqs) * noise[:, None]
    if not (np.isfinite(columns).all() and np.isfinite(frame_ms).all()):
        raise ValueError("non-finite counters or frame times")

    if policy == "oracle":
        chosen = _cheapest_feasible(frame_ms, pm.active_power(freqs), cfg, pm)
        return _policy_result(policy, freqs, frame_ms, chosen, cfg, pm)
    # each interval realizes one level's frame time; indexing a memoryview
    # reads it as a Python float without a Python copy of the whole grid
    realizable = memoryview(frame_ms)
    chosen = []
    if policy == "ondemand":
        f = table.max
        for k in range(n):
            chosen.append(table.index(f))
            t_real = realizable[k, chosen[-1]]
            f = ondemand_policy_step(min(cfg.frames_per_interval * t_real, cfg.period)
                                     / cfg.period, f, table, cfg)
        return _policy_result(policy, freqs, frame_ms, chosen, cfg, pm)

    # rls: learn from each realized sample, then choose the next frequency
    a, P = rls_init(2 + len(spec.indep_counters))
    # independent counters depend on the complexity only, so the whole run's
    # values, and with them the estimator units and each interval's counter
    # deltas in those units, are known upfront; only the two frequency
    # entries of a feature row depend on the choices
    x = columns[:, 2 + len(spec.dep_counters):]
    h = np.empty((n, 2 + x.shape[1]))
    h[1:, 2:] = (x[1:] - x[:-1]) / estimator_units(x)[1:, 2:]
    levels = table.freqs_mhz
    power = pm.active_power(freqs).tolist()
    level = len(levels) - 1
    for k in range(n):
        chosen.append(level)
        f, t_real = levels[level], realizable[k, level]
        if k > 0:
            # differential_features, in estimator units [1, MHZ_PER_GHZ, ...]
            dt, df = _frequency_terms(t_prev, f_prev, f)
            h[k, 0], h[k, 1] = dt, df / MHZ_PER_GHZ
            a, P, _ = rls_step(a, P, h[k], t_real - t_prev)
        t_prev, f_prev = t_real, f
        if k + 1 >= cfg.warmup_intervals:
            a0, a1 = a[:2].tolist()
            level = _rls_choice(a0, a1, t_real, f, levels, power, cfg, pm)
    return _policy_result(policy, freqs, frame_ms, chosen, cfg, pm)
