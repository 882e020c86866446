"""Discrete-time DVFS policy simulation.

Three policies run the same closed loop against the analytic workload:
a model-predictive policy driven by the adaptive frame-time estimator, a
clairvoyant per-interval optimum, and a utilization-threshold governor in
the style of the Linux ondemand default.  Each interval the policy picks
a frequency, the workload realizes a frame time (with a common,
per-interval noise draw shared by all policies at a given seed), and the
interval's energy comes from a parametric power model.

The workload's frame time at every table level and its counters come
from one evaluation of its maps, trace.workload_columns, which rejects
the workloads that characterize rejects.

The power model is a simulation stand-in, not measured hardware: static
plus cubic-in-frequency dynamic power while the GPU renders, a floor
while it idles out the rest of the interval.

An rls interval makes one estimator step (estimator.rls_step, whose BLAS
reductions set the rounding) and asks the model one what-if question per
table level.  The step checks nothing, so simulate rejects non-finite
counters and frame times once, before its loop.  In a steady interval,
at the same clock and complexity as the last, the feature row is all
zeros, and at lambda = 1 the step then returns the state at once, as the
full update would leave it bit for bit; most intervals of a steady
workload are such intervals.  Those questions and the cheapest-feasible
choice among their answers run on Python floats (_rls_choice), which
round each operation as numpy's elementwise operations do, so the choice
equals the oracle's matrix rule (_cheapest_feasible) bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model
from .config import POLICIES, GovernorConfig, PowerModel
from .estimator import rls_init, rls_step
from .features import MHZ_PER_GHZ, _frequency_terms, estimator_units
from .trace import (FrequencyTable, WorkloadSpec, oracle_frame_times,
                    workload_columns)


@dataclass
class PolicyResult:
    policy: str
    freq_schedule: list[float] = field(default_factory=list)
    energies: list[float] = field(default_factory=list)
    fps_violations: int = 0
    per_interval_log: list[tuple] = field(default_factory=list)
    # rows: (k, policy, f_mhz, t_frame_ms, energy_j, violation)

    @property
    def total_energy(self) -> float:
        return sum(self.energies)


def interval_energy(pm: PowerModel, f, active_ms, period_ms: float):
    """Joules for intervals with active_ms of rendering at f MHz.

    f and active_ms broadcast against each other; active time beyond the
    period is capped at it.
    """
    f = np.asarray(f, dtype=float)
    active_ms = np.asarray(active_ms, dtype=float)
    if (f <= 0).any() or (active_ms < 0).any() or period_ms <= 0:
        raise ValueError("need f > 0, active_ms >= 0, period_ms > 0")
    return _interval_energy(pm.active_power(f), np.minimum(active_ms, period_ms),
                            period_ms, pm.p_idle)


def _interval_energy(power, active_ms, period_ms: float, p_idle: float):
    """interval_energy from the active power (W) and an active time already
    capped at the period, unchecked; on arrays or on Python floats."""
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
    energy = _interval_energy(power, active, cfg.period, pm.p_idle)
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
            energy = _interval_energy(p, active, period, pm.p_idle)
            if energy < least:
                level, least = i, energy
    return level


def _rls_choice(a0: float, a1: float, t: float, f: float, levels, power: list,
                cfg: GovernorConfig, pm: PowerModel) -> int:
    """Level of the rls policy's choice from frequency coefficients a0, a1,
    the last frame time t ms at f MHz, the table levels and their active
    power, all on Python floats."""
    return _cheapest_level([t + model._candidate_delta(a0, a1, t, f, g) for g in levels],
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


def _policy_result(policy: str, freqs: np.ndarray, frame_ms: np.ndarray,
                   cfg: GovernorConfig, pm: PowerModel) -> PolicyResult:
    """Energies and frame-rate violations of a run, from its chosen frequencies
    and realized frame times."""
    energies = interval_energy(pm, freqs, cfg.frames_per_interval * frame_ms,
                               cfg.period).tolist()
    violations = (frame_ms > cfg.frame_budget_ms).tolist()
    f, t = freqs.tolist(), frame_ms.tolist()
    return PolicyResult(policy, f, energies, sum(violations),
                        list(zip(range(len(f)), [policy] * len(f), f, t, energies,
                                 violations)))


def oracle_policy(spec: WorkloadSpec, table: FrequencyTable, cfg: GovernorConfig,
                  pm: PowerModel, noise) -> PolicyResult:
    """Per-interval exhaustive optimum with perfect knowledge.

    Requires the analytic workload; a parsed hardware trace cannot answer
    what-if frequencies.  noise is the per-interval multiplicative factor
    array, so the oracle judges the same realized frame times as the
    policies it is compared with.
    """
    if not isinstance(spec, WorkloadSpec):
        raise ValueError("oracle policy requires an analytic workload")
    noise = np.asarray(noise)[:, None]
    frame_ms = oracle_frame_times(spec, spec.complexity_schedule, table) * noise
    freqs = np.asarray(table.freqs_mhz)
    level = _cheapest_feasible(frame_ms, pm.active_power(freqs), cfg, pm)
    return _policy_result("oracle", freqs[level],
                          frame_ms[np.arange(len(level)), level], cfg, pm)


def simulate(policy: str, spec: WorkloadSpec, table: FrequencyTable,
             cfg: GovernorConfig, pm: PowerModel, seed: int = 0) -> PolicyResult:
    """Closed-loop run of one policy over the workload's schedule.

    Each interval the policy picks a frequency, the workload realizes a
    frame time there (noise drawn once per interval from the seed, shared
    across policies), and the estimator behind the rls policy learns from
    the realized sample.  Deterministic for a given (policy, spec, seed).
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

    if policy == "oracle":
        return oracle_policy(spec, table, cfg, pm, noise)
    if n == 0:
        return PolicyResult(policy=policy)

    frame_ms = oracle_frame_times(spec, schedule, table) * noise[:, None]
    # each interval realizes one level's frame time; indexing a memoryview
    # reads it as a Python float without a Python copy of the whole table
    realizable = memoryview(frame_ms)
    if policy == "ondemand":
        n_frames = cfg.frames_per_interval
        freqs, realized = [], []
        f = table.max
        for k in range(n):
            t_real = realizable[k, table.index(f)]
            freqs.append(f)
            realized.append(t_real)
            f = ondemand_policy_step(min(n_frames * t_real, cfg.period) / cfg.period, f,
                                     table, cfg)
        return _policy_result(policy, np.array(freqs), np.array(realized), cfg, pm)

    # rls: learn from each realized sample, then choose the next frequency
    a, P = rls_init(2 + len(spec.indep_counters))
    # independent counters depend on the complexity only, so the whole run's
    # values, and with them the estimator units and each interval's counter
    # deltas in those units, are known upfront; only the two frequency
    # entries of a feature row depend on the choices
    x = workload_columns(spec, schedule)[:, 2 + len(spec.dep_counters):]
    if not (np.isfinite(x).all() and np.isfinite(frame_ms).all()):
        raise ValueError("non-finite counters or frame times in the rls run")
    h = np.empty((n, 2 + x.shape[1]))
    h[1:, 2:] = (x[1:] - x[:-1]) / estimator_units(x)[1:, 2:]
    levels = table.freqs_mhz
    power = pm.active_power(np.asarray(levels)).tolist()

    chosen, realized = [], []
    level = len(levels) - 1
    for k in range(n):
        chosen.append(level)
        f, t_real = levels[level], realizable[k, level]
        realized.append(t_real)
        if k > 0:
            # differential_features, in estimator units [1, MHZ_PER_GHZ, ...]
            dt, df = _frequency_terms(t_prev, f_prev, f)
            h[k, 0], h[k, 1] = dt, df / MHZ_PER_GHZ
            a, P, _ = rls_step(a, P, h[k], t_real - t_prev)
        t_prev, f_prev = t_real, f
        if k + 1 >= cfg.warmup_intervals:
            a0, a1 = a[:2].tolist()
            level = _rls_choice(a0, a1, t_real, f, levels, power, cfg, pm)
    return _policy_result(policy, np.asarray(levels)[chosen], np.array(realized), cfg, pm)
