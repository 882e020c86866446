"""Discrete-time DVFS policy simulation.

Three policies run the same closed loop against the analytic workload:
a model-predictive policy driven by the adaptive frame-time estimator, a
clairvoyant per-interval optimum, and a utilization-threshold governor in
the style of the Linux ondemand default.  Each interval the policy picks
a frequency, the workload realizes a frame time (with a common,
per-interval noise draw shared by all policies at a given seed), and the
interval's energy comes from a parametric power model.

The power model is a simulation stand-in, not measured hardware: static
plus cubic-in-frequency dynamic power while the GPU renders, a floor
while it idles out the rest of the interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model
from .estimator import RlsState, rls_init, rls_update
from .features import differential_features, estimator_units
from .trace import (FrequencyTable, WorkloadSpec, oracle_counters,
                    oracle_frame_time)

POLICIES = ("rls", "oracle", "ondemand")


@dataclass(frozen=True)
class PowerModel:
    """Watts: p_static + p_dyn_coeff * (f_ghz)^3 while active, p_idle while idle."""

    p_static: float = 0.5
    p_dyn_coeff: float = 8.0     # W per GHz^3
    p_idle: float = 0.2

    def __post_init__(self):
        if self.p_static < 0 or self.p_dyn_coeff < 0 or self.p_idle < 0:
            raise ValueError("power parameters must be >= 0")

    def active_power(self, f_mhz: float) -> float:
        return self.p_static + self.p_dyn_coeff * (f_mhz / 1000.0) ** 3


@dataclass(frozen=True)
class GovernorConfig:
    fps_target: float = 60.0
    period: float = 50.0          # ms
    up_threshold: float = 0.8
    down_threshold: float = 0.3
    warmup_intervals: int = 10    # rls policy holds max frequency this long

    def __post_init__(self):
        if not 0 < self.down_threshold < self.up_threshold <= 1:
            raise ValueError("need 0 < down_threshold < up_threshold <= 1")
        if self.fps_target <= 0 or self.period <= 0:
            raise ValueError("fps_target and period must be > 0")

    @property
    def frame_budget_ms(self) -> float:
        return 1000.0 / self.fps_target

    @property
    def frames_per_interval(self) -> int:
        return max(1, round(self.period / self.frame_budget_ms))


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


def interval_energy(pm: PowerModel, f: float, active_ms: float, period_ms: float) -> float:
    """Joules for one interval with active_ms of rendering at f MHz."""
    if f <= 0 or active_ms < 0 or period_ms <= 0:
        raise ValueError("need f > 0, active_ms >= 0, period_ms > 0")
    active = min(active_ms, period_ms)
    idle = period_ms - active
    return (pm.active_power(f) * active + pm.p_idle * idle) / 1000.0


def _predicted_energy(pm: PowerModel, cfg: GovernorConfig, f: float, frame_ms: float) -> float:
    active = cfg.frames_per_interval * max(frame_ms, 0.0)
    return interval_energy(pm, f, min(active, cfg.period), cfg.period)


def rls_policy_step(state: RlsState, prev_frame_time: float, cur_freq: float,
                    table: FrequencyTable, cfg: GovernorConfig, pm: PowerModel) -> float:
    """Minimum predicted energy among frequencies predicted to hold the frame rate.

    Evaluates the what-if frame time at every table frequency from the
    current operating point (prev_frame_time ms at cur_freq MHz); if no
    candidate is predicted feasible, the maximum frequency is the safe
    fallback.
    """
    budget = cfg.frame_budget_ms
    deltas = model.candidate_delta(state.a, prev_frame_time, cur_freq,
                                   np.asarray(table.freqs_mhz))
    best_f = None
    best_e = None
    for f, delta in zip(table, deltas.tolist()):
        pred = max(prev_frame_time + delta, 0.0)
        if pred > budget:
            continue
        e = _predicted_energy(pm, cfg, f, pred)
        if best_e is None or e < best_e:
            best_f, best_e = f, e
    return best_f if best_f is not None else table.max


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


def oracle_policy(spec: WorkloadSpec, table: FrequencyTable, cfg: GovernorConfig,
                  pm: PowerModel, noise=None) -> PolicyResult:
    """Per-interval exhaustive optimum with perfect knowledge.

    Requires the analytic workload; a parsed hardware trace cannot answer
    what-if frequencies.  noise is an optional per-interval multiplicative
    factor array so the oracle judges the same realized frame times as the
    policies it is compared with.
    """
    if not isinstance(spec, WorkloadSpec):
        raise ValueError("oracle policy requires an analytic workload")
    schedule = spec.complexity_schedule
    if noise is None:
        noise = np.ones(len(schedule))
    result = PolicyResult(policy="oracle")
    budget = cfg.frame_budget_ms
    for k, c in enumerate(schedule):
        best = None
        for f in table:
            t = oracle_frame_time(spec, c, f) * noise[k]
            e = _predicted_energy(pm, cfg, f, t)
            feasible = t <= budget
            if feasible and (best is None or e < best[2]):
                best = (f, t, e)
        if best is None:
            f = table.max
            t = oracle_frame_time(spec, c, f) * noise[k]
            best = (f, t, _predicted_energy(pm, cfg, f, t))
        _log_interval(result, cfg, k, *best)
    return result


def _log_interval(result: PolicyResult, cfg: GovernorConfig,
                  k: int, f: float, t_real: float, energy: float) -> None:
    violation = t_real > cfg.frame_budget_ms
    result.freq_schedule.append(f)
    result.energies.append(energy)
    result.fps_violations += int(violation)
    result.per_interval_log.append((k, result.policy, f, t_real, energy, violation))


def simulate(policy: str, spec: WorkloadSpec, table: FrequencyTable,
             cfg: GovernorConfig, pm: PowerModel, seed: int = 0) -> PolicyResult:
    """Closed-loop run of one policy over the workload's schedule.

    Each interval the policy picks a frequency, the workload realizes a
    frame time there (noise drawn once per interval from the seed, shared
    across policies), and the estimator behind the rls policy learns from
    the realized sample.  Deterministic for a given (policy, spec, seed).
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
        return oracle_policy(spec, table, cfg, pm, noise=noise)

    result = PolicyResult(policy=policy)
    if n == 0:
        return result

    n_frames = cfg.frames_per_interval
    if policy == "rls":
        state = rls_init(2 + len(spec.indep_counters))
        # independent counters depend on the complexity only, so the whole
        # run's values, and with them the estimator units, are known upfront
        n_dep = len(spec.dep_counters)
        x = np.array([oracle_counters(spec, c, table.max)[n_dep:] for c in schedule])
        units = estimator_units(x)

    f = table.max
    for k, c in enumerate(schedule):
        t_real = oracle_frame_time(spec, c, f) * noise[k]
        active = min(n_frames * t_real, cfg.period)
        energy = interval_energy(pm, f, active, cfg.period)
        _log_interval(result, cfg, k, f, t_real, energy)

        if policy == "ondemand":
            f = ondemand_policy_step(active / cfg.period, f, table, cfg)
            continue

        # rls: learn from the realized sample, then choose the next frequency
        if k > 0:
            h = differential_features(t_prev, f_prev, f, x[k] - x[k - 1]) / units[k]
            state = rls_update(state, h, t_real - t_prev)
        t_prev, f_prev = t_real, f
        if k + 1 < cfg.warmup_intervals:
            f = table.max
        else:
            f = rls_policy_step(state, t_real, f, table, cfg, pm)
    return result
