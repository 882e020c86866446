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
                    oracle_frame_times)

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


def interval_energy(pm: PowerModel, f, active_ms, period_ms: float):
    """Joules for intervals with active_ms of rendering at f MHz.

    f and active_ms broadcast against each other; active time beyond the
    period is capped at it.
    """
    f = np.asarray(f, dtype=float)
    active_ms = np.asarray(active_ms, dtype=float)
    if (f <= 0).any() or (active_ms < 0).any() or period_ms <= 0:
        raise ValueError("need f > 0, active_ms >= 0, period_ms > 0")
    active = np.minimum(active_ms, period_ms)
    idle = period_ms - active
    return (pm.active_power(f) * active + pm.p_idle * idle) / 1000.0


def _cheapest_feasible(frame_ms: np.ndarray, table: FrequencyTable, cfg: GovernorConfig,
                       pm: PowerModel) -> np.ndarray:
    """Table level of least predicted energy that holds the frame rate, per row.

    frame_ms holds predicted frame times, (..., levels) in table order.
    Where no level is within the frame budget, the top level is the safe
    fallback; ties go to the lower level.
    """
    frame_ms = np.maximum(frame_ms, 0.0)
    energy = interval_energy(pm, table.freqs_mhz, cfg.frames_per_interval * frame_ms,
                             cfg.period)
    feasible = frame_ms <= cfg.frame_budget_ms
    cheapest = np.where(feasible, energy, np.inf).argmin(axis=-1)
    return np.where(feasible.any(axis=-1), cheapest, len(table) - 1)


def rls_policy_step(state: RlsState, prev_frame_time: float, cur_freq: float,
                    table: FrequencyTable, cfg: GovernorConfig, pm: PowerModel) -> float:
    """Cheapest feasible frequency by the what-if frame times predicted from
    the current operating point, prev_frame_time ms at cur_freq MHz."""
    deltas = model.candidate_delta(state.a, prev_frame_time, cur_freq,
                                   np.asarray(table.freqs_mhz))
    return table.freqs_mhz[int(_cheapest_feasible(prev_frame_time + deltas, table, cfg, pm))]


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
                  pm: PowerModel, noise=None) -> PolicyResult:
    """Per-interval exhaustive optimum with perfect knowledge.

    Requires the analytic workload; a parsed hardware trace cannot answer
    what-if frequencies.  noise is an optional per-interval multiplicative
    factor array so the oracle judges the same realized frame times as the
    policies it is compared with.
    """
    if not isinstance(spec, WorkloadSpec):
        raise ValueError("oracle policy requires an analytic workload")
    frame_ms = oracle_frame_times(spec, spec.complexity_schedule, table)
    if noise is not None:
        frame_ms = frame_ms * np.asarray(noise)[:, None]
    level = _cheapest_feasible(frame_ms, table, cfg, pm)
    return _policy_result("oracle", np.asarray(table.freqs_mhz)[level],
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
        return oracle_policy(spec, table, cfg, pm, noise=noise)
    if n == 0:
        return PolicyResult(policy=policy)

    n_frames = cfg.frames_per_interval
    if policy == "rls":
        state = rls_init(2 + len(spec.indep_counters))
        # independent counters depend on the complexity only, so the whole
        # run's values, and with them the estimator units, are known upfront
        n_dep = len(spec.dep_counters)
        x = np.array([oracle_counters(spec, c, table.max)[n_dep:] for c in schedule])
        units = estimator_units(x)

    frame_ms = oracle_frame_times(spec, schedule, table) * noise[:, None]
    freqs, realized = np.empty(n), np.empty(n)
    f = table.max
    for k in range(n):
        t_real = frame_ms[k, table.index(f)]
        freqs[k], realized[k] = f, t_real

        if policy == "ondemand":
            utilization = min(n_frames * t_real, cfg.period) / cfg.period
            f = ondemand_policy_step(utilization, f, table, cfg)
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
    return _policy_result(policy, freqs, realized, cfg, pm)
