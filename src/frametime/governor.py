"""Discrete-time DVFS policy simulation.

Three policies run the same closed loop against the analytic workload:
a model-predictive policy driven by the adaptive frame-time estimator, a
clairvoyant per-interval optimum, and a utilization-threshold governor in
the style of the Linux ondemand default.  Each interval the policy picks
a frequency, the workload realizes a frame time, and the interval's
energy comes from a parametric power model.

realize realizes the workload once per run, by trace.workload_columns
and trace.realized_frame_times, so a govern run meets the frame times a
generated trace holds at the same seed and clock.  simulate runs one
policy on that Realization and only chooses levels, so every policy of
a govern run shares one grid.  PolicyResult, a NamedTuple, holds a run
by column.

The power model is a simulation stand-in, not measured hardware: static
plus cubic-in-frequency dynamic power while the GPU renders, a floor
while it idles out the rest of the interval.

The oracle and ondemand are each one rule over the realized grid: the
oracle's _cheapest_feasible picks every interval's level at once, and
ondemand's threshold rule is one np.where giving each (interval, level)
its next level, which a walk from the top level reads.  The rls policy
learns, so it chooses one held run of intervals at one level at a time;
a run ends after the first interval whose choice leaves the level, or
just before the next interval whose independent counters move.  At its
start the policy makes its one estimator.rls_step on replay's feature
row, the estimator.differential_features row divided by estimator_units,
then asks model.candidate_delta about every interval of the run against
every table level in one array call and chooses by the oracle's rule.  A
held run gives, bit for bit, what one interval at a time gives
(tests/scenarios.py::reference_rls_policy), for three reasons.  Inside a
run every feature row after the first is all zeros (the clock term
t (f/f - 1) and the clock step are 0, and no counter moves), so by
estimator.rls_step's zero-row identity the step that starts each later
window of a long run changes nothing.  candidate_delta rounds alike on
arrays and on Python floats.  And _cheapest_feasible gives each row the
choice of the one-row rule.
"""

from __future__ import annotations

import bisect
from typing import NamedTuple

import numpy as np

from . import model
from .config import POLICIES, GovernorConfig, PowerModel
from .estimator import differential_features, estimator_units, rls_init, rls_step
from .trace import FrequencyTable, WorkloadSpec, realized_frame_times, workload_columns

# Intervals of one rls held run asked at once.  Up to about this many rows
# a question costs little more than one row does (numpy's per-call cost
# dominates), and the cap keeps a run that departs early from paying for
# the intervals after it: without it, a choice that flips every few
# intervals on a long steady stretch costs time quadratic in the stretch.
RUN_WINDOW = 64


class PolicyResult(NamedTuple):
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


def _policy_result(policy: str, levels: np.ndarray, frame_ms: np.ndarray, chosen,
                   cfg: GovernorConfig, pm: PowerModel) -> PolicyResult:
    """The run's columns from the table level chosen in each interval and
    the (intervals, levels) frame times."""
    chosen = np.asarray(chosen, dtype=np.intp)
    freqs, realized = levels[chosen], frame_ms[np.arange(chosen.size), chosen]
    active = np.minimum(cfg.frames_per_interval * realized, cfg.period)
    energies = interval_energy(pm.active_power(freqs), active, cfg.period, pm.p_idle)
    return PolicyResult(policy, freqs, realized, energies, realized > cfg.frame_budget_ms)


class Realization(NamedTuple):
    """A workload realized at one seed: its spec and table, the
    workload_columns of its schedule, one row per interval, and the
    (intervals, levels) frame times realized at the table's levels.  Both
    arrays are finite and read-only."""
    spec: WorkloadSpec
    table: FrequencyTable
    columns: np.ndarray
    frame_ms: np.ndarray


def realize(spec: WorkloadSpec, table: FrequencyTable, seed: int = 0) -> Realization:
    """The workload's schedule realized at every table level at the seed, for
    every policy to share.  Raises ValueError on a workload that generation
    rejects or a counter or frame time that is not finite."""
    columns = workload_columns(spec, spec.complexity_schedule)
    frame_ms = realized_frame_times(spec, columns[:, None, :], np.asarray(table.freqs_mhz),
                                    seed)
    if not (np.isfinite(columns).all() and np.isfinite(frame_ms).all()):
        raise ValueError("non-finite counters or frame times")
    columns.flags.writeable = frame_ms.flags.writeable = False
    return Realization(spec, table, columns, frame_ms)


def simulate(policy: str, world: Realization, cfg: GovernorConfig,
             pm: PowerModel) -> PolicyResult:
    """Closed-loop run of one policy that chooses a level per interval on
    world's frame-time grid; the estimator behind the rls policy learns from
    each realized sample.  Energy never feeds back into a decision, so it is
    computed after the loop."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}, expected one of {POLICIES}")
    spec, table, columns, frame_ms = world
    n = len(frame_ms)
    freqs = np.asarray(table.freqs_mhz)

    if policy == "oracle":
        chosen = _cheapest_feasible(frame_ms, pm.active_power(freqs), cfg, pm)
        return _policy_result(policy, freqs, frame_ms, chosen, cfg, pm)
    levels, top = table.freqs_mhz, len(table) - 1
    if policy == "ondemand":
        # each (interval, level)'s next level: the top, one down, or the same;
        # one flat list, since a list per interval keeps the collector busy
        busy = np.minimum(cfg.frames_per_interval * frame_ms, cfg.period) / cfg.period
        held = np.arange(top + 1)
        after = np.where(busy > cfg.up_threshold, top,
                         np.where(busy < cfg.down_threshold, np.maximum(held - 1, 0),
                                  held)).ravel().tolist()
        chosen, level = [], top
        for row in range(0, len(after), top + 1):
            chosen.append(level)
            level = after[row + level]
        return _policy_result(policy, freqs, frame_ms, chosen, cfg, pm)

    # rls: learn from each realized sample, then choose the next level
    a, P = rls_init(2 + len(spec.indep_counters))
    # independent counters depend on the complexity only, so the whole run's
    # values, and with them each interval's counter deltas and estimator
    # units, are known upfront; only the frequency terms depend on the choices
    x = columns[:, 2 + len(spec.dep_counters):]
    dx, units = x[1:] - x[:-1], estimator_units(x)
    moves = (np.flatnonzero(dx.any(axis=1)) + 1).tolist() + [n]
    power = pm.active_power(freqs)
    warm = cfg.warmup_intervals - 1   # the first interval whose choice counts

    # a held run from interval s at `level`, after interval s - 1 at `last`
    chosen = np.empty(n, dtype=np.intp)
    s, last, level = 0, top, top
    while s < n:
        stop = min(moves[bisect.bisect_right(moves, s)], s + RUN_WINDOW)
        f, t = levels[level], frame_ms[s:stop, level, None]
        if s > 0:
            t_prev = frame_ms[s - 1, last]
            h = differential_features(t_prev, levels[last], f, dx[s - 1]) / units[s]
            a, P, _ = rls_step(a, P, h, t[0, 0] - t_prev)
        a0, a1 = a[:2].tolist()
        choices = _cheapest_feasible(t + model.candidate_delta(a0, a1, t, f, freqs),
                                     power, cfg, pm)
        choices[:max(warm - s, 0)] = level
        leave = np.flatnonzero(choices != level)
        end = s + int(leave[0]) + 1 if leave.size else stop
        chosen[s:end] = level
        s, last, level = end, level, int(choices[end - 1 - s])
    return _policy_result(policy, freqs, frame_ms, chosen, cfg, pm)
