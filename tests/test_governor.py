from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frametime.config import GovernorConfig, PowerModel
from frametime.estimator import rls_init
from frametime.features import differential_features, estimator_units
from frametime.governor import (PolicyResult, _cheapest_feasible, _cheapest_level,
                                _rls_choice, interval_energy, ondemand_policy_step,
                                oracle_policy, simulate)
from frametime.trace import (AffineMap, CounterModel, FrequencyTable,
                             WorkloadSpec, oracle_counters, oracle_frame_time)
from scenarios import heavy_runs, light_runs, reference_rls, shipped


TABLE = shipped("governor_heavy").freq_table
CFG = GovernorConfig()
PM = PowerModel()


def rls_choice(a0, a1, frame_time, freq, table=TABLE, cfg=CFG, pm=PM):
    """The rls policy's frequency from frequency coefficients a0, a1 and the
    last frame time at freq."""
    levels = table.freqs_mhz
    power = pm.active_power(np.asarray(levels)).tolist()
    return levels[_rls_choice(float(a0), float(a1), float(frame_time), float(freq),
                              levels, power, cfg, pm)]


class TestIntervalEnergy:
    def test_fully_idle(self):
        assert interval_energy(PM, 400.0, 0.0, 50.0) == pytest.approx(0.2 * 50.0 / 1000.0)

    def test_fully_active(self):
        want = (0.5 + 8.0 * 0.4 ** 3) * 50.0 / 1000.0
        assert interval_energy(PM, 400.0, 50.0, 50.0) == pytest.approx(want)
        # idle floor is irrelevant when active fills the period
        assert interval_energy(PM, 400.0, 80.0, 50.0) == pytest.approx(want)

    def test_monotone_in_frequency(self):
        energies = [interval_energy(PM, f, 30.0, 50.0) for f in TABLE]
        assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            interval_energy(PM, 400.0, -1.0, 50.0)
        with pytest.raises(ValueError):
            interval_energy(PM, 0.0, 1.0, 50.0)


class TestRlsPolicyStep:
    def test_unscalable_model_picks_min_frequency(self):
        assert rls_choice(0.0, 0.0, 10.0, 400.0) == TABLE.min

    def test_infeasible_everywhere_picks_max(self):
        # 40 ms > budget at any f
        assert rls_choice(0.0, 0.0, 40.0, 400.0) == TABLE.max

    def test_scalable_model_picks_cheapest_feasible(self):
        # fully scalable converged model: frame time scales exactly with 1/f
        chosen = rls_choice(1.0, 0.0, 16.0, 400.0)
        # feasible set excludes frequencies predicting > 16.67 ms
        pred_at = lambda f: 16.0 + 1.0 * 16.0 * (400.0 / f - 1.0)
        assert pred_at(chosen) <= CFG.frame_budget_ms
        below = [f for f in TABLE if f < chosen]
        assert all(pred_at(f) > CFG.frame_budget_ms for f in below)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.lists(st.sampled_from([-1.0, 0.0, 5.0, 12.0, 16.0, 1000 / 60,
                                                   16.7, 40.0]),
                                  min_size=len(TABLE), max_size=len(TABLE)),
                         min_size=1, max_size=8))
    @example(rows=[[1000 / 60] + [40.0] * (len(TABLE) - 1), [0.0, -1.0] + [16.0] * 7])
    def test_one_row_rule_equals_matrix_rule(self, rows):
        # a frame time on the budget is feasible, levels at zero frame time
        # tie in energy, and a row above the budget everywhere takes the
        # top-level fallback
        frame_ms = np.array(rows)
        power = PM.active_power(np.asarray(TABLE.freqs_mhz))
        matrix = _cheapest_feasible(frame_ms, power, CFG, PM)
        assert ([_cheapest_level(row, power.tolist(), CFG, PM) for row in rows]
                == matrix.tolist())


class TestOndemand:
    def test_saturation(self):
        assert ondemand_policy_step(1.0, 311.0, TABLE, CFG) == TABLE.max
        assert ondemand_policy_step(0.81, 311.0, TABLE, CFG) == TABLE.max

    def test_step_down(self):
        assert ondemand_policy_step(0.1, 355.0, TABLE, CFG) == 311.0
        assert ondemand_policy_step(0.1, TABLE.min, TABLE, CFG) == TABLE.min

    def test_hold_band(self):
        assert ondemand_policy_step(0.5, 355.0, TABLE, CFG) == 355.0

    def test_domain(self):
        with pytest.raises(ValueError):
            ondemand_policy_step(1.2, 355.0, TABLE, CFG)


class TestOraclePolicy:
    def test_light_workload_constant_min_frequency(self):
        spec = WorkloadSpec((5.0,) * 30, AffineMap(0.0, 1.0), AffineMap(0.0, 3.0),
                            200.0, noise_sigma=0.0)
        result = oracle_policy(spec, TABLE, CFG, PM, np.ones(30))
        assert set(result.freq_schedule) == {TABLE.min}
        assert result.fps_violations == 0

    @pytest.mark.parametrize("case", ["ones", "noisy_two_level"])
    def test_matches_brute_force_enumeration(self, case):
        if case == "ones":
            spec = heavy_runs(12)["heavy_square_a"]
            noise = np.ones(12)
        else:
            # two complexities; the seed leaves two intervals infeasible at
            # every level, so the top-level fallback is taken
            spec = replace(heavy_runs(24)["heavy_square_b"],
                           complexity_schedule=(37.0, 56.0) * 12)
            noise = np.maximum(1.0 + np.random.default_rng(4).normal(0.0, 0.25, size=24), 0.0)
        result = oracle_policy(spec, TABLE, CFG, PM, noise)
        budget = CFG.frame_budget_ms
        fallbacks = 0
        for k, c in enumerate(spec.complexity_schedule):
            # independent exhaustive search over the frequency choices
            best_f, best_e = TABLE.max, None
            feasible_found = False
            for f in TABLE:
                t = oracle_frame_time(spec, c, f) * noise[k]
                e = interval_energy(PM, f, min(3 * t, CFG.period), CFG.period)
                if t <= budget and (best_e is None or e < best_e):
                    best_f, best_e, feasible_found = f, e, True
            if not feasible_found:
                best_f = TABLE.max
                fallbacks += 1
            assert result.freq_schedule[k] == best_f
        assert fallbacks == (0 if case == "ones" else 2)

    def test_requires_analytic_workload(self):
        with pytest.raises(ValueError):
            oracle_policy("not a workload", TABLE, CFG, PM, np.ones(1))

    def test_oracle_never_beaten(self):
        for name, spec in heavy_runs(60).items():
            res = {p: simulate(p, spec, TABLE, CFG, PM, seed=3)
                   for p in ("oracle", "rls", "ondemand")}
            assert res["oracle"].total_energy <= res["rls"].total_energy
            assert res["oracle"].total_energy <= res["ondemand"].total_energy


class TestSimulate:
    def test_empty_schedule(self):
        spec = WorkloadSpec((), AffineMap(0.0, 1.0), AffineMap(0.0, 1.0), 200.0)
        result = simulate("rls", spec, TABLE, CFG, PM, seed=0)
        assert result.freq_schedule == []
        assert result.total_energy == 0.0

    def test_deterministic_per_seed(self):
        spec = light_runs(80)["light_square"]
        a = simulate("rls", spec, TABLE, CFG, PM, seed=5)
        b = simulate("rls", spec, TABLE, CFG, PM, seed=5)
        assert a.freq_schedule == b.freq_schedule
        assert a.energies == b.energies
        assert a.per_interval_log == b.per_interval_log

    def test_energy_decomposition_exact(self):
        spec = heavy_runs(50)["heavy_steady"]
        result = simulate("ondemand", spec, TABLE, CFG, PM, seed=1)
        assert result.total_energy == sum(result.energies)
        assert len(result.energies) == 50

    def test_violation_accounting_uses_realized_time(self):
        spec = heavy_runs(40)["heavy_square_b"]
        result = simulate("rls", spec, TABLE, CFG, PM, seed=2)
        budget = CFG.frame_budget_ms
        want = sum(1 for row in result.per_interval_log if row[3] > budget)
        assert result.fps_violations == want
        for row in result.per_interval_log:
            assert row[5] == (row[3] > budget)

    def test_rls_and_oracle_agree_on_light_load(self):
        spec = light_runs(200)["light_square"]
        rls = simulate("rls", spec, TABLE, CFG, PM, seed=4)
        oracle = simulate("oracle", spec, TABLE, CFG, PM, seed=4)
        warm = CFG.warmup_intervals
        agree = sum(1 for a, b in zip(rls.freq_schedule[warm:], oracle.freq_schedule[warm:])
                    if a == b)
        assert agree / (200 - warm) > 0.95

    @pytest.mark.parametrize("load, sigma", [("heavy", None), ("light", None), ("heavy", 0.05)])
    def test_rls_equals_public_update_and_step_loop(self, load, sigma):
        # the shipped configs, and heavy at more noise, where the choice
        # between two levels flips often enough to expose a small
        # difference in the predictions
        bundle = shipped(f"governor_{load}")
        spec, table = bundle.workload, bundle.freq_table
        if sigma is not None:
            spec = replace(spec, noise_sigma=sigma)
        cfg, pm, seed = bundle.governor, bundle.power_model, 1
        result = simulate("rls", spec, table, cfg, pm, seed=seed)

        schedule = spec.complexity_schedule
        noise = np.maximum(1.0 + np.random.default_rng(seed).normal(
            0.0, spec.noise_sigma, size=len(schedule)), 0.0)
        n_dep = len(spec.dep_counters)
        x = np.array([oracle_counters(spec, c, table.max)[n_dep:] for c in schedule])
        units = estimator_units(x)
        # the updates run through the full reference formula, which has
        # no shortcut for zero rows, so a wrong skip in the package's
        # update shows here
        (a, P), f, freqs, realized = rls_init(x.shape[1] + 2), table.max, [], []
        for k, c in enumerate(schedule):
            t_real = oracle_frame_time(spec, c, f) * noise[k]
            freqs.append(f)
            realized.append(t_real)
            if k > 0:
                h = differential_features(realized[-2], freqs[-2], f, x[k] - x[k - 1])
                a, P = reference_rls(a, P, h / units[k], t_real - realized[-2], 1.0)
            f = (table.max if k + 1 < cfg.warmup_intervals
                 else rls_choice(a[0], a[1], t_real, f, table, cfg, pm))
        assert result.freq_schedule == freqs
        want = interval_energy(pm, freqs, cfg.frames_per_interval * np.array(realized),
                               cfg.period)
        assert result.energies == want.tolist()
        assert len(set(freqs)) > 2  # the schedule is not one clock

    def test_rls_rejects_non_finite_frame_times(self):
        # scalable_ms * ref_freq overflows to inf at every level
        spec = WorkloadSpec((5.0,) * 20, AffineMap(0.0, 1e308), AffineMap(0.0, 1.0),
                            200.0, noise_sigma=0.0)
        with pytest.raises(ValueError, match="non-finite"):
            simulate("rls", spec, TABLE, CFG, PM, seed=0)

    def test_unknown_policy(self):
        spec = light_runs(10)["light_square"]
        with pytest.raises(ValueError):
            simulate("racing", spec, TABLE, CFG, PM, seed=0)


class TestConfigValidation:
    def test_thresholds(self):
        with pytest.raises(ValueError):
            GovernorConfig(up_threshold=0.3, down_threshold=0.5)
        with pytest.raises(ValueError):
            PowerModel(p_static=-1.0)

    def test_budget_and_frames(self):
        assert CFG.frame_budget_ms == pytest.approx(1000.0 / 60.0)
        assert CFG.frames_per_interval == 3
