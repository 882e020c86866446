import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frametime.config import POLICIES, GovernorConfig, PowerModel
from frametime.governor import (RUN_WINDOW, _cheapest_feasible, interval_energy, realize,
                                simulate)
from frametime.trace import AffineMap, CounterModel, WorkloadSpec, generate_runtime
from scenarios import (heavy_runs, light_runs, reference_cheapest_level, reference_frame_time,
                       reference_noise, reference_ondemand, reference_rls_choice,
                       reference_rls_policy, shipped)


HEAVY = shipped("governor_heavy").workload
TABLE = shipped("governor_heavy").freq_table
CFG = GovernorConfig()
PM = PowerModel()


def rls_choice(a0, a1, frame_time, freq):
    """The rls policy's frequency from frequency coefficients a0, a1 and the
    last frame time at freq, by the one-interval reference."""
    return TABLE.freqs_mhz[reference_rls_choice(a0, a1, frame_time, freq, TABLE, CFG, PM)]


def reference_columns(freqs, frame_ms, cfg, pm):
    """A reference loop's frequencies and realized frame times as the four
    PolicyResult columns, energy and violations computed as simulate's."""
    freqs, frame_ms = np.array(freqs, dtype=float), np.array(frame_ms, dtype=float)
    active = np.minimum(cfg.frames_per_interval * frame_ms, cfg.period_ms)
    return {"freqs": freqs, "frame_ms": frame_ms,
            "energies": interval_energy(pm.active_power(freqs), active, cfg.period_ms,
                                        pm.p_idle_w),
            "violations": frame_ms > cfg.frame_budget_ms}


def energy(f, active_ms, period_ms=50.0, pm=PM):
    """interval_energy at f MHz under the power model pm."""
    return interval_energy(pm.active_power(f), active_ms, period_ms, pm.p_idle_w)


class TestIntervalEnergy:
    def test_fully_idle(self):
        assert energy(400.0, 0.0) == pytest.approx(0.2 * 50.0 / 1000.0)

    def test_fully_active(self):
        # the idle floor is irrelevant when active fills the period
        want = (0.5 + 8.0 * 0.4 ** 3) * 50.0 / 1000.0
        assert energy(400.0, 50.0) == pytest.approx(want)

    def test_monotone_in_frequency(self):
        energies = [energy(f, 30.0) for f in TABLE]
        assert all(b > a for a, b in zip(energies, energies[1:]))


class TestRlsPolicyStep:
    def test_unscalable_model_picks_min_frequency(self):
        assert rls_choice(0.0, 0.0, 10.0, 400.0) == TABLE.freqs_mhz[0]

    def test_infeasible_everywhere_picks_max(self):
        # 40 ms > budget at any f
        assert rls_choice(0.0, 0.0, 40.0, 400.0) == TABLE.freqs_mhz[-1]

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
        power = PM.active_power(np.asarray(TABLE.freqs_mhz))
        matrix = _cheapest_feasible(np.array(rows), power, CFG, PM)
        assert ([reference_cheapest_level(row, power.tolist(), CFG, PM) for row in rows]
                == matrix.tolist())


def ondemand_freqs(schedule, cfg=CFG):
    """simulate("ondemand")'s frequencies on a noiseless workload whose frame
    time is c * 200 / f ms, so that its utilization under the default config
    is min(12 c / f, 1): c = 1 steps down at any level, c = 20 holds from
    311 MHz up, and c = 40 saturates at any level."""
    spec = WorkloadSpec(tuple(schedule), AffineMap(1.0, 0.0), AffineMap(0.0, 0.0), 200.0,
                        noise_sigma=0.0)
    return simulate("ondemand", realize(spec, TABLE), cfg, PM).freqs.tolist()


class TestOndemand:
    def test_saturation(self):
        # from 400 MHz back to the top in one step, and held there
        assert ondemand_freqs([1.0] * 3 + [40.0] * 3) == [511.0, 489.0, 444.0, 400.0, 511.0, 511.0]

    def test_step_down(self):
        assert ondemand_freqs([1.0] * 4) == [511.0, 489.0, 444.0, 400.0]

    def test_clamp_at_bottom(self):
        assert ondemand_freqs([1.0] * 11) == list(TABLE.freqs_mhz[::-1]) + [200.0] * 2

    def test_hold_band(self):
        assert ondemand_freqs([1.0] * 2 + [20.0] * 5) == [511.0, 489.0] + [444.0] * 5
        # both thresholds belong to the band: c = 25 at 400 MHz is 0.75 exactly
        held = [511.0, 489.0, 444.0] + [400.0] * 3
        for up, down in [(0.75, 0.3), (0.9, 0.75)]:
            cfg = CFG._replace(up_threshold=up, down_threshold=down)
            assert ondemand_freqs([1.0] * 3 + [25.0] * 3, cfg) == held


class TestOraclePolicy:
    def test_light_workload_constant_min_frequency(self):
        spec = WorkloadSpec((5.0,) * 30, AffineMap(0.0, 1.0), AffineMap(0.0, 3.0),
                            200.0, noise_sigma=0.0)
        result = simulate("oracle", realize(spec, TABLE), CFG, PM)
        assert set(result.freqs.tolist()) == {TABLE.freqs_mhz[0]}
        assert result.fps_violations == 0

    @pytest.mark.parametrize("case", ["ones", "noisy_two_level"])
    def test_matches_brute_force_enumeration(self, case):
        if case == "ones":
            spec = heavy_runs(12)["heavy_square_a"]._replace(noise_sigma=0.0)
            noise = np.ones(12)
        else:
            # two complexities; the seed leaves two intervals infeasible at
            # every level, so the top-level fallback is taken
            spec = heavy_runs(24)["heavy_square_b"]._replace(
                noise_sigma=0.25, complexity_schedule=(37.0, 56.0) * 12)
            noise = reference_noise(spec, 4)
        result = simulate("oracle", realize(spec, TABLE, seed=4), CFG, PM)
        budget = CFG.frame_budget_ms
        fallbacks = 0
        for k, c in enumerate(spec.complexity_schedule):
            # independent exhaustive search over the frequency choices
            best_f, best_e = TABLE.freqs_mhz[-1], None
            feasible_found = False
            for f in TABLE:
                t = reference_frame_time(spec, c, f) * noise[k]
                e = energy(f, min(3 * t, CFG.period_ms), CFG.period_ms)
                if t <= budget and (best_e is None or e < best_e):
                    best_f, best_e, feasible_found = f, e, True
            if not feasible_found:
                best_f = TABLE.freqs_mhz[-1]
                fallbacks += 1
            assert result.freqs[k] == best_f
        assert fallbacks == (0 if case == "ones" else 2)

    def test_oracle_never_beaten(self):
        for name, spec in heavy_runs(60).items():
            world = realize(spec, TABLE, seed=3)
            res = {p: simulate(p, world, CFG, PM) for p in ("oracle", "rls", "ondemand")}
            assert res["oracle"].total_energy <= res["rls"].total_energy
            assert res["oracle"].total_energy <= res["ondemand"].total_energy


@st.composite
def affine_runs(draw, max_sigma=0.1):
    """A small affine workload with one indep counter, a schedule of 1 to
    30 intervals over four complexities, its noise level up to max_sigma,
    and a seed."""
    coef = lambda hi: st.floats(0.0, hi, allow_subnormal=False)
    spec = WorkloadSpec(
        draw(st.lists(st.sampled_from([10.0, 20.0, 30.0, 40.0]), min_size=1, max_size=30)),
        AffineMap(draw(coef(0.5)), draw(coef(5.0))), AffineMap(draw(coef(0.1)), draw(coef(2.0))),
        200.0, indep_counters=(CounterModel("units",
                                            AffineMap(draw(coef(10.0)), draw(coef(100.0)))),),
        noise_sigma=draw(coef(max_sigma)))
    return spec, draw(st.integers(0, 2 ** 32 - 1))


EMPTY_RUN = WorkloadSpec((), AffineMap(0.0, 1.0), AffineMap(0.0, 1.0), 200.0)


class TestPolicyResultColumns:
    @settings(max_examples=25, deadline=None)
    @given(affine_runs())
    def test_columns_agree(self, run):
        spec, seed = run
        schedule = spec.complexity_schedule
        n = len(schedule)
        noise = reference_noise(spec, seed)
        world = realize(spec, TABLE, seed=seed)
        for policy in ("rls", "oracle", "ondemand"):
            r = simulate(policy, world, CFG, PM)
            assert all(c.shape == (n,) for c in (r.freqs, r.frame_ms, r.energies, r.violations))
            assert set(r.freqs.tolist()) <= set(TABLE.freqs_mhz)
            # the noisy grid at the chosen level
            assert r.frame_ms.tolist() == [reference_frame_time(spec, c, f) * z for c, f, z
                                           in zip(schedule, r.freqs.tolist(), noise)]
            active = np.minimum(CFG.frames_per_interval * r.frame_ms, CFG.period_ms)
            want = interval_energy(PM.active_power(r.freqs), active, CFG.period_ms, PM.p_idle_w)
            assert r.energies.tobytes() == want.tobytes()
            assert r.violations.tolist() == (r.frame_ms > CFG.frame_budget_ms).tolist()
            assert r.fps_violations == sum(r.violations.tolist())
            assert r.total_energy == sum(r.energies.tolist())

    def test_empty_schedule_rejected(self):
        # as generation rejects it, instead of runs of no interval and no energy
        with pytest.raises(ValueError) as err:
            realize(EMPTY_RUN, TABLE)
        assert str(err.value) == "workload has an empty complexity schedule"


class TestRealizedFrameTimes:
    @settings(max_examples=50, deadline=None)
    @given(affine_runs(max_sigma=3.0))
    # a zero frame time: the factors of intervals 2, 5 and 7 at seed 0 are
    # below 0 before they clip, and the frame time must come out 0.0, not -0.0
    @example((WorkloadSpec((10.0,) * 8, AffineMap(0.0, 0.0), AffineMap(0.0, 0.0), 200.0,
                           noise_sigma=3.0), 0))
    # a frame time so small that 50 ms // t overflows: still FPS_CAP frames
    @example((WorkloadSpec((10.0,), AffineMap(0.0, 0.0),
                           AffineMap(0.0, 2.2250738585072014e-308), 200.0,
                           indep_counters=(CounterModel("units", AffineMap(0.0, 0.0)),),
                           noise_sigma=0.0), 0))
    def test_simulate_realizes_what_generation_writes(self, run):
        # at sigma 3 about a third of the noise factors clip to 0
        spec, seed = run
        world = realize(spec, TABLE, seed=seed)
        for policy in POLICIES:
            r = simulate(policy, world, CFG, PM)
            trace = generate_runtime(spec, TABLE, r.freqs, seed)
            assert trace.frame_times.tobytes() == r.frame_ms.tobytes(), policy


@st.composite
def governed_runs(draw):
    """An affine workload with one indep counter, its seed and a governor
    config.  The schedule is a few held complexities, each held for up to
    RUN_WINDOW + 30 intervals, or a ramp whose counters move every
    interval; noise up to sigma 0.3 makes the choices flip often."""
    coef = lambda lo, hi: st.floats(lo, hi, allow_subnormal=False)
    if draw(st.booleans()):
        holds = draw(st.lists(st.tuples(st.sampled_from([10.0, 20.0, 30.0, 40.0]),
                                        st.integers(1, RUN_WINDOW + 30)),
                              min_size=1, max_size=4))
        schedule = tuple(c for c, hold in holds for _ in range(hold))
    else:
        schedule = tuple(10.0 + 0.25 * k for k in range(draw(st.integers(1, 120))))
    spec = WorkloadSpec(
        schedule, AffineMap(draw(coef(0.0, 0.5)), draw(coef(0.0, 5.0))),
        AffineMap(draw(coef(0.0, 0.1)), draw(coef(0.0, 2.0))), 200.0,
        indep_counters=(CounterModel("units",
                                     AffineMap(draw(coef(0.1, 10.0)), draw(coef(0.0, 100.0)))),),
        noise_sigma=draw(coef(0.0, 0.3)))
    down = draw(coef(0.01, 0.9))
    cfg = GovernorConfig(fps_target=draw(st.sampled_from([30.0, 60.0, 90.0])),
                         up_threshold=draw(coef(down + 0.01, 1.0)), down_threshold=down,
                         warmup_intervals=draw(st.sampled_from([0, 1, 10, len(schedule) + 1])))
    return spec, draw(st.integers(0, 2 ** 32 - 1)), cfg



class TestHeldRuns:
    @settings(max_examples=80, deadline=None)
    @given(governed_runs())
    # a counter move at interval 9, the first whose choice counts
    @example((HEAVY._replace(complexity_schedule=(32.0,) * 9 + (42.0,) * 9), 1, CFG))
    # the first run leaves the top level on interval 9, just before a move
    @example((HEAVY._replace(complexity_schedule=(32.0,) * 10 + (42.0,) * 10), 1, CFG))
    def test_equals_one_interval_at_a_time(self, run):
        spec, seed, cfg = run
        world = realize(spec, TABLE, seed=seed)
        for policy, (freqs, frame_ms) in [
                ("rls", reference_rls_policy(spec, TABLE, cfg, PM, seed)),
                ("ondemand", reference_ondemand(spec, TABLE, cfg, seed))]:
            result = simulate(policy, world, cfg, PM)
            for name, want in reference_columns(freqs, frame_ms, cfg, PM).items():
                assert getattr(result, name).tobytes() == want.tobytes(), (policy, name)


class TestSimulate:
    def test_deterministic_per_seed(self):
        spec = light_runs(80)["light_square"]
        a = simulate("rls", realize(spec, TABLE, seed=5), CFG, PM)
        b = simulate("rls", realize(spec, TABLE, seed=5), CFG, PM)
        for name in ("freqs", "frame_ms", "energies", "violations"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_energy_decomposition_exact(self):
        spec = heavy_runs(50)["heavy_steady"]
        result = simulate("ondemand", realize(spec, TABLE, seed=1), CFG, PM)
        assert result.total_energy == sum(result.energies)
        assert len(result.energies) == 50

    def test_violation_accounting_uses_realized_time(self):
        spec = heavy_runs(40)["heavy_square_b"]
        result = simulate("rls", realize(spec, TABLE, seed=2), CFG, PM)
        budget = CFG.frame_budget_ms
        want = sum(1 for t in result.frame_ms.tolist() if t > budget)
        assert result.fps_violations == want
        for t, violation in zip(result.frame_ms.tolist(), result.violations.tolist()):
            assert violation == (t > budget)

    def test_rls_and_oracle_agree_on_light_load(self):
        spec = light_runs(200)["light_square"]
        world = realize(spec, TABLE, seed=4)
        rls = simulate("rls", world, CFG, PM)
        oracle = simulate("oracle", world, CFG, PM)
        warm = CFG.warmup_intervals
        agree = sum(1 for a, b in zip(rls.freqs[warm:].tolist(), oracle.freqs[warm:].tolist())
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
            spec = spec._replace(noise_sigma=sigma)
        cfg, pm, seed = bundle.governor, bundle.power_model, 1
        result = simulate("rls", realize(spec, table, seed=seed), cfg, pm)
        # the reference's updates run through the full formula, which has
        # no shortcut for zero rows, so a wrong skip in the package's
        # update shows here
        freqs, realized = reference_rls_policy(spec, table, cfg, pm, seed)
        assert result.freqs.tolist() == freqs
        want = reference_columns(freqs, realized, cfg, pm)
        assert result.energies.tolist() == want["energies"].tolist()
        assert len(set(freqs)) > 2  # the schedule is not one clock

    def test_counter_move_at_unchanged_clock_asks_again(self):
        # interval 2 moves the counters at the 278 MHz that interval 1 chose;
        # the estimator step on that counter-only row moves the choice for
        # interval 3 to 244 MHz, where the held state would keep 278 MHz
        spec = HEAVY._replace(noise_sigma=0.0, complexity_schedule=(30.0, 32.0, 30.0, 42.0))
        cfg = CFG._replace(warmup_intervals=0)
        freqs = simulate("rls", realize(spec, TABLE), cfg, PM).freqs.tolist()
        assert freqs == reference_rls_policy(spec, TABLE, cfg, PM, 0)[0]
        assert freqs == [511.0, 278.0, 278.0, 244.0]

    @pytest.mark.parametrize("policy", ["rls", "oracle", "ondemand"])
    def test_rejects_what_generation_rejects(self, policy):
        # a dep counter base <= 0 at C=32, the lower of the two complexities
        heavy = shipped("governor_heavy").workload
        counter = heavy.dep_counters[0]._replace(response=AffineMap(20.0, -1000.0))
        spec = heavy._replace(dep_counters=(counter,))
        message = "dep counter render_busy_kcycles base must be > 0 at C=32.0"
        with pytest.raises(ValueError, match=message):
            simulate(policy, realize(spec, TABLE, seed=0), CFG, PM)

    @pytest.mark.parametrize("policy", ["rls", "oracle", "ondemand"])
    def test_rejects_non_finite_frame_times(self, policy):
        # scalable_ms * ref_freq_mhz overflows to inf at every level; at sigma 1
        # some noise factors clip to 0, and inf * 0 is nan
        for sigma in (0.0, 1.0):
            spec = WorkloadSpec((5.0,) * 20, AffineMap(0.0, 1e308), AffineMap(0.0, 1.0),
                                200.0, noise_sigma=sigma)
            with pytest.raises(ValueError, match="non-finite"):
                simulate(policy, realize(spec, TABLE, seed=0), CFG, PM)

    def test_unknown_policy(self):
        spec = light_runs(10)["light_square"]
        with pytest.raises(ValueError):
            simulate("racing", realize(spec, TABLE, seed=0), CFG, PM)


class TestRealize:
    def test_arrays_are_read_only(self):
        world = realize(HEAVY, TABLE, seed=1)
        assert world.frame_ms.shape == (len(HEAVY.complexity_schedule), len(TABLE))
        for name in ("columns", "frame_ms"):
            array = getattr(world, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_seed_checked_where_noise_is_drawn(self):
        assert HEAVY.noise_sigma > 0
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
            realize(HEAVY, TABLE, seed=-1)
        # noiseless, nothing is drawn from the seed
        realize(HEAVY._replace(noise_sigma=0.0), TABLE, seed=-1)


class TestConfigValidation:
    def test_thresholds(self):
        with pytest.raises(ValueError):
            GovernorConfig(up_threshold=0.3, down_threshold=0.5)
        with pytest.raises(ValueError):
            PowerModel(p_static_w=-1.0)

    def test_budget_and_frames(self):
        assert CFG.frame_budget_ms == pytest.approx(1000.0 / 60.0)
        assert CFG.frames_per_interval == 3
