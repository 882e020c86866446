"""Acceptance gate: one test per shipped claim, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are fixed here, not tuned at runtime.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from frametime import cli, model
from frametime.config import GovernorConfig, PowerModel
from frametime.estimator import dcd_rls_init, dcd_step, rls_init, rls_step
from frametime.features import (FeatureSpec, build_dataset, cross_validated_path,
                                pearson_prune, select_features)
from frametime.governor import simulate
from frametime.model import three_point_derivative
from frametime.trace import generate_characterization, generate_runtime
from scenarios import (SELECTION_SEED, STEP_CHANGE, SWEEP_SEED, batch_ridge_solve, heavy_runs,
                       light_runs, op_count, reference_derivative, reference_frame_time,
                       sensitivity_run, shipped)

SWEEP_TABLE = shipped("characterization").freq_table


def verdict(num, slug, ok, detail):
    print(f"criterion {num:2d} [{slug}]: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def sweep_replays():
    """Noisy and noiseless characterization sweeps with adaptive replays."""
    sweep = shipped("characterization")

    def sweep_of(spec):
        return generate_characterization(spec, sweep.freq_table,
                                         sweep.characterization_complexities,
                                         sweep.characterization_repeats, seed=SWEEP_SEED)

    fspec = FeatureSpec((2, 3))
    noisy = sweep_of(sweep.workload)                                  # sigma 0.03
    clean = sweep_of(replace(sweep.workload, noise_sigma=0.0))
    return {
        "noisy": noisy,
        "rls": cli.run_replay(noisy, fspec, "rls"),
        "clean_rls": cli.run_replay(clean, fspec, "rls"),
        "clean_dcd": cli.run_replay(clean, fspec, "dcd"),
    }


@pytest.fixture(scope="module")
def runtime_replay():
    """Random-walk frequency run used for the sensitivity criteria."""
    spec, freqs = sensitivity_run(2400, seed=5)
    trace = generate_runtime(spec, SWEEP_TABLE, freqs, seed=5)
    fspec = FeatureSpec((2, 3))
    result = cli.run_replay(trace, fspec, "rls")
    states = result.coefs
    return spec, trace, result, states


def post_warmup_mape(rows, warmup):
    tail = rows[warmup:]
    actual = np.array([r.t_actual for r in tail])
    predicted = np.array([r.t_pred for r in tail])
    return cli.compute_metrics(actual, predicted).mape


def test_criterion_01_rls_equals_batch_ridge():
    rng = np.random.default_rng(2024)
    start = time.time()
    worst = 0.0
    for _ in range(20):
        m = int(rng.choice([2, 4, 8]))
        steps = int(rng.integers(50, 501))
        mu = float(rng.uniform(0.25, 4.0))
        a_init = rng.normal(size=m)
        a, P = rls_init(m, mu=mu, a_init=a_init)
        H = rng.normal(size=(steps, m))
        d = H @ rng.normal(size=m) + 0.2 * rng.normal(size=steps)
        for k in range(steps):
            a, P, _ = rls_step(a, P, H[k], float(d[k]), lam=1.0)
            ref = batch_ridge_solve(H[:k + 1], d[:k + 1], mu, a_init)
            rel = float(np.max(np.abs(a - ref))) / max(float(np.max(np.abs(ref))), 1e-12)
            worst = max(worst, rel)
    elapsed = time.time() - start
    ok = worst < 1e-8 and elapsed < 10.0
    assert verdict(1, "rls-ridge-equivalence", ok,
                   f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_exact_recovery():
    rng = np.random.default_rng(7)
    a_star = np.array([1.2, -0.7, 2.0, 0.4])
    a, P = rls_init(4)
    for _ in range(50):
        h = rng.normal(size=4)
        a, P, _ = rls_step(a, P, h, float(h @ a_star))
    err = float(np.max(np.abs(a - a_star)))
    assert verdict(2, "exact-recovery", err < 1e-4, f"max err {err:.2e} in 50 updates")


def test_criterion_03_lagrange_exactness():
    rng = np.random.default_rng(11)
    worst_rel = 0.0
    for _ in range(200):
        a2, a1, a0 = rng.normal(size=3)
        f = float(rng.uniform(250, 480))
        df1 = float(rng.uniform(5, 80))
        df2 = float(rng.uniform(5, 80))
        t = lambda x: a2 * x * x + a1 * x + a0
        got = three_point_derivative(t(f - df1), t(f), t(f + df2), df1, df2)
        want = 2 * a2 * f + a1
        worst_rel = max(worst_rel, abs(got - want) / max(abs(want), 1e-12))
    bitwise = all(
        three_point_derivative(lo, mid, hi, d, d) == (hi - lo) / (2 * d)
        for lo, mid, hi, d in rng.uniform(1, 40, size=(200, 4)))
    ok = worst_rel < 1e-9 and bitwise
    assert verdict(3, "lagrange-exactness", ok,
                   f"quadratic rel err {worst_rel:.2e}, equal-spacing bitwise {bitwise}")


def test_criterion_04_replay_mape(sweep_replays):
    start = time.time()
    mape = post_warmup_mape(sweep_replays["rls"].rows, 100)
    elapsed = time.time() - start
    ok = mape < 5.0 and elapsed < 30.0
    assert verdict(4, "replay-mape", ok, f"mape {mape:.2f}% after 100-interval warmup")


def _same_complexity_rows(spec, rows, states, warmup):
    schedule = spec.complexity_schedule
    for r, st in zip(rows[warmup:], states[warmup:]):
        if schedule[r.k] == schedule[r.k - 1]:
            yield r, st, schedule[r.k]


def _candidate_apes(runtime_replay, jump):
    """APE against the oracle of the frame time predicted `jump` levels up
    and down from each post-warmup row whose complexity did not change."""
    spec, trace, result, states = runtime_replay
    t = trace.frame_times
    apes = []
    for r, st, c in _same_complexity_rows(spec, result.rows, states, 500):
        for direction in (+1, -1):
            i = SWEEP_TABLE.index(r.f_k) + direction * jump
            if not 0 <= i < len(SWEEP_TABLE):  # off the ladder; never wrap around
                continue
            f_new = SWEEP_TABLE.freqs_mhz[i]
            pred = t[r.k - 1] + model.candidate_delta(st[0], st[1], t[r.k - 1], r.f_k, f_new)
            truth = reference_frame_time(spec, c, f_new)
            apes.append(abs(pred - truth) / truth * 100.0)
    return apes


def test_criterion_05_sensitivity_accuracy(runtime_replay):
    spec, _, result, states = runtime_replay
    ref, got = [], []
    for r, _, c in _same_complexity_rows(spec, result.rows, states, 500):
        if r.one_sided:
            continue
        ref.append(reference_derivative(spec, c, r.f_k))
        got.append(r.dtf_df)
    ref, got = np.array(ref), np.array(got)
    rmse = float(np.sqrt(np.mean((ref - got) ** 2)))
    nrmse = rmse / float(ref.max() - ref.min()) * 100.0
    mape1 = float(np.mean(_candidate_apes(runtime_replay, 1)))
    ok = nrmse < 10.0 and mape1 < 6.0
    assert verdict(5, "sensitivity-accuracy", ok,
                   f"derivative nrmse {nrmse:.2f}%, one-level mape {mape1:.2f}%")


def test_criterion_06_multi_jump_degradation(runtime_replay):
    max_jump = len(SWEEP_TABLE) - 1
    mape = {jump: float(np.mean(_candidate_apes(runtime_replay, jump)))
            for jump in range(1, max_jump + 1)}
    ok = mape[max_jump] < 12.0 and mape[max_jump] > mape[1]
    assert verdict(6, "multi-jump-degradation", ok,
                   f"mape by jump {{1: {mape[1]:.2f}, {max_jump}: {mape[max_jump]:.2f}}}%")


def test_criterion_07_dcd_fidelity(sweep_replays):
    rng = np.random.default_rng(31)
    a_star = np.array([0.9, -0.4, 1.3, 0.2])
    a, P = rls_init(4, mu=1.0)
    b, R, beta = dcd_rls_init(4, mu=1.0)
    worst = 0.0
    for _ in range(200):
        h = rng.normal(size=4)
        target = float(h @ a_star) + 0.05 * float(rng.normal())
        worst = max(worst, abs(float(h @ a) - float(h @ b)))
        a, P, _ = rls_step(a, P, h, target)
        b, R, beta, _ = dcd_step(b, R, beta, h, target, nu=64, mb=32)

    rls_mape = post_warmup_mape(sweep_replays["clean_rls"].rows, 100)
    dcd_mape = post_warmup_mape(sweep_replays["clean_dcd"].rows, 100)
    ratio = dcd_mape / rls_mape
    ok = worst < 1e-3 and ratio <= 1.5
    assert verdict(7, "dcd-fidelity", ok,
                   f"nu=64 pred diff {worst:.2e}, nu=4 replay ratio {ratio:.2f}x")


def test_criterion_08_convergence_ordering():
    trace = generate_runtime(STEP_CHANGE, SWEEP_TABLE,
                             [400.0] * len(STEP_CHANGE.complexity_schedule), seed=3)
    res_rls = cli.run_replay(trace, FeatureSpec((1,)), "rls")
    res_ar = cli.run_replay(trace, None, "arlms")

    def converge_interval(rows):
        window = cli.CONVERGENCE_WINDOW
        ape = np.where(np.isnan(rows.abs_pct_err), np.inf, rows.abs_pct_err)
        ks = [r.k for r in rows]
        rolling = np.array([ape[max(0, i - window + 1):i + 1].mean()
                            for i in range(len(ape))])
        below = rolling < cli.CONVERGENCE_THRESHOLD
        for i in range(len(ape)):
            if below[i:].all():
                return ks[i]
        return np.inf

    k_rls = converge_interval(res_rls.rows)
    k_ar = converge_interval(res_ar.rows)
    ok = k_rls + 5 <= k_ar
    assert verdict(8, "convergence-ordering", ok,
                   f"rls settles at interval {k_rls}, ar-lms at {k_ar}")


def test_criterion_09_operation_counts():
    ok = (op_count(10, "rls") == 282 and op_count(10, "dcd_rls") == 170)
    assert verdict(9, "operation-counts", ok,
                   f"rls(10)={op_count(10, 'rls')}, dcd(10)={op_count(10, 'dcd_rls')}")


def test_criterion_10_governor_dominance_and_savings():
    start = time.time()
    cfg = GovernorConfig()
    pm = PowerModel()
    dominance = True
    ratios = {}
    totals = {"rls": 0.0, "oracle": 0.0, "ondemand": 0.0}
    for name, spec in heavy_runs(600).items():
        res = {p: simulate(p, spec, SWEEP_TABLE, cfg, pm, seed=9)
               for p in ("oracle", "rls", "ondemand")}
        eo, er, ed = (res[p].total_energy for p in ("oracle", "rls", "ondemand"))
        dominance &= eo <= er <= ed
        ratios[name] = (er / eo, ed / eo)
        for p in totals:
            totals[p] += res[p].total_energy
    # dominance must also hold on other seeds and on the light runs
    for seed in (10, 11):
        for spec in heavy_runs(300).values():
            res = {p: simulate(p, spec, SWEEP_TABLE, cfg, pm, seed=seed)
                   for p in ("oracle", "rls", "ondemand")}
            dominance &= (res["oracle"].total_energy <= res["rls"].total_energy
                          <= res["ondemand"].total_energy)
    for spec in light_runs(300).values():
        res = {p: simulate(p, spec, SWEEP_TABLE, cfg, pm, seed=9)
               for p in ("oracle", "rls", "ondemand")}
        dominance &= res["oracle"].total_energy <= res["rls"].total_energy

    rls_ok = all(r[0] <= 1.10 for r in ratios.values())
    ondemand_ok = all(r[1] >= 1.25 for r in ratios.values())
    suite_ratio = totals["rls"] / totals["ondemand"]
    elapsed = time.time() - start
    ok = dominance and rls_ok and ondemand_ok and suite_ratio <= 0.75 and elapsed < 60.0
    assert verdict(10, "governor-dominance-savings", ok,
                   f"dominance {dominance}, rls<=1.10x {rls_ok}, ondemand>=1.25x {ondemand_ok}, "
                   f"suite rls/ondemand {suite_ratio:.3f}, {elapsed:.1f}s")


def test_criterion_11_feature_selection():
    sweep = shipped("selection")
    trace = generate_characterization(sweep.workload, sweep.freq_table,
                                      sweep.characterization_complexities,
                                      sweep.characterization_repeats, seed=SELECTION_SEED)
    kept = pearson_prune(trace)
    pruned_deps = kept == [2, 3, 4, 5]  # both clock-tracking counters dropped

    candidate = FeatureSpec(tuple(kept), tuple(trace.counter_names[i] for i in kept))
    dataset = build_dataset(trace, candidate)
    path = cross_validated_path(dataset)
    chosen = select_features(path, "min_mse")
    informative = chosen.indep_counter_indices == (2, 3)
    ok = pruned_deps and informative and chosen.m == 4
    assert verdict(11, "feature-selection", ok,
                   f"pruned to {kept}, min-mse support {chosen.indep_counter_indices}, "
                   f"M={chosen.m}")
