"""Acceptance gate: one test per shipped claim, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are fixed here, not tuned at runtime.
"""

import time

import numpy as np
import pytest

from frametime import cli, model
from frametime.config import GovernorConfig, PowerModel
from frametime.estimator import dcd_rls_init, dcd_step, rls_init, rls_step
from frametime.features import (FeatureSpec, build_dataset, cross_validated_path,
                                pearson_prune, select_features)
from frametime.governor import realize, simulate
from frametime.trace import generate_characterization, generate_runtime
from scenarios import (SELECTION_SEED, STEP_CHANGE, SWEEP_SEED, batch_ridge_solve, heavy_runs,
                       light_runs, op_count, reference_derivative, reference_frame_time,
                       sensitivity_run, shipped)

SWEEP_TABLE = shipped("characterization").freq_table


def verdict(num, slug, ok, detail):
    print(f"criterion {num:2d} [{slug}]: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


REPLAY_SPEC = FeatureSpec((2, 3))
MAX_JUMP = len(SWEEP_TABLE) - 1
CFG = GovernorConfig()
PM = PowerModel()


def characterization_sweep(seed, noise_sigma=None):
    """The shipped characterization sweep generated at the seed, its noise
    replaced by noise_sigma when one is given."""
    sweep = shipped("characterization")
    spec = sweep.workload if noise_sigma is None else sweep.workload._replace(
        noise_sigma=noise_sigma)
    return generate_characterization(spec, sweep.freq_table, sweep.characterization_complexities,
                                     sweep.characterization_repeats, seed=seed)


def post_warmup_mape(rows, warmup):
    tail = rows[warmup:]
    actual = np.array([r.t_actual for r in tail])
    predicted = np.array([r.t_pred for r in tail])
    return cli.compute_metrics(actual, predicted).mape


def replay_mape(seed):
    """Criterion 4's figure: MAPE (%) of the rls replay of the noisy sweep
    at the seed, after a 100-interval warmup."""
    return post_warmup_mape(cli.run_replay(characterization_sweep(seed), REPLAY_SPEC,
                                           "rls").rows, 100)


def sensitivity_replay(seed):
    """The random-walk run of criteria 5 and 6 at the seed, replayed by rls:
    (spec, trace, result, per-row coefficients)."""
    spec, freqs = sensitivity_run(2400, seed=seed)
    trace = generate_runtime(spec, SWEEP_TABLE, freqs, seed=seed)
    result = cli.run_replay(trace, REPLAY_SPEC, "rls")
    return spec, trace, result, result.coefs


@pytest.fixture(scope="module")
def runtime_replay():
    """Random-walk frequency run used for the sensitivity criteria."""
    return sensitivity_replay(5)


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


def test_criterion_03_derivative_exactness():
    # the closed form against a central difference of the what-if it
    # differentiates, base + candidate_delta, with step 1e-4 * f_k
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        a = rng.normal(size=2) * [1.0, 50.0]
        base = float(rng.uniform(1, 40))
        f_k = float(rng.uniform(200, 520))
        step = 1e-4 * f_k

        def t(f):
            return base + model.candidate_delta(a[0], a[1], base, f_k, f)

        central = (t(f_k + step) - t(f_k - step)) / (2 * step)
        scale = abs(a[0] * base / f_k) + abs(a[1]) / 1000.0
        worst = max(worst, abs(model.frequency_sensitivity(a, base, f_k) - central) / scale)
    # the purely scalable model t = s * ref / f, at its own clock
    scalable = 0.0
    for s, f_k in rng.uniform([1, 200], [40, 520], size=(200, 2)):
        want = -s * 200.0 / (f_k * f_k)
        got = model.frequency_sensitivity(np.array([1.0, 0.0]), s * 200.0 / f_k, f_k)
        scalable = max(scalable, abs(got - want) / abs(want))
    ok = worst < 1e-6 and scalable < 1e-12
    assert verdict(3, "derivative-exactness", ok,
                   f"central-difference dev {worst:.1e} of scale, "
                   f"scalable-model rel err {scalable:.1e}")


def test_criterion_04_replay_mape():
    start = time.time()
    mape = replay_mape(SWEEP_SEED)
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
            i = SWEEP_TABLE.freqs_mhz.index(r.f_k) + direction * jump
            if not 0 <= i < len(SWEEP_TABLE):  # off the ladder; never wrap around
                continue
            f_new = SWEEP_TABLE.freqs_mhz[i]
            pred = t[r.k - 1] + model.candidate_delta(st[0], st[1], t[r.k - 1], r.f_k, f_new)
            truth = reference_frame_time(spec, c, f_new)
            apes.append(abs(pred - truth) / truth * 100.0)
    return apes


def candidate_mape(runtime_replay, jump):
    """Criteria 5 and 6's what-if figure: the mean of _candidate_apes (%)."""
    return float(np.mean(_candidate_apes(runtime_replay, jump)))


def derivative_nrmse(runtime_replay):
    """Criterion 5's derivative figure: the RMSE of dtf_df against the
    analytic derivative on the post-warmup rows whose complexity did not
    change, as a percentage of the reference's range."""
    spec, _, result, states = runtime_replay
    ref, got = [], []
    for r, _, c in _same_complexity_rows(spec, result.rows, states, 500):
        ref.append(reference_derivative(spec, c, r.f_k))
        got.append(r.dtf_df)
    ref, got = np.array(ref), np.array(got)
    rmse = float(np.sqrt(np.mean((ref - got) ** 2)))
    return rmse / float(ref.max() - ref.min()) * 100.0


def test_criterion_05_sensitivity_accuracy(runtime_replay):
    nrmse = derivative_nrmse(runtime_replay)
    mape1 = candidate_mape(runtime_replay, 1)
    ok = nrmse < 10.0 and mape1 < 6.0
    assert verdict(5, "sensitivity-accuracy", ok,
                   f"derivative nrmse {nrmse:.2f}%, one-level mape {mape1:.2f}%")


def test_criterion_06_multi_jump_degradation(runtime_replay):
    mape = {jump: candidate_mape(runtime_replay, jump) for jump in (1, MAX_JUMP)}
    ok = mape[MAX_JUMP] < 12.0 and mape[MAX_JUMP] > mape[1]
    assert verdict(6, "multi-jump-degradation", ok,
                   f"mape by jump {{1: {mape[1]:.2f}, {MAX_JUMP}: {mape[MAX_JUMP]:.2f}}}%")


def test_criterion_07_dcd_fidelity():
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

    clean = characterization_sweep(SWEEP_SEED, noise_sigma=0.0)
    rls_mape = post_warmup_mape(cli.run_replay(clean, REPLAY_SPEC, "rls").rows, 100)
    dcd_mape = post_warmup_mape(cli.run_replay(clean, REPLAY_SPEC, "dcd").rows, 100)
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


def policy_energies(spec, seed):
    """Total energy (J) of the oracle, rls and ondemand policies, in that
    order, on the spec realized at the seed on the sweep's table."""
    world = realize(spec, SWEEP_TABLE, seed=seed)
    return [simulate(p, world, CFG, PM).total_energy for p in ("oracle", "rls", "ondemand")]


def energy_ratios(seed):
    """Criterion 10's figures on the four heavy runs of 600 intervals at
    the seed: per run, its rls/oracle and ondemand/oracle energy; the
    suite's rls/ondemand energy; and whether oracle <= rls <= ondemand
    held on every run."""
    energies = {name: policy_energies(spec, seed) for name, spec in heavy_runs(600).items()}
    ratios = {name: (er / eo, ed / eo) for name, (eo, er, ed) in energies.items()}
    suite = (sum(er for _, er, _ in energies.values())
             / sum(ed for _, _, ed in energies.values()))
    dominance = all(eo <= er <= ed for eo, er, ed in energies.values())
    return ratios, suite, dominance


def test_criterion_10_governor_dominance_and_savings():
    start = time.time()
    ratios, suite_ratio, dominance = energy_ratios(9)
    # dominance must also hold on other seeds and on the light runs
    for seed in (10, 11):
        for spec in heavy_runs(300).values():
            eo, er, ed = policy_energies(spec, seed)
            dominance &= eo <= er <= ed
    for spec in light_runs(300).values():
        eo, er, _ = policy_energies(spec, 9)
        dominance &= eo <= er

    rls_ok = all(r[0] <= 1.10 for r in ratios.values())
    ondemand_ok = all(r[1] >= 1.25 for r in ratios.values())
    elapsed = time.time() - start
    ok = dominance and rls_ok and ondemand_ok and suite_ratio <= 0.75 and elapsed < 60.0
    assert verdict(10, "governor-dominance-savings", ok,
                   f"dominance {dominance}, rls<=1.10x {rls_ok}, ondemand>=1.25x {ondemand_ok}, "
                   f"suite rls/ondemand {suite_ratio:.3f}, {elapsed:.1f}s")


def feature_selection(seed):
    """Criterion 11's selection on the shipped selection sweep at the seed:
    the counters Pearson pruning kept, and the min-mse FeatureSpec."""
    sweep = shipped("selection")
    trace = generate_characterization(sweep.workload, sweep.freq_table,
                                      sweep.characterization_complexities,
                                      sweep.characterization_repeats, seed=seed)
    kept = pearson_prune(trace)
    candidate = FeatureSpec(tuple(kept), tuple(trace.counter_names[i] for i in kept))
    path = cross_validated_path(build_dataset(trace, candidate))
    return kept, select_features(path, "min_mse")


def test_criterion_11_feature_selection():
    kept, chosen = feature_selection(SELECTION_SEED)
    pruned_deps = kept == [2, 3, 4, 5]  # both clock-tracking counters dropped
    informative = chosen.indep_counter_indices == (2, 3)
    ok = pruned_deps and informative and chosen.m == 4
    assert verdict(11, "feature-selection", ok,
                   f"pruned to {kept}, min-mse support {chosen.indep_counter_indices}, "
                   f"M={chosen.m}")
