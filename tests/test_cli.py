import numpy as np
import pytest

from frametime import workloads
from frametime.cli import (EXIT_DEGENERATE, EXIT_INPUT, EXIT_MISMATCH,
                           EXIT_UNSUPPORTED, compute_metrics, main, run_replay)
from frametime.config import ConfigError, load_config, parse_schedule
from frametime.estimator import (arlms_init, arlms_update, dcd_rls_init, dcd_rls_update,
                                 rls_init, rls_update)
from frametime.features import (FeatureSpec, build_dataset, estimator_units,
                                save_feature_spec)
from frametime.trace import Trace, generate_runtime, parse_trace, serialize_trace

CONFIG_TEXT = """
[frequency_table]
freqs_mhz = 200, 244, 278, 311, 355, 400, 444, 489, 511

[workload]
ref_freq_mhz = 200
noise_sigma = 0.003
complexity_schedule = square:20:40:25:100

[scalable_ms]
kind = piecewise
points = 1:0.925, 32:7.2, 64:20.0

[unscalable_ms]
kind = affine
slope = 0.02
intercept = 0.3

[characterization]
complexities = 1:16
repeats = 2

[counter.render_busy_kcycles]
kind = dep
slope = 50
intercept = 500

[counter.geometry_batches]
kind = indep
response = piecewise
points = 1:12, 32:48, 64:180

[counter.shader_slots]
kind = indep
slope = 4
intercept = 40

[counter.probe_jitter_a]
kind = noise
amplitude = 200
salt = 3

[governor]
fps_target = 60
period_ms = 50

[power_model]
p_static_w = 0.5
p_dyn_w_per_ghz3 = 8.0
p_idle_w = 0.2
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "workload.ini"
    path.write_text(CONFIG_TEXT)
    return path


class TestConfig:
    def test_load(self, config_file):
        bundle = load_config(config_file)
        assert len(bundle.freq_table) == 9
        assert bundle.workload.counter_names[0] == "render_busy_kcycles"
        assert len(bundle.workload.indep_counters) == 3
        assert bundle.characterization_repeats == 2
        assert len(bundle.workload.complexity_schedule) == 100
        assert bundle.workload.scalable_ms(32.0) == pytest.approx(7.2)

    def test_schedules(self):
        assert parse_schedule("constant:5:3") == (5.0, 5.0, 5.0)
        assert parse_schedule("ramp:0:10:3") == (0.0, 5.0, 10.0)
        assert parse_schedule("square:1:2:2:6") == (1.0, 1.0, 2.0, 2.0, 1.0, 1.0)
        assert parse_schedule("3, 1, 2") == (3.0, 1.0, 2.0)
        with pytest.raises(ConfigError):
            parse_schedule("sawtooth:1:2")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini")


class TestMetrics:
    def test_perfect_prediction(self):
        rep = compute_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert rep.mape == 0.0
        assert rep.median_ape == 0.0
        assert rep.nrmse == 0.0
        assert rep.convergence_time_ms == 0.0
        assert rep.excluded_terms == 0

    def test_outlier_splits_mape_and_median(self):
        actual = np.full(100, 10.0)
        predicted = actual.copy()
        predicted[50] = 20.0
        rep = compute_metrics(actual, predicted)
        assert rep.median_ape == 0.0
        assert rep.mape == pytest.approx(1.0)

    def test_hand_computed_three_point_series(self):
        rep = compute_metrics([10.0, 20.0, 40.0], [11.0, 19.0, 44.0])
        assert rep.mape == pytest.approx((10.0 + 5.0 + 10.0) / 3)
        assert rep.median_ape == pytest.approx(10.0)
        assert rep.nrmse == pytest.approx(np.sqrt(6.0) / 30.0 * 100.0)
        assert rep.convergence_time_ms == 50.0

    def test_zero_actual_excluded_and_counted(self):
        rep = compute_metrics([0.0, 10.0], [1.0, 10.0])
        assert rep.excluded_terms == 1
        assert rep.mape == 0.0

    def test_never_converging(self):
        rep = compute_metrics([10.0] * 20, [20.0] * 20)
        assert rep.convergence_time_ms == float("inf")

    def test_convergence_matches_suffix_scan(self):
        # reference: the first k whose rolling APE stays below the
        # threshold from k to the end of the series
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(1, 60))
            actual = rng.uniform(5.0, 15.0, size=n)
            actual[rng.random(n) < 0.05] = 0.0
            predicted = actual * (1.0 + rng.normal(0.0, 0.2, size=n)
                                  * np.linspace(1.0, 0.0, n) ** rng.uniform(0.5, 4.0))
            rep = compute_metrics(actual, predicted, period_ms=50.0)
            ape = np.where(actual != 0, np.abs(actual - predicted)
                           / np.where(actual != 0, actual, 1.0) * 100.0, np.inf)
            rolling = np.array([ape[max(0, k - 4):k + 1].mean() for k in range(n)])
            want = next((k * 50.0 for k in range(n) if (rolling[k:] < 10.0).all()),
                        float("inf"))
            assert rep.convergence_time_ms == want


def write_runtime_trace(tmp_path, n=160, seed=2):
    spec, freqs = workloads.sensitivity_replay(n=n, seed=seed)
    trace = generate_runtime(spec, workloads.SWEEP_TABLE, freqs, seed=seed)
    path = tmp_path / "trace.csv"
    path.write_text(serialize_trace(trace))
    return path, trace


class TestCharacterize:
    def test_generates_parseable_trace(self, config_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["characterize", "--config", str(config_file), "--out", str(out)])
        assert code == 0
        assert "288 rows" in capsys.readouterr().out  # 9 freqs * 16 complexities * 2
        trace = parse_trace(out.read_text())
        assert len(trace) == 288

    def test_deterministic_output(self, config_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["characterize", "--config", str(config_file), "--out", str(a)])
        main(["characterize", "--config", str(config_file), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.csv"
        main(["characterize", "--config", str(config_file), "--out", str(c), "--seed", "7"])
        assert c.read_bytes() != a.read_bytes()

    def test_runtime_mode(self, config_file, tmp_path):
        out = tmp_path / "runtime.csv"
        code = main(["characterize", "--config", str(config_file), "--out", str(out),
                     "--mode", "runtime"])
        assert code == 0
        trace = parse_trace(out.read_text())
        assert len(trace) == 100  # workload schedule length
        assert np.unique(trace.freqs).size > 1

    def test_unreadable_config_exit2(self, tmp_path):
        code = main(["characterize", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_INPUT


class TestSelectFeatures:
    def test_pipeline(self, config_file, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        main(["characterize", "--config", str(config_file), "--out", str(sweep)])
        spec_path = tmp_path / "features.spec"
        code = main(["select-features", "--trace", str(sweep), "--out", str(spec_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "eta,cv_mean_mse" in out
        assert spec_path.exists()
        from frametime.features import load_feature_spec
        spec = load_feature_spec(spec_path)
        assert spec.m >= 2

    def test_single_frequency_trace_exit3(self, tmp_path):
        spec, _ = workloads.sensitivity_replay(n=40, seed=1)
        trace = generate_runtime(spec, workloads.SWEEP_TABLE, 400.0, seed=1)
        path = tmp_path / "flat.csv"
        path.write_text(serialize_trace(trace))
        code = main(["select-features", "--trace", str(path),
                     "--out", str(tmp_path / "s.spec")])
        assert code == EXIT_DEGENERATE

    def test_trace_shorter_than_folds_exit3(self, tmp_path, capsys):
        spec, _ = workloads.sensitivity_replay(n=8, seed=1)
        trace = generate_runtime(spec, workloads.SWEEP_TABLE, [200.0, 400.0] * 4, seed=1)
        path = tmp_path / "short.csv"
        path.write_text(serialize_trace(trace))
        code = main(["select-features", "--trace", str(path),
                     "--out", str(tmp_path / "s.spec")])
        assert code == EXIT_DEGENERATE
        assert "7 rows, fewer than 10 folds" in capsys.readouterr().err
        assert not (tmp_path / "s.spec").exists()

    def test_missing_trace_exit2(self, tmp_path):
        code = main(["select-features", "--trace", str(tmp_path / "gone.csv"),
                     "--out", str(tmp_path / "s.spec")])
        assert code == EXIT_INPUT


class TestReplay:
    def test_rls_replay_outputs(self, tmp_path, capsys):
        trace_path, _ = write_runtime_trace(tmp_path)
        spec_path = tmp_path / "features.spec"
        save_feature_spec(FeatureSpec((2, 3)), spec_path)
        out = tmp_path / "replay.csv"
        code = main(["replay", "--trace", str(trace_path), "--spec", str(spec_path),
                     "--algo", "rls", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,f_k,t_actual,t_pred,abs_pct_err,dtf_df"
        assert len(lines) == 160  # header + 159 prediction rows
        assert "mape=" in capsys.readouterr().out

    def test_identical_invocations_identical_files(self, tmp_path):
        trace_path, _ = write_runtime_trace(tmp_path)
        spec_path = tmp_path / "features.spec"
        save_feature_spec(FeatureSpec((2, 3)), spec_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["replay", "--trace", str(trace_path), "--spec", str(spec_path), "--out", str(a)])
        main(["replay", "--trace", str(trace_path), "--spec", str(spec_path), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_arlms_skips_first_ten_intervals(self, tmp_path):
        trace_path, _ = write_runtime_trace(tmp_path)
        out = tmp_path / "ar.csv"
        code = main(["replay", "--trace", str(trace_path), "--algo", "arlms",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        first_k = int(lines[1].split(",")[0])
        assert first_k == 10
        # the frequency-free baseline emits no derivative column values
        assert lines[1].endswith(",")

    def test_spec_mismatch_exit4(self, tmp_path):
        trace_path, _ = write_runtime_trace(tmp_path)
        spec_path = tmp_path / "features.spec"
        save_feature_spec(FeatureSpec((2, 99)), spec_path)
        code = main(["replay", "--trace", str(trace_path), "--spec", str(spec_path),
                     "--out", str(tmp_path / "r.csv")])
        assert code == EXIT_MISMATCH


class TestSensitivity:
    def test_rows_and_boundary_flags(self, tmp_path, capsys):
        trace_path, trace = write_runtime_trace(tmp_path)
        spec_path = tmp_path / "features.spec"
        save_feature_spec(FeatureSpec((2, 3)), spec_path)
        out = tmp_path / "sens.csv"
        code = main(["sensitivity", "--trace", str(trace_path), "--spec", str(spec_path),
                     "--out", str(out), "--jumps", "2"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,f_k,dtf_df,one_sided,delta_up1,delta_down1,delta_up2,delta_down2"
        table = workloads.SWEEP_TABLE
        for line in lines[1:]:
            cells = line.split(",")
            f_k = float(cells[1])
            one_sided = cells[3] == "1"
            assert one_sided == (f_k in (table.min, table.max))

    @pytest.mark.parametrize("jumps", ["0", "-2"])
    def test_jumps_below_one_exit2(self, tmp_path, capsys, jumps):
        trace_path, _ = write_runtime_trace(tmp_path, n=60)
        spec_path = tmp_path / "features.spec"
        save_feature_spec(FeatureSpec((2, 3)), spec_path)
        out = tmp_path / "s.csv"
        code = main(["sensitivity", "--trace", str(trace_path), "--spec", str(spec_path),
                     "--out", str(out), "--jumps", jumps])
        assert code == EXIT_INPUT
        assert "--jumps" in capsys.readouterr().err
        assert not out.exists()

    def test_jump_clipping_warns(self, tmp_path, capsys):
        trace_path, _ = write_runtime_trace(tmp_path, n=60)
        spec_path = tmp_path / "features.spec"
        save_feature_spec(FeatureSpec((2, 3)), spec_path)
        code = main(["sensitivity", "--trace", str(trace_path), "--spec", str(spec_path),
                     "--out", str(tmp_path / "s.csv"), "--jumps", "50"])
        assert code == 0
        assert "clipped" in capsys.readouterr().err


class TestGovern:
    def test_policy_all_dominance_and_summary(self, config_file, tmp_path, capsys):
        out = tmp_path / "govern.csv"
        code = main(["govern", "--config", str(config_file), "--policy", "all",
                     "--out", str(out), "--seed", "3"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "normalized_energy" in printed
        lines = out.read_text().splitlines()
        summaries = {ln.split(",")[1]: ln for ln in lines if ln.startswith("summary")}
        assert set(summaries) == {"rls", "oracle", "ondemand"}
        energy = {p: float(summaries[p].split(",")[4]) for p in summaries}
        assert energy["oracle"] <= energy["rls"] <= energy["ondemand"]

    def test_trace_input_unsupported_exit5(self, tmp_path):
        trace_path, _ = write_runtime_trace(tmp_path, n=40)
        code = main(["govern", "--trace", str(trace_path), "--policy", "oracle",
                     "--out", str(tmp_path / "g.csv")])
        assert code == EXIT_UNSUPPORTED


class TestRunReplayApi:
    def test_prediction_is_one_step_ahead(self, tmp_path):
        # predictions at row k must not depend on sample k's frame time
        _, trace = write_runtime_trace(tmp_path, n=80)
        res = run_replay(trace, FeatureSpec((2, 3)), "rls")
        assert res.rows[0].k == 1
        assert len(res.rows) == len(trace) - 1
        assert res.report.mape >= 0.0

    @pytest.mark.parametrize("algo, init, update", [("rls", rls_init, rls_update),
                                                    ("dcd", dcd_rls_init, dcd_rls_update)])
    def test_coefs_equal_plain_update_loop(self, tmp_path, algo, init, update):
        # row i is predicted with the state held before consuming row i
        _, trace = write_runtime_trace(tmp_path, n=80)
        fspec = FeatureSpec((2, 3))
        res = run_replay(trace, fspec, algo)
        dataset = build_dataset(trace, fspec)
        units = estimator_units(trace.counters[:, [2, 3]])
        assert res.coefs.shape == (len(res.rows), fspec.m)
        state = init(fspec.m)
        for i, (h, target) in enumerate(zip(dataset.h, dataset.targets)):
            assert np.array_equal(res.coefs[i], state.a)
            state = update(state, h / units[i + 1], target)

    def test_arlms_has_no_coefs(self, tmp_path):
        _, trace = write_runtime_trace(tmp_path, n=40)
        assert run_replay(trace, None, "arlms").coefs is None

    def test_arlms_equals_plain_update_loop(self, tmp_path):
        _, trace = write_runtime_trace(tmp_path, n=80)
        res = run_replay(trace, None, "arlms")
        state, predictions = arlms_init(), []
        for t_k in trace.frame_times:
            state, pred = arlms_update(state, t_k)
            predictions.append(pred)
        # the prediction made after consuming interval k - 1 is for interval k
        k = np.arange(state.order, len(trace))
        want = np.array(predictions)[k - 1]
        assert np.array_equal(res.rows.k, k)
        assert np.array_equal(res.rows.t_pred, want)
        assert res.report == compute_metrics(trace.frame_times[k], want)

    @pytest.mark.parametrize("algo", ["rls", "dcd"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_features_rejected(self, algo):
        # t_prev * (f_prev / f_cur - 1) overflows for a huge frame time and a
        # falling clock, although every trace field is finite; the estimator
        # step itself checks nothing, and the error names the step into row 2
        trace = Trace(timestamps=[0.05, 0.10, 0.15], frame_times=[1.0, 1.5e308, 1.0],
                      frame_counts=[3, 0, 3], freqs=[200.0, 511.0, 200.0],
                      counters=np.ones((3, 1)), counter_names=("c0",),
                      freq_table=workloads.SWEEP_TABLE)
        with pytest.raises(ValueError, match="must be finite: not so for trace row 2,"):
            run_replay(trace, FeatureSpec((0,)), algo)


class TestFullPipeline:
    def test_characterize_select_replay_sensitivity(self, config_file, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        assert main(["characterize", "--config", str(config_file), "--out", str(sweep)]) == 0
        spec_path = tmp_path / "features.spec"
        assert main(["select-features", "--trace", str(sweep), "--config", str(config_file),
                     "--out", str(spec_path)]) == 0
        replay_out = tmp_path / "replay.csv"
        assert main(["replay", "--trace", str(sweep), "--spec", str(spec_path),
                     "--config", str(config_file), "--out", str(replay_out)]) == 0
        assert replay_out.read_text().startswith("k,f_k,t_actual,t_pred")

        runtime = tmp_path / "runtime.csv"
        assert main(["characterize", "--config", str(config_file), "--out", str(runtime),
                     "--mode", "runtime"]) == 0
        capsys.readouterr()
        sens_out = tmp_path / "sens.csv"
        assert main(["sensitivity", "--trace", str(runtime), "--spec", str(spec_path),
                     "--config", str(config_file), "--out", str(sens_out),
                     "--jumps", "2"]) == 0
        printed = capsys.readouterr().out
        # the runtime trace matches the config schedule, so the analytic
        # reference summary is available
        assert "candidate_mape" in printed
