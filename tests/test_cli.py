import gc
import importlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import frametime

from frametime import cli
from frametime.cli import (EXIT_DEGENERATE, EXIT_INPUT, EXIT_MISMATCH, compute_metrics,
                           main, run_replay)
from frametime.config import POLICIES, GovernorConfig, PowerModel, load_config, parse_schedule
from frametime.estimator import (ARLMS_ORDER, DEFAULT_LAMBDA, dcd_rls_init,
                                 estimator_units, rls_init)
from frametime.features import (FeatureSpec, RegressionDataset, build_dataset,
                                save_feature_spec)
from frametime.model import candidate_delta
from frametime.trace import (DEFAULT_FREQ_TABLE, AffineMap, CounterModel, FrequencyTable,
                             HashNoiseMap, PiecewiseLinearMap, Trace, WorkloadSpec,
                             generate_runtime, parse_trace, realized_frame_times,
                             serialize_trace)
from scenarios import (CONFIG_DIR, reference_arlms, reference_dcd, reference_derivative,
                       reference_noise, reference_rls, sensitivity_run, shipped)

TABLE = shipped("characterization").freq_table

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


# one interval whose frame time overflows to inf, at noise so wide that
# its factor clips to 0 at CLIPPED_SEED, the first seed that draws a clip
CLIPPED_SEED = 3
CLIPPED_OVERFLOW = (
    "noise_sigma = 0.003\ncomplexity_schedule = square:20:40:25:100\n\n"
    "[scalable_ms]\nkind = piecewise\npoints = 1:0.925, 32:7.2, 64:20.0",
    "noise_sigma = 10\ncomplexity_schedule = constant:37:1\n\n"
    "[scalable_ms]\nkind = piecewise\npoints = 1:1e308, 32:1e308, 64:1e308")


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
        # the `kind = noise` and `response = piecewise` counter forms
        indep = bundle.workload.indep_counters
        assert CounterModel("probe_jitter_a", HashNoiseMap(200.0, salt=3.0)) in indep
        assert CounterModel("geometry_batches", PiecewiseLinearMap(
            ((1.0, 12.0), (32.0, 48.0), (64.0, 180.0)))) in indep
        assert bundle.governor.fps_target == 60.0
        assert bundle.power_model.p_dyn_w_per_ghz3 == 8.0

    def test_schedules(self):
        assert parse_schedule("constant:5:3") == (5.0, 5.0, 5.0)
        assert parse_schedule("ramp:0:10:3") == (0.0, 5.0, 10.0)
        assert parse_schedule("square:1:2:2:6") == (1.0, 1.0, 2.0, 2.0, 1.0, 1.0)
        assert parse_schedule("stairs:2:6:2:2:8") == (2.0, 2.0, 4.0, 4.0, 6.0, 6.0, 2.0, 2.0)
        assert parse_schedule("3, 1, 2") == (3.0, 1.0, 2.0)
        # a half period or hold past the index range is clamped to N
        assert parse_schedule("square:1:2:1e308:5") == (1.0,) * 5
        assert parse_schedule("stairs:1:3:1:1e308:4") == (1.0,) * 4
        with pytest.raises(ValueError, match=r"^bad schedule expression 'sawtooth:1:2'$"):
            parse_schedule("sawtooth:1:2")

    @settings(max_examples=100, deadline=None)
    @given(lo=st.integers(0, 20), step=st.sampled_from([0.1, 0.3, 0.5, 1.0, 4.0]),
           count=st.integers(1, 40), hold=st.integers(1, 9), n=st.integers(1, 150))
    @example(lo=4, step=4.0, count=16, hold=8, n=2400)  # the shipped stairs
    @example(lo=1, step=1.0, count=3, hold=5, n=7)      # N shorter than one period
    @example(lo=1, step=1.0, count=3, hold=5, n=38)     # N not a multiple of the period
    @example(lo=0, step=1.0, count=3000, hold=1000, n=2500)  # N ends before the levels do
    def test_cycles_follow_per_interval_formula(self, lo, step, count, hold, n):
        hi = lo + step * (count - 1)
        levels = [float(v) for v in np.arange(lo, hi + step / 2, step)]
        assert parse_schedule(f"stairs:{lo}:{hi}:{step}:{hold}:{n}") == tuple(
            levels[(k // hold) % len(levels)] for k in range(n))
        assert parse_schedule(f"square:{lo}:{hi}:{hold}:{n}") == tuple(
            lo if (k // hold) % 2 == 0 else hi for k in range(n))

    @settings(max_examples=100, deadline=None)
    @given(lo=st.floats(-1e6, 1e6), step=st.sampled_from([0.1, 0.3, 0.5, 1.0, 4.0, 1e3]),
           span=st.one_of(st.just(0.0), st.floats(0.0, 1e4), st.floats(0.0, 1e13)),
           hold=st.integers(1, 9), n=st.integers(1, 150))
    @example(lo=0.0, step=1.0, span=1e6, hold=1, n=3)    # stairs:0:1e6:1:1:3
    @example(lo=0.0, step=1.0, span=1e12, hold=1, n=3)   # stairs:0:1e12:1:1:3
    @example(lo=1e16, step=1.0, span=0.0, hold=1, n=3)   # stairs:1e16:1e16:1:1:3, LO = HI
    def test_stairs_levels_follow_numpys_fill(self, lo, step, span, hold, n):
        # level j of np.arange(lo, hi + step / 2, step) is lo, lo + step,
        # then lo + j * ((lo + step) - lo); checked against numpy where the
        # range is short, and used as the reference where it is too long
        # to build
        hi = lo + span
        count = 1 if lo == hi else max(1, math.ceil((hi + step / 2 - lo) / step))

        def level(j):
            return lo if j == 0 else lo + step if j == 1 else lo + j * ((lo + step) - lo)

        if lo < hi and count <= 4096:
            assert [level(j) for j in range(count)] == [
                float(v) for v in np.arange(lo, hi + step / 2, step)]
        assert parse_schedule(f"stairs:{lo!r}:{hi!r}:{step!r}:{hold}:{n}") == tuple(
            level((k // hold) % count) for k in range(n))

    @pytest.mark.parametrize("text", [
        "constant:5:0", "ramp:0:10:-1", "square:1:2:2:0",          # N
        "square:1:2:0:6", "square:1:2:-2:6", "square:1:2:inf:6",   # HALF_PERIOD
        "stairs:1:3:1:0:6",                                        # HOLD
        "stairs:1:3:0:2:6", "stairs:1:3:-1:2:6",                   # STEP
        "stairs:3:1:1:2:6",                                        # LO > HI
        "stairs:1e16:2e16:1:1:3",                                  # STEP below LO's ulp
        "stairs:1e308:1.7e308:1e308:1:3",                          # levels overflow
        "constant:nan:20", "ramp:0:inf:20", "1,nan,2",             # non-finite
        "constant:37:1e308", "ramp:0:1:1e308",                     # N past the index range
        "square:1:2:5:1e308", "stairs:1:3:1:2:1e308",
    ])
    def test_bad_schedule_rejected(self, text):
        with pytest.raises(ValueError, match=f"^bad schedule expression {re.escape(repr(text))}"):
            parse_schedule(text)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.ini"
        with pytest.raises(ValueError, match=f"^cannot read config file {re.escape(str(path))}$"):
            load_config(path)

    def test_absent_sections_take_the_record_defaults(self, tmp_path):
        path = tmp_path / "workload.ini"
        path.write_text(CONFIG_TEXT.split("[governor]")[0])   # [power_model] follows it
        bundle = load_config(path)
        assert (bundle.governor, bundle.power_model) == (GovernorConfig(), PowerModel())

    def test_absent_frequency_table_takes_the_default(self, config_file, tmp_path):
        table = "[frequency_table]\nfreqs_mhz = 200, 244, 278, 311, 355, 400, 444, 489, 511\n"
        assert CONFIG_TEXT.count(table) == 1
        config_file.write_text(CONFIG_TEXT.replace(table, ""))
        assert load_config(config_file).freq_table == DEFAULT_FREQ_TABLE
        out = tmp_path / "sweep.csv"
        assert main(["characterize", "--config", str(config_file), "--out", str(out)]) == 0
        trace = parse_trace(out.read_text())
        assert trace.freq_table == DEFAULT_FREQ_TABLE
        assert np.unique(trace.freqs).tolist() == list(DEFAULT_FREQ_TABLE.freqs_mhz)

    def test_one_reader_for_both_frequency_lists(self, config_file):
        # [frequency_table] and a trace's table comment: one message, each its own prefix
        table = "freqs_mhz = 200, 244, 278, 311, 355, 400, 444, 489, 511"
        config_file.write_text(CONFIG_TEXT.replace(table, "freqs_mhz = 200, abc"))
        with pytest.raises(ValueError, match=re.escape(
                "[frequency_table]: freqs_mhz must be numbers, got '200, abc'")):
            load_config(config_file)
        comment = "# freq_table_mhz = 200, abc"
        with pytest.raises(ValueError, match=re.escape(
                f"row 0: table comment {comment!r}: must be numbers, got '200, abc'")):
            parse_trace(comment + "\ntime,frame_time_ms,frame_count,gpu_freq_mhz\n")

    @pytest.mark.parametrize("old, new, named", [
        ("complexities = 1:64", "complexities = 5:1",
         "[characterization]: complexities must not be empty, got '5:1'"),
        ("complexities = 1:64", "complexities = ,",
         "[characterization]: complexities must not be empty, got ','"),
        ("repeats = 4", "repeats = 0", "[characterization]: repeats must be at least 1, got 0"),
        ("repeats = 4", "repeats = -3", "[characterization]: repeats must be at least 1, got -3"),
    ], ids=["empty_range", "empty_list", "zero_repeats", "negative_repeats"])
    def test_empty_sweep_rejected_by_every_command(self, tmp_path, capsys, old, new, named):
        # a [characterization] section that defines no sweep fails where the
        # file loads, so govern, which never sweeps, rejects it like characterize
        text = (CONFIG_DIR / "selection.ini").read_text()
        assert text.count(old) == 1
        config = tmp_path / "selection.ini"
        config.write_text(text.replace(old, new))
        for command in (["characterize"], ["govern", "--policy", "all"]):
            out = tmp_path / "out.csv"
            code = main([*command, "--config", str(config), "--out", str(out)])
            assert (code, capsys.readouterr().err) == (
                EXIT_INPUT, f"error: bad config {config}: {named}\n"), command
            assert not out.exists()

    @pytest.mark.parametrize("name, message", [
        (" ", "[counter. ]: counter names must not be blank"),
        ("work,units", "[counter.work,units]: counter names must not contain commas or newlines"),
    ], ids=["blank", "comma"])
    def test_bad_counter_name_rejected_by_every_command(self, tmp_path, capsys, name,
                                                        message):
        # the name is checked where the file loads, so govern, which builds
        # no trace, rejects it like characterize, and both name the file
        text = (CONFIG_DIR / "governor_heavy.ini").read_text()
        old = "[counter.render_busy_kcycles]"
        assert text.count(old) == 1
        config = tmp_path / "governor_heavy.ini"
        config.write_text(text.replace(old, f"[counter.{name}]"))
        for command in (["govern"], ["characterize", "--mode", "runtime"]):
            out = tmp_path / "out.csv"
            code = main([*command, "--config", str(config), "--out", str(out)])
            assert (code, capsys.readouterr().err) == (
                EXIT_INPUT, f"error: bad config {config}: {message}\n"), command
            assert not out.exists()


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
            rep = compute_metrics(actual, predicted)
            ape = np.where(actual != 0, np.abs(actual - predicted)
                           / np.where(actual != 0, actual, 1.0) * 100.0, np.inf)
            rolling = np.array([ape[max(0, k - 4):k + 1].mean() for k in range(n)])
            want = next((k * 50.0 for k in range(n) if (rolling[k:] < 10.0).all()),
                        float("inf"))
            assert rep.convergence_time_ms == want

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)),
        st.one_of(st.floats(-1e4, 1e4), st.sampled_from([math.nan, math.inf, -math.inf]))),
        min_size=1, max_size=60))
    @example([(10.0, 11.0), (20.0, 19.0)])                    # even: the middle pair
    @example([(10.0, math.nan), (20.0, 19.0), (0.0, 3.0)])    # nan term, zero excluded
    @example([(10.0, math.inf), (20.0, 19.0), (5.0, 5.0)])
    def test_median_equals_np_median_bitwise(self, pairs):
        actual, predicted = np.array(pairs).T
        rep = compute_metrics(actual, predicted)
        nonzero = actual != 0
        terms = (np.abs(actual[nonzero] - predicted[nonzero]) / np.abs(actual[nonzero])
                 * 100.0)
        if terms.size:
            assert np.float64(rep.median_ape).tobytes() == np.median(terms).tobytes()
        else:
            assert rep.median_ape == math.inf


def write_runtime_trace(tmp_path, n=160, seed=2):
    spec, freqs = sensitivity_run(n, seed)
    trace = generate_runtime(spec, TABLE, freqs, seed=seed)
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

    def test_unreadable_config_exit2(self, tmp_path, capsys):
        path = tmp_path / "nope.ini"
        code = main(["characterize", "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert (code, capsys.readouterr().err) == (
            EXIT_INPUT, f"error: cannot read config file {path}\n")

    @pytest.mark.parametrize("old, new", [
        ("[frequency_table]\n", ""),
        ("[power_model]", "[governor]"),
        ("fps_target = 60", "fps_target = 60\nfps_target = 30"),
        ("period_ms = 50", "period_ms = 50\nno equals sign"),
        ("slope = 0.02", "slope = 5%"),
        ("slope = 0.02", "slope = %(intercept)s"),
        ("[workload]\n", ""),
        ("[scalable_ms]\n", ""),
        ("kind = piecewise", "kind = cubic"),
        ("points = 1:0.925, 32:7.2, 64:20.0\n", ""),
        ("kind = dep", "kind = loud"),
        ("ref_freq_mhz = 200", "ref_freq_mhz = 0"),
    ], ids=["no_section_header", "duplicate_section", "duplicate_option", "no_equals",
            "percent_sign", "interpolation", "no_workload_section", "no_scalable_section",
            "unknown_map_kind", "piecewise_without_points", "unknown_counter_kind",
            "zero_ref_freq"])
    def test_malformed_config_exit2(self, config_file, tmp_path, capsys, old, new):
        assert CONFIG_TEXT.count(old) == 1
        config_file.write_text(config_file.read_text().replace(old, new))
        out = tmp_path / "sweep.csv"
        code = main(["characterize", "--config", str(config_file), "--out", str(out)])
        assert code == EXIT_INPUT
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("old, new, named", [
        ("complexities = 1:16", "complexities = 1,nan,3", "complexities"),
        ("complexities = 1:16", "complexities = 1:nan", "complexities"),
        ("repeats = 2", "repeats = nan", "repeats"),
        ("64:20.0", "64:nan", "[scalable_ms]"),
        ("64:180", "64:inf", "[counter.geometry_batches]"),
        ("slope = 0.02", "slope = nan", "[unscalable_ms]"),
        ("amplitude = 200", "amplitude = inf", "[counter.probe_jitter_a]"),
        ("points = 1:12, 32:48, 64:180", "points = 1:12, x:48, 64:180",
         "[counter.geometry_batches]: points must be numbers"),
        ("freqs_mhz = 200, 244,", "freqs_mhz = 200, abc,", "[frequency_table]: freqs_mhz"),
    ], ids=["complexities", "complexity_range", "repeats", "scalable_points",
            "counter_points", "affine_slope", "noise_amplitude", "counter_points_text",
            "freqs_text"])
    def test_non_finite_config_exit2(self, config_file, tmp_path, capsys, old, new, named):
        self._assert_rejected_naming(config_file, tmp_path, capsys, old, new, named)

    @pytest.mark.parametrize("old, new, named", [
        ("points = 1:12, 32:48, 64:180", "points = 1:12, 64:48, 32:180",
         "[counter.geometry_batches]: piecewise breakpoints must be strictly increasing"),
        ("points = 1:0.925, 32:7.2, 64:20.0", "points = 1:0.925",
         "[scalable_ms]: piecewise map needs at least two points"),
    ], ids=["unordered_counter_points", "single_scalable_point"])
    def test_bad_piecewise_map_exit2(self, config_file, tmp_path, capsys, old, new, named):
        self._assert_rejected_naming(config_file, tmp_path, capsys, old, new, named)

    @pytest.mark.parametrize("mode, old, new, message", [
        ("sweep", "[characterization]\ncomplexities = 1:16\nrepeats = 2\n", "",
         "config has no [characterization] section"),
        ("runtime", "complexity_schedule = square:20:40:25:100\n", "",
         "workload has an empty complexity schedule"),
    ], ids=["sweep_without_characterization", "runtime_without_schedule"])
    def test_config_the_mode_cannot_use_exit2(self, config_file, tmp_path, capsys, mode, old,
                                              new, message):
        assert CONFIG_TEXT.count(old) == 1
        config_file.write_text(CONFIG_TEXT.replace(old, new))
        out = tmp_path / "out.csv"
        code = main(["characterize", "--mode", mode, "--config", str(config_file),
                     "--out", str(out)])
        assert (code, capsys.readouterr().err) == (EXIT_INPUT, f"error: {message}\n")
        assert not out.exists()

    @staticmethod
    def _assert_rejected_naming(config_file, tmp_path, capsys, old, new, named):
        assert CONFIG_TEXT.count(old) == 1
        config_file.write_text(config_file.read_text().replace(old, new))
        out = tmp_path / "sweep.csv"
        code = main(["characterize", "--config", str(config_file), "--out", str(out)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists()


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
        spec, _ = sensitivity_run(40, seed=1)
        trace = generate_runtime(spec, TABLE, [400.0] * 40, seed=1)
        path = tmp_path / "flat.csv"
        path.write_text(serialize_trace(trace))
        code = main(["select-features", "--trace", str(path),
                     "--out", str(tmp_path / "s.spec")])
        assert code == EXIT_DEGENERATE

    @pytest.mark.parametrize("rows", [0, 1])
    def test_fewer_than_two_rows_exit3(self, tmp_path, capsys, rows):
        spec, _ = sensitivity_run(1, seed=1)
        trace = generate_runtime(spec, TABLE, [400.0], seed=1)
        path = tmp_path / "tiny.csv"
        path.write_text("".join(serialize_trace(trace).splitlines(True)[:2 + rows]))
        code = main(["select-features", "--trace", str(path),
                     "--out", str(tmp_path / "s.spec")])
        assert code == EXIT_DEGENERATE
        err = capsys.readouterr().err
        assert f"trace has {rows} rows; correlation with frequency needs at least two" in err
        assert "single frequency" not in err

    def test_trace_shorter_than_folds_exit3(self, tmp_path, capsys):
        spec, _ = sensitivity_run(8, seed=1)
        trace = generate_runtime(spec, TABLE, [200.0, 400.0] * 4, seed=1)
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

    @pytest.mark.parametrize("name", ["", "  "], ids=["empty", "spaces"])
    def test_blank_counter_name_exit2(self, tmp_path, capsys, name):
        # the spec it would write could not be read back by replay
        trace_path, trace = write_runtime_trace(tmp_path, n=60)
        comment, header, *rows = trace_path.read_text().splitlines(keepends=True)
        columns = header.split(",")
        columns[5] = name
        trace_path.write_text(comment + ",".join(columns) + "".join(rows))
        out = tmp_path / "s.spec"
        code = main(["select-features", "--trace", str(trace_path), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (
            EXIT_INPUT, "error: counter names must not be blank\n")
        assert not out.exists()

    def test_counter_centring_to_underflow_is_not_kept(self, tmp_path):
        # not constant, but its centred values square to 0.0: r's
        # denominator is zero, which disqualifies it like a constant counter
        spec, freqs = sensitivity_run(40, seed=1)
        trace = generate_runtime(spec, TABLE, freqs, seed=1)
        tiny = np.where(np.arange(40) % 2, 5e-324, 0.0)
        trace = Trace(trace.timestamps, trace.frame_times, trace.frame_counts, trace.freqs,
                      np.column_stack([trace.counters, tiny]),
                      (*trace.counter_names, "tiny"), trace.freq_table)
        path = tmp_path / "tiny.csv"
        path.write_text(serialize_trace(trace))
        spec_path = tmp_path / "s.spec"
        code = main(["select-features", "--trace", str(path), "--out", str(spec_path)])
        assert code == 0
        from frametime.features import load_feature_spec
        selected = load_feature_spec(spec_path)
        assert len(trace.counter_names) - 1 not in selected.indep_counter_indices
        assert "tiny" not in selected.counter_names


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

    @pytest.mark.parametrize("command", ["replay", "sensitivity"])
    def test_spec_naming_other_counters_exit4(self, tmp_path, capsys, command):
        # counters 2,3 of the trace are geometry_batches,shader_slots
        trace_path, _ = write_runtime_trace(tmp_path, n=40)
        spec_path = tmp_path / "features.spec"
        save_feature_spec(FeatureSpec((2, 3), ("probe_jitter_a", "render_busy_kcycles")),
                          spec_path)
        code = main([command, "--trace", str(trace_path), "--spec", str(spec_path),
                     "--out", str(tmp_path / "r.csv")])
        assert (code, capsys.readouterr().err) == (
            EXIT_MISMATCH, "error: feature spec names counter 2 'probe_jitter_a', "
                           "the trace names it 'geometry_batches'\n")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("text, named", [
        ("# freq_table_mhz = 200,511\n\n", "missing header line"),
        ("time,frame_time_ms,frame_count\n0.05,16.0,3\n", "header has 3 columns"),
        ("time,frame_time_ms,frame_count,gpu_freq_mhz\n0.05,16.0,99999999999999999999,400\n",
         "row 1: frame_count 99999999999999999999 is outside the int64 range"),
    ], ids=["no_header_line", "three_column_header", "frame_count_past_int64"])
    def test_malformed_trace_exit2(self, tmp_path, capsys, text, named):
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text(text)
        self._assert_one_error_line(["--trace", str(trace_path), "--algo", "arlms"],
                                    tmp_path, capsys, named)

    def test_spec_names_unlike_indices_exit2(self, tmp_path, capsys):
        trace_path, _ = write_runtime_trace(tmp_path, n=40)
        spec_path = tmp_path / "features.spec"
        spec_path.write_text("counter_indices = 2,3\ncounter_names = geometry\n")
        self._assert_one_error_line(["--trace", str(trace_path), "--spec", str(spec_path)],
                                    tmp_path, capsys, "counter_names must align with indices")

    def test_spec_index_not_an_integer_exit2(self, tmp_path, capsys):
        trace_path, _ = write_runtime_trace(tmp_path, n=40)
        spec_path = tmp_path / "features.spec"
        spec_path.write_text("counter_indices = 2,x\n")
        self._assert_one_error_line(["--trace", str(trace_path), "--spec", str(spec_path)],
                                    tmp_path, capsys,
                                    f"feature spec {spec_path}: counter_indices")

    @pytest.mark.parametrize("command, text, args, named", [
        ("replay", None, [], "expected counter_indices = or counter_names =, "
                             "got '[frequency_table]'"),
        ("replay", "", ["--algo", "dcd"], "no counter_indices line"),
        ("sensitivity", "counter_indice = 2,3\n", [],
         "expected counter_indices = or counter_names =, got 'counter_indice = 2,3'"),
        ("replay", "counter_indices = 2,3\ncounter_indices = 2\n", [],
         "counter_indices is set twice"),
        ("sensitivity", "counter_indices = 2,3\ncounter_names = geometry_batches,shader_slots\n"
                        "counter_names = geometry_batches,shader_slots\n", [],
         "counter_names is set twice"),
    ], ids=["config_file", "empty_file", "misspelt_key", "repeated_indices",
            "repeated_names"])
    def test_spec_file_without_spec_lines_exit2(self, tmp_path, capsys, command, text, args,
                                                named):
        trace_path, _ = write_runtime_trace(tmp_path, n=40)
        spec_path = CONFIG_DIR / "characterization.ini"
        if text is not None:
            spec_path = tmp_path / "features.spec"
            spec_path.write_text(text)
        self._assert_one_error_line(["--trace", str(trace_path), "--spec", str(spec_path),
                                     *args], tmp_path, capsys,
                                    f"feature spec {spec_path}: {named}", command)

    def test_missing_spec_exit2(self, tmp_path, capsys):
        trace_path, _ = write_runtime_trace(tmp_path, n=40)
        spec_path = tmp_path / "gone.spec"
        self._assert_one_error_line(["--trace", str(trace_path), "--spec", str(spec_path)],
                                    tmp_path, capsys, str(spec_path))

    @staticmethod
    def _with_table_comment(tmp_path, entries):
        trace_path, _ = write_runtime_trace(tmp_path, n=40)
        _, *rest = trace_path.read_text().splitlines(keepends=True)
        bad = tmp_path / "bad-comment.csv"
        bad.write_text(f"# freq_table_mhz = {entries}\n" + "".join(rest))
        return trace_path, bad

    @pytest.mark.parametrize("entries", ["200.0,abc", "200.0,inf"])
    def test_bad_table_comment_named_exit2(self, tmp_path, capsys, entries):
        _, bad = self._with_table_comment(tmp_path, entries)
        self._assert_one_error_line(["--trace", str(bad), "--algo", "arlms"], tmp_path, capsys,
                                    f"table comment '# freq_table_mhz = {entries}'")

    @pytest.mark.parametrize("entries", ["200.0,abc", "200.0,inf"])
    def test_config_table_skips_bad_table_comment(self, tmp_path, capsys, entries):
        good, bad = self._with_table_comment(tmp_path, entries)
        outs = []
        for trace_path in (good, bad):
            outs.append(tmp_path / f"{trace_path.stem}-r.csv")
            code = main(["replay", "--trace", str(trace_path), "--algo", "arlms",
                         "--config", str(CONFIG_DIR / "characterization.ini"),
                         "--out", str(outs[-1])])
            assert code == 0
        assert capsys.readouterr().err == ""
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @staticmethod
    def _assert_one_error_line(args, tmp_path, capsys, named, command="replay"):
        out = tmp_path / "r.csv"
        code = main([command, *args, "--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert code == EXIT_INPUT
        assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0]
        assert not out.exists()


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
        assert lines[0] == "k,f_k,dtf_df,delta_up1,delta_down1,delta_up2,delta_down2"
        edges = 0
        for line in lines[1:]:
            cells = line.split(",")
            f_k = float(cells[1])
            # every row has a derivative; a what-if past the table edge is blank
            assert math.isfinite(float(cells[2]))
            assert (cells[3] == "") == (f_k == TABLE.freqs_mhz[-1])
            assert (cells[4] == "") == (f_k == TABLE.freqs_mhz[0])
            edges += f_k in (TABLE.freqs_mhz[0], TABLE.freqs_mhz[-1])
        assert edges

    def test_deltas_and_derivative_share_the_replay_anchor(self, tmp_path, capsys):
        # every what-if and the derivative start from the replay's t_pred, at f_k
        trace_path, _ = write_runtime_trace(tmp_path)
        spec_path = tmp_path / "features.spec"
        save_feature_spec(FeatureSpec((2, 3)), spec_path)
        out = tmp_path / "sens.csv"
        code = main(["sensitivity", "--trace", str(trace_path), "--spec", str(spec_path),
                     "--out", str(out), "--jumps", "2"])
        assert code == 0
        result = run_replay(parse_trace(trace_path.read_text()), FeatureSpec((2, 3)), "rls")
        levels = TABLE.freqs_mhz
        lines = out.read_text().splitlines()[1:]
        assert len(lines) == len(result.rows)
        for line, a, t, f in zip(lines, result.coefs.tolist(), result.rows.t_pred.tolist(),
                                 result.rows.f_k.tolist()):
            cells = line.split(",")
            at = levels.index(f)
            for j in (1, 2):
                for step, cell in zip((j, -j), cells[1 + 2 * j:3 + 2 * j]):
                    if 0 <= at + step < len(levels):
                        want = candidate_delta(a[0], a[1], t, f, levels[at + step])
                        assert cell == "%.8g" % want
                    else:
                        assert cell == ""
            assert cells[2] == "%.8g" % (-a[0] * t / f + a[1] / 1000.0)

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
        # the table has 9 levels, so a jump spans at most 8
        trace_path, _ = write_runtime_trace(tmp_path, n=60)
        spec_path = tmp_path / "features.spec"
        save_feature_spec(FeatureSpec((2, 3)), spec_path)
        out = tmp_path / "s.csv"
        code = main(["sensitivity", "--trace", str(trace_path), "--spec", str(spec_path),
                     "--out", str(out), "--jumps", "20"])
        assert (code, capsys.readouterr().err) == (
            0, "warning: --jumps 20 exceeds the table span, clipped to 8\n")
        assert out.read_text().splitlines()[0].endswith(",delta_up8,delta_down8")


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

    def test_bad_schedule_exit2(self, config_file, tmp_path, capsys):
        text = config_file.read_text().replace("square:20:40:25:100", "square:1:2:0:6")
        config_file.write_text(text)
        code = main(["govern", "--config", str(config_file), "--out", str(tmp_path / "g.csv")])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("old, new, named", [
        ("square:20:40:25:100", "constant:nan:20", "constant:nan:20"),
        ("noise_sigma = 0.003", "noise_sigma = nan", "noise_sigma"),
        ("ref_freq_mhz = 200", "ref_freq_mhz = inf", "ref_freq"),
        ("fps_target = 60", "fps_target = nan", "fps_target"),
        ("p_idle_w = 0.2", "p_idle_w = nan", "p_idle"),
        ("period_ms = 50", "period_ms = 50\nwarmup_intervals = nan", "warmup_intervals"),
        ("fps_target = 60", "fps_target = abc", "[governor]: fps_target must be a number"),
        ("noise_sigma = 0.003", "noise_sigma = abc", "[workload]: noise_sigma must be a number"),
        ("noise_sigma = 0.003", "noise_sigma = -1", "noise_sigma must be finite and >= 0"),
        ("square:20:40:25:100", "constant:x:20",
         "bad schedule expression 'constant:x:20': values must be numbers"),
        ("489, 511", "489, inf", "frequencies must be finite and positive"),
        ("444, 489", "444, nan", "frequencies must be finite and positive"),
        ("square:20:40:25:100", "constant:37:1e308",
         "bad schedule expression 'constant:37:1e308': N is too large"),
        # each coefficient is finite, their interval energy is not
        ("p_dyn_w_per_ghz3 = 8.0", "p_dyn_w_per_ghz3 = 1e308",
         "[power_model]: energy over 100 intervals of 50.0 ms at up to 511.0 MHz"),
        ("p_idle_w = 0.2", "p_idle_w = 1e307",
         "[power_model]: energy over 100 intervals of 50.0 ms at up to 511.0 MHz"),
        ("200, 244, 278, 311, 355, 400, 444, 489, 511", "200, 244, 1e200",
         "[power_model]: energy over 100 intervals of 50.0 ms at up to 1e+200 MHz"),
    ], ids=["schedule", "noise_sigma", "ref_freq_mhz", "fps_target", "p_idle_w",
            "warmup_intervals", "fps_target_text", "noise_sigma_text", "negative_noise_sigma",
            "schedule_text", "freqs_inf", "freqs_nan", "schedule_length", "energy_dyn",
            "energy_idle", "energy_top_level"])
    def test_non_finite_config_exit2(self, config_file, tmp_path, capsys, old, new, named):
        config_file.write_text(config_file.read_text().replace(old, new))
        code = main(["govern", "--config", str(config_file), "--out", str(tmp_path / "g.csv")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    def test_run_energy_overflow_exit2(self, config_file, tmp_path, capsys):
        # every interval's energy is finite, the total of 3,000 is not
        config_file.write_text(CONFIG_TEXT.replace("square:20:40:25:100", "constant:37:3000")
                               .replace("p_dyn_w_per_ghz3 = 8.0", "p_dyn_w_per_ghz3 = 1e307"))
        out = tmp_path / "out.csv"
        for command in ("characterize", "govern"):
            code = main([command, "--config", str(config_file), "--out", str(out)])
            assert (code, capsys.readouterr().err) == (
                EXIT_INPUT, f"error: bad config {config_file}: [power_model]: energy over "
                            f"3000 intervals of 50.0 ms at up to 511.0 MHz must be finite\n")
            assert not out.exists()

    def test_negative_warmup_exit2(self, config_file, tmp_path, capsys):
        config_file.write_text(config_file.read_text().replace(
            "period_ms = 50", "period_ms = 50\nwarmup_intervals = -5"))
        out = tmp_path / "g.csv"
        code = main(["govern", "--config", str(config_file), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (
            EXIT_INPUT, f"error: bad config {config_file}: "
                        f"[governor]: warmup_intervals must be >= 0, got -5\n")
        assert not out.exists()

    def test_rejects_what_characterize_rejects(self, config_file, tmp_path, capsys):
        # a dep counter base <= 0 at C=20, the lower of the schedule's complexities
        config_file.write_text(config_file.read_text().replace(
            "slope = 50\nintercept = 500", "slope = 50\nintercept = -5000"))
        errors = []
        for command in (["characterize", "--mode", "runtime"], ["govern"]):
            code = main([*command, "--config", str(config_file),
                         "--out", str(tmp_path / "out.csv")])
            errors.append((code, capsys.readouterr().err))
        want = "error: dep counter render_busy_kcycles base must be > 0 at C=20.0\n"
        assert errors == [(EXIT_INPUT, want)] * 2

    @pytest.mark.parametrize("old, new, message", [
        ("[governor]", "[governer]", "unknown section [governer]"),
        ("fps_target = 60", "fps_targte = 30", "[governor]: unknown key 'fps_targte'"),
        ("[frequency_table]", "[DEFAULT]\nwarmup_intervals = 300\n\n[frequency_table]",
         "unknown section [DEFAULT]"),
    ], ids=["section_typo", "key_typo", "default_section"])
    def test_what_the_table_lacks_exit2(self, config_file, tmp_path, capsys, old, new,
                                        message):
        # each ran on defaults, or on the [DEFAULT] key in every section, and exited 0
        assert CONFIG_TEXT.count(old) == 1
        config_file.write_text(CONFIG_TEXT.replace(old, new))
        out = tmp_path / "out.csv"
        for command in ("characterize", "govern"):
            code = main([command, "--config", str(config_file), "--out", str(out)])
            assert (code, capsys.readouterr().err) == (
                EXIT_INPUT, f"error: bad config {config_file}: {message}\n"), command
            assert not out.exists()

    def test_empty_schedule_exit2(self, config_file, tmp_path, capsys):
        # one check for both commands; govern used to run no interval and exit 0
        old = "complexity_schedule = square:20:40:25:100\n"
        assert CONFIG_TEXT.count(old) == 1
        config_file.write_text(CONFIG_TEXT.replace(old, ""))
        out = tmp_path / "out.csv"
        for command in (["characterize", "--mode", "runtime"], ["govern"]):
            code = main([*command, "--config", str(config_file), "--out", str(out)])
            assert (code, capsys.readouterr().err) == (
                EXIT_INPUT, "error: workload has an empty complexity schedule\n")
            assert not out.exists()

    @pytest.mark.parametrize("command, old, new, message", [
        (["characterize", "--mode", "runtime"], "points = 1:0.925, 32:7.2, 64:20.0",
         "points = 1:1e308, 32:1e308, 64:1e308", "row 1: fields must be finite"),
        (["characterize", "--mode", "runtime"], "slope = 50\nintercept = 500",
         "slope = 50\nintercept = 1e308", "row 1: fields must be finite"),
        *((["govern", "--policy", policy], "points = 1:0.925, 32:7.2, 64:20.0",
           "points = 1:1e308, 32:1e308, 64:1e308", "non-finite counters or frame times")
          for policy in ("all", "rls", "oracle", "ondemand")),
        *((command, *CLIPPED_OVERFLOW, message) for command, message in [
            (["characterize", "--mode", "runtime", "--seed", str(CLIPPED_SEED)],
             "row 1: fields must be finite"),
            (["govern", "--seed", str(CLIPPED_SEED)], "non-finite counters or frame times")]),
    ], ids=["characterize-frame-time", "characterize-dep-counter", "govern-frame-time",
            "govern-rls-frame-time", "govern-oracle-frame-time", "govern-ondemand-frame-time",
            "characterize-clipped-noise", "govern-clipped-noise"])
    def test_overflow_is_one_error_line(self, config_file, tmp_path, capsys, command, old,
                                        new, message):
        # scalable_ms * ref_freq_mhz, or a dep base * f / ref_freq_mhz, overflows to
        # inf; in the clipped-noise cases the one interval's noise factor at
        # CLIPPED_SEED clips to 0, and inf times 0 is nan
        config_file.write_text(config_file.read_text().replace(old, new))
        code = main([*command, "--config", str(config_file), "--out", str(tmp_path / "o.csv")])
        assert (code, capsys.readouterr().err) == (EXIT_INPUT, f"error: {message}\n")

    def test_clipped_seed_clips(self, config_file):
        # the premise of the clipped-noise cases above, on the written-out draw
        config_file.write_text(config_file.read_text().replace(*CLIPPED_OVERFLOW))
        assert reference_noise(load_config(config_file).workload, CLIPPED_SEED) == [0.0]

    @pytest.mark.parametrize("name", ["governor_heavy", "governor_light"])
    def test_policy_all_rows_equal_single_policy_rows(self, tmp_path, capsys, name):
        # every policy of one run shares one realization, and each policy's
        # rows and line are those of a run of that policy alone
        def govern(policy):
            out = tmp_path / f"{policy}.csv"
            code = main(["govern", "--config", str(CONFIG_DIR / f"{name}.ini"),
                         "--policy", policy, "--out", str(out), "--seed", "1"])
            assert code == 0
            return out.read_bytes().splitlines(), capsys.readouterr().out.splitlines()

        rows, printed = govern("all")
        for policy in POLICIES:
            own_rows, own_printed = govern(policy)
            assert own_rows == rows[:1] + [r for r in rows[1:]
                                           if r.split(b",")[1] == policy.encode()]
            assert own_printed == [ln for ln in printed
                                   if ln.startswith(f"{policy}: energy=")]

    def test_policy_all_realizes_once(self, tmp_path, monkeypatch):
        realized = []

        def counting(*args, **kwargs):
            realized.append(args[-1])
            return realized_frame_times(*args, **kwargs)

        monkeypatch.setattr("frametime.governor.realized_frame_times", counting)
        code = main(["govern", "--config", str(CONFIG_DIR / "governor_heavy.ini"),
                     "--policy", "all", "--out", str(tmp_path / "g.csv"), "--seed", "1"])
        assert code == 0
        assert realized == [1]

    def test_trace_flag_unknown_exit2(self, config_file, tmp_path, capsys):
        # govern simulates an analytic workload config; it takes no trace
        with pytest.raises(SystemExit) as raised:
            main(["govern", "--config", str(config_file), "--trace", "runtime.csv",
                  "--policy", "oracle", "--out", str(tmp_path / "g.csv")])
        assert raised.value.code == 2
        assert "unrecognized arguments: --trace runtime.csv" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()


class TestSeed:
    @pytest.mark.parametrize("command", [["characterize"], ["characterize", "--mode", "runtime"],
                                         ["govern"]], ids=["sweep", "runtime", "govern"])
    def test_negative_seed_exit2(self, config_file, tmp_path, capsys, command):
        # random.Random(-1) would silently draw the stream of seed 1
        out = tmp_path / "out.csv"
        code = main([*command, "--config", str(config_file), "--out", str(out), "--seed", "-1"])
        assert (code, capsys.readouterr().err) == (
            EXIT_INPUT, "error: seed must be a non-negative integer, got -1\n")
        assert not out.exists()


class TestRunReplayApi:
    def test_prediction_is_one_step_ahead(self, tmp_path):
        # predictions at row k must not depend on sample k's frame time
        _, trace = write_runtime_trace(tmp_path, n=80)
        res = run_replay(trace, FeatureSpec((2, 3)), "rls")
        assert res.rows[0].k == 1
        assert len(res.rows) == len(trace) - 1
        assert res.report.mape >= 0.0

    def test_report_comes_from_compute_metrics(self, tmp_path, monkeypatch):
        # every replay scores through the one metric function, looked up on
        # the module at call time, so code that wraps it in place sees them all
        _, trace = write_runtime_trace(tmp_path, n=80)
        reports = []

        def counting(actual, predicted):
            reports.append(compute_metrics(actual, predicted))
            return reports[-1]

        monkeypatch.setattr(cli, "compute_metrics", counting)
        for algo in ("rls", "dcd", "arlms"):
            calls = len(reports)
            result = run_replay(trace, FeatureSpec((2, 3)), algo)
            assert len(reports) == calls + 1
            assert result.report is reports[-1]

    @pytest.mark.parametrize("algo", ["rls", "dcd"])
    def test_coefs_equal_plain_update_loop(self, algo):
        # row i is predicted with the state held before consuming row i, by
        # the reference forms at the paper's DCD settings nu = 4, mb = 16.
        # The clock holds still over the first and last schedule level, so
        # rows with no excitation come first, where the state is fresh, and
        # last; rls skips them and dcd carries its residual through them.
        spec, freqs = sensitivity_run(80, seed=2)
        freqs = (TABLE.freqs_mhz[-1],) * 8 + freqs[8:-8] + (TABLE.freqs_mhz[0],) * 8
        trace = generate_runtime(spec, TABLE, freqs, seed=2)
        fspec = FeatureSpec((2, 3))
        res = run_replay(trace, fspec, algo)
        dataset = build_dataset(trace, fspec)
        rows = dataset.h / estimator_units(trace.counters[:, [2, 3]])[1:]
        assert not rows[:7].any() and not rows[-7:].any() and rows[7].any()
        assert res.coefs.shape == (len(res.rows), fspec.m)
        a, P = rls_init(fspec.m)
        _, R, beta = dcd_rls_init(fspec.m)
        R, beta = np.array(R), np.array(beta)
        deltas = []
        for i, (h, target) in enumerate(zip(rows, dataset.targets)):
            assert np.array_equal(res.coefs[i], a)
            deltas.append(float(h @ a) + 0.0)
            if algo == "rls":
                a, P = reference_rls(a, P, h, target, DEFAULT_LAMBDA)
            else:
                a, R, beta = reference_dcd(a, R, beta, h, target, DEFAULT_LAMBDA, 4, 16)
        want = np.maximum(trace.frame_times[:-1] + np.array(deltas), 0.0)
        assert res.rows.t_pred.tobytes() == want.tobytes()

    def test_zero_rows_after_divergence_predict_nan(self):
        # one excited row with a tiny counter step and a frame time near the
        # float limit drives rls's coefficients past it; the rows with no
        # excitation after it are then predicted as nan, as their skipped
        # step's h'a would be, not as the previous frame time
        n = 30
        counters = np.ones((n, 1))
        counters[24] += 1e-7
        frame_times = np.ones(n)
        frame_times[24] = 1e308
        trace = Trace(0.05 * np.arange(1, n + 1), frame_times, np.full(n, 3),
                      np.full(n, 400.0), counters, ("c0",), TABLE)
        with np.errstate(all="ignore"):
            res = run_replay(trace, FeatureSpec((0,)), "rls")
        assert not np.isfinite(res.coefs[-1]).all()
        assert np.isnan(res.rows.t_pred[25:]).all()
        assert np.array_equal(res.rows.t_pred[:23], frame_times[:23])

    @pytest.mark.parametrize("low, high, bound", [(0, -1, 8.0), (2, 3, 3.0)],
                             ids=["table-edges", "levels-2-3"])
    def test_alternating_clock_derivative(self, low, high, bound):
        # a noiseless run whose clock swaps between two levels every
        # interval: each row's derivative is anchored at its own clock, so
        # past the warmup it tracks the analytic one at both levels
        spec, _ = sensitivity_run(1200, seed=0)
        pair = (TABLE.freqs_mhz[low], TABLE.freqs_mhz[high])
        trace = generate_runtime(spec, TABLE, [pair[i % 2] for i in range(1200)], seed=0)
        rows = run_replay(trace, FeatureSpec((2, 3)), "rls").rows
        c = spec.complexity_schedule
        apes = [abs(r.dtf_df / reference_derivative(spec, c[r.k], r.f_k) - 1.0) * 100.0
                for r in rows[300:] if c[r.k] == c[r.k - 1]]
        assert len(apes) > 700
        assert float(np.mean(apes)) < bound

    def test_arlms_has_no_coefs(self, tmp_path):
        _, trace = write_runtime_trace(tmp_path, n=40)
        assert run_replay(trace, None, "arlms").coefs is None

    def test_arlms_equals_plain_update_loop(self, tmp_path):
        _, trace = write_runtime_trace(tmp_path, n=80)
        res = run_replay(trace, None, "arlms")
        # the prediction made after consuming interval k - 1 is for interval k
        k = np.arange(ARLMS_ORDER, len(trace))
        want = np.array(reference_arlms(trace.frame_times))[k - 1]
        assert np.array_equal(res.rows.k, k)
        assert np.array_equal(res.rows.t_pred, want)
        assert res.report == compute_metrics(trace.frame_times[k], want)

    @pytest.mark.parametrize("algo", ["rls", "dcd"])
    def test_overflowing_features_rejected(self, algo):
        # t_prev * (f_prev / f_cur - 1) overflows for a huge frame time and a
        # falling clock, although every trace field is finite; the estimator
        # step itself checks nothing, and the error names the step into row 2
        trace = Trace(timestamps=[0.05, 0.10, 0.15], frame_times=[1.0, 1.5e308, 1.0],
                      frame_counts=[3, 0, 3], freqs=[200.0, 511.0, 200.0],
                      counters=np.ones((3, 1)), counter_names=("c0",),
                      freq_table=TABLE)
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

    def test_unmatched_trace_has_no_reference_summary(self, config_file, tmp_path, capsys):
        # 60 rows match neither the config's 288-row sweep nor its 100-row schedule
        runtime = tmp_path / "runtime.csv"
        assert main(["characterize", "--config", str(config_file), "--out", str(runtime),
                     "--mode", "runtime"]) == 0
        lines = runtime.read_text().splitlines(keepends=True)
        runtime.write_text("".join(lines[:2 + 60]))
        spec_path = tmp_path / "features.spec"
        save_feature_spec(FeatureSpec((1, 2)), spec_path)
        capsys.readouterr()
        code = main(["sensitivity", "--trace", str(runtime), "--spec", str(spec_path),
                     "--config", str(config_file), "--out", str(tmp_path / "sens.csv")])
        assert (code, capsys.readouterr().out.splitlines()) == (0, [
            f"wrote 59 sensitivity rows to {tmp_path / 'sens.csv'}",
            "trace does not match the config workload; no reference summary"])

    def test_byte_order_marks_change_no_output(self, config_file, tmp_path, capsys):
        # a BOM-prefixed copy of each input, as Windows tools save UTF-8,
        # reads as the original does
        spec_path = tmp_path / "features.spec"
        save_feature_spec(FeatureSpec((1, 2), ("geometry_batches", "shader_slots")), spec_path)
        runs = {}
        for bom in ("", "\ufeff"):
            run = tmp_path / f"run{len(bom)}"
            run.mkdir()
            config, spec = run / "workload.ini", run / "features.spec"
            config.write_text(bom + config_file.read_text(), encoding="utf-8")
            spec.write_text(bom + spec_path.read_text(), encoding="utf-8")
            code = main(["characterize", "--config", str(config), "--mode", "runtime",
                         "--out", str(run / "generated.csv")])
            trace = run / "runtime.csv"
            trace.write_text(bom + (run / "generated.csv").read_text(), encoding="utf-8")
            codes = [code]
            for command in ("replay", "sensitivity"):
                codes.append(main([command, "--trace", str(trace), "--spec", str(spec),
                                   "--config", str(config), "--out", str(run / "out.csv")]))
            printed = capsys.readouterr()
            runs[bom] = (codes, printed.out.replace(str(run), "RUN"), printed.err,
                         (run / "generated.csv").read_bytes(), (run / "out.csv").read_bytes())
        assert runs["\ufeff"] == runs[""]
        assert runs[""][0] == [0, 0, 0] and "candidate_mape" in runs[""][1]

    @pytest.mark.parametrize("bad, named", [("config", "bad config"), ("trace", "trace"),
                                            ("spec", "feature spec")],
                             ids=["config", "trace", "spec"])
    def test_input_not_utf8_named_exit2(self, config_file, tmp_path, capsys, bad, named):
        # each input in turn starts with a byte that UTF-8 never uses; the
        # command reads the config, then the trace, then the spec
        trace_path, _ = write_runtime_trace(tmp_path, n=60)
        spec_path = tmp_path / "features.spec"
        save_feature_spec(FeatureSpec((2, 3)), spec_path)
        path = {"config": config_file, "trace": trace_path, "spec": spec_path}[bad]
        path.write_bytes(b"\xff" + path.read_bytes())
        out = tmp_path / "out.csv"
        code = main(["replay", "--trace", str(trace_path), "--spec", str(spec_path),
                     "--config", str(config_file), "--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert code == EXIT_INPUT
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {named} {path}: 'utf-8' codec can't decode byte 0xff")
        assert not out.exists()


def _readme_walkthrough():
    """The six commands of README's CLI walkthrough, on the shipped configs."""
    sel = ["--config", str(CONFIG_DIR / "selection.ini")]
    char = ["--config", str(CONFIG_DIR / "characterization.ini")]
    return [
        ["characterize", *sel, "--out", "sweep.csv"],
        ["select-features", "--trace", "sweep.csv", *sel, "--out", "features.spec",
         "--rule", "min_mse"],
        ["characterize", *char, "--out", "runtime.csv", "--mode", "runtime"],
        ["replay", "--trace", "runtime.csv", "--spec", "features.spec", *char,
         "--algo", "rls", "--out", "replay.csv"],
        ["sensitivity", "--trace", "runtime.csv", "--spec", "features.spec", *char,
         "--out", "sens.csv", "--jumps", "3"],
        ["govern", "--config", str(CONFIG_DIR / "governor_heavy.ini"), "--policy", "all",
         "--out", "govern.csv"],
    ]


class TestParserReuse:
    def _run(self, workdir, monkeypatch, capsys, cold):
        """Exit code, stdout and stderr of each call, and every file written."""
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        calls = [*_readme_walkthrough(),
                 ["govern", "--policy", "fastest", "--out", "g.csv"],       # argparse
                 ["replay", "--trace", "runtime.csv", "--out", "r.csv"]]    # ValueError, exit 2
        seen = []
        for argv in calls:
            if cold:
                cli.build_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            seen.append((code, *capsys.readouterr()))
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        return seen, files

    def test_warm_parser_changes_nothing(self, tmp_path, monkeypatch, capsys):
        cold = self._run(tmp_path / "cold", monkeypatch, capsys, cold=True)
        warm = self._run(tmp_path / "warm", monkeypatch, capsys, cold=False)
        assert [code for code, _, _ in cold[0]] == [0] * 6 + [("exit", 2), EXIT_INPUT]
        assert warm == cold
        assert cli.build_parser() is cli.build_parser()

    def test_command_is_looked_up_when_main_runs(self, config_file, tmp_path,
                                                 monkeypatch):
        argv = ["govern", "--config", str(config_file), "--out", str(tmp_path / "g.csv")]
        assert main(argv) == 0
        called = []

        def fake(args):
            called.append(args.command)
            return 17

        monkeypatch.setattr(cli, "cmd_govern", fake)
        assert main(argv) == 17
        assert called == ["govern"]
        monkeypatch.undo()
        (tmp_path / "g.csv").unlink()
        assert main(argv) == 0
        assert called == ["govern"]
        assert (tmp_path / "g.csv").exists()


FOOTPRINT_SCRIPT = """
import json, sys, types
from frametime import cli
layers, numpy_ma, rng_modules, dataclasses = [], [], [], []
for argv in json.loads(sys.argv[1]):
    if cli.main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
    # a layer registered but not yet executed is of a lazy ModuleType subclass
    layers.append(sorted(name.split(".", 1)[1] for name, module in sys.modules.items()
                         if name.startswith("frametime.")
                         and type(module) is types.ModuleType))
    numpy_ma.append("numpy.ma" in sys.modules)
    # numpy's generators, and the OpenSSL hashing that importing them loads
    rng_modules.append([name for name in ("numpy.random", "secrets", "_hashlib")
                        if name in sys.modules])
    dataclasses.append("dataclasses" in sys.modules)
print(json.dumps({"layers": layers, "numpy_ma": numpy_ma, "rng_modules": rng_modules,
                  "dataclasses": dataclasses}))
"""


def _python(args, workdir, **env):
    """A fresh interpreter's run of args, with this package on its path and
    env over the environment (None unsets a variable)."""
    src = str(Path(frametime.__file__).resolve().parent.parent)
    child = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, value in env.items():
        child.pop(name, None)
        if value is not None:
            child[name] = value
    return subprocess.run([sys.executable, *args], cwd=workdir, env=child,
                          capture_output=True, text=True, timeout=120, check=False)


class TestModuleFootprint:
    @staticmethod
    def _run(commands, workdir) -> dict:
        """FOOTPRINT_SCRIPT's findings for commands run in one fresh process."""
        done = _python(["-c", FOOTPRINT_SCRIPT, json.dumps(commands)], workdir)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    def test_each_command_executes_only_its_layers(self, config_file, tmp_path):
        cfg = ["--config", str(config_file)]
        spec = ["--spec", "features.spec"]
        commands = [
            ["characterize", *cfg, "--out", "sweep.csv"],
            ["select-features", "--trace", "sweep.csv", *cfg, "--out", "features.spec"],
            ["replay", "--trace", "sweep.csv", *cfg, "--algo", "arlms", "--out", "arlms.csv"],
            ["replay", "--trace", "sweep.csv", *spec, *cfg, "--out", "replay.csv"],
            ["sensitivity", "--trace", "sweep.csv", *spec, *cfg, "--out", "sens.csv"],
            ["govern", *cfg, "--out", "govern.csv"],
            ["characterize", *cfg, "--mode", "runtime", "--out", "runtime.csv"],
        ]
        seen = self._run(commands, tmp_path)

        online = ["cli", "config", "estimator", "features", "model", "trace"]
        assert seen["layers"] == [
            ["cli", "config", "trace"],                                  # characterize
            ["cli", "config", "estimator", "features", "trace"],         # select-features
            ["cli", "config", "estimator", "features", "trace"],         # replay arlms
            online,                                                      # replay
            online,                                                      # sensitivity
            ["cli", "config", "estimator", "features", "governor", "model", "trace"],
            ["cli", "config", "estimator", "features", "governor", "model", "trace",
             "workloads"],                                               # runtime trace
        ]
        assert not any(seen["numpy_ma"])
        # both seeded draws come from the standard library's random()
        assert seen["rng_modules"] == [[]] * len(commands)
        # the checked records are built without generated class code
        assert not any(seen["dataclasses"])

    def test_govern_alone_skips_the_offline_selection(self, config_file, tmp_path):
        """Each line of the test above adds up the commands before it; a
        process that only governs executes no features, the offline
        selection layer."""
        seen = self._run([["govern", "--config", str(config_file), "--out", "g.csv"]],
                         tmp_path)
        assert seen["layers"] == [["cli", "config", "estimator", "governor", "model",
                                   "trace"]]


ENTRY_IMPORT_SCRIPT = """
import gc, json, sys
state = gc.isenabled(), gc.get_freeze_count()
import frametime.__main__ as entry
print(json.dumps({"run": callable(entry.run), "gc": [state, [gc.isenabled(),
                  gc.get_freeze_count()]], "loaded": sorted(
                  name for name in ("numpy", "frametime.cli") if name in sys.modules)}))
"""

# the BLAS thread counts a command sees, run through the entry
ENTRY_ENV_SCRIPT = """
import os, sys
from frametime import __main__ as entry, cli
cli.main = lambda: print(os.environ.get("OPENBLAS_NUM_THREADS"),
                         os.environ.get("OMP_NUM_THREADS")) or 0
sys.exit(entry.run())
"""


class TestEntry:
    """`python -m frametime` runs frametime.__main__.run, which manages the
    collector and the BLAS threads around cli.main in its own process."""

    @pytest.fixture
    def workdir(self, config_file, tmp_path, monkeypatch):
        """The inputs of each case below, under relative names."""
        write_runtime_trace(tmp_path, n=40)
        lines = (tmp_path / "trace.csv").read_text().splitlines(keepends=True)
        (tmp_path / "tiny.csv").write_text("".join(lines[:3]))
        save_feature_spec(FeatureSpec((2, 99)), tmp_path / "far.spec")
        monkeypatch.chdir(tmp_path)
        return tmp_path

    @pytest.mark.parametrize("argv, code", [
        (["characterize", "--config", "workload.ini", "--out", "sweep.csv"], 0),
        (["govern", "--config", "workload.ini", "--out", "g.csv", "--seed", "-1"],
         EXIT_INPUT),
        (["govern", "--config", "workload.ini", "--out", "g.csv", "--trace", "trace.csv"],
         EXIT_INPUT),
        (["select-features", "--trace", "tiny.csv", "--out", "s.spec"], EXIT_DEGENERATE),
        (["replay", "--trace", "trace.csv", "--spec", "far.spec", "--out", "r.csv"],
         EXIT_MISMATCH),
    ], ids=["ok", "bad_value", "unknown_flag", "degenerate", "mismatch"])
    def test_process_exits_as_main_returns(self, workdir, capsys, argv, code):
        collector = gc.isenabled(), gc.get_freeze_count()
        try:
            returned = main(argv)
        except SystemExit as exc:   # argparse's own exit
            returned = exc.code
        # main leaves the collector to the entry, in process and out
        assert (gc.isenabled(), gc.get_freeze_count()) == collector
        out, err = capsys.readouterr()
        assert returned == code
        assert len([line for line in err.splitlines() if "error:" in line]) == (code != 0)
        done = _python(["-m", "frametime", *argv], workdir)
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err)

    def test_import_runs_no_command(self, tmp_path):
        done = _python(["-c", ENTRY_IMPORT_SCRIPT], tmp_path)
        assert done.returncode == 0, done.stderr
        seen = json.loads(done.stdout)
        # nothing loaded yet, so run can act before numpy does
        assert seen == {"run": True, "gc": [[True, 0], [True, 0]], "loaded": []}

    @pytest.mark.parametrize("openblas, expected", [(None, "1 1"), ("3", "3 1")],
                             ids=["unset", "user_set"])
    def test_blas_threads_default_to_one(self, tmp_path, openblas, expected):
        done = _python(["-c", ENTRY_ENV_SCRIPT], tmp_path,
                       OPENBLAS_NUM_THREADS=openblas, OMP_NUM_THREADS=None)
        assert (done.returncode, done.stdout, done.stderr) == (0, expected + "\n", "")


LAYERS = ("cli", "config", "estimator", "features", "governor", "model", "trace",
          "workloads")
RECORDS = ("cli.MetricsReport", "cli.ReplayResult", "config.ConfigBundle",
           "features.LassoPath", "governor.PolicyResult", "trace.AffineMap",
           "trace.HashNoiseMap", "trace.CounterModel")


class TestRecordTypes:
    """Python builds a dataclass at import, several times the cost of a
    NamedTuple, and every command is a fresh process: a record that only
    holds fields is a NamedTuple, and one that checks or normalizes its
    fields is a namedtuple subclass that does so in __new__, or, where
    len() counts its contents, a slotted FrozenRecord."""

    @staticmethod
    def _instances() -> dict:
        spec, table = FeatureSpec((0,)), FrequencyTable((200.0, 400.0))
        return {
            "FrequencyTable": table,
            "Trace": Trace([0.05], [16.0], [3], [200.0], [[1.0]], ("c",), table),
            "PiecewiseLinearMap": PiecewiseLinearMap(((0.0, 1.0), (1.0, 2.0))),
            "WorkloadSpec": WorkloadSpec((1.0,), AffineMap(1.0, 0.0), AffineMap(0.0, 1.0),
                                         200.0),
            "PowerModel": PowerModel(),
            "GovernorConfig": GovernorConfig(),
            "FeatureSpec": spec,
            "RegressionDataset": RegressionDataset(np.zeros((1, 3)), np.zeros(1), spec),
        }

    def test_no_module_defines_a_dataclass(self):
        modules = [importlib.import_module(f"frametime.{name}") for name in LAYERS]
        assert [cls.__qualname__ for module in modules for cls in vars(module).values()
                if isinstance(cls, type) and is_dataclass(cls)] == []

    @pytest.mark.parametrize("record, change, message", [
        ("PiecewiseLinearMap", {"points": ((1.0, 0.0), (0.0, 1.0))},
         "piecewise breakpoints must be strictly increasing"),
        ("PiecewiseLinearMap", {"points": ((0.0, 1.0), (1.0, math.inf))},
         "piecewise points must be finite"),
        ("WorkloadSpec", {"ref_freq_mhz": 0.0}, "ref_freq_mhz must be finite and > 0, got 0.0"),
        ("PowerModel", {"p_idle_w": -1.0}, "p_idle_w must be finite and >= 0, got -1.0"),
        ("GovernorConfig", {"period_ms": math.inf}, "period_ms must be finite and > 0, got inf"),
        ("FeatureSpec", {"indep_counter_indices": (1, 1)}, "counter indices must be unique"),
    ], ids=["PiecewiseLinearMap", "PiecewiseLinearMap-finite", "WorkloadSpec", "PowerModel",
            "GovernorConfig", "FeatureSpec"])
    def test_replace_checks_like_the_constructor(self, record, change, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            self._instances()[record]._replace(**change)

    def test_replace_normalizes_like_the_constructor(self):
        spec = self._instances()["FeatureSpec"]._replace(
            indep_counter_indices=[np.int64(2)], counter_names=["x"])
        assert spec == FeatureSpec((2,), ("x",))
        assert type(spec.indep_counter_indices[0]) is int
        assert isinstance(spec.counter_names, tuple)

    def test_fields_cannot_be_assigned(self):
        for record in self._instances().values():
            field = record._fields[0] if isinstance(record, tuple) else record.__slots__[0]
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                record.extra = None

    def test_equality(self):
        records = self._instances()
        assert FrequencyTable([200, 400]) == records["FrequencyTable"]
        assert hash(FrequencyTable([200, 400])) == hash(records["FrequencyTable"])
        trace = records["Trace"]
        assert trace == Trace(*(getattr(trace, name) for name in trace.__slots__))
        dataset = records["RegressionDataset"]
        assert dataset == dataset
        assert dataset != RegressionDataset(dataset.h, dataset.targets, dataset.feature_spec)

    def test_plain_records_are_tuples(self):
        classes = {record: getattr(importlib.import_module(f"frametime.{layer}"), name)
                   for record in RECORDS for layer, name in [record.split(".")]}
        assert [record for record, cls in classes.items()
                if not issubclass(cls, tuple) or is_dataclass(cls)] == []
