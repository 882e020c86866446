"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import passes  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402


# ---------------------------------------------------------------------------
# Spans

def test_self_time_on_hand_built_tree():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]
    #              -> b [5, 9] -> b1 [5, 6], b2 [7, 8.5]
    starts = [0.0, 1.0, 2.0, 5.0, 5.0, 7.0]
    ends = [10.0, 4.0, 3.0, 9.0, 6.0, 8.5]
    parents = [-1, 0, 1, 0, 3, 3]
    own = spans.self_times(starts, ends, parents)
    assert own == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    assert sum(own) == pytest.approx(ends[0] - starts[0])


def test_tracer_records_nesting_and_restores_functions():
    import types
    pkg = types.ModuleType("fakepkg")
    lib = types.ModuleType("fakepkg.lib")
    user = types.ModuleType("fakepkg.user")
    exec("def leaf(x):\n    return x + 1\n"
         "def outer(x):\n    return leaf(x) * 2\n", lib.__dict__)
    user.leaf = lib.leaf  # imported by name, as frametime modules do
    sys.modules.update({"fakepkg": pkg, "fakepkg.lib": lib, "fakepkg.user": user})
    original = lib.leaf
    try:
        tracer = spans.Tracer()
        tracer.current_pass = 0
        restore = spans.instrument(
            tracer, "fakepkg", ["lib"],
            observers={"lib.leaf": lambda t, a, r: t.count("leaf.calls")})
        assert user.leaf is not original
        assert lib.outer(1) == 4
        assert user.leaf(5) == 6
        restore()
        assert lib.leaf is original and user.leaf is original
    finally:
        for name in ("fakepkg", "fakepkg.lib", "fakepkg.user"):
            sys.modules.pop(name)
    names = [tracer.span_name(i) for i in range(len(tracer))]
    assert names == ["lib.outer", "lib.leaf", "lib.leaf"]
    assert list(tracer.parent) == [-1, 0, -1]
    assert tracer.counts[(0, "leaf.calls")] == 2


# ---------------------------------------------------------------------------
# Percentiles and sample counts

def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(list(range(10))) is None
    assert stats.tail_percentile(list(range(20))) == (50.0, 9.5)   # 10 above 9.5
    p, value = stats.tail_percentile(list(range(100)))
    assert p == 90.0 and sum(v > value for v in range(100)) == 10
    p, _ = stats.tail_percentile(list(range(1000)))
    assert p == 99.0


def test_summarize_reports_count_median_and_quartiles():
    out = stats.summarize([3.0, 1.0, 2.0, 4.0])
    assert out["samples"] == 4 and out["median"] == 2.5
    assert out["quartiles"] == [1.25, 3.75]
    assert out["tail"] is None
    single = stats.summarize([7.0])
    assert single == {"samples": 1, "median": 7.0, "tail": None}


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.3]
    import statistics
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / q2)


def test_speed_factor_averages_the_window_or_the_nearest_loops():
    assert speed.NEAREST == 6
    samples = [(float(t), speed.NOMINAL_S * (1 + t)) for t in range(10)]
    # six loops inside [0, 5.5]: times 1..6 nominal
    assert speed.speed_factor(0.0, 5.5, samples) == pytest.approx(1 / 3.5)
    # none inside [4.4, 4.6]: the six nearest, t = 2..7
    assert speed.speed_factor(4.4, 4.6, samples) == pytest.approx(1 / 5.5)


# ---------------------------------------------------------------------------
# Output checks

def test_select_check_rejects_wrong_support():
    assert passes.check_select(passes.FROZEN_SPEC) == []
    assert passes.check_select("counter_indices = 1,2,3\n")
    assert passes.check_select("counter_indices = 2\n")
    assert passes.check_select("")


def _replay_table(rows, pred="8.5"):
    lines = ["k,f_k,t_actual,t_pred,abs_pct_err,dtf_df"]
    lines += [f"{k},400,8.4,{pred},1.2,-0.01" for k in range(1, rows + 1)]
    return "\n".join(lines) + "\n"


def _sens_table(rows, jumps=3, cell="0.5"):
    header = ["k", "f_k", "dtf_df", "one_sided"]
    for j in range(1, jumps + 1):
        header += [f"delta_up{j}", f"delta_down{j}"]
    body = [",".join([str(k), "400", "-0.01", "0"] + [cell] * (2 * jumps))
            for k in range(1, rows + 1)]
    return "\n".join([",".join(header)] + body) + "\n"


def _good_replays():
    return {algo: _replay_table(n) for algo, n in passes.REPLAY_ROWS.items()}


def test_replay_check_accepts_the_expected_shape():
    assert passes.check_replay(_good_replays(), _sens_table(2399)) == []


@pytest.mark.parametrize("mutate", [
    lambda r, s: ({**r, "dcd": _replay_table(2398)}, s),
    lambda r, s: ({**r, "arlms": _replay_table(2399)}, s),
    lambda r, s: ({**r, "rls": _replay_table(2399, pred="nan")}, s),
    lambda r, s: ({**r, "rls": _replay_table(2399, pred="inf")}, s),
    lambda r, s: ({**r, "dcd": _replay_table(2399, pred="")}, s),
    lambda r, s: (r, _sens_table(2400)),
    lambda r, s: (r, _sens_table(2399, jumps=2)),
    lambda r, s: (r, _sens_table(2399, cell="inf")),
])
def test_replay_check_rejects_wrong_outputs(mutate):
    replays, sens = mutate(_good_replays(), _sens_table(2399))
    assert passes.check_replay(replays, sens)


def _govern_table(**energies):
    lines = ["k,policy,f_mhz,t_frame_ms,energy_j,violation", "0,rls,511,8.0,0.1,0"]
    lines += [f"summary,{p},,,{e},0" for p, e in energies.items()]
    return "\n".join(lines) + "\n"


def test_govern_check_accepts_dominant_oracle():
    tables = {"heavy": _govern_table(rls=10.5, oracle=10.0, ondemand=14.0),
              "light": _govern_table(rls=5.1, oracle=5.0, ondemand=5.0)}
    assert passes.check_govern(tables) == []


@pytest.mark.parametrize("tables", [
    {"heavy": _govern_table(rls=10.5, oracle=10.0)},                    # missing policy
    {"heavy": _govern_table(rls=9.5, oracle=10.0, ondemand=14.0)},      # beats the oracle
    {"light": _govern_table(rls=5.0, oracle=5.0, ondemand=4.9)},        # beats the oracle
    {"heavy": _govern_table(rls=11.5, oracle=10.0, ondemand=14.0)},     # > 1.10x oracle
])
def test_govern_check_rejects_wrong_outputs(tables):
    assert passes.check_govern(tables)


def test_light_config_has_no_ratio_limit():
    assert passes.check_govern({"light": _govern_table(rls=12.0, oracle=10.0,
                                                       ondemand=10.0)}) == []


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what the runs print

def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(passes.WORKLOADS)
    tracer = spans.Tracer()
    layer = run.layer_metrics(tracer, [1.0])
    layer.update({"bench.traced_wall_s": 1.0, "bench.untraced_wall_s": 1.0,
                  "bench.trace_overhead_s": 0.0,
                  "process.import_s": 0.1, "config.load_ms": 1.0})
    layer.update({f"accuracy.{k}": 0.0 for k in run.ACCURACY_KEYS})
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == {k: run.unit_of(k) for k in layer}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "cli_s", "setup_s", "peak_rss_mb", "error_ratio"}
