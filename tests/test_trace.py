from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_trace
from frametime.trace import (DEFAULT_FREQS_MHZ, AffineMap, ColumnCountError,
                             CounterModel, FieldValueError, FrequencyTable, HashNoiseMap,
                             PiecewiseLinearMap, Trace,
                             UnknownFrequencyError, WorkloadSpec,
                             generate_characterization, generate_runtime,
                             oracle_counters, oracle_frame_time,
                             oracle_frame_time_derivative, parse_trace,
                             serialize_trace)
from frametime.workloads import random_walk_freqs


class TestFrequencyTable:
    def test_invariants(self):
        with pytest.raises(ValueError):
            FrequencyTable((200.0,))
        with pytest.raises(ValueError):
            FrequencyTable((200.0, 200.0))
        with pytest.raises(ValueError):
            FrequencyTable((-1.0, 200.0))

    def test_neighbors_and_step(self, small_table):
        assert small_table.neighbors(400.0) == (200.0, 600.0)
        assert small_table.neighbors(200.0) == (None, 400.0)
        assert small_table.neighbors(600.0) == (400.0, None)
        assert small_table.step(200.0, 2) == 600.0
        with pytest.raises(IndexError):
            small_table.step(600.0, 1)


class TestParse:
    def test_direct_field_mapping(self, small_table):
        text = ("time,frame_time_ms,frame_count,gpu_freq_mhz,c1,c2\n"
                "0.05, 8.2, 3, 400, 120, 55\n")
        trace = parse_trace(text, freq_table=small_table)
        assert (trace.timestamps[0], trace.frame_times[0], trace.frame_counts[0],
                trace.freqs[0]) == (0.05, 8.2, 3, 400.0)
        assert trace.counters.tolist() == [[120.0, 55.0]]

    def test_column_count_error_names_row(self, small_table):
        text = ("time,frame_time_ms,frame_count,gpu_freq_mhz,c1,c2\n"
                "0.05, 8.2, 3, 400, 120, 55\n"
                "0.10, 9.0, 3, 400, 120\n")
        with pytest.raises(ColumnCountError) as err:
            parse_trace(text, freq_table=small_table)
        assert err.value.row == 2

    def test_non_numeric_field(self, small_table):
        text = ("time,frame_time_ms,frame_count,gpu_freq_mhz,c1\n"
                "0.05, oops, 3, 400, 120\n")
        with pytest.raises(FieldValueError) as err:
            parse_trace(text, freq_table=small_table)
        assert err.value.row == 1

    def test_unknown_frequency(self, small_table):
        text = ("time,frame_time_ms,frame_count,gpu_freq_mhz,c1\n"
                "0.05, 8.2, 3, 350, 120\n")
        with pytest.raises(UnknownFrequencyError):
            parse_trace(text, freq_table=small_table)

    @pytest.mark.parametrize("row3, error", [
        ("0.15, 8.2, 3, 400, -1.0", FieldValueError),       # negative counter
        ("0.15, nan, 3, 400, 120", FieldValueError),        # non-finite frame time
        ("0.15, 8.2, -1, 400, 120", FieldValueError),       # negative frame count
        ("0.15, 8.2, 3, 350, 120", UnknownFrequencyError),  # frequency not in the table
        ("0.10, 8.2, 3, 400, 120", FieldValueError),        # timestamp repeats row 2's
        ("0.05, 8.2, 3, 400, 120", FieldValueError),        # timestamp goes back
        ("0.15, 8.2, 3.0, 400, 120", FieldValueError),      # float frame count
        ("0.15, 8.2, 3, 400", ColumnCountError),            # short row
        ("0.15, 8.2, 1_0, 400, -1.0", FieldValueError),     # 1_0 parses, the counter fails
    ], ids=["negative_counter", "nan_frame_time", "negative_frame_count",
            "unknown_frequency", "repeated_timestamp", "earlier_timestamp",
            "float_frame_count", "short_row", "underscore_frame_count"])
    def test_single_bad_row_named(self, small_table, row3, error):
        text = ("time,frame_time_ms,frame_count,gpu_freq_mhz,c1\n"
                "0.05, 8.2, 3, 400, 120\n"
                "0.10, 8.2, 3, 400, 120\n"
                f"{row3}\n"
                "0.20, 8.2, 3, 350, -5\n")  # bad too, but after the first bad row
        with pytest.raises(error) as err:
            parse_trace(text, freq_table=small_table)
        assert err.value.row == 3

    def test_round_trip_random_traces(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            trace = random_trace(rng, n_samples=int(rng.integers(1, 8)))
            text = serialize_trace(trace)
            parsed = parse_trace(text)
            assert parsed == trace
            again = serialize_trace(parsed)
            assert "".join(again.split()) == "".join(text.split())

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), k=st.integers(0, 3))
    @example(seed=1, n=600, k=2)  # three conversion blocks
    def test_columns_equal_per_field_conversion(self, seed, n, k):
        # the block-wise numpy conversion of the body against float() and
        # int() per field, over the spellings a log may use
        rng = np.random.default_rng(seed)
        spell = ["{!r}", "{:.3e}", "{:g}", " {} ", "{:.0f}", "+{!r}"]

        def cell(value):
            return spell[rng.integers(len(spell))].format(value)

        lines = ["time,frame_time_ms,frame_count,gpu_freq_mhz"
                 + "".join(f",c{j}" for j in range(k))]
        for i in range(n):
            count = int(rng.integers(0, 5000))
            fields = [repr((i + 1) * 0.05), cell(float(rng.uniform(0, 40))),
                      rng.choice([str(count), f"{count:_}", f" {count} "]),
                      cell(float(rng.choice(DEFAULT_FREQS_MHZ)))]
            fields += [cell(float(rng.uniform(0, 1e6))) for _ in range(k)]
            lines.append(",".join(fields))
        trace = parse_trace("\n".join(lines))
        cells = [line.split(",") for line in lines[1:]]
        floats = np.array([[float(c) for j, c in enumerate(row) if j != 2] for row in cells])
        assert np.array_equal(trace.timestamps, floats[:, 0])
        assert np.array_equal(trace.frame_times, floats[:, 1])
        assert trace.frame_counts.tolist() == [int(row[2]) for row in cells]
        assert np.array_equal(trace.freqs, floats[:, 2])
        assert np.array_equal(trace.counters, floats[:, 3:].reshape(n, k))

    def test_bad_cell_in_a_later_block_named(self, small_table):
        rows = [f"{(i + 1) * 0.05!r}, 8.2, 3, 400, 120" for i in range(600)]
        rows[400] = rows[400].replace("120", "12O")
        text = "time,frame_time_ms,frame_count,gpu_freq_mhz,c1\n" + "\n".join(rows)
        with pytest.raises(FieldValueError) as err:
            parse_trace(text, freq_table=small_table)
        assert err.value.row == 401

    def test_embedded_table_used(self):
        rng = np.random.default_rng(3)
        trace = random_trace(rng)
        parsed = parse_trace(serialize_trace(trace))
        assert parsed.freq_table == trace.freq_table


class TestOracleFrameTime:
    def test_direct_substitution(self, simple_workload):
        # scalable 10 at ref 200, unscalable 5 via custom maps
        spec = WorkloadSpec((1.0,), AffineMap(0.0, 10.0), AffineMap(0.0, 5.0), 200.0)
        assert oracle_frame_time(spec, 1.0, 400.0) == pytest.approx(10.0)

    def test_identity_frequency(self, simple_workload):
        c = 10.0
        expected = simple_workload.scalable_ms(c) + simple_workload.unscalable_ms(c)
        assert oracle_frame_time(simple_workload, c, 200.0) == pytest.approx(expected)

    def test_domain_error(self, simple_workload):
        with pytest.raises(ValueError):
            oracle_frame_time(simple_workload, 10.0, 0.0)

    def test_derivative_matches_finite_difference(self, simple_workload):
        for c in (1.0, 10.0, 40.0):
            for f in (250.0, 400.0, 500.0):
                eps = 1e-3
                fd = (oracle_frame_time(simple_workload, c, f + eps)
                      - oracle_frame_time(simple_workload, c, f - eps)) / (2 * eps)
                an = oracle_frame_time_derivative(simple_workload, c, f)
                assert an == pytest.approx(fd, rel=1e-6)

    def test_strictly_decreasing_when_scalable(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            spec = WorkloadSpec((1.0,), AffineMap(0.0, float(rng.uniform(0.5, 20))),
                                AffineMap(0.0, float(rng.uniform(0, 5))), 200.0)
            freqs = np.sort(rng.uniform(100, 600, 5))
            times = [oracle_frame_time(spec, 1.0, f) for f in freqs]
            assert all(b < a for a, b in zip(times, times[1:]))

    def test_constant_when_unscalable_only(self):
        spec = WorkloadSpec((1.0,), AffineMap(0.0, 0.0), AffineMap(0.0, 7.0), 200.0)
        times = {oracle_frame_time(spec, 1.0, f) for f in (200.0, 311.0, 511.0)}
        assert times == {7.0}

    def test_noise_requires_rng_and_reproduces(self, simple_workload):
        from dataclasses import replace
        spec = replace(simple_workload, noise_sigma=0.1)
        with pytest.raises(ValueError):
            oracle_frame_time(spec, 10.0, 400.0, noisy=True)
        a = oracle_frame_time(spec, 10.0, 400.0, noisy=True, rng=np.random.default_rng(1))
        b = oracle_frame_time(spec, 10.0, 400.0, noisy=True, rng=np.random.default_rng(1))
        assert a == b


class TestOracleCounters:
    def test_indep_constant_in_frequency(self, char_workload):
        low = oracle_counters(char_workload, 10.0, 200.0)
        high = oracle_counters(char_workload, 10.0, 511.0)
        n_dep = len(char_workload.dep_counters)
        assert low[n_dep:] == high[n_dep:]

    def test_dep_monotone_in_frequency(self, char_workload, sweep_table):
        for c in (1.0, 32.0, 64.0):
            for j in range(len(char_workload.dep_counters)):
                vals = [oracle_counters(char_workload, c, f)[j] for f in sweep_table]
                assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_order_matches_counter_names(self, char_workload):
        names = char_workload.counter_names
        assert names[:2] == ("render_busy_kcycles", "dispatch_busy_kcycles")
        vals = oracle_counters(char_workload, 8.0, 400.0)
        assert len(vals) == len(names)

    def test_indep_zero_pearson_with_frequency(self, char_workload, sweep_table):
        spec = char_workload
        rows, freqs = [], []
        for f in sweep_table:
            for c in range(1, 33):
                rows.append(oracle_counters(spec, float(c), f))
                freqs.append(f)
        rows = np.array(rows)
        freqs = np.array(freqs, dtype=float)
        fc = freqs - freqs.mean()
        n_dep = len(spec.dep_counters)
        for j in range(n_dep, rows.shape[1]):
            x = rows[:, j] - rows[:, j].mean()
            r = float(fc @ x) / np.sqrt(float(fc @ fc) * float(x @ x))
            assert abs(r) < 1e-9


class TestGenerate:
    def test_factorial_counts(self, char_workload, sweep_table):
        trace = generate_characterization(char_workload, sweep_table,
                                          range(1, 65), 80, seed=0)
        assert len(trace) == 9 * 64 * 80 == 46080

    def test_sweep_order(self, simple_workload):
        table = FrequencyTable((200.0, 400.0))
        trace = generate_characterization(simple_workload, table,
                                          [3.0, 1.0, 2.0], 1, seed=0)
        assert len(trace) == 6
        assert trace.freqs.tolist() == [200.0] * 3 + [400.0] * 3
        # complexities ascend within each frequency block
        units = trace.counters[:3, 1].tolist()
        assert units == sorted(units)

    def test_deterministic_per_seed(self, char_workload, sweep_table):
        a = generate_characterization(char_workload, sweep_table, range(1, 5), 2, seed=9)
        b = generate_characterization(char_workload, sweep_table, range(1, 5), 2, seed=9)
        assert a == b
        c = generate_characterization(char_workload, sweep_table, range(1, 5), 2, seed=10)
        assert c != a

    def test_empty_complexities_rejected(self, simple_workload, small_table):
        with pytest.raises(ValueError):
            generate_characterization(simple_workload, small_table, [], 1, seed=0)
        with pytest.raises(ValueError):
            generate_characterization(simple_workload, small_table, [1.0], 0, seed=0)

    def test_runtime_equals_scalar_oracles_bitwise(self, char_workload, sweep_table):
        n, seed = 400, 3
        spec = replace(char_workload, complexity_schedule=char_workload.complexity_schedule[:n])
        assert spec.noise_sigma > 0
        freqs = random_walk_freqs(sweep_table, n, seed)
        trace = generate_runtime(spec, sweep_table, freqs, seed=seed)
        rng = np.random.default_rng(seed)  # one scalar draw per interval, in order
        t = [oracle_frame_time(spec, c, f, noisy=True, rng=rng)
             for c, f in zip(spec.complexity_schedule, freqs)]
        assert trace.frame_times.tolist() == t
        assert trace.counters.tolist() == [list(oracle_counters(spec, c, f))
                                           for c, f in zip(spec.complexity_schedule, freqs)]
        assert trace.freqs.tolist() == list(freqs)
        assert trace.frame_counts.tolist() == [min(3, int(50.0 // v)) if v > 0 else 3
                                               for v in t]
        assert trace.timestamps.tolist() == [(k + 1) * 50.0 / 1000.0 for k in range(n)]

    def test_random_walk_equals_choice_stream(self, sweep_table):
        # the reference walk draws each step's sign with rng.choice((-1, 1))
        def choice_walk(table, n, seed, p_step=0.35, p_jump=0.07):
            rng = np.random.default_rng(seed)
            i, out = len(table) - 1, []
            for _ in range(n):
                r = rng.random()
                if r < p_step:
                    i = min(max(i + int(rng.choice((-1, 1))), 0), len(table) - 1)
                elif r < p_step + p_jump:
                    i = int(rng.integers(0, len(table)))
                out.append(table.freqs_mhz[i])
            return tuple(out)

        for seed in range(60):
            assert random_walk_freqs(sweep_table, 400, seed) == choice_walk(sweep_table,
                                                                             400, seed)

    def test_runtime_constant_and_sequence(self, simple_workload, small_table):
        trace = generate_runtime(simple_workload, small_table, 400.0, seed=1)
        assert len(trace) == len(simple_workload.complexity_schedule)
        assert set(trace.freqs.tolist()) == {400.0}
        freqs = [200.0, 400.0] * 10
        trace2 = generate_runtime(simple_workload, small_table, freqs, seed=1)
        assert trace2.freqs.tolist() == freqs
        with pytest.raises(ValueError):
            generate_runtime(simple_workload, small_table, [400.0] * 3, seed=1)


class TestMaps:
    def test_piecewise_interior_and_extension(self):
        m = PiecewiseLinearMap(((1.0, 10.0), (3.0, 30.0), (5.0, 20.0)))
        assert m(2.0) == pytest.approx(20.0)
        assert m(4.0) == pytest.approx(25.0)
        assert m(0.0) == pytest.approx(0.0)    # extended first segment
        assert m(6.0) == pytest.approx(15.0)   # extended last segment

    def test_hash_noise_deterministic_and_bounded(self):
        m = HashNoiseMap(100.0, salt=4.0)
        vals = [m(c) for c in range(1, 200)]
        assert vals == [m(c) for c in range(1, 200)]
        assert all(0 <= v < 100.0 for v in vals)
        assert len(set(np.round(vals, 6))) > 150

    def test_workload_validate(self):
        spec = WorkloadSpec((1.0,), AffineMap(-1.0, 0.5), AffineMap(0.0, 1.0), 200.0)
        with pytest.raises(ValueError):
            spec.validate([10.0])


def one_row(small_table, freq=200.0, frame_time=1.0, frame_count=1, counters=()):
    return Trace([0.0], [frame_time], [frame_count], [freq], [counters],
                 tuple(f"c{j}" for j in range(len(counters))), small_table)


class TestValidation:
    def test_trace_rejects_foreign_frequency(self, small_table):
        with pytest.raises(ValueError):
            one_row(small_table, freq=300.0, counters=(1.0,))

    def test_sample_invariants(self, small_table):
        with pytest.raises(ValueError):
            one_row(small_table, frame_time=-1.0)
        with pytest.raises(ValueError):
            one_row(small_table, frame_count=-1)
        with pytest.raises(ValueError):
            one_row(small_table, counters=(-2.0,))

    def test_counter_arity_must_be_constant(self, small_table):
        with pytest.raises(ValueError):
            Trace([0.0, 0.1], [1.0, 1.0], [1, 1], [200.0, 200.0], [[1.0, 2.0], [1.0]],
                  ("c1", "c2"), small_table)
        with pytest.raises(ValueError):
            Trace([0.0, 0.1], [1.0, 1.0], [1, 1], [200.0, 200.0], [[1.0], [1.0]],
                  ("c1", "c2"), small_table)
