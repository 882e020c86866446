import io
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_trace
from frametime.trace import (DEFAULT_FREQS_MHZ, AffineMap, CounterModel, FrequencyTable,
                             HashNoiseMap, PiecewiseLinearMap, Trace, WorkloadSpec, frame_times,
                             generate_characterization, generate_runtime, parse_trace,
                             serialize_trace, workload_columns)
from frametime import trace as trace_module
from frametime.workloads import random_walk_freqs
from scenarios import (reference_counters, reference_derivative, reference_frame_time,
                       reference_noise, reference_serialize)

SPELLINGS = ["{!r}", "{:.3e}", "{:g}", " {} ", "{:.0f}", "+{!r}", "{:+.6E}\t"]
# line breaks to str.splitlines, and not to a text-mode file
SPLITLINES_ONLY = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# cell values that repeat, with reprs of every length; -0.0 is kept apart
POOL = [0.0, 0.1, 0.30000000000000004, 1e-07, 5e-324, 2.5, 123456789.0, 1e+16,
        3.141592653589793]


def spelled_body(rng, n, k, counts):
    """Header and n rows of a trace body with k counters: each float field
    in a random one of SPELLINGS, each frame count in one of counts."""
    def cell(value):
        return SPELLINGS[rng.integers(len(SPELLINGS))].format(value)

    lines = ["time,frame_time_ms,frame_count,gpu_freq_mhz" + "".join(f",c{j}" for j in range(k))]
    for i in range(n):
        fields = [repr((i + 1) * 0.05), cell(float(rng.uniform(0, 40))),
                  counts[rng.integers(len(counts))].format(int(rng.integers(0, 5000))),
                  cell(float(rng.choice(DEFAULT_FREQS_MHZ)))]
        fields += [cell(float(rng.uniform(0, 1e6))) for _ in range(k)]
        lines.append(",".join(fields))
    return lines


def assert_per_field_columns(trace, lines, k):
    """The trace's columns are float() and int() of each field, bit for bit."""
    cells = [line.split(",") for line in lines[1:]]
    floats = np.array([[float(c) for j, c in enumerate(row) if j != 2] for row in cells])
    floats = floats.reshape(len(cells), 3 + k)
    assert trace.frame_counts.tolist() == [int(row[2]) for row in cells]
    for column, want in zip((trace.timestamps, trace.frame_times, trace.freqs, trace.counters),
                            (floats[:, 0], floats[:, 1], floats[:, 2], floats[:, 3:])):
        assert column.tobytes() == np.ascontiguousarray(want).tobytes()


class TestFrequencyTable:
    def test_invariants(self):
        with pytest.raises(ValueError):
            FrequencyTable((200.0,))
        with pytest.raises(ValueError):
            FrequencyTable((200.0, 200.0))
        with pytest.raises(ValueError):
            FrequencyTable((-1.0, 200.0))


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
        with pytest.raises(ValueError) as err:
            parse_trace(text, freq_table=small_table)
        assert str(err.value) == "row 2: expected 6 fields, got 5"

    def test_non_numeric_field(self, small_table):
        text = ("time,frame_time_ms,frame_count,gpu_freq_mhz,c1\n"
                "0.05, oops, 3, 400, 120\n")
        with pytest.raises(ValueError) as err:
            parse_trace(text, freq_table=small_table)
        assert str(err.value) == "row 1: non-numeric frame_time_ms field 'oops'"

    def test_unknown_frequency(self, small_table):
        text = ("time,frame_time_ms,frame_count,gpu_freq_mhz,c1\n"
                "0.05, 8.2, 3, 350, 120\n")
        with pytest.raises(ValueError) as err:
            parse_trace(text, freq_table=small_table)
        assert str(err.value) == "row 1: frequency 350.0 MHz not in table"

    @pytest.mark.parametrize("row3, message", [
        ("0.15, 8.2, 3, 400, -1.0", "counters must be >= 0"),
        ("0.15, nan, 3, 400, 120", "fields must be finite"),
        ("0.15, 8.2, -1, 400, 120", "frame_count must be >= 0"),
        ("0.15, 8.2, 3, 350, 120", "frequency 350.0 MHz not in table"),
        ("0.10, 8.2, 3, 400, 120", "timestamp 0.1 s is not after the previous row's"),
        ("0.05, 8.2, 3, 400, 120", "timestamp 0.05 s is not after the previous row's"),
        ("0.15, 8.2, 3.0, 400, 120", "non-integer frame_count field '3.0'"),
        ("0.15, 8.2, 3, 400", "expected 5 fields, got 4"),
        ("0.15, 8.2, 1_0, 400, -1.0", "counters must be >= 0"),   # 1_0 parses
        ("0.15, -8.2, 3, 400, 120", "frame_time must be >= 0"),
        ("0.15, 8.2, 9223372036854775808, 400, 120",
         "frame_count 9223372036854775808 is outside the int64 range"),
        ("0.15, 8.2, -9223372036854775809, 400, 120",
         "frame_count -9223372036854775809 is outside the int64 range"),
    ], ids=["negative_counter", "nan_frame_time", "negative_frame_count",
            "unknown_frequency", "repeated_timestamp", "earlier_timestamp",
            "float_frame_count", "short_row", "underscore_frame_count",
            "negative_frame_time", "frame_count_above_int64", "frame_count_below_int64"])
    def test_single_bad_row_named(self, small_table, row3, message):
        text = ("time,frame_time_ms,frame_count,gpu_freq_mhz,c1\n"
                "0.05, 8.2, 3, 400, 120\n"
                "0.10, 8.2, 3, 400, 120\n"
                f"{row3}\n"
                "0.20, 8.2, 3, 350, -5\n")  # bad too, but after the first bad row
        with pytest.raises(ValueError) as err:
            parse_trace(text, freq_table=small_table)
        assert str(err.value) == f"row 3: {message}"

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
    @example(seed=1, n=600, k=2)  # a long body, in one reader call or the row loop
    def test_columns_equal_per_field_conversion(self, seed, n, k):
        # the parsed body against float() and int() per field, over the
        # spellings a log may use; 1_000 counts send a body to the row loop
        lines = spelled_body(np.random.default_rng(seed), n, k, ["{}", "{:_}", " {} "])
        assert_per_field_columns(parse_trace("\n".join(lines)), lines, k)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), k=st.integers(0, 3))
    @example(seed=1, n=600, k=2)  # a long body in one reader call
    def test_reader_equals_per_field_conversion(self, seed, n, k):
        # padded, signed and exponent cells stay in numpy's C reader: the
        # row loop, whose float conversion fails here, never runs
        lines = spelled_body(np.random.default_rng(seed), n, k, ["{}", " {} ", "+{}\t"])
        with mock.patch("frametime.trace._parse_float", side_effect=AssertionError):
            trace = parse_trace("\n".join(lines))
        assert_per_field_columns(trace, lines, k)

    def test_body_read_in_one_reader_call(self, small_table):
        rows = [f"{(i + 1) * 0.05!r}, 8.2, 3, 400, 120" for i in range(600)]
        text = "time,frame_time_ms,frame_count,gpu_freq_mhz,c1\n" + "\n".join(rows)
        with mock.patch("frametime.trace.np.loadtxt", wraps=np.loadtxt) as spy:
            trace = parse_trace(text, freq_table=small_table)
        assert spy.call_count == 1
        assert len(trace) == 600

    @pytest.mark.parametrize("spelling", ["1_0", "\uff11\uff10"])  # 10 in full-width digits
    def test_python_only_spellings_fall_back(self, small_table, spelling):
        # float() and int() read these as 10; the C reader rejects them, or
        # is not given non-ASCII text, so the row loop converts the body
        text = ("time,frame_time_ms,frame_count,gpu_freq_mhz,c1\n"
                f"0.05, {spelling}, {spelling}, 400, {spelling}\n")
        with mock.patch("frametime.trace._parse_float", wraps=trace_module._parse_float) as spy:
            trace = parse_trace(text, freq_table=small_table)
        assert spy.called
        assert (trace.frame_times.tolist(), trace.frame_counts.tolist(),
                trace.counters.tolist()) == ([10.0], [10], [[10.0]])

    @pytest.mark.parametrize("old, new, message", [
        ("120", "12O", "non-numeric c1 field '12O'"),
        (", 120", "", "expected 5 fields, got 4"),
        ("120", "120, 5", "expected 5 fields, got 6"),
        (" 3,", " 3.0,", "non-integer frame_count field '3.0'"),
        # numpy's integer reader takes it for 462
        (" 3,", " \u01fe,", "non-integer frame_count field '\u01fe'"),
        # the C reader takes \x1c for white space, and so does strip()
        (" 3,", " 3\x1c,", "non-integer frame_count field '3'"),
    ], ids=["non_numeric_counter", "short_row", "long_row", "float_frame_count",
            "letter_frame_count", "separator_padded_count"])
    def test_bad_row_in_a_later_block_named(self, small_table, old, new, message):
        # read from a file, whose lines, unlike str.splitlines, keep \x1c
        rows = [f"{(i + 1) * 0.05!r}, 8.2, 3, 400, 120" for i in range(600)]
        rows[400] = rows[400].replace(old, new)
        text = "time,frame_time_ms,frame_count,gpu_freq_mhz,c1\n" + "\n".join(rows)
        with pytest.raises(ValueError) as err:
            parse_trace(io.StringIO(text), freq_table=small_table)
        assert str(err.value) == f"row 401: {message}"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("char", SPLITLINES_ONLY,
                             ids=[f"u{ord(c):04x}" for c in SPLITLINES_ONLY])
    def test_string_parses_as_file(self, small_table, tmp_path, char, newline):
        rows = ["time,frame_time_ms,frame_count,gpu_freq_mhz,c1", "0.05, 8.2, 3, 400, 120",
                f"0.10, 8.2, 3{char}, 400, 120", "0.15, 8.2, 3, 400, 120"]
        text = newline.join(rows) + newline
        path = tmp_path / "trace.csv"
        path.write_text(text, encoding="utf-8", newline="")

        def outcome(source):
            try:
                return parse_trace(source, freq_table=small_table)
            except ValueError as err:
                return str(err)

        with open(path, encoding="utf-8") as fh:
            from_file = outcome(fh)
        assert outcome(text) == from_file

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 511, 512, 513, 600, 2600])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3))
    def test_serialization_is_repr_per_cell(self, n, seed, k):
        rng = np.random.default_rng(seed)
        table = FrequencyTable(DEFAULT_FREQS_MHZ)
        counters = rng.choice(POOL, size=(n, k))
        counters[:, 0] = rng.choice([0.0, -0.0, 2.5], size=n)
        counters[0, 0] = -0.0
        trace = Trace(np.arange(1, n + 1) * 0.05, rng.choice(POOL, size=n),
                      rng.integers(0, 4, size=n), rng.choice(DEFAULT_FREQS_MHZ, size=n),
                      counters, tuple(f"c{j}" for j in range(k)), table)
        lines = ["# freq_table_mhz = " + ",".join(map(repr, DEFAULT_FREQS_MHZ)),
                 "time,frame_time_ms,frame_count,gpu_freq_mhz," + ",".join(trace.counter_names)]
        columns = [trace.timestamps.tolist(), trace.frame_times.tolist(),
                   trace.frame_counts.tolist(), trace.freqs.tolist(), *trace.counters.T.tolist()]
        lines += [",".join(map(repr, row)) for row in zip(*columns)]
        # compared line by line, so that a mismatch names its line
        assert serialize_trace(trace).split("\n") == lines + [""]

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 2200) | st.sampled_from([511, 512, 513, 1024, 1025]),
           seed=st.integers(0, 2**32 - 1), k=st.integers(0, 3),
           pool=st.lists(st.floats(0.0, 1e300), min_size=1, max_size=4))
    @example(n=1025, seed=0, k=1, pool=[])
    def test_serialization_equals_reference(self, n, seed, k, pool):
        # cells drawn from a few values, 0.0 and -0.0 among them, so that
        # values repeat within and across blocks
        rng = np.random.default_rng(seed)
        pool = np.array(pool + [0.0, -0.0])
        trace = Trace(np.arange(1, n + 1) * 0.05, rng.choice(pool, size=n),
                      rng.integers(0, 4, size=n), rng.choice(DEFAULT_FREQS_MHZ, size=n),
                      rng.choice(pool, size=(n, k)), tuple(f"c{j}" for j in range(k)),
                      FrequencyTable(DEFAULT_FREQS_MHZ))
        text = serialize_trace(trace)
        assert text.encode() == reference_serialize(trace).encode()
        assert parse_trace(text) == trace

    def test_embedded_table_used(self):
        rng = np.random.default_rng(3)
        trace = random_trace(rng)
        parsed = parse_trace(serialize_trace(trace))
        assert parsed.freq_table == trace.freq_table

    @pytest.mark.parametrize("comment", ["# freq_table_mhz = 200.0,400.0,inf",
                                         "#freq_table_mhz=200.0, nan, 400.0"])
    def test_embedded_table_must_be_finite(self, comment):
        text = comment + "\ntime,frame_time_ms,frame_count,gpu_freq_mhz\n0.05,8.0,3,200.0\n"
        with pytest.raises(ValueError, match="frequencies must be finite and positive"):
            parse_trace(text)

    @pytest.mark.parametrize("entries", ["200.0,abc", "200.0,inf", "400.0,200.0"])
    def test_embedded_table_read_only_when_used(self, entries):
        comment = f"# freq_table_mhz = {entries}"
        text = comment + "\ntime,frame_time_ms,frame_count,gpu_freq_mhz\n0.05,8.0,3,200.0\n"
        with pytest.raises(ValueError) as info:
            parse_trace(text)
        assert str(info.value).startswith(f"row 0: table comment '{comment}': ")
        table = FrequencyTable(DEFAULT_FREQS_MHZ)
        assert parse_trace(text, table).freq_table == table


def frame_times_at(spec, c, freqs):
    """frame_times at one complexity, over a table of freqs."""
    return frame_times(spec, workload_columns(spec, [c])[0], np.asarray(freqs, dtype=float))


class TestOracleFrameTime:
    def test_direct_substitution(self, simple_workload):
        # scalable 10 at ref 200, unscalable 5 via custom maps
        spec = WorkloadSpec((1.0,), AffineMap(0.0, 10.0), AffineMap(0.0, 5.0), 200.0)
        assert frame_times_at(spec, 1.0, (200.0, 400.0))[1] == pytest.approx(10.0)

    def test_identity_frequency(self, simple_workload):
        c = 10.0
        expected = simple_workload.scalable_ms(c) + simple_workload.unscalable_ms(c)
        assert frame_times_at(simple_workload, c, (200.0, 400.0))[0] == pytest.approx(expected)

    def test_derivative_matches_finite_difference(self, simple_workload):
        for c in (1.0, 10.0, 40.0):
            for f in (250.0, 400.0, 500.0):
                eps = 1e-3
                lo, hi = frame_times_at(simple_workload, c, (f - eps, f + eps))
                an = reference_derivative(simple_workload, c, f)
                assert an == pytest.approx((hi - lo) / (2 * eps), rel=1e-6)

    def test_strictly_decreasing_when_scalable(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            spec = WorkloadSpec((1.0,), AffineMap(0.0, float(rng.uniform(0.5, 20))),
                                AffineMap(0.0, float(rng.uniform(0, 5))), 200.0)
            freqs = np.sort(rng.uniform(100, 600, 5)).tolist()
            times = frame_times_at(spec, 1.0, freqs).tolist()
            assert all(b < a for a, b in zip(times, times[1:]))

    def test_constant_when_unscalable_only(self):
        spec = WorkloadSpec((1.0,), AffineMap(0.0, 0.0), AffineMap(0.0, 7.0), 200.0)
        assert set(frame_times_at(spec, 1.0, (200.0, 311.0, 511.0)).tolist()) == {7.0}

    def test_grid_equals_reference_bitwise(self, char_workload, sweep_table):
        schedule = char_workload.complexity_schedule[::7]
        grid = frame_times(char_workload, workload_columns(char_workload, schedule)[:, None, :],
                           np.asarray(sweep_table.freqs_mhz))
        assert grid.tolist() == [[reference_frame_time(char_workload, c, f)
                                   for f in sweep_table] for c in schedule]


def swept_counters(spec, table, complexities):
    """Counters of a noiseless one-repeat sweep, (levels, complexities, counters)."""
    trace = generate_characterization(spec._replace(noise_sigma=0.0), table,
                                      complexities, 1, seed=0)
    return trace.counters.reshape(len(table), len(complexities), -1)


class TestOracleCounters:
    def test_indep_constant_in_frequency(self, char_workload, sweep_table):
        n_dep = len(char_workload.dep_counters)
        indep = swept_counters(char_workload, sweep_table, [10.0])[:, 0, n_dep:]
        assert (indep == indep[0]).all()

    def test_dep_monotone_in_frequency(self, char_workload, sweep_table):
        x = swept_counters(char_workload, sweep_table, [1.0, 32.0, 64.0])
        dep = x[:, :, :len(char_workload.dep_counters)]
        assert (dep[1:] > dep[:-1]).all()

    def test_order_matches_counter_names(self, char_workload, sweep_table):
        names = char_workload.counter_names
        assert names[:2] == ("render_busy_kcycles", "dispatch_busy_kcycles")
        x = swept_counters(char_workload, sweep_table, [8.0])
        assert x.shape[2] == len(names)
        assert x[:, 0].tolist() == [list(reference_counters(char_workload, 8.0, f))
                                    for f in sweep_table]

    def test_indep_zero_pearson_with_frequency(self, char_workload, sweep_table):
        spec = char_workload
        rows = swept_counters(spec, sweep_table, [float(c) for c in range(1, 33)])
        freqs = np.repeat(sweep_table.freqs_mhz, rows.shape[1])
        rows = rows.reshape(freqs.size, -1)
        fc = freqs - freqs.mean()
        n_dep = len(spec.dep_counters)
        for j in range(n_dep, rows.shape[1]):
            x = rows[:, j] - rows[:, j].mean()
            r = float(fc @ x) / np.sqrt(float(fc @ fc) * float(x @ x))
            assert abs(r) < 1e-9


class CountingMap:
    """A map that records the complexities it is called at."""

    def __init__(self, inner):
        self.inner, self.calls = inner, []

    def __call__(self, c):
        self.calls.append(c)
        return self.inner(c)


def columns_by_loop(spec, complexities):
    """workload_columns written as a loop over complexities: the rows of map
    values, or the ValueError message of no complexities or of the first
    complexity, taken from the lowest, whose values are out of range."""
    if not complexities:
        return "workload has an empty complexity schedule"
    for c in sorted(set(map(float, complexities))):
        if spec.scalable_ms(c) < 0 or spec.unscalable_ms(c) < 0:
            return f"negative frame-time component at C={c}"
        for cm in spec.dep_counters:
            if cm.response(c) <= 0:
                return f"dep counter {cm.name} base must be > 0 at C={c}"
        for cm in spec.indep_counters:
            if cm.response(c) < 0:
                return f"counter {cm.name} negative at C={c}"
    maps = [spec.scalable_ms, spec.unscalable_ms,
            *(cm.response for cm in spec.dep_counters + spec.indep_counters)]
    return [[m(float(c)) for m in maps] for c in complexities]


POINT = st.floats(-2.0, 100.0)
MAPS = st.one_of(
    st.builds(AffineMap, st.floats(-1.0, 5.0), POINT),
    st.lists(st.tuples(st.floats(-20.0, 90.0), POINT), min_size=2, max_size=4,
             unique_by=lambda p: p[0]).map(lambda pts: PiecewiseLinearMap(tuple(sorted(pts)))),
    st.builds(HashNoiseMap, st.floats(0.0, 100.0), st.floats(0.0, 10.0)),
)


class TestWorkloadColumns:
    @settings(max_examples=150, deadline=None)
    @given(maps=st.lists(MAPS, min_size=2, max_size=6), n_dep=st.integers(0, 4),
           complexities=st.lists(st.sampled_from([-3.0, 0.0, 1.0, 2.5, 8.0, 32.0, 64.0, 70.5]),
                                 min_size=1, max_size=30))
    @example(maps=[AffineMap(0.0, 1.0)] * 3, n_dep=1, complexities=[])
    def test_rows_equal_map_values_bitwise(self, maps, n_dep, complexities):
        counters = tuple(CounterModel(f"c{j}", m) for j, m in enumerate(maps[2:]))
        spec = WorkloadSpec((), maps[0], maps[1], 200.0, counters[:n_dep], counters[n_dep:])
        want = columns_by_loop(spec, complexities)
        if isinstance(want, str):
            with pytest.raises(ValueError) as raised:
                workload_columns(spec, complexities)
            assert str(raised.value) == want
            return
        got = workload_columns(spec, complexities)
        assert got.shape == (len(complexities), len(maps))
        assert got.tobytes() == np.array(want, dtype=float).reshape(got.shape).tobytes()

    def test_each_map_runs_once_per_distinct_complexity(self, char_workload):
        counted = [CountingMap(char_workload.scalable_ms),
                   CountingMap(char_workload.unscalable_ms)]
        spec = char_workload._replace(scalable_ms=counted[0], unscalable_ms=counted[1],
                       dep_counters=tuple(cm._replace(response=CountingMap(cm.response))
                                          for cm in char_workload.dep_counters),
                       indep_counters=tuple(cm._replace(response=CountingMap(cm.response))
                                            for cm in char_workload.indep_counters))
        counted += [cm.response for cm in spec.dep_counters + spec.indep_counters]
        complexities = [32.0, 4.0, 32.0, 8.0, 4.0, 4.0, 64.0]
        workload_columns(spec, complexities)
        for m in counted:
            assert m.calls == [4.0, 8.0, 32.0, 64.0]

    @pytest.mark.parametrize("scalable, dep, indep, message", [
        (AffineMap(1.0, -5.0), AffineMap(0.0, 0.0), AffineMap(0.0, -1.0),
         "negative frame-time component at C=2.0"),
        (AffineMap(1.0, 0.0), AffineMap(10.0, -30.0), AffineMap(0.0, -1.0),
         "dep counter busy base must be > 0 at C=2.0"),
        (AffineMap(1.0, 0.0), AffineMap(10.0, 5.0), AffineMap(1.0, -3.0),
         "counter units negative at C=2.0"),
    ], ids=["frame_time", "dep", "indep"])
    def test_error_names_the_old_loops_complexity_and_counter(self, scalable, dep, indep,
                                                              message):
        # every fault holds at C=2 and at C=1 only the listed one or none,
        # so the message shows both the complexity and the check order
        spec = WorkloadSpec((), scalable, AffineMap(0.0, 1.0), 200.0,
                            (CounterModel("busy", dep),),
                            (CounterModel("units", indep),))
        complexities = [9.0, 2.0, 5.0, 2.0]
        assert columns_by_loop(spec, complexities) == message
        with pytest.raises(ValueError) as raised:
            workload_columns(spec, complexities)
        assert str(raised.value) == message


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
        spec = char_workload._replace(complexity_schedule=char_workload.complexity_schedule[:n])
        assert spec.noise_sigma > 0
        freqs = random_walk_freqs(sweep_table, n, seed)
        trace = generate_runtime(spec, sweep_table, freqs, seed=seed)
        t = [reference_frame_time(spec, c, f) * z
             for c, f, z in zip(spec.complexity_schedule, freqs, reference_noise(spec, seed))]
        assert trace.frame_times.tolist() == t
        assert trace.counters.tolist() == [list(reference_counters(spec, c, f))
                                           for c, f in zip(spec.complexity_schedule, freqs)]
        assert trace.freqs.tolist() == list(freqs)
        assert trace.frame_counts.tolist() == [min(3, int(50.0 // v)) if v > 0 else 3
                                               for v in t]
        assert trace.timestamps.tolist() == [(k + 1) * 50.0 / 1000.0 for k in range(n)]

    def test_random_walk_equals_written_out_stream(self, sweep_table):
        # the reference walk, one random() of random.Random(seed) at a time
        def written_walk(table, n, seed, p_step=0.35, p_jump=0.07):
            stream = random.Random(seed)
            i, out = len(table) - 1, []
            for _ in range(n):
                u = stream.random()
                if u < p_step:
                    i += 1 if stream.random() < 0.5 else -1
                    i = min(max(i, 0), len(table) - 1)
                elif u < p_step + p_jump:
                    i = int(stream.random() * len(table))
                out.append(table.freqs_mhz[i])
            return tuple(out)

        for seed in range(60):
            assert random_walk_freqs(sweep_table, 400, seed) == written_walk(sweep_table,
                                                                              400, seed)

    def test_numpy_integer_seed_draws_the_int_stream(self, char_workload, sweep_table):
        # random.Random rejects a numpy integer, and a seed read from an array is one
        n = 50
        spec = char_workload._replace(complexity_schedule=char_workload.complexity_schedule[:n])
        freqs = random_walk_freqs(sweep_table, n, np.int64(7))
        assert freqs == random_walk_freqs(sweep_table, n, 7)
        assert (generate_runtime(spec, sweep_table, freqs, np.int64(7))
                == generate_runtime(spec, sweep_table, freqs, 7))

    def test_runtime_constant_and_sequence(self, simple_workload, small_table):
        n = len(simple_workload.complexity_schedule)
        trace = generate_runtime(simple_workload, small_table, [400.0] * n, seed=1)
        assert len(trace) == n
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
        with pytest.raises(ValueError, match="negative frame-time component at C=10.0"):
            workload_columns(spec, [10.0])


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
