"""Trace data model and synthetic workload generation.

A trace is a sequence of fixed-period observations of a GPU: the frame
processing time, the number of frames finished in the interval, the
operating frequency, and a set of hardware performance counters.  Traces
come from two places: parsed log files (comma separated, one header line)
and an analytic workload generator that stands in for real hardware.

The generator models frame time as a frequency-scalable portion plus an
unscalable portion:

    t(C, f) = scalable_ms(C) * ref_freq / f + unscalable_ms(C)

where C is the frame complexity.  Counters are either frequency dependent
(they track busy cycles and grow with f) or frequency independent (they
depend on the workload only).  workload_columns is the one evaluation of
the workload's maps; generated traces, the governor's frame-time grid
and counters, and the sensitivity reference all derive from it, the
frame times through frame_times, noisy ones through
realized_frame_times.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_PERIOD_MS = 50.0

# Published subset of the reference platform's frequency ladder (MHz).
# The full ladder has nine entries; only these seven are public, so the
# table is always a configuration input and this is just a usable default.
DEFAULT_FREQS_MHZ = (200.0, 311.0, 355.0, 400.0, 444.0, 489.0, 511.0)


class TraceParseError(ValueError):
    """Base class for invalid trace rows.  Carries the 1-based data row."""

    def __init__(self, row: int, message: str):
        self.row = row
        super().__init__(f"row {row}: {message}")


class ColumnCountError(TraceParseError):
    pass


class FieldValueError(TraceParseError):
    pass


class UnknownFrequencyError(TraceParseError):
    pass


@dataclass(frozen=True)
class FrequencyTable:
    """Ordered list of supported GPU frequencies in MHz."""

    freqs_mhz: tuple[float, ...]

    def __post_init__(self):
        freqs = tuple(float(f) for f in self.freqs_mhz)
        object.__setattr__(self, "freqs_mhz", freqs)
        if len(freqs) < 2:
            raise ValueError("frequency table needs at least two entries")
        if not all(0 < f < math.inf for f in freqs):
            raise ValueError("frequencies must be finite and positive")
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ValueError("frequencies must be strictly increasing")

    def __len__(self):
        return len(self.freqs_mhz)

    def __iter__(self):
        return iter(self.freqs_mhz)

    @property
    def min(self) -> float:
        return self.freqs_mhz[0]

    @property
    def max(self) -> float:
        return self.freqs_mhz[-1]


DEFAULT_FREQ_TABLE = FrequencyTable(DEFAULT_FREQS_MHZ)

# Trace columns and their dtypes, in file order
_COLUMNS = {"timestamps": float, "frame_times": float, "frame_counts": np.int64,
            "freqs": float, "counters": float}


@dataclass(frozen=True, eq=False)
class Trace:
    """An ordered, validated trace of fixed-period intervals, held by column.

    Every column is a read-only numpy array with one entry per interval;
    counters is intervals by counters, ordered like counter_names.
    """

    timestamps: np.ndarray       # seconds, strictly increasing
    frame_times: np.ndarray      # milliseconds
    frame_counts: np.ndarray
    freqs: np.ndarray            # MHz
    counters: np.ndarray         # (intervals, counters)
    counter_names: tuple[str, ...]
    freq_table: FrequencyTable
    period: float = DEFAULT_PERIOD_MS  # milliseconds

    def __post_init__(self):
        for name, dtype in _COLUMNS.items():
            column = np.array(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "counter_names", tuple(self.counter_names))
        if self.period <= 0:
            raise ValueError("period must be > 0")
        if any("," in name or "\n" in name for name in self.counter_names):
            raise ValueError("counter names must not contain commas or newlines")
        _validate(self)

    def __len__(self):
        return self.timestamps.shape[0]

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.counter_names == other.counter_names
                and self.freq_table == other.freq_table and self.period == other.period
                and all(np.array_equal(getattr(self, c), getattr(other, c))
                        for c in _COLUMNS))


def _validate(trace: Trace) -> None:
    """Check column shapes, then every row, for parsed and built traces alike.

    Raises the TraceParseError of the first bad row, numbered from 1; within
    a row, a foreign frequency is reported before the other faults.
    """
    n, k = trace.timestamps.size, len(trace.counter_names)
    shapes = [getattr(trace, name).shape for name in _COLUMNS]
    if shapes != [(n,)] * 4 + [(n, k)]:
        raise ValueError(f"columns must hold {n} rows and {k} counters, got shapes {shapes}")
    ts, ft, x = trace.timestamps, trace.frame_times, trace.counters
    checks = (
        (UnknownFrequencyError, ~np.isin(trace.freqs, trace.freq_table.freqs_mhz),
         "frequency {f} MHz not in table"),
        (FieldValueError, ~(np.isfinite(ts) & np.isfinite(ft) & np.isfinite(x).all(axis=1)),
         "fields must be finite"),
        (FieldValueError, ft < 0, "frame_time must be >= 0"),
        (FieldValueError, trace.frame_counts < 0, "frame_count must be >= 0"),
        (FieldValueError, (x < 0).any(axis=1), "counters must be >= 0"),
        (FieldValueError, np.concatenate(([False], ts[1:] <= ts[:-1])),
         "timestamp {t} s is not after the previous row's"),
    )
    firsts = [(int(np.argmax(bad)), i) for i, (_, bad, _) in enumerate(checks) if bad.any()]
    if firsts:
        row, i = min(firsts)
        error, _, message = checks[i]
        raise error(row + 1, message.format(f=trace.freqs[row], t=ts[row]))


# ---------------------------------------------------------------------------
# Complexity response maps

@dataclass(frozen=True)
class AffineMap:
    """value = slope * c + intercept"""

    slope: float
    intercept: float

    def __call__(self, c: float) -> float:
        return self.slope * c + self.intercept


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Linear interpolation through (c, value) points, end slopes extended."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(c), float(v)) for c, v in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValueError("piecewise map needs at least two points")
        if any(b[0] <= a[0] for a, b in zip(pts, pts[1:])):
            raise ValueError("piecewise breakpoints must be strictly increasing")

    def __call__(self, c: float) -> float:
        pts = self.points
        if c <= pts[0][0]:
            lo, hi = pts[0], pts[1]
        elif c >= pts[-1][0]:
            lo, hi = pts[-2], pts[-1]
        else:
            k = next(i for i in range(len(pts) - 1) if pts[i][0] <= c <= pts[i + 1][0])
            lo, hi = pts[k], pts[k + 1]
        frac = (c - lo[0]) / (hi[0] - lo[0])
        return lo[1] + frac * (hi[1] - lo[1])


@dataclass(frozen=True)
class HashNoiseMap:
    """Deterministic pseudo-random response, uncorrelated with complexity.

    Produces amplitude * u(c) with u in [0, 1).  Used to model counters
    that carry no workload information while staying a pure function of c,
    so repeated configurations reproduce the same value.
    """

    amplitude: float
    salt: float = 0.0

    def __call__(self, c: float) -> float:
        x = math.sin((c + 1.0) * 127.1 + self.salt * 311.7) * 43758.5453
        return self.amplitude * (x - math.floor(x))


@dataclass(frozen=True)
class CounterModel:
    """Analytic response of one hardware counter.

    Its kind is the WorkloadSpec tuple that holds it.  In dep_counters:
    value = response(c) * f / ref_freq, strictly increasing in f for
    response(c) > 0 (busy-cycle style counters).  In indep_counters:
    value = response(c), constant in f.
    """

    name: str
    response: AffineMap | PiecewiseLinearMap | HashNoiseMap


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of the analytic workload generator."""

    complexity_schedule: tuple[float, ...]
    scalable_ms: AffineMap | PiecewiseLinearMap
    unscalable_ms: AffineMap | PiecewiseLinearMap
    ref_freq: float                      # MHz the scalable map refers to
    dep_counters: tuple[CounterModel, ...] = ()
    indep_counters: tuple[CounterModel, ...] = ()
    noise_sigma: float = 0.03            # frame time noise, fraction

    def __post_init__(self):
        object.__setattr__(self, "complexity_schedule",
                           tuple(map(float, self.complexity_schedule)))
        if not (math.isfinite(self.ref_freq) and self.ref_freq > 0):
            raise ValueError(f"ref_freq must be finite and > 0, got {self.ref_freq}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")

    @property
    def counter_names(self) -> tuple[str, ...]:
        return tuple(cm.name for cm in self.dep_counters + self.indep_counters)


def workload_columns(spec: WorkloadSpec, complexities) -> np.ndarray:
    """The workload's response maps at each complexity, one row per complexity.

    The columns are scalable ms s, unscalable ms u, then each counter's
    base in counter_names order.  Each map runs once per distinct
    complexity, and every other form of the analytic workload is this
    array broadcast against frequencies f (MHz):

        frame time            s * ref_freq / f + u      (frame_times)
        d(frame time)/df      -s * ref_freq / (f * f)
        dep counter           base * (f / ref_freq)
        indep counter         base

    Raises ValueError at the lowest complexity with a negative frame-time
    component, a dep counter base <= 0 (it must grow strictly with f) or a
    negative indep counter, checked in that order.
    """
    counters = spec.dep_counters + spec.indep_counters
    maps = (spec.scalable_ms, spec.unscalable_ms, *(cm.response for cm in counters))
    distinct, at = np.unique(np.asarray(complexities, dtype=float), return_inverse=True)
    cs = distinct.tolist()
    values = np.array([[m(c) for m in maps] for c in cs], dtype=float)
    values = values.reshape(len(cs), len(maps))
    dep_end = 2 + len(spec.dep_counters)
    bad = values < 0
    bad[:, 2:dep_end] = values[:, 2:dep_end] <= 0
    if bad.any():
        row, col = divmod(int(np.argmax(bad)), len(maps))   # lowest C, then column order
        if col < 2:
            raise ValueError(f"negative frame-time component at C={cs[row]}")
        name = counters[col - 2].name
        if col < dep_end:
            raise ValueError(f"dep counter {name} base must be > 0 at C={cs[row]}")
        raise ValueError(f"counter {name} negative at C={cs[row]}")
    return values[at]


def frame_times(spec: WorkloadSpec, columns: np.ndarray, f) -> np.ndarray:
    """Noiseless frame time s * ref_freq / f + u in ms, from workload_columns
    rows broadcast against f: columns[:, None, :] against the table levels
    gives the (complexities, levels) grid.  A value too large for a float
    is inf without a numpy warning: Trace validation and governor.simulate
    reject it."""
    with np.errstate(over="ignore"):
        return columns[..., 0] * spec.ref_freq / f + columns[..., 1]


def realized_frame_times(spec: WorkloadSpec, columns: np.ndarray, f, seed: int) -> np.ndarray:
    """frame_times times each interval's noise factor max(1 + N(0, noise_sigma), 0).

    Interval k is row k of columns; its factor multiplies all of that
    row's frame times, the governor's levels alike.  The factors are one
    block of default_rng(seed), the same numbers as one scalar draw per
    interval in order.  This is the only frame-time noise, so generated
    traces and governor runs realize the same frame times.  An inf frame
    time whose factor is 0 is nan, rejected like the inf.
    """
    t = frame_times(spec, columns, f)
    if spec.noise_sigma > 0:
        z = np.random.default_rng(seed).normal(0.0, spec.noise_sigma, size=t.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):
            t *= np.maximum(1.0 + z, 0.0).reshape((-1,) + (1,) * (t.ndim - 1))
    return t


FPS_CAP = 3  # most frames counted in one interval


def _generate(spec: WorkloadSpec, table: FrequencyTable, c, f, seed: int) -> Trace:
    """Trace of the analytic workload at per-interval complexities c and frequencies f.

    Columns of workload_columns broadcast against f, the frame times those
    of realized_frame_times.  Overflowing values become inf or nan, which
    the Trace's finite check rejects, naming the row.
    """
    f = np.asarray(f, dtype=float)
    columns = workload_columns(spec, c)
    t = realized_frame_times(spec, columns, f, seed)
    with np.errstate(over="ignore", divide="ignore"):
        counts = np.where(t > 0, np.minimum(FPS_CAP, DEFAULT_PERIOD_MS // t), FPS_CAP)
        counters = columns[:, 2:]
        counters[:, :len(spec.dep_counters)] *= (f / spec.ref_freq)[:, None]
    timestamps = np.arange(1, t.size + 1) * DEFAULT_PERIOD_MS / 1000.0
    return Trace(timestamps, t, counts, f, counters, spec.counter_names, table)


def generate_characterization(spec: WorkloadSpec, table: FrequencyTable,
                              complexities, repeats: int, seed: int) -> Trace:
    """Full factorial frequency x complexity x repeats sweep.

    Sweep order is one frequency at a time, complexities ascending within
    it, each configuration repeated `repeats` times back to back.  Sample
    count is len(table) * len(complexities) * repeats and the result is
    reproducible for a given seed.
    """
    complexities = sorted(float(c) for c in complexities)
    if not complexities:
        raise ValueError("complexity list must not be empty")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    per_freq = np.repeat(complexities, repeats)
    return _generate(spec, table, np.tile(per_freq, len(table)),
                     np.repeat(table.freqs_mhz, per_freq.size), seed)


def generate_runtime(spec: WorkloadSpec, table: FrequencyTable, freqs, seed: int) -> Trace:
    """Trace following the spec's own complexity schedule at freqs, a
    per-interval frequency sequence of the same length as the schedule."""
    schedule = spec.complexity_schedule
    if not schedule:
        raise ValueError("workload has an empty complexity schedule")
    freq_seq = np.asarray(freqs, dtype=float)
    if freq_seq.shape != (len(schedule),):
        raise ValueError("frequency sequence length must match the schedule")
    foreign = freq_seq[~np.isin(freq_seq, table.freqs_mhz)]
    if foreign.size:
        raise ValueError(f"frequency {foreign[0]} MHz not in table")
    return _generate(spec, table, schedule, freq_seq, seed)


# ---------------------------------------------------------------------------
# Trace file format

_FIXED_COLUMNS = ("time", "frame_time_ms", "frame_count", "gpu_freq_mhz")
_BLOCK_ROWS = 256        # rows per numpy call when parsing
_SERIALIZE_ROWS = 512    # rows per value table when serializing; more grow the heap's peak
_TABLE_COMMENT = "# freq_table_mhz ="


def serialize_trace(trace: Trace) -> str:
    """Render a trace in the comma-separated log format.

    The first line is a comment recording the frequency table so the file
    is self-describing; then the header row, then one row per interval.
    Each value is the repr of a Python float or int, which parses back to
    the same number; the values go through tolist() because the repr of
    a numpy scalar reads np.float64(...).  Frequency, frame count and
    counter columns hold few distinct values, so each block of
    _SERIALIZE_ROWS rows formats each distinct value of a column once:
    np.unique on the column's bit patterns, so that -0.0 stays apart from
    0.0, gives the values and each cell's index into their strings.  The
    block bounds the size of those tables and of the cell array.
    """
    lines = [f"{_TABLE_COMMENT} " + ",".join(repr(f) for f in trace.freq_table)]
    lines.append(",".join(_FIXED_COLUMNS + trace.counter_names))
    columns = [trace.timestamps, trace.frame_times, trace.frame_counts, trace.freqs,
               *trace.counters.T]
    for start in range(0, len(trace), _SERIALIZE_ROWS):
        cells = np.empty((min(_SERIALIZE_ROWS, len(trace) - start), len(columns)), object)
        for j, column in enumerate(columns):
            block = column[start:start + _SERIALIZE_ROWS]
            keys, at = np.unique(block.view(np.int64), return_inverse=True)
            strs = np.array(list(map(repr, keys.view(block.dtype).tolist())), object)
            cells[:, j] = strs[at]
        lines.append("\n".join(map(",".join, cells.tolist())))
    return "\n".join(lines) + "\n"


def _parse_float(raw: str, row: int, column: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise FieldValueError(row, f"non-numeric {column} field {raw.strip()!r}") from None


def parse_trace(text, freq_table: FrequencyTable | None = None) -> Trace:
    """Parse the trace log format, validating every row.

    text is a string or an iterable of lines; a string breaks into lines
    where a text-mode file would, at LF, CR LF and lone CR only.  Column
    order is fixed: time, frame time, frame count, GPU frequency, then the
    counters named by the header.  Malformed rows abort the parse with an
    error naming the row; rows are never silently skipped.

    The frequency table is taken from the freq_table argument when given,
    else from the file's own table comment, else DEFAULT_FREQ_TABLE.
    """
    if isinstance(text, str):
        text = io.StringIO(text, newline=None)
    lines = [line.rstrip("\n") for line in text]

    header = None
    embedded_table = None
    rows = []
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if stripped.replace(" ", "").startswith(_TABLE_COMMENT.replace(" ", "")):
                payload = stripped.split("=", 1)[1]
                embedded_table = FrequencyTable(
                    tuple(float(v) for v in payload.split(",") if v.strip()))
            continue
        if header is None:
            header = [c.strip() for c in stripped.split(",")]
        else:
            rows.append(stripped)

    if header is None:
        raise TraceParseError(0, "missing header line")
    if len(header) < len(_FIXED_COLUMNS):
        raise TraceParseError(0, f"header has {len(header)} columns, expected at least "
                                 f"{len(_FIXED_COLUMNS)}")
    counter_names = tuple(header[len(_FIXED_COLUMNS):])
    names = _FIXED_COLUMNS + counter_names
    table = freq_table or embedded_table or DEFAULT_FREQ_TABLE

    ncol = len(names)
    # numpy's C reader converts each block of rows into one record per row.
    # On ASCII text without the separators \x1c-\x1f it reads each cell as
    # float() or int() would, and it rejects every row with the wrong field
    # count and every cell they reject, as well as a few they accept, such
    # as 1_0.  Elsewhere it may differ: it takes those separators for white
    # space, and its integer reader takes other letters for digits.  Such a
    # block, or a rejected one, leaves the whole body to the row loop, which
    # names the first bad row.  Blocks keep the reader's buffers and the
    # joined text small, which bounds the parse's peak memory.
    record = np.dtype([("t", float), ("ft", float), ("n", np.int64), ("f", float),
                       ("c", float, (len(counter_names),))])
    data = np.empty(len(rows), record)
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        chars = "".join(block)
        if not chars.isascii() or any(c in chars for c in "\x1c\x1d\x1e\x1f"):
            break
        try:
            data[start:start + len(block)] = np.loadtxt(block, dtype=record, delimiter=",",
                                                        comments=None, ndmin=1)
        except (ValueError, OverflowError):
            break
    else:
        return Trace(data["t"], data["ft"], data["n"], data["f"], data["c"],
                     counter_names, table)

    values, counts = [], []
    for i, raw in enumerate(rows, start=1):
        fields = raw.split(",")
        if len(fields) != ncol:
            raise ColumnCountError(i, f"expected {ncol} fields, got {len(fields)}")
        row = [_parse_float(v, i, name) for v, name in zip(fields[:2], names)]
        try:
            counts.append(int(fields[2]))
        except ValueError:
            raise FieldValueError(i, f"non-integer frame_count field "
                                     f"{fields[2].strip()!r}") from None
        row += [_parse_float(v, i, name) for v, name in zip(fields[3:], names[3:])]
        values.append(row)
    data = np.array(values, dtype=float).reshape(len(rows), ncol - 1)
    return Trace(data[:, 0], data[:, 1], counts, data[:, 2], data[:, 3:], counter_names, table)
