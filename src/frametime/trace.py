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
depend on the workload only).  The workload is evaluated once, by
workload_columns, and its frame times take their noise from one stream,
by realized_frame_times; each says what derives from it.  seeded_stream
is the package's one pseudo-random source.

The data errors are defined here, in the layer every command imports,
so that cli.main names them without running a lazy layer.
"""

from __future__ import annotations

import io
import math
import operator
import random
from collections import namedtuple
from typing import NamedTuple

import numpy as np

DEFAULT_PERIOD_MS = 50.0   # the interval of every trace, generated or parsed

# Published subset of the reference platform's frequency ladder (MHz).
# The full ladder has nine entries; only these seven are public, so the
# table is always a configuration input and this is just a usable default.
DEFAULT_FREQS_MHZ = (200.0, 311.0, 355.0, 400.0, 444.0, 489.0, 511.0)


class DegenerateDataError(ValueError):
    """A well-formed trace holds too little to fit: too few rows, or a
    single clock where correlation with the clock is needed."""


class SpecMismatchError(ValueError):
    """A feature spec names counters the trace does not hold at its indices."""


def checked_tuple(typename: str, field_names: str) -> type:
    """A collections.namedtuple base for a record whose subclass checks and
    normalizes its fields in __new__.  Its _make, and so _replace, builds
    through that __new__, where namedtuple's own would bypass it."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class FrozenRecord:
    """Base of the checked records that are not tuples, because len()
    counts their contents.  A subclass's __init__ sets each of its
    __slots__ once through _init; assigning or deleting an attribute then
    raises AttributeError."""

    __slots__ = ()

    def _init(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class FrequencyTable(FrozenRecord):
    """Ordered list of supported GPU frequencies in MHz.  Tables compare
    and hash by their frequencies."""

    __slots__ = ("freqs_mhz",)

    def __init__(self, freqs_mhz: tuple[float, ...]):
        freqs = tuple(float(f) for f in freqs_mhz)
        if len(freqs) < 2:
            raise ValueError("frequency table needs at least two entries")
        if not all(0 < f < math.inf for f in freqs):
            raise ValueError("frequencies must be finite and positive")
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ValueError("frequencies must be strictly increasing")
        self._init(freqs_mhz=freqs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.freqs_mhz == other.freqs_mhz

    def __hash__(self):
        return hash(self.freqs_mhz)

    def __len__(self):
        return len(self.freqs_mhz)

    def __iter__(self):
        return iter(self.freqs_mhz)


DEFAULT_FREQ_TABLE = FrequencyTable(DEFAULT_FREQS_MHZ)

# Trace columns and their dtypes, in file order
_COLUMNS = {"timestamps": float, "frame_times": float, "frame_counts": np.int64,
            "freqs": float, "counters": float}


def check_counter_names(names) -> tuple[str, ...]:
    """names as a tuple, once each is one a trace file's header can hold:
    not blank, and without a comma or newline.  Trace checks its own, and
    WorkloadSpec its counters', so a config fails as it loads."""
    names = tuple(names)
    if any("," in name or "\n" in name for name in names):
        raise ValueError("counter names must not contain commas or newlines")
    if not all(name.strip() for name in names):
        raise ValueError("counter names must not be blank")
    return names


class Trace(FrozenRecord):
    """An ordered, validated trace of DEFAULT_PERIOD_MS intervals, held by column.

    Every column is a read-only numpy array with one entry per interval;
    counters is intervals by counters, ordered like counter_names.
    """

    __slots__ = ("timestamps", "frame_times", "frame_counts", "freqs", "counters",
                 "counter_names", "freq_table")

    def __init__(self,
                 timestamps: np.ndarray,       # seconds, strictly increasing
                 frame_times: np.ndarray,      # milliseconds
                 frame_counts: np.ndarray,
                 freqs: np.ndarray,            # MHz
                 counters: np.ndarray,         # (intervals, counters)
                 counter_names: tuple[str, ...],
                 freq_table: FrequencyTable):
        columns = {name: np.array(values, dtype=dtype) for (name, dtype), values in
                   zip(_COLUMNS.items(), (timestamps, frame_times, frame_counts, freqs,
                                          counters))}
        for column in columns.values():
            column.flags.writeable = False
        self._init(**columns, counter_names=check_counter_names(counter_names),
                   freq_table=freq_table)
        _validate(self)

    def __len__(self):
        return self.timestamps.shape[0]

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.counter_names == other.counter_names
                and self.freq_table == other.freq_table
                and all(np.array_equal(getattr(self, c), getattr(other, c))
                        for c in _COLUMNS))


def _validate(trace: Trace) -> None:
    """Check column shapes, then every row, for parsed and built traces alike.

    Raises a ValueError naming the first bad row, numbered from 1; within a
    row, a foreign frequency is reported before the other faults.
    """
    n, k = trace.timestamps.size, len(trace.counter_names)
    shapes = [getattr(trace, name).shape for name in _COLUMNS]
    if shapes != [(n,)] * 4 + [(n, k)]:
        raise ValueError(f"columns must hold {n} rows and {k} counters, got shapes {shapes}")
    ts, ft, x = trace.timestamps, trace.frame_times, trace.counters
    checks = (
        (~np.isin(trace.freqs, trace.freq_table.freqs_mhz), "frequency {f} MHz not in table"),
        (~(np.isfinite(ts) & np.isfinite(ft) & np.isfinite(x).all(axis=1)),
         "fields must be finite"),
        (ft < 0, "frame_time must be >= 0"),
        (trace.frame_counts < 0, "frame_count must be >= 0"),
        ((x < 0).any(axis=1), "counters must be >= 0"),
        (np.concatenate(([False], ts[1:] <= ts[:-1])),
         "timestamp {t} s is not after the previous row's"),
    )
    firsts = [(int(np.argmax(bad)), i) for i, (bad, _) in enumerate(checks) if bad.any()]
    if firsts:
        row, i = min(firsts)
        message = checks[i][1].format(f=trace.freqs[row], t=ts[row])
        raise ValueError(f"row {row + 1}: {message}")


# ---------------------------------------------------------------------------
# Complexity response maps

class AffineMap(NamedTuple):
    """value = slope * c + intercept"""

    slope: float
    intercept: float

    def __call__(self, c: float) -> float:
        return self.slope * c + self.intercept


class PiecewiseLinearMap(checked_tuple("PiecewiseLinearMap", "points")):
    """Linear interpolation through (c, value) points, end slopes extended."""

    __slots__ = ()

    def __new__(cls, points: tuple[tuple[float, float], ...]):
        pts = tuple((float(c), float(v)) for c, v in points)
        if len(pts) < 2:
            raise ValueError("piecewise map needs at least two points")
        if any(b[0] <= a[0] for a, b in zip(pts, pts[1:])):
            raise ValueError("piecewise breakpoints must be strictly increasing")
        return super().__new__(cls, pts)

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


class HashNoiseMap(NamedTuple):
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


class CounterModel(NamedTuple):
    """Analytic response of one hardware counter.

    Its kind is the WorkloadSpec tuple that holds it.  In dep_counters:
    value = response(c) * f / ref_freq, strictly increasing in f for
    response(c) > 0 (busy-cycle style counters).  In indep_counters:
    value = response(c), constant in f.
    """

    name: str
    response: AffineMap | PiecewiseLinearMap | HashNoiseMap


class WorkloadSpec(checked_tuple("WorkloadSpec", "complexity_schedule scalable_ms "
                                  "unscalable_ms ref_freq dep_counters indep_counters "
                                  "noise_sigma")):
    """Parameters of the analytic workload generator."""

    __slots__ = ()

    def __new__(cls, complexity_schedule: tuple[float, ...],
                scalable_ms: AffineMap | PiecewiseLinearMap,
                unscalable_ms: AffineMap | PiecewiseLinearMap,
                ref_freq: float,                       # MHz the scalable map refers to
                dep_counters: tuple[CounterModel, ...] = (),
                indep_counters: tuple[CounterModel, ...] = (),
                noise_sigma: float = 0.03):            # frame time noise, fraction
        complexity_schedule = tuple(map(float, complexity_schedule))
        if not (math.isfinite(ref_freq) and ref_freq > 0):
            raise ValueError(f"ref_freq must be finite and > 0, got {ref_freq}")
        if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
        check_counter_names(cm.name for cm in (*dep_counters, *indep_counters))
        return super().__new__(cls, complexity_schedule, scalable_ms, unscalable_ms,
                               ref_freq, dep_counters, indep_counters, noise_sigma)

    @property
    def counter_names(self) -> tuple[str, ...]:
        return tuple(cm.name for cm in self.dep_counters + self.indep_counters)


def workload_columns(spec: WorkloadSpec, complexities) -> np.ndarray:
    """The workload's response maps at each complexity, one row per complexity.

    The columns are scalable ms s, unscalable ms u, then each counter's
    base in counter_names order.  Each map runs once per distinct
    complexity, and every other form of the analytic workload, in the
    generated traces, the governor's grid and the sensitivity reference,
    is this array broadcast against frequencies f (MHz):

        frame time            s * ref_freq / f + u      (frame_times)
        d(frame time)/df      -s * ref_freq / (f * f)
        dep counter           base * (f / ref_freq)
        indep counter         base

    Raises ValueError on no complexities, as of an empty schedule, then at
    the lowest complexity with a negative frame-time component, a dep
    counter base <= 0 (it must grow strictly with f) or a negative indep
    counter, checked in that order.
    """
    complexities = np.asarray(complexities, dtype=float)
    if not complexities.size:
        raise ValueError("workload has an empty complexity schedule")
    counters = spec.dep_counters + spec.indep_counters
    maps = (spec.scalable_ms, spec.unscalable_ms, *(cm.response for cm in counters))
    distinct, at = np.unique(complexities, return_inverse=True)
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
    gives the (complexities, levels) grid.  A value too large for a float,
    or one at a zero frequency, is inf or nan without a numpy warning:
    Trace validation and governor.realize reject it."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return columns[..., 0] * spec.ref_freq / f + columns[..., 1]


def seeded_stream(seed: int) -> random.Random:
    """The package's one pseudo-random source: random.Random at the seed,
    whose random() Python promises to repeat for that seed across versions.
    Every draw seeds its own stream, and uses random() alone.  A seed is any
    non-negative integer, a numpy one included; a negative seed raises
    ValueError, where Random would take the stream of its absolute value."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return random.Random(seed)


def standard_normals(stream: random.Random, n: int) -> list[float]:
    """n draws of N(0, 1) by the Box-Muller transform (Box & Muller, Ann.
    Math. Statist. 1958) on consecutive random() pairs (u1, u2): with
    r = sqrt(-2 ln(1 - u1)) and theta = 2 pi u2, r cos theta and then
    r sin theta.  An odd n drops the last sine.  The transform runs on
    Python floats through math, so the draws do not depend on the CPU."""
    out = []
    for _ in range((n + 1) // 2):
        r = math.sqrt(-2.0 * math.log(1.0 - stream.random()))
        theta = math.tau * stream.random()
        out += (r * math.cos(theta), r * math.sin(theta))
    return out[:n]


def realized_frame_times(spec: WorkloadSpec, columns: np.ndarray, f, seed: int) -> np.ndarray:
    """frame_times times each interval's noise factor max(1 + noise_sigma z, 0).

    Interval k is row k of columns; its factor multiplies all of that
    row's frame times, the governor's levels alike.  z is the k-th of
    standard_normals on seeded_stream(seed), so a seed is checked only
    when noise_sigma > 0.  This is the only frame-time noise, so generated
    traces and governor runs realize the same frame times.  An inf frame
    time whose factor is 0 is nan, rejected like the inf.
    """
    t = frame_times(spec, columns, f)
    if spec.noise_sigma > 0:
        z = np.array(standard_normals(seeded_stream(seed), t.shape[0]))
        with np.errstate(over="ignore", invalid="ignore"):
            t *= np.maximum(1.0 + spec.noise_sigma * z, 0.0).reshape((-1,) + (1,) * (t.ndim - 1))
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
    # 50 // t overflows to inf, flagged invalid, for a t below 50 / max-float
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        counts = np.where(t > 0, np.minimum(FPS_CAP, DEFAULT_PERIOD_MS // t), FPS_CAP)
        counters = columns[:, 2:]
        counters[:, :len(spec.dep_counters)] *= (f / spec.ref_freq)[:, None]
    timestamps = np.arange(1, t.size + 1) * DEFAULT_PERIOD_MS / 1000.0
    return Trace(timestamps, t, counts, f, counters, spec.counter_names, table)


def sweep_complexities(complexities, repeats: int, levels: int) -> np.ndarray:
    """Per-row complexity of a characterization sweep over `levels` frequencies.

    Sweep order is one frequency at a time, complexities ascending within
    it, each configuration repeated `repeats` times back to back, so the
    sweep has levels * len(complexities) * repeats rows.
    """
    complexities = sorted(float(c) for c in complexities)
    if not complexities:
        raise ValueError("complexity list must not be empty")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    return np.tile(np.repeat(complexities, repeats), levels)


def generate_characterization(spec: WorkloadSpec, table: FrequencyTable,
                              complexities, repeats: int, seed: int) -> Trace:
    """Full factorial frequency x complexity x repeats sweep, its rows in
    sweep_complexities order; reproducible for a given seed."""
    c = sweep_complexities(complexities, repeats, len(table))
    return _generate(spec, table, c, np.repeat(table.freqs_mhz, c.size // len(table)), seed)


def generate_runtime(spec: WorkloadSpec, table: FrequencyTable, freqs, seed: int) -> Trace:
    """Trace following the spec's own complexity schedule at freqs, a
    per-interval frequency sequence of the same length as the schedule."""
    schedule = spec.complexity_schedule
    freq_seq = np.asarray(freqs, dtype=float)
    if freq_seq.shape != (len(schedule),):
        raise ValueError("frequency sequence length must match the schedule")
    return _generate(spec, table, schedule, freq_seq, seed)


# ---------------------------------------------------------------------------
# Trace file format

_FIXED_COLUMNS = ("time", "frame_time_ms", "frame_count", "gpu_freq_mhz")
_INT64 = np.iinfo(np.int64)
_TABLE_COMMENT = "# freq_table_mhz ="


def serialize_trace(trace: Trace) -> str:
    """Render a trace in the comma-separated log format.

    The first line is a comment recording the frequency table so the file
    is self-describing; then the header row, then one row per interval.
    Each value is the repr of a Python float or int, which parses back to
    the same number; the values go through tolist() because the repr of
    a numpy scalar reads np.float64(...).  Each column is formatted in one
    pass: np.unique on its bit patterns, so that -0.0 stays apart from
    0.0, finds its distinct values.  A column of all-distinct values
    (timestamps, frame times) has each cell formatted in turn; any other
    (frequency, frame count, counters) formats each distinct value once
    and takes each cell's string from that table.  All columns' cells are
    held at once, then the rows' lines, and the cells go before the lines
    are joined: the transient memory peaks at under four times the text's
    size, 0.92 MB for the 0.25 MB of a 2,400-row trace with six counters.
    """
    lines = [f"{_TABLE_COMMENT} " + ",".join(repr(f) for f in trace.freq_table)]
    lines.append(",".join(_FIXED_COLUMNS + trace.counter_names))
    cells = []
    for column in (trace.timestamps, trace.frame_times, trace.frame_counts, trace.freqs,
                   *trace.counters.T):
        keys, at = np.unique(column.view(np.int64), return_inverse=True)
        if keys.size == column.size:
            cells.append(list(map(repr, column.tolist())))
        else:
            strs = np.array(list(map(repr, keys.view(column.dtype).tolist())), object)
            cells.append(strs[at].tolist())
    lines.extend(map(",".join, zip(*cells)))
    del cells
    lines.append("")    # the text's final newline, without copying the text again
    return "\n".join(lines)


def _parse_float(raw: str, row: int, column: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"row {row}: non-numeric {column} field {raw.strip()!r}") from None


def parse_trace(text, freq_table: FrequencyTable | None = None) -> Trace:
    """Parse the trace log format, validating every row.

    text is a string or an iterable of lines; a string breaks into lines
    where a text-mode file would, at LF, CR LF and lone CR only.  Column
    order is fixed: time, frame time, frame count, GPU frequency, then the
    counters named by the header.  Malformed rows abort the parse with an
    error naming the row; rows are never silently skipped.

    The frequency table is taken from the freq_table argument when given,
    else from the file's own table comment, else DEFAULT_FREQ_TABLE; the
    comment is read only when it is used.
    """
    if isinstance(text, str):
        text = io.StringIO(text, newline=None)
    header = None
    embedded_table = None
    rows = []
    for line in text:
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if freq_table is None and stripped.replace(" ", "").startswith(
                    _TABLE_COMMENT.replace(" ", "")):
                payload = stripped.split("=", 1)[1]
                try:
                    embedded_table = FrequencyTable(
                        tuple(float(v) for v in payload.split(",") if v.strip()))
                except ValueError as exc:
                    raise ValueError(f"row 0: table comment {stripped!r}: {exc}") from None
            continue
        if header is None:
            header = [c.strip() for c in stripped.split(",")]
        else:
            rows.append(stripped)

    if header is None:
        raise ValueError("row 0: missing header line")
    if len(header) < len(_FIXED_COLUMNS):
        raise ValueError(f"row 0: header has {len(header)} columns, expected at least "
                         f"{len(_FIXED_COLUMNS)}")
    counter_names = tuple(header[len(_FIXED_COLUMNS):])
    names = _FIXED_COLUMNS + counter_names
    table = freq_table or embedded_table or DEFAULT_FREQ_TABLE

    ncol = len(names)
    # numpy's C reader converts the whole body into one record per row.  On
    # ASCII text without the separators \x1c-\x1f it reads each cell as
    # float() or int() would, and it rejects every row with the wrong field
    # count and every cell they reject, as well as a few they accept, such
    # as 1_0.  Elsewhere it may differ: it takes those separators for white
    # space, and its integer reader takes other letters for digits.  Such a
    # body, a rejected one or an empty one, on which numpy warns, goes to
    # the row loop, which names the first bad row.
    chars = "".join(rows)
    if rows and chars.isascii() and not any(c in chars for c in "\x1c\x1d\x1e\x1f"):
        record = np.dtype([("t", float), ("ft", float), ("n", np.int64), ("f", float),
                           ("c", float, (len(counter_names),))])
        try:
            data = np.loadtxt(rows, dtype=record, delimiter=",", comments=None, ndmin=1)
        except (ValueError, OverflowError):
            pass
        else:
            return Trace(data["t"], data["ft"], data["n"], data["f"], data["c"],
                         counter_names, table)

    values, counts = [], []
    for i, raw in enumerate(rows, start=1):
        fields = raw.split(",")
        if len(fields) != ncol:
            raise ValueError(f"row {i}: expected {ncol} fields, got {len(fields)}")
        row = [_parse_float(v, i, name) for v, name in zip(fields[:2], names)]
        try:
            count = int(fields[2])
        except ValueError:
            raise ValueError(f"row {i}: non-integer frame_count field "
                             f"{fields[2].strip()!r}") from None
        if not _INT64.min <= count <= _INT64.max:
            raise ValueError(f"row {i}: frame_count {count} is outside the int64 range")
        counts.append(count)
        row += [_parse_float(v, i, name) for v, name in zip(fields[3:], names[3:])]
        values.append(row)
    data = np.array(values, dtype=float).reshape(len(rows), ncol - 1)
    return Trace(data[:, 0], data[:, 1], counts, data[:, 2], data[:, 3:], counter_names, table)
