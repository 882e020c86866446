"""INI-style configuration files for workloads and simulation settings.

The file format, its sections, keys and schedule expressions, is the
user's contract, written once in README.md's "Config file format".  One
table, SECTIONS, reads it: a section or key it lacks is an error.  The
[governor] and [power_model] records, GovernorConfig and PowerModel, take
their keys' names and are defined here with the governor's policy names
POLICIES, so that loading a config imports no layer past trace.
"""

from __future__ import annotations

import configparser
import math
import sys
from typing import NamedTuple

import numpy as np

from .trace import (DEFAULT_FREQS_MHZ, DEFAULT_PERIOD_MS, AffineMap, CounterModel,
                    FrequencyTable, HashNoiseMap, PiecewiseLinearMap, WorkloadSpec,
                    check_counter_names, checked_tuple, parse_list)


POLICIES = ("rls", "oracle", "ondemand")


class PowerModel(checked_tuple("PowerModel", "p_static_w p_dyn_w_per_ghz3 p_idle_w")):
    """Watts: p_static_w + p_dyn_w_per_ghz3 * (f_ghz)^3 while active, p_idle_w while idle."""

    __slots__ = ()

    def __new__(cls, p_static_w: float = 0.5, p_dyn_w_per_ghz3: float = 8.0,
                p_idle_w: float = 0.2):
        for name, value in zip(cls._fields, (p_static_w, p_dyn_w_per_ghz3, p_idle_w)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        return super().__new__(cls, p_static_w, p_dyn_w_per_ghz3, p_idle_w)

    def active_power(self, f_mhz: float) -> float:
        return self.p_static_w + self.p_dyn_w_per_ghz3 * (f_mhz / 1000.0) ** 3


class GovernorConfig(checked_tuple("GovernorConfig", "fps_target period_ms up_threshold "
                                   "down_threshold warmup_intervals")):
    """The [governor] section: the frame-rate target, the decision period,
    ondemand's utilization thresholds and the rls policy's warm-up at the
    top level."""

    __slots__ = ()

    def __new__(cls, fps_target: float = 60.0,
                period_ms: float = DEFAULT_PERIOD_MS,
                up_threshold: float = 0.8,
                down_threshold: float = 0.3,
                warmup_intervals: int = 10):    # rls policy holds max frequency this long
        if not 0 < down_threshold < up_threshold <= 1:
            raise ValueError("need 0 < down_threshold < up_threshold <= 1")
        for name, value in (("fps_target", fps_target), ("period_ms", period_ms)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if warmup_intervals < 0:
            raise ValueError(f"warmup_intervals must be >= 0, got {warmup_intervals}")
        return super().__new__(cls, fps_target, period_ms, up_threshold, down_threshold,
                               warmup_intervals)

    @property
    def frame_budget_ms(self) -> float:
        return 1000.0 / self.fps_target

    @property
    def frames_per_interval(self) -> int:
        return max(1, round(self.period_ms / self.frame_budget_ms))


class ConfigBundle(NamedTuple):
    workload: WorkloadSpec
    freq_table: FrequencyTable
    characterization_complexities: tuple[float, ...]
    characterization_repeats: int
    governor: GovernorConfig
    power_model: PowerModel


def _count(value: float, name: str, text: str) -> int:
    """A schedule length, half period or hold, already finite: at least 1.

    The length N must also fit an index; a longer half period or hold is
    clamped to N where the schedule is built."""
    if value < 1:
        raise ValueError(f"bad schedule expression {text!r}: {name} must be at least 1")
    if name == "N" and value > sys.maxsize:
        raise ValueError(f"bad schedule expression {text!r}: N is too large")
    return int(value)


def _cycle(levels, hold: int, n: int) -> tuple[float, ...]:
    """n intervals of levels, each held for hold intervals, cycling.

    One period is built and repeated.  Runs longer than n and levels the
    first n intervals never reach are left out of it, so it holds fewer
    than 2n values however large HOLD or the level count."""
    run = min(hold, n)
    period = tuple(v for v in levels[:-(-n // run)] for _ in range(run))
    return (period * -(-n // len(period)))[:n]


def _stairs_levels(lo: float, hi: float, step: float, reach: int,
                   text: str) -> list[float]:
    """The first levels of np.arange(lo, hi + step / 2, step), at most reach.

    LO = HI gives the one level.  numpy fills the range as lo, lo + step,
    then lo + i * ((lo + step) - lo), so the levels are built that way, and
    only as many as the intervals reach however long the range.
    """
    if lo == hi:
        return [lo]
    if lo + step == lo:
        raise ValueError(f"bad schedule expression {text!r}: STEP is below LO's "
                         f"float resolution")
    count = max(1, math.ceil(min(reach, (hi + step / 2 - lo) / step)))
    delta = (lo + step) - lo
    levels = [lo, lo + step, *(lo + i * delta for i in range(2, count))][:count]
    if not all(map(math.isfinite, levels)):
        raise ValueError(f"bad schedule expression {text!r}: levels must be finite")
    return levels


def parse_schedule(text: str) -> tuple[float, ...]:
    """Expand a schedule expression into per-interval complexity values."""
    text = text.strip()
    kind, compact, rest = text.partition(":")
    try:
        if compact:
            args = [float(p) for p in rest.split(":")]
        else:
            args = parse_list(text)
    except ValueError:
        raise ValueError(f"bad schedule expression {text!r}: values must be numbers") from None
    if not all(map(math.isfinite, args)):
        raise ValueError(f"bad schedule expression {text!r}: values must be finite")
    if not compact:
        return tuple(args)
    kind = kind.strip().lower()
    if kind == "constant" and len(args) == 2:
        value, n = args
        return (value,) * _count(n, "N", text)
    if kind == "ramp" and len(args) == 3:
        a, b, n = args
        return tuple(float(v) for v in np.linspace(a, b, _count(n, "N", text)))
    if kind == "square" and len(args) == 4:
        lo, hi, half, n = args
        return _cycle((lo, hi), _count(half, "HALF_PERIOD", text), _count(n, "N", text))
    if kind == "stairs" and len(args) == 5:
        lo, hi, step, hold, n = args
        if step <= 0:
            raise ValueError(f"bad schedule expression {text!r}: STEP must be positive")
        if not lo <= hi:
            raise ValueError(f"bad schedule expression {text!r}: LO must not exceed HI")
        hold, n = _count(hold, "HOLD", text), _count(n, "N", text)
        return _cycle(_stairs_levels(lo, hi, step, -(-n // hold), text), hold, n)
    raise ValueError(f"bad schedule expression {text!r}")


def parse_complexities(text: str) -> tuple[float, ...]:
    """Sweep complexities, at least one: either 'lo:hi' inclusive integers
    or a comma list of finite numbers."""
    text = text.strip()
    try:
        if ":" in text:
            lo, hi = (int(p) for p in text.split(":"))
            values = tuple(float(c) for c in range(lo, hi + 1))
        else:
            values = parse_list(text)
    except ValueError:
        raise ValueError(f"bad complexities {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"bad complexities {text!r}: values must be finite")
    if not values:
        raise ValueError(f"must not be empty, got {text!r}")
    return values


def _number(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {raw!r}")
    return value


def _integer(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"must be an integer, got {raw!r}") from None


# a point is c:v, and partition(":")[::2] is its (c, v)
_MAP = {"kind": str.lower, "slope": _number, "intercept": _number,
        "points": lambda raw: parse_list(raw, lambda p: tuple(map(float, p.partition(":")[::2])))}

# each section's keys and the reader of each; "counter.<name>" is every [counter.NAME]
SECTIONS = {
    "frequency_table": {"freqs_mhz": parse_list},
    "workload": {"ref_freq_mhz": _number, "noise_sigma": _number,
                 "complexity_schedule": parse_schedule},
    "scalable_ms": _MAP,
    "unscalable_ms": _MAP,
    "counter.<name>": {**_MAP, "response": str.lower, "amplitude": _number, "salt": _number},
    "characterization": {"complexities": parse_complexities, "repeats": _integer},
    "governor": {"fps_target": _number, "period_ms": _number, "up_threshold": _number,
                 "down_threshold": _number, "warmup_intervals": _integer},
    "power_model": dict.fromkeys(("p_static_w", "p_dyn_w_per_ghz3", "p_idle_w"), _number),
}


def _read(cp) -> dict[str, dict]:
    """Each section's {key: value}, each value read through SECTIONS.  A
    section or key SECTIONS lacks is an error."""
    sections = {}
    for name in cp.sections():
        keys = SECTIONS.get("counter.<name>" if name.startswith("counter.") else name)
        if keys is None:
            raise ValueError(f"unknown section [{name}]")
        values = sections[name] = {}
        for key, raw in cp.items(name, raw=True):
            if key not in keys:
                raise ValueError(f"[{name}]: unknown key {key!r}")
            try:
                values[key] = keys[key](raw)
            except ValueError as exc:
                # "must ..." goes on from the key; any other message stands alone
                sep = " " if str(exc).startswith("must") else ": "
                raise ValueError(f"[{name}]: {key}{sep}{exc}") from None
    return sections


def _in_section(name: str, build, *args, **kwargs):
    """build(*args, **kwargs), a ValueError it raises prefixed with [name]."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"[{name}]: {exc}") from None


def _parse_response(kind: str, values: dict):
    """The map of kind, affine or piecewise, from its section's values."""
    if kind == "piecewise":
        return PiecewiseLinearMap(values.get("points", ()))
    if kind == "affine":
        return AffineMap(values.get("slope", 0.0), values.get("intercept", 0.0))
    raise ValueError(f"unknown map kind {kind!r}")


def load_config(path) -> ConfigBundle:
    """Read a config file, UTF-8 with or without a byte-order mark, into a
    validated bundle of simulation inputs; each error names the file."""
    # no interpolation: a % in a value is literal, and a number check rejects it;
    # no default section: [DEFAULT] is a section like any other, and SECTIONS lacks it
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        read = cp.read(str(path), encoding="utf-8-sig")
    except (configparser.Error, UnicodeDecodeError) as exc:
        # a parser message spans lines; the error is reported on one
        raise ValueError(f"bad config {path}: {' '.join(str(exc).split())}") from None
    if not read:
        raise ValueError(f"cannot read config file {path}")

    try:
        sections = _read(cp)
        freqs = sections.get("frequency_table", {"freqs_mhz": DEFAULT_FREQS_MHZ})
        table = _in_section("frequency_table", FrequencyTable, freqs.get("freqs_mhz", ()))
        for name in ("workload", "scalable_ms", "unscalable_ms"):
            if name not in sections:
                raise ValueError(f"missing [{name}] section")

        dep, indep = [], []
        for name, values in sections.items():
            if not name.startswith("counter."):
                continue
            kind = values.get("kind", "indep")
            if kind not in ("dep", "indep", "noise"):
                raise ValueError(f"[{name}]: unknown kind {kind!r}")
            response = (HashNoiseMap(values.get("amplitude", 1.0), values.get("salt", 0.0))
                        if kind == "noise" else _in_section(
                            name, _parse_response, values.get("response", "affine"), values))
            (counter,) = _in_section(name, check_counter_names, [name[len("counter."):]])
            (dep if kind == "dep" else indep).append(CounterModel(counter, response))

        maps = {name: _in_section(name, _parse_response, sections[name].get("kind", "affine"),
                                  sections[name]) for name in ("scalable_ms", "unscalable_ms")}
        absent = {"complexity_schedule": (), "ref_freq_mhz": table.freqs_mhz[0]}
        workload = _in_section("workload", WorkloadSpec, **{**absent, **sections["workload"]},
                               **maps, dep_counters=tuple(dep), indep_counters=tuple(indep))
        sweep = ({"complexities": parse_complexities("1:64"), "repeats": 10,
                  **sections["characterization"]} if "characterization" in sections
                 else {"complexities": (), "repeats": 1})
        if sweep["repeats"] < 1:
            raise ValueError(f"[characterization]: repeats must be at least 1, "
                             f"got {sweep['repeats']}")
        governor = _in_section("governor", GovernorConfig, **sections.get("governor", {}))
        power = _in_section("power_model", PowerModel, **sections.get("power_model", {}))
        # each coefficient may be finite while a period's or the run's energy is not;
        # a Python float ** raises OverflowError where * gives inf
        top, n = table.freqs_mhz[-1], len(workload.complexity_schedule)
        try:
            peak = max(power.active_power(top), power.p_idle_w) * governor.period_ms
        except OverflowError:
            peak = math.inf
        if not (math.isfinite(peak) and math.isfinite(peak / 1000.0 * n)):
            raise ValueError(f"[power_model]: energy over {n} intervals of "
                             f"{governor.period_ms!r} ms at up to {top!r} MHz must be finite")
    except ValueError as exc:
        raise ValueError(f"bad config {path}: {exc}") from None

    return ConfigBundle(workload=workload, freq_table=table,
                        characterization_complexities=sweep["complexities"],
                        characterization_repeats=sweep["repeats"],
                        governor=governor, power_model=power)
