"""INI-style configuration files for workloads and simulation settings.

The file format, its sections, keys and schedule expressions, is the
user's contract, written once in README.md's "Config file format".

The settings of the [governor] and [power_model] sections, GovernorConfig
and PowerModel, are defined here with the governor's policy names
POLICIES, so that loading a config imports no layer past trace.
"""

from __future__ import annotations

import configparser
import math
import sys
from typing import NamedTuple

import numpy as np

from .trace import (DEFAULT_FREQ_TABLE, DEFAULT_PERIOD_MS, AffineMap, CounterModel,
                    FrequencyTable, HashNoiseMap, PiecewiseLinearMap, WorkloadSpec,
                    checked_tuple)


POLICIES = ("rls", "oracle", "ondemand")


class PowerModel(checked_tuple("PowerModel", "p_static p_dyn_coeff p_idle")):
    """Watts: p_static + p_dyn_coeff * (f_ghz)^3 while active, p_idle while idle."""

    __slots__ = ()

    def __new__(cls, p_static: float = 0.5,
                p_dyn_coeff: float = 8.0,       # W per GHz^3
                p_idle: float = 0.2):
        for name, value in zip(cls._fields, (p_static, p_dyn_coeff, p_idle)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        return super().__new__(cls, p_static, p_dyn_coeff, p_idle)

    def active_power(self, f_mhz: float) -> float:
        return self.p_static + self.p_dyn_coeff * (f_mhz / 1000.0) ** 3


class GovernorConfig(checked_tuple("GovernorConfig", "fps_target period up_threshold "
                                   "down_threshold warmup_intervals")):
    """The [governor] section: the frame-rate target, the decision period,
    ondemand's utilization thresholds and the rls policy's warm-up at the
    top level."""

    __slots__ = ()

    def __new__(cls, fps_target: float = 60.0,
                period: float = DEFAULT_PERIOD_MS,
                up_threshold: float = 0.8,
                down_threshold: float = 0.3,
                warmup_intervals: int = 10):    # rls policy holds max frequency this long
        if not 0 < down_threshold < up_threshold <= 1:
            raise ValueError("need 0 < down_threshold < up_threshold <= 1")
        for name, value in (("fps_target", fps_target), ("period", period)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if warmup_intervals < 0:
            raise ValueError(f"warmup_intervals must be >= 0, got {warmup_intervals}")
        return super().__new__(cls, fps_target, period, up_threshold, down_threshold,
                               warmup_intervals)

    @property
    def frame_budget_ms(self) -> float:
        return 1000.0 / self.fps_target

    @property
    def frames_per_interval(self) -> int:
        return max(1, round(self.period / self.frame_budget_ms))


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
            args = [float(v) for v in text.split(",") if v.strip()]
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
    """Sweep complexities: either 'lo:hi' inclusive integers or a comma list
    of finite numbers."""
    text = text.strip()
    try:
        if ":" in text:
            lo, hi = (int(p) for p in text.split(":"))
            return tuple(float(c) for c in range(lo, hi + 1))
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ValueError(f"bad complexities {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"bad complexities {text!r}: values must be finite")
    return values


def _number(section, key: str, default: float, where: str) -> float:
    """section[key] as a finite float, default where the key is absent."""
    raw = section.get(key, default)
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{where}: {key} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{where}: {key} must be finite, got {raw!r}")
    return value


def _integer(section, key: str, default: int, where: str) -> int:
    """section[key] as an int, default where the key is absent."""
    raw = section.get(key, default)
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{where}: {key} must be an integer, got {raw!r}") from None


def _set(cp, name: str, keys) -> dict:
    """Keyword arguments of the (field, key, parse) keys [name] sets; others keep defaults."""
    section = cp[name] if name in cp else {}
    return {field: parse(section, key, None, f"[{name}]") for field, key, parse in keys
            if key in section}


def _parse_points(text: str, where: str):
    pts = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        c, _, v = chunk.partition(":")
        try:
            point = (float(c), float(v))
        except ValueError:
            raise ValueError(f"{where}: piecewise points must be numbers, "
                             f"got {chunk!r}") from None
        if not all(map(math.isfinite, point)):
            raise ValueError(f"{where}: piecewise points must be finite, got {chunk!r}")
        pts.append(point)
    return tuple(pts)


def _parse_response(section, where: str, kind_key: str = "kind"):
    kind = section.get(kind_key, "affine").strip().lower()
    if kind == "piecewise":
        if "points" not in section:
            raise ValueError(f"{where}: piecewise map needs points")
        points = _parse_points(section["points"], where)
        try:
            return PiecewiseLinearMap(points)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    if kind == "affine":
        return AffineMap(_number(section, "slope", 0.0, where),
                         _number(section, "intercept", 0.0, where))
    raise ValueError(f"{where}: unknown map kind {kind!r}")


def _parse_counter(name: str, section) -> tuple[str, CounterModel]:
    """The counter's kind, "dep" or "indep" (a noise counter is indep), and model."""
    kind = section.get("kind", "indep").strip().lower()
    if kind == "noise":
        where = f"counter {name}"
        response = HashNoiseMap(amplitude=_number(section, "amplitude", 1.0, where),
                                salt=_number(section, "salt", 0.0, where))
        return "indep", CounterModel(name=name, response=response)
    if kind not in ("dep", "indep"):
        raise ValueError(f"counter {name}: unknown kind {kind!r}")
    # the counter's map shape comes from its `response` key (default affine)
    return kind, CounterModel(name=name,
                              response=_parse_response(section, f"counter {name}",
                                                       kind_key="response"))


def load_config(path) -> ConfigBundle:
    """Read a config file, UTF-8 with or without a byte-order mark, into a
    validated bundle of simulation inputs; each error names the file."""
    # no interpolation: a % in a value is literal, and a number check rejects it
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(str(path), encoding="utf-8-sig")
    except (configparser.Error, UnicodeDecodeError) as exc:
        # a parser message spans lines; the error is reported on one
        raise ValueError(f"bad config {path}: {' '.join(str(exc).split())}") from None
    if not read:
        raise ValueError(f"cannot read config file {path}")

    try:
        if "frequency_table" in cp:
            raw = cp["frequency_table"].get("freqs_mhz", "")
            try:
                freqs = tuple(float(v) for v in raw.split(",") if v.strip())
            except ValueError:
                raise ValueError(f"[frequency_table]: freqs_mhz must be numbers, "
                                 f"got {raw!r}") from None
            table = FrequencyTable(freqs)
        else:
            table = DEFAULT_FREQ_TABLE

        if "workload" not in cp:
            raise ValueError("missing [workload] section")
        w = cp["workload"]
        if "scalable_ms" not in cp or "unscalable_ms" not in cp:
            raise ValueError("missing [scalable_ms] or [unscalable_ms] section")

        dep, indep = [], []
        for section in cp.sections():
            if section.startswith("counter."):
                kind, cm = _parse_counter(section[len("counter."):], cp[section])
                (dep if kind == "dep" else indep).append(cm)

        workload = WorkloadSpec(
            complexity_schedule=parse_schedule(w.get("complexity_schedule", "")),
            scalable_ms=_parse_response(cp["scalable_ms"], "[scalable_ms]"),
            unscalable_ms=_parse_response(cp["unscalable_ms"], "[unscalable_ms]"),
            ref_freq=_number(w, "ref_freq_mhz", table.freqs_mhz[0], "[workload]"),
            dep_counters=tuple(dep),
            indep_counters=tuple(indep),
            **_set(cp, "workload", [("noise_sigma", "noise_sigma", _number)]),
        )

        if "characterization" in cp:
            ch = cp["characterization"]
            raw = ch.get("complexities", "1:64")
            complexities = parse_complexities(raw)
            if not complexities:
                raise ValueError(f"[characterization]: complexities must not be empty, "
                                 f"got {raw!r}")
            repeats = _integer(ch, "repeats", 10, "[characterization]")
            if repeats < 1:
                raise ValueError(f"[characterization]: repeats must be at least 1, "
                                 f"got {repeats}")
        else:
            complexities, repeats = (), 1

        governor = GovernorConfig(**_set(cp, "governor", [
            ("fps_target", "fps_target", _number), ("period", "period_ms", _number),
            ("up_threshold", "up_threshold", _number),
            ("down_threshold", "down_threshold", _number),
            ("warmup_intervals", "warmup_intervals", _integer)]))
        power = PowerModel(**_set(cp, "power_model", [
            ("p_static", "p_static_w", _number), ("p_dyn_coeff", "p_dyn_w_per_ghz3", _number),
            ("p_idle", "p_idle_w", _number)]))
        # each coefficient may be finite while a period's or the run's energy is not;
        # a Python float ** raises OverflowError where * gives inf
        top, n = table.freqs_mhz[-1], len(workload.complexity_schedule)
        try:
            peak = max(power.active_power(top), power.p_idle) * governor.period
        except OverflowError:
            peak = math.inf
        if not (math.isfinite(peak) and math.isfinite(peak / 1000.0 * n)):
            raise ValueError(f"[power_model]: energy over {n} intervals of "
                             f"{governor.period!r} ms at up to {top!r} MHz must be finite")
    except ValueError as exc:
        raise ValueError(f"bad config {path}: {exc}") from None

    return ConfigBundle(workload=workload, freq_table=table,
                        characterization_complexities=complexities,
                        characterization_repeats=repeats,
                        governor=governor, power_model=power)
