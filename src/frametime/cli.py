"""Command-line pipeline: generate, select, replay, probe, govern.

Commands

  characterize     write a synthetic characterization sweep trace
  select-features  prune and L1-select counters from a trace
  replay           stream a trace through an online estimator
  sensitivity      what-if frequency deltas and the frame-time derivative
  govern           closed-loop DVFS policy simulation

Exit codes: 0 success, 2 input error, 3 degenerate data, 4 spec/trace
mismatch.  Every command is deterministic given its flags (characterize
and govern take --seed); all output tables are comma separated with a
header row.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import sys
from itertools import chain
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import POLICIES, ConfigBundle, load_config
from .trace import (DEFAULT_PERIOD_MS, DegenerateDataError, SpecMismatchError, Trace,
                    frame_times, generate_characterization, generate_runtime, parse_trace,
                    serialize_trace, sweep_complexities, workload_columns)


def _layer(name: str):
    """The package module `name`, in sys.modules from now on but executed
    only when it is imported or one of its attributes is looked up.

    Registering it keeps the module findable by name, as by code that wraps
    a layer's functions in place, before any command has used it.  The
    layers each command executes are pinned by
    tests/test_cli.py::TestModuleFootprint.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


features = _layer("features")
estimator = _layer("estimator")
model = _layer("model")
governor = _layer("governor")

EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_MISMATCH = 4

DEFAULT_SEED = 42
CONVERGENCE_WINDOW = 5
CONVERGENCE_THRESHOLD = 10.0  # percent APE


# ---------------------------------------------------------------------------
# Metrics

class MetricsReport(NamedTuple):
    mape: float                    # percent
    median_ape: float              # percent
    nrmse: float                   # percent of the actual range
    convergence_time_ms: float     # inf if the error never settles
    excluded_terms: int            # zero-actual points dropped from APE


def _ape(actual, predicted):
    """Absolute percentage error of each prediction, nan where the actual is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(actual != 0, np.abs(actual - predicted) / np.abs(actual) * 100.0,
                        np.nan)


def compute_metrics(actual, predicted) -> MetricsReport:
    """Accuracy summary of a prediction series against its reference.

    APE terms with a zero actual value are excluded and counted.  The
    convergence time, in ms of DEFAULT_PERIOD_MS intervals, is the first
    interval from which the trailing CONVERGENCE_WINDOW-interval mean APE
    stays below CONVERGENCE_THRESHOLD percent for the rest of the series.
    """
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape or actual.ndim != 1 or actual.size == 0:
        raise ValueError("need equal-length non-empty series")
    ape = _ape(actual, predicted)
    nonzero = actual != 0
    excluded = int(np.count_nonzero(~nonzero))
    finite_ape = ape[nonzero]
    mape = float(finite_ape.mean()) if finite_ape.size else float("inf")
    # np.median bit for bit, without the numpy.ma import of its nan check:
    # nan if any term is (sorted last), else the middle term or the mean of
    # the middle pair
    median = float("inf")
    if finite_ape.size:
        ranked = np.sort(finite_ape)
        mid = ranked.size // 2
        if np.isnan(ranked[-1]):
            median = float(ranked[-1])
        elif ranked.size % 2:
            median = float(ranked[mid])
        else:
            median = (float(ranked[mid - 1]) + float(ranked[mid])) / 2.0

    rmse = float(np.sqrt(np.mean((actual - predicted) ** 2)))
    spread = float(actual.max() - actual.min())
    if spread > 0:
        nrmse = rmse / spread * 100.0
    else:
        nrmse = 0.0 if rmse == 0 else float("inf")

    # zero padding sums each window in order, equal to slice means bitwise;
    # a running cumsum would let one inf term make every later mean nan.
    # A window holding a zero actual's nan term does not settle.
    padded = np.concatenate([np.zeros(CONVERGENCE_WINDOW - 1), ape])
    rolling = (sliding_window_view(padded, CONVERGENCE_WINDOW).sum(axis=1)
               / np.minimum(np.arange(1, ape.size + 1), CONVERGENCE_WINDOW))
    # settled from one past the last interval not below the threshold
    not_below = np.flatnonzero(~(rolling < CONVERGENCE_THRESHOLD))
    settle = int(not_below[-1]) + 1 if not_below.size else 0
    conv = settle * DEFAULT_PERIOD_MS if settle < ape.size else float("inf")
    return MetricsReport(mape=mape, median_ape=median, nrmse=nrmse,
                         convergence_time_ms=conv, excluded_terms=excluded)


# ---------------------------------------------------------------------------
# Replay driver

ROW_FIELDS = ("k", "f_k", "t_actual", "t_pred", "abs_pct_err", "dtf_df")


class ReplayResult(NamedTuple):
    rows: np.recarray             # a record per prediction, fields ROW_FIELDS; t_pred
                                  # anchors dtf_df and the what-ifs; nan abs_pct_err
                                  # at t_actual 0, nan dtf_df for AR
    report: MetricsReport
    coefs: np.ndarray | None      # (rows, M) coefficients each row was predicted
                                  # with; None for the AR baseline


def _replay_result(trace: Trace, k, predicted, dtf, coefs) -> ReplayResult:
    """Rows for the intervals k predicted as `predicted`, and their metrics."""
    actual = trace.frame_times[k]
    rows = np.rec.fromarrays([k, trace.freqs[k], actual, predicted, _ape(actual, predicted),
                              dtf], names=ROW_FIELDS)
    return ReplayResult(rows, compute_metrics(actual, predicted), coefs)


def _replay_adaptive(trace: Trace, fspec: features.FeatureSpec, algo: str):
    dataset = features.build_dataset(trace, fspec)
    counters = trace.counters[:, list(fspec.indep_counter_indices)]
    # the dataset holds finite entries only, and units >= 1 keep them
    # finite, so the steps, which check nothing, may take its rows
    h = dataset.h / estimator.estimator_units(counters)[1:]
    if algo == "rls":
        init, step = estimator.rls_init, estimator.rls_step
    else:
        init, step = estimator.dcd_rls_init, estimator.dcd_step
    # rls skips the rows with no excitation (estimator.rls_step's zero-row
    # identity), whose prediction h'a is 0, or nan once a is not finite;
    # dcd steps on every row (estimator.dcd_step says why)
    moves = h.any(axis=1) if algo == "rls" else np.ones(len(h), dtype=bool)
    a, *carry = init(fspec.m)
    coefs = np.empty_like(h)
    deltas = np.zeros(len(h))
    for i, (target, move) in enumerate(zip(dataset.targets.tolist(), moves.tolist())):
        coefs[i] = a
        if move:
            a, *carry, deltas[i] = step(a, *carry, h[i], target)
    deltas[~moves & ~np.isfinite(coefs).all(axis=1)] = np.nan

    # row k's prediction is its frame time at f_k, so the derivative and
    # the what-ifs start from it
    predicted = np.maximum(trace.frame_times[:-1] + deltas, 0.0)
    dtf = model.frequency_sensitivity(coefs, predicted, trace.freqs[1:])
    return _replay_result(trace, np.arange(1, len(trace)), predicted, dtf, coefs)


def _replay_arlms(trace: Trace, fspec: features.FeatureSpec | None):
    order = estimator.ARLMS_ORDER
    t = trace.frame_times
    # interval k is predicted from the `order` frame times before it, and
    # only a full history makes a prediction
    k = np.arange(order, len(trace))
    if not k.size:
        raise DegenerateDataError("trace too short for the AR baseline")
    if fspec is not None:
        features.check_spec(trace, fspec)
    predicted = np.empty(k.size)
    w = np.zeros(order)
    for i, (hist, t_k) in enumerate(zip(sliding_window_view(t, order), t[k].tolist())):
        w, predicted[i] = estimator.arlms_step(w, hist, t_k)
    return _replay_result(trace, k, predicted, np.full(k.size, np.nan), None)


def run_replay(trace: Trace, fspec: features.FeatureSpec | None, algo: str) -> ReplayResult:
    """Stream a trace through one estimator, one prediction per interval.

    The adaptive algorithms predict each interval with the coefficients
    held before consuming it, so rows are honest one-step-ahead errors;
    those coefficients come back as ReplayResult.coefs.  The AR baseline
    emits rows only once its history is full, and ignores a given spec
    once features.check_spec finds that it fits the trace.
    """
    if algo in ("rls", "dcd"):
        if fspec is None:
            raise ValueError(f"--spec is required for --algo {algo}")
        return _replay_adaptive(trace, fspec, algo)
    if algo == "arlms":
        return _replay_arlms(trace, fspec)
    raise ValueError(f"unknown algo {algo!r}")


# ---------------------------------------------------------------------------
# Commands

def _load_trace(path, bundle: ConfigBundle | None):
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return parse_trace(fh, freq_table=bundle.freq_table if bundle else None)
    except UnicodeDecodeError as exc:
        raise ValueError(f"trace {path}: {exc}") from None


def cmd_characterize(args) -> int:
    bundle = load_config(args.config)
    if args.mode == "sweep":
        if not bundle.characterization_complexities:
            raise ValueError("config has no [characterization] section")
        trace = generate_characterization(bundle.workload, bundle.freq_table,
                                          bundle.characterization_complexities,
                                          bundle.characterization_repeats, args.seed)
    else:
        # runtime mode: the workload's own schedule under a wandering clock
        from .workloads import random_walk_freqs
        # an empty schedule draws no clock, and workload_columns rejects it
        n = len(bundle.workload.complexity_schedule)
        freqs = random_walk_freqs(bundle.freq_table, n, args.seed)
        trace = generate_runtime(bundle.workload, bundle.freq_table, freqs, args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(serialize_trace(trace))
    print(f"wrote {len(trace)} rows to {args.out}")
    return 0


def cmd_select_features(args) -> int:
    bundle = load_config(args.config) if args.config else None
    trace = _load_trace(args.trace, bundle)
    kept = features.pearson_prune(trace)
    candidate = features.FeatureSpec(
        indep_counter_indices=tuple(kept),
        counter_names=tuple(trace.counter_names[i] for i in kept))
    path = features.cross_validated_path(features.build_dataset(trace, candidate))
    print("eta,cv_mean_mse,cv_stderr,nonzero_features")
    for i in range(path.etas.size):
        print(f"{path.etas[i]:.6g},{path.cv_mean_mse[i]:.6g},"
              f"{path.cv_stderr[i]:.6g},{path.nonzero_counts[i]}")
    spec = features.select_features(path, rule=args.rule)
    features.save_feature_spec(spec, args.out)
    print(f"selected {spec.m} features "
          f"(2 frequency terms + counters {list(spec.indep_counter_indices)})")
    return 0


def _column(values, conversion: str, blank=None) -> tuple[str, list]:
    """One CSV column as (printf conversion, cells).

    Cells where the boolean array blank is set come out empty; such a
    column is formatted here, any other one with the whole table.
    """
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if blank is None or not np.any(blank):
        return conversion, values
    return "%s", ["" if empty else conversion % v for v, empty in zip(values, blank.tolist())]


def _write_csv(path, header, columns, tail=()) -> None:
    """Write a header row, the rows of equal-length _column columns, then
    the ready-made lines of tail; the rows are one printf-style format."""
    row = ",".join(conversion for conversion, _ in columns) + "\n"
    cells = tuple(chain.from_iterable(zip(*(cells for _, cells in columns))))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((row * (len(cells) // len(columns))) % cells)
        fh.write("".join(line + "\n" for line in tail))


def cmd_replay(args) -> int:
    bundle = load_config(args.config) if args.config else None
    trace = _load_trace(args.trace, bundle)
    fspec = features.load_feature_spec(args.spec) if args.spec else None
    result = run_replay(trace, fspec, args.algo)
    rows = result.rows
    _write_csv(args.out, ROW_FIELDS,
               [_column(rows.k, "%d"), _column(rows.f_k, "%g"),
                _column(rows.t_actual, "%.8g"), _column(rows.t_pred, "%.8g"),
                _column(rows.abs_pct_err, "%.6g", np.isnan(rows.abs_pct_err)),
                _column(rows.dtf_df, "%.8g", np.isnan(rows.dtf_df))])
    rep = result.report
    print(f"rows={len(result.rows)} mape={rep.mape:.3f}% median_ape={rep.median_ape:.3f}% "
          f"nrmse={rep.nrmse:.3f}% convergence_ms={rep.convergence_time_ms:g} "
          f"excluded={rep.excluded_terms}")
    return 0


def cmd_sensitivity(args) -> int:
    if args.jumps < 1:
        raise ValueError(f"--jumps must be >= 1, got {args.jumps}")
    bundle = load_config(args.config) if args.config else None
    trace = _load_trace(args.trace, bundle)
    fspec = features.load_feature_spec(args.spec)
    result = run_replay(trace, fspec, "rls")

    max_span = len(trace.freq_table) - 1
    jumps = args.jumps
    if jumps > max_span:
        print(f"warning: --jumps {jumps} exceeds the table span, clipped to {max_span}",
              file=sys.stderr)
        jumps = max_span

    rows, n = result.rows, len(result.rows)
    level, valid, delta = model.what_if(result.coefs, rows.t_pred, rows.f_k,
                                        trace.freq_table, jumps)
    header = ["k", "f_k", "dtf_df"]
    for j in range(1, jumps + 1):
        header += [f"delta_up{j}", f"delta_down{j}"]
    _write_csv(args.out, header,
               [_column(rows.k, "%d"), _column(rows.f_k, "%g"), _column(rows.dtf_df, "%.8g"),
                *(_column(d, "%.8g", ~ok) for d, ok in zip(delta.reshape(-1, n),
                                                            valid.reshape(-1, n)))])
    print(f"wrote {n} sensitivity rows to {args.out}")

    if bundle is not None:
        _sensitivity_summary(trace, bundle, result, level, valid, delta)
    return 0


def _sample_complexities(trace, bundle):
    """Per-sample complexity when the trace shape matches the config.

    Sweep traces are recognized by the row count of the config's sweep,
    runtime traces by matching the workload's own schedule length.  Returns
    None when the trace cannot be tied back to the analytic workload.
    """
    if bundle.characterization_complexities:
        c = sweep_complexities(bundle.characterization_complexities,
                               bundle.characterization_repeats, len(bundle.freq_table))
        if len(trace) == c.size:
            return c
    schedule = bundle.workload.complexity_schedule
    if schedule and len(trace) == len(schedule):
        return np.array(schedule, dtype=float)
    return None


def _sensitivity_summary(trace, bundle, result, level, valid, delta):
    """Accuracy against the analytic reference, when the trace allows it.

    The comparisons only use rows past a warmup whose workload did not
    change from the previous interval, mirroring a repeated-frame
    measurement; the derivative is scored on every such row, the what-ifs
    on those whose candidate level is on the table.
    """
    c = _sample_complexities(trace, bundle)
    if c is None:
        print("trace does not match the config workload; no reference summary")
        return

    spec = bundle.workload
    c_k = c[1:]
    columns = workload_columns(spec, c_k)
    steady = c_k == c[:-1]
    steady[:min(100, len(result.rows) // 4)] = False  # warmup
    if np.count_nonzero(steady) >= 2:
        f_k = result.rows.f_k[steady]
        ref = -columns[steady, 0] * spec.ref_freq_mhz / (f_k * f_k)
        rep = compute_metrics(ref, result.rows.dtf_df[steady])
        print(f"derivative_nrmse={rep.nrmse:.3f}% derivative_mape={rep.mape:.3f}% "
              f"over {ref.size} steady rows")

    truth = frame_times(spec, columns, np.asarray(trace.freq_table.freqs_mhz)[level])
    scored = valid & steady & (truth > 0)
    ape = _ape(truth, result.rows.t_pred + delta)
    for j in range(len(level)):
        # each row's terms, up then down, in row order
        apes = ape[j].T[scored[j].T]
        if apes.size:
            print(f"jump={j + 1} candidate_mape={float(np.mean(apes)):.3f}% "
                  f"({apes.size} predictions)")


def cmd_govern(args) -> int:
    bundle = load_config(args.config)
    policies = POLICIES if args.policy == "all" else (args.policy,)
    world = governor.realize(bundle.workload, bundle.freq_table, seed=args.seed)
    runs = [governor.simulate(policy, world, bundle.governor, bundle.power_model)
            for policy in policies]
    summary = [f"summary,{r.policy},,,{r.total_energy:.8g},{r.fps_violations}" for r in runs]
    _write_csv(args.out, ["k", "policy", "f_mhz", "t_frame_ms", "energy_j", "violation"],
               [_column(np.concatenate([np.arange(r.freqs.size) for r in runs]), "%d"),
                _column([r.policy for r in runs for _ in range(r.freqs.size)], "%s"),
                *(_column(np.concatenate([getattr(r, name) for r in runs]), fmt)
                  for name, fmt in (("freqs", "%g"), ("frame_ms", "%.8g"),
                                    ("energies", "%.8g"), ("violations", "%d")))],
               summary)
    for r in runs:
        print(f"{r.policy}: energy={r.total_energy:.6g} J violations={r.fps_violations}")
    if args.policy == "all":
        base = runs[POLICIES.index("oracle")].total_energy
        if base > 0:
            for r in runs:
                print(f"{r.policy}: normalized_energy={r.total_energy / base:.4f}")
    return 0


# ---------------------------------------------------------------------------
# Entry point

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused."""
    parser = argparse.ArgumentParser(prog="frametime", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="generate a characterization sweep trace")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("sweep", "runtime"), default="sweep",
                   help="sweep: full factorial; runtime: workload schedule "
                        "under a random-walk frequency")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("select-features", help="prune and select online features")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rule", choices=("min_mse", "one_se"), default="min_mse")
    p.add_argument("--config")

    p = sub.add_parser("replay", help="stream a trace through an online estimator")
    p.add_argument("--trace", required=True)
    p.add_argument("--spec")
    p.add_argument("--algo", choices=("rls", "dcd", "arlms"), default="rls")
    p.add_argument("--out", required=True)
    p.add_argument("--config")

    p = sub.add_parser("sensitivity", help="frequency what-if deltas and derivatives")
    p.add_argument("--trace", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jumps", type=int, default=1)
    p.add_argument("--config")

    p = sub.add_parser("govern", help="closed-loop DVFS policy simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--policy", choices=POLICIES + ("all",), default="all")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return parser


def main(argv=None) -> int:
    """Run the command argv (else sys.argv[1:]) names and return its exit code.

    main alone maps an error to its code: DegenerateDataError is 3 and
    SpecMismatchError 4, each raised by the layer that needs the data, and
    any other ValueError or OSError is 2.  A flag the parser rejects exits
    2 through argparse's SystemExit.  The command's function is found by
    name on each call, so a function rebound in the module since the
    parser was built, as by code that wraps it in place, is the one run.
    """
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DegenerateDataError):
            return EXIT_DEGENERATE
        return EXIT_MISMATCH if isinstance(exc, SpecMismatchError) else EXIT_INPUT

