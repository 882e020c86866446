"""Benchmark of the frametime CLI walkthrough, end to end and per module.

    python3 perfbench/run.py --workload {select,replay,govern} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root.  It builds nothing: the package is
imported from src/.  One pass runs a workload's walkthrough commands for
one seed (pass i uses seed N * 1000 + i), and every pass's outputs are
checked.  The run pins itself to one CPU.

--trace 0 times a fresh interpreter importing the package and loading the
configs, then passes in-process through frametime.cli.main for half of S
seconds, then the same passes as `python -m frametime` subprocesses for
the other half.  Times are rescaled to a reference CPU speed sampled on
the same CPU while they ran (speed.py); raw times are in the detail record.

--trace 1 runs traced passes for half of S seconds (or until the span
budget is spent), then untraced passes of the same seeds for the rest, and
reports per-layer figures from the spans.

The last line of stdout is the result JSON; the line before it is a
detail record: environment, sample counts, tail percentiles, accuracy
figures, problems and the layer -> metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from passes import WORKLOADS, output_differences, run_inprocess, run_subprocess
from spans import Tracer, instrument, self_times
from speed import NOMINAL_S, SpeedSampler, speed_factor
from stats import summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
SCRATCH = ROOT / ".perfbench_tmp"
SPANS_DIR = ROOT / ".perfbench_out"

# One BLAS/OpenMP thread: the run is pinned to one CPU, and in-process and
# subprocess passes then do the same work.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
FRESH_PROCESSES = 8
SPAN_BUDGET = 300_000       # stop adding traced passes past this many spans
SEED_STRIDE = 1000

LAYERS = ("config", "trace", "features", "estimator", "model", "governor", "cli")

# Which end-to-end metric each per-layer metric should move, on which workload.
LAYER_MAP = {
    "features.*": "select.wall_s and select.cli_s; nothing on replay or govern",
    "trace.*": "replay.wall_s and replay.peak_rss_mb; a small share of select",
    "estimator.*": "replay.wall_s (4 x 2,399 updates a seed) and govern.wall_s "
                   "(600 per rls run); never the accuracy figures",
    "model.*": "govern.wall_s (9 candidate calls per rls interval) and "
               "replay.wall_s (sensitivity)",
    "cli.*": "replay.wall_s (per-command spans, replay self time, metrics)",
    "governor.*": "govern.wall_s only",
    "process.import_s, config.load_ms": "cli_s and setup_s on every workload, "
                                        "most on govern",
    "accuracy.*": "nothing: fixed for a seed, guards against buying speed with accuracy",
}

FRESH_SNIPPET = """
import json, sys, time
t0 = time.perf_counter()
import frametime.cli
from frametime.config import load_config
t1 = time.perf_counter()
for path in sys.argv[1:]:
    load_config(path)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
"""

ACCURACY_KEYS = ("cv_mse", "rls_mape_pct", "dcd_mape_pct", "whatif_mape_pct",
                 "deriv_nrmse_pct", "energy_vs_oracle")


def _pass_seed(base: int, i: int) -> int:
    return base * SEED_STRIDE + i


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _environment(np) -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
            "src_lines": src_lines, "machine": platform.machine()}


def fresh_processes(configs, env, n: int = FRESH_PROCESSES) -> list[dict]:
    """Import time and config load time, each in a new interpreter."""
    out = []
    for _ in range(n):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", FRESH_SNIPPET, *map(str, configs)],
                              env=env, capture_output=True, text=True, timeout=60,
                              check=True)
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append({**sample, "start": start, "end": time.perf_counter()})
    return out


def _run_passes(runner, workload, base_seed, scratch: Path, tag: str, window: float,
                min_passes: int, more=lambda: True):
    """Passes for `window` seconds (at least min_passes); pass 0 keeps its own dir."""
    results = []
    t0 = time.perf_counter()
    while len(results) < min_passes or (time.perf_counter() - t0 < window and more()):
        i = len(results)
        workdir = scratch / (f"{tag}0" if i == 0 else tag)
        results.append(runner(workload, _pass_seed(base_seed, i), workdir))
    return results


def _accuracy(workload, results) -> dict[str, float]:
    first = [r.accuracy for r in results[:workload.min_passes] if r.accuracy]
    if not first:
        return {}
    return {k: statistics.median(a[k] for a in first) for k in first[0]}


def _scaled(results, loops) -> list[float]:
    """Pass times rescaled to the reference loop speed (see speed.py)."""
    return [r.seconds * speed_factor(r.start, r.start + r.seconds, loops) for r in results]


def _problems(results) -> list[str]:
    return [f"seed {r.seed}: {p}" for r in results for p in r.problems]


def timed_run(cli, workload, args, scratch: Path, env) -> tuple[dict, dict]:
    configs = [CONFIGS / c for c in workload.configs]
    window = args.seconds / 2
    with SpeedSampler() as sampler:
        fresh = fresh_processes(configs, env)
        inproc = _run_passes(lambda w, s, d: run_inprocess(cli, w, s, d, CONFIGS),
                             workload, args.seed, scratch, "inproc", window,
                             workload.min_passes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        subproc = _run_passes(lambda w, s, d: run_subprocess(w, s, d, CONFIGS, env),
                              workload, args.seed, scratch, "cli", window, 1)
    loops = sampler.samples

    a, b = inproc[0], subproc[0]
    diffs = output_differences(workload, scratch / "inproc0", a.stdouts,
                               scratch / "cli0", b.stdouts)
    if diffs:
        b.problems.append(f"in-process and subprocess outputs differ: {diffs}")

    setup = [(f["import_s"] + f["load_s"]) * speed_factor(f["start"], f["end"], loops)
             for f in fresh]
    wall, cli_wall = _scaled(inproc, loops), _scaled(subproc, loops)
    passes = inproc + subproc
    failed = sum(1 for r in passes if r.problems)
    accuracy = _accuracy(workload, inproc)
    metrics = {
        "wall_s": (statistics.median(wall), "s"),
        "cli_s": (statistics.median(cli_wall), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if "error_ratio" in accuracy:
        metrics["error_ratio"] = (accuracy.pop("error_ratio"), "ratio")
    detail = {
        "wall_s": summarize(wall),
        "cli_s": summarize(cli_wall),
        "setup_s": summarize(setup),
        "raw_wall_s": summarize(r.seconds for r in inproc),
        "raw_cli_s": summarize(r.seconds for r in subproc),
        "raw_setup_s": summarize(f["import_s"] + f["load_s"] for f in fresh),
        "host_speed": summarize(NOMINAL_S / d for _, d in loops),
        "error_rate": failed / len(passes),
        "identical_outputs": not diffs,
        "accuracy": accuracy,
        "problems": _problems(passes)[:20],
    }
    return detail, {"attempted": len(passes), "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# Traced run

def _policy_label(args, kwargs):
    return args[0] if args else kwargs["policy"]


def _rows(key):
    return lambda tracer, args, result: tracer.count(key, len(result))


OBSERVERS = {
    "features.pearson_prune": lambda t, a, r: (t.count("features.kept", len(r)),
                                               t.count("features.counters",
                                                       len(a[0].counter_names))),
    "features.select_features": lambda t, a, r: t.count("features.selected",
                                                        len(r.indep_counter_indices)),
    "trace.generate_characterization": _rows("trace.generated_rows"),
    "trace.generate_runtime": _rows("trace.generated_rows"),
    "trace.parse_trace": _rows("trace.parsed_rows"),
    "trace.serialize_trace": lambda t, a, r: t.count("trace.serialized_rows", len(a[0])),
    "cli.run_replay": lambda t, a, r: t.count("cli.replayed_rows", len(r.rows)),
    "governor.simulate": lambda t, a, r: (
        t.count(f"governor.intervals[{_policy_label(a, {})}]", len(r.energies)),
        t.count("governor.violations", r.fps_violations)),
}
LABELS = {"governor.simulate": _policy_label}


def layer_metrics(tracer: Tracer, traced_walls) -> dict[str, float]:
    """Per-layer figures from the spans of the traced passes."""
    n_pass = len(traced_walls)
    own = self_times(tracer.start, tracer.end, tracer.parent)
    calls, incl, excl = Counter(), defaultdict(float), defaultdict(float)
    per_pass = defaultdict(float)
    calls0 = Counter()
    layer_self = defaultdict(float)
    for i in range(len(tracer)):
        name = tracer.span_name(i)
        dur = tracer.end[i] - tracer.start[i]
        calls[name] += 1
        incl[name] += dur
        excl[name] += own[i]
        per_pass[(tracer.pass_id[i], name)] += dur
        layer_self[name.split(".", 1)[0]] += own[i]
        if tracer.pass_id[i] == 0:
            calls0[name] += 1

    def per_call(name, scale=1e6):
        return incl[name] / calls[name] * scale if calls[name] else 0.0

    def per_unit(seconds, units, scale=1e6):
        return seconds / units * scale if units else 0.0

    def pass_median(name, scale=1.0):
        return statistics.median(per_pass[(p, name)] for p in range(n_pass)) * scale

    def total(key):
        return sum(v for (p, k), v in tracer.counts.items() if k == key)

    def first(key):
        return tracer.counts.get((0, key), 0)

    generate = incl["trace.generate_characterization"] + incl["trace.generate_runtime"]
    m = {
        "features.cv_path_s": pass_median("features.cross_validated_path"),
        "features.prune_ms": pass_median("features.pearson_prune", 1e3),
        "features.dataset_ms": pass_median("features.build_dataset", 1e3),
        "features.kept_ratio": per_unit(first("features.kept"), first("features.counters"), 1),
        "features.selected_ratio": per_unit(first("features.selected"),
                                            first("features.kept"), 1),
        "trace.generate_us_per_row": per_unit(generate, total("trace.generated_rows")),
        "trace.serialize_us_per_row": per_unit(incl["trace.serialize_trace"],
                                               total("trace.serialized_rows")),
        "trace.parse_us_per_row": per_unit(incl["trace.parse_trace"],
                                           total("trace.parsed_rows")),
        "trace.rows": first("trace.generated_rows"),
        "estimator.rls_update_us": per_call("estimator.rls_update"),
        "estimator.dcd_update_us": per_call("estimator.dcd_rls_update"),
        "estimator.arlms_update_us": per_call("estimator.arlms_update"),
        "estimator.updates": sum(calls0[f"estimator.{f}"] for f in
                                 ("rls_update", "dcd_rls_update", "arlms_update")),
        "model.candidate_delta_us": per_call("model.candidate_delta"),
        "model.candidate_calls": calls0["model.candidate_delta"],
        "model.lagrange_us": per_call("model.sensitivity_lagrange"),
        "model.two_point_ratio": per_unit(calls0["model.sensitivity_two_point"],
                                          calls0["model.sensitivity_lagrange"], 1),
        "cli.characterize_s": pass_median("cli.cmd_characterize"),
        "cli.select_s": pass_median("cli.cmd_select_features"),
        "cli.replay_s": pass_median("cli.cmd_replay"),
        "cli.sensitivity_s": pass_median("cli.cmd_sensitivity"),
        "cli.govern_s": pass_median("cli.cmd_govern"),
        "cli.replay_us_per_row": per_unit(excl["cli.run_replay"], total("cli.replayed_rows")),
        "cli.metrics_ms": per_call("cli.compute_metrics", 1e3),
        "governor.policy_step_us": per_call("governor.rls_policy_step"),
        "governor.violations": first("governor.violations"),
    }
    for policy in ("rls", "oracle", "ondemand"):
        m[f"governor.{policy}_interval_us"] = per_unit(
            incl[f"governor.simulate[{policy}]"], total(f"governor.intervals[{policy}]"))
    for layer in (*LAYERS, "bench"):
        key = "bench.harness_self_s" if layer == "bench" else f"{layer}.self_s"
        m[key] = layer_self[layer] / n_pass
    m["bench.accounted_share"] = sum(layer_self.values()) / sum(traced_walls)
    m["bench.spans_per_pass"] = len(tracer) / n_pass
    return m


UNIT_SUFFIXES = (("_ratio", "ratio"), ("_share", "ratio"), ("_pct", "%"),
                 ("per_row", "us/row"), ("_us", "us"), ("_ms", "ms"), ("_s", "s"),
                 ("cv_mse", "ms2"), ("energy_vs_oracle", "ratio"))


def unit_of(name: str) -> str:
    """Per-layer metric unit, from its name's suffix; counts have none."""
    return next((unit for suffix, unit in UNIT_SUFFIXES if name.endswith(suffix)), "count")


def traced_run(cli, workload, args, scratch: Path, env) -> tuple[dict, dict]:
    configs = [CONFIGS / c for c in workload.configs]
    fresh = fresh_processes(configs, env)
    tracer = Tracer()

    def runner(w, seed, workdir):
        tracer.current_pass += 1

        @contextmanager
        def root_span():
            idx = tracer.open(tracer.intern("bench.pass"))
            try:
                yield
            finally:
                tracer.close(idx)
        return run_inprocess(cli, w, seed, workdir, CONFIGS, around=root_span)

    # Traced passes for half the run or until the span budget is spent,
    # then untraced passes of the same seeds for the rest of it.
    with SpeedSampler() as sampler:
        t0 = time.perf_counter()
        restore = instrument(tracer, "frametime", LAYERS, LABELS, OBSERVERS)
        try:
            traced = _run_passes(runner, workload, args.seed, scratch, "traced",
                                 args.seconds / 2, 1,
                                 more=lambda: len(tracer) < SPAN_BUDGET)
        finally:
            restore()
        untraced = _run_passes(lambda w, s, d: run_inprocess(cli, w, s, d, CONFIGS),
                               workload, args.seed, scratch, "plain",
                               args.seconds - (time.perf_counter() - t0),
                               workload.min_passes)
    SPANS_DIR.mkdir(exist_ok=True)
    spans_file = SPANS_DIR / f"spans-{workload.name}.csv"  # one file, overwritten
    tracer.write_csv(spans_file)

    metrics = layer_metrics(tracer, [r.seconds for r in traced])
    traced_s = statistics.median(_scaled(traced, sampler.samples))
    untraced_s = statistics.median(_scaled(untraced, sampler.samples))
    metrics["bench.traced_wall_s"] = traced_s
    metrics["bench.untraced_wall_s"] = untraced_s
    metrics["bench.trace_overhead_s"] = traced_s - untraced_s
    metrics["process.import_s"] = statistics.median(f["import_s"] for f in fresh)
    metrics["config.load_ms"] = statistics.median(
        f["load_s"] for f in fresh) / len(configs) * 1e3
    accuracy = _accuracy(workload, untraced)
    for key in ACCURACY_KEYS:
        metrics[f"accuracy.{key}"] = accuracy.get(key, 0.0)

    passes = untraced + traced
    failed = sum(1 for r in passes if r.problems)
    detail = {
        "untraced_wall_s": summarize(r.seconds for r in untraced),
        "traced_wall_s": summarize(r.seconds for r in traced),
        "error_rate": failed / len(passes),
        "problems": _problems(passes)[:20],
        "spans_file": str(spans_file.relative_to(ROOT)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layer_map": LAYER_MAP,
    }
    out = {k: (v, unit_of(k)) for k, v in metrics.items()}
    return detail, {"attempted": len(passes), "failed": failed, "metrics": out}


# ---------------------------------------------------------------------------

def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    workload = WORKLOADS[args.workload]
    needed = [SRC / "frametime" / "cli.py", *(CONFIGS / c for c in workload.configs)]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a frametime checkout, missing {missing}", file=sys.stderr)
        return 2

    for var in THREAD_VARS:
        os.environ[var] = "1"
    # One CPU for the run, its subprocesses and the speed sampler.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import numpy as np
    import frametime.cli as cli
    import frametime.workloads  # noqa: F401  (imported lazily by characterize)

    env = _child_env()
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=SCRATCH))
    try:
        run = traced_run if args.trace else timed_run
        detail, result = run(cli, workload, args, scratch, env)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": _environment(np), **detail}
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(record))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
