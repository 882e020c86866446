"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload replay --seeds 1 2 3 4 5 [--trace 1]

Spread is (Q3 - Q1) / median of the per-run values, with the quartiles
from statistics.quantiles(n=4); BENCHMARK.json's bound for each
end-to-end metric is printed next to it.  Run lengths come from
BENCHMARK.json unless --seconds is given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                               "--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        spread = quartile_spread(vals) if len(vals) >= 2 and med else float("nan")
        bound = bounds.get(name)
        note = "" if bound is None else f" bound={bound} ({spread / bound:.2f} of it)"
        print(f"{name:32s} median={med:.6g} spread={spread:.4f}{note}")
        print("    " + " ".join(f"{v:.6g}" for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
