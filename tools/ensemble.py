"""Acceptance criteria 4, 5, 6, 10 and 11 over many seeds.

    python tools/ensemble.py [--seeds 0 1 ... 29] [--json PATH]

tests/test_acceptance.py pins each seed-dependent criterion to one seed.
This recomputes each one's figures at every seed of --seeds (default
0-29) through that module's own helpers, so no figure has a second
implementation.  For each figure it prints the criterion's bound and the
seeds that miss it.  For a number it also prints the min, median and max
over the seeds, and the margin of the worst seed to the bound, negative
when a seed misses.  For any other value it prints how many seeds gave
each.  --json PATH writes the same summary, with every seed's figures, as
JSON.  Exit status 0 once every seed has run, whether or not one missed.

Criteria 7 and 8 replay noiseless traces, and criteria 1-3 and 9 draw
nothing from the package's stream, so none of them is rerun.  Criteria
5 and 6 run a noiseless workload too, but under the seeded random-walk
clock.

Standard library and the package, with the checkout's src/ and tests/
on sys.path.  In one process, 30 seeds take about 10 s on a two-CPU host.
"""

from __future__ import annotations

import argparse
import json
import operator
import statistics
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEEDS = tuple(range(30))
NOISELESS = ("criteria 7 and 8 replay noiseless traces, and criteria 1-3 and 9 draw "
             "nothing from the package's stream: not rerun")

# (criterion, figure, comparison, bound): a seed meets the bound when
# `figure comparison bound` holds, as in the criterion's own test
BOUNDS = (
    (4, "replay_mape_pct", "<", 5.0),
    (5, "derivative_nrmse_pct", "<", 10.0),
    (5, "one_level_mape_pct", "<", 6.0),
    (6, "widest_jump_mape_pct", "<", 12.0),
    (6, "widest_minus_one_level_pct", ">", 0.0),
    (10, "suite_rls_over_ondemand", "<=", 0.75),
    (10, "worst_rls_over_oracle", "<=", 1.10),
    (10, "least_ondemand_over_oracle", ">=", 1.25),
    (10, "dominance", "==", True),
    (11, "pruned_to", "==", [2, 3, 4, 5]),
    (11, "support", "==", [2, 3]),
    (11, "m", "==", 4),
)
COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
           "==": operator.eq}


def figures_at(acceptance, seed: int) -> dict:
    """Every figure of BOUNDS at the seed, from the acceptance module's helpers."""
    run = acceptance.sensitivity_replay(seed)
    one, widest = (acceptance.candidate_mape(run, jump) for jump in (1, acceptance.MAX_JUMP))
    ratios, suite, dominance = acceptance.energy_ratios(seed)
    kept, chosen = acceptance.feature_selection(seed)
    return {
        "replay_mape_pct": acceptance.replay_mape(seed),
        "derivative_nrmse_pct": acceptance.derivative_nrmse(run),
        "one_level_mape_pct": one,
        "widest_jump_mape_pct": widest,
        "widest_minus_one_level_pct": widest - one,
        "suite_rls_over_ondemand": suite,
        "worst_rls_over_oracle": max(rls for rls, _ in ratios.values()),
        "least_ondemand_over_oracle": min(ondemand for _, ondemand in ratios.values()),
        "dominance": dominance,
        "pruned_to": list(kept),
        "support": list(chosen.indep_counter_indices),
        "m": chosen.m,
    }


def summarize(per_seed: dict[int, dict]) -> dict:
    """The ensemble summary of each seed's figures, one entry per BOUNDS row."""
    rows = []
    for criterion, name, op, bound in BOUNDS:
        values = {seed: figures[name] for seed, figures in sorted(per_seed.items())}
        row = {"criterion": criterion, "figure": name, "bound": f"{op} {bound}",
               "misses": [seed for seed, v in values.items() if not COMPARE[op](v, bound)]}
        if op == "==":
            row["counts"] = dict(Counter(str(v) for v in values.values()))
        else:
            lo, hi = min(values.values()), max(values.values())
            row.update(min=lo, median=statistics.median(values.values()), max=hi,
                       margin=bound - hi if op in ("<", "<=") else lo - bound)
        rows.append(row)
    return {"seeds": sorted(per_seed), "figures": rows, "noiseless": NOISELESS,
            "per_seed": [{"seed": seed, **per_seed[seed]} for seed in sorted(per_seed)]}


def format_summary(summary: dict) -> list[str]:
    """The summary as the lines the tool prints."""
    lines = [f"ensemble over {len(summary['seeds'])} seeds"]
    for row in summary["figures"]:
        head = f"criterion {row['criterion']:2d} {row['figure']:<28} {row['bound']:<16}"
        if "counts" in row:
            body = ", ".join(f"{value}: {n}" for value, n in row["counts"].items())
        else:
            body = "  ".join(f"{key} {row[key]:.4g}"
                             for key in ("min", "median", "max", "margin"))
        misses = " ".join(map(str, row["misses"])) or "none"
        lines.append(f"{head} {body}  misses: {misses}")
    lines.append(summary["noiseless"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    parser.add_argument("--json", type=Path, help="also write the summary as JSON here")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import test_acceptance

    summary = summarize({seed: figures_at(test_acceptance, seed) for seed in args.seeds})
    print("\n".join(format_summary(summary)))
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
