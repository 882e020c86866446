"""Run the CLI walkthrough once per seed and keep everything it prints and writes.

    python tools/walkthrough.py --out OUT [--seeds 1 7 42 9173] [--repo CHECKOUT]
                                [--against DIR [--rtol R]] [--golden DIR]

For each seed, OUT/seed-N/ receives a copy of the checkout's configs/, every
file the commands write, and for each command NN-name.stdout, .stderr and
.exit.  Commands run in that directory as `python -m frametime` with
CHECKOUT/src on PYTHONPATH, so no output names the checkout's location.
Each command's wall time and its CPU time, user plus sys of the child
process from getrusage(RUSAGE_CHILDREN), and both totals per seed, go
to stdout only, so the files under OUT stay comparable between runs.  A
refactor that must leave the walkthrough unchanged is checked by running
this on the parent checkout, then on the change with --against, at the
default seeds 1, 7, 42 and 9173:

    python tools/walkthrough.py --repo ../parent --out /tmp/before
    python tools/walkthrough.py --out /tmp/after --against /tmp/before

--against DIR compares OUT with DIR file by file, byte for byte, once
every command has run, and prints each path that differs, is missing
from OUT or is extra in OUT.  With --rtol R, the numbers in a CSV file's
cells and in a command's stdout, split there at commas, equals signs
and spaces and read past a trailing %, need only agree within R
relative when they parse as numbers in both trees; their other text,
like every other file, compares byte for byte.  Each such file whose
bytes differ gets a line with its largest relative deviation and its
number of numbers over R, marked "within" when it holds none of those
and no other difference, which makes it the same:

    python tools/walkthrough.py --out /tmp/after --against /tmp/before --rtol 1e-9

--golden DIR writes DIR/seed-N.json for each seed: each command's exit
code and stdout lines, the text lines of each file the commands wrote
that is not a CSV, and for each CSV its comment lines, header, row count
and, per column, the count, sum, sum of k * x_k over the 1-based row k,
min and max of its numeric cells, with a digest of the cells that are not
numbers.  tests/test_golden.py runs the same commands in-process and
compares them with tests/golden/seed-1.json, the numbers within
GOLDEN_RTOL relative.  A change that moves a printed figure regenerates
that file, and says which lines moved:

    python tools/walkthrough.py --out /tmp/run --seeds 1 --golden tests/golden

Standard library only.  Exit status 0 once every command has run, whatever
their own exit codes were, or 1 if --against found a path that is not the
same in both trees.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

DEFAULT_SEEDS = (1, 7, 42, 9173)
GOLDEN_RTOL = 1e-9
_RECORD_SUFFIXES = (".stdout", ".stderr", ".exit")
# how --rtol splits each line of a file into tokens, by the file's suffix:
# a stdout line's separators are kept as tokens of their own
_TOKENIZERS = {".csv": lambda line: line.split(","),
               ".stdout": re.compile(r"([,= ])").split}


def commands(seed: int) -> list[tuple[str, list[str]]]:
    """(name, frametime arguments) of the walkthrough, in run order."""
    seeded = ["--seed", str(seed)]
    char = ["--config", "configs/characterization.ini"]
    steps = [
        ("characterize-sweep", ["characterize", "--config", "configs/selection.ini",
                                "--out", "sweep.csv", *seeded]),
        ("select-features", ["select-features", "--trace", "sweep.csv",
                             "--config", "configs/selection.ini",
                             "--out", "features.spec", "--rule", "min_mse"]),
        ("select-features-one-se", ["select-features", "--trace", "sweep.csv",
                                    "--config", "configs/selection.ini",
                                    "--out", "features-one-se.spec", "--rule", "one_se"]),
        ("characterize-runtime", ["characterize", *char, "--out", "runtime.csv",
                                  "--mode", "runtime", *seeded]),
        # generation on a governor workload: the frame times govern realizes
        ("characterize-runtime-heavy", ["characterize", "--config",
                                        "configs/governor_heavy.ini", "--out",
                                        "runtime-heavy.csv", "--mode", "runtime", *seeded]),
    ]
    for algo in ("rls", "dcd", "arlms"):
        steps.append((f"replay-{algo}", ["replay", "--trace", "runtime.csv",
                                         "--spec", "features.spec", *char,
                                         "--algo", algo, "--out", f"replay-{algo}.csv"]))
    # the sweep barely moves the clock, so its frequency terms stay poorly
    # identified: a second regime for the estimators' rounding
    for algo in ("rls", "dcd", "arlms"):
        steps.append((f"replay-{algo}-sweep", ["replay", "--trace", "sweep.csv",
                                               "--spec", "features.spec",
                                               "--config", "configs/selection.ini",
                                               "--algo", algo,
                                               "--out", f"replay-{algo}-sweep.csv"]))
    sens = ["sensitivity", "--spec", "features.spec"]
    steps += [
        ("sensitivity", [*sens, "--trace", "runtime.csv", *char,
                         "--out", "sens.csv", "--jumps", "3"]),
        ("sensitivity-no-config", [*sens, "--trace", "runtime.csv",
                                   "--out", "sens-no-config.csv", "--jumps", "9"]),
        ("sensitivity-sweep", [*sens, "--trace", "sweep.csv",
                               "--config", "configs/selection.ini",
                               "--out", "sens-sweep.csv", "--jumps", "2"]),
    ]
    for load in ("heavy", "light"):
        steps.append((f"govern-{load}", ["govern", "--config",
                                         f"configs/governor_{load}.ini", "--policy", "all",
                                         "--out", f"govern-{load}.csv", *seeded]))
    # the runtime workload's noise (sigma 0.03) puts the rls choices next to
    # the frame budget, where the governor configs (sigma 0.01) rarely go
    steps.append(("govern-runtime", ["govern", *char, "--policy", "all",
                                     "--out", "govern-runtime.csv", *seeded]))
    # one policy a run: each of simulate's choosers alone, and the output
    # without normalized_energy lines
    for policy in ("rls", "oracle", "ondemand"):
        steps.append((f"govern-heavy-{policy}", ["govern", "--config",
                                                 "configs/governor_heavy.ini",
                                                 "--policy", policy,
                                                 "--out", f"govern-heavy-{policy}.csv",
                                                 *seeded]))
    return steps


def run_seed(repo: Path, out: Path, seed: int) -> list[tuple[str, int, str]]:
    """Run the walkthrough in OUT/seed-N; return (name, exit code, stdout)
    of each command."""
    workdir = out / f"seed-{seed}"
    if workdir.exists():
        shutil.rmtree(workdir)
    shutil.copytree(repo / "configs", workdir / "configs")
    env = dict(os.environ, PYTHONPATH=str(repo / "src"), PYTHONHASHSEED="0")
    total = total_cpu = 0.0
    runs = []
    for i, (name, args) in enumerate(commands(seed), start=1):
        before = _children_cpu_s()
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "frametime", *args], cwd=workdir,
                              env=env, capture_output=True, check=False)
        seconds = time.perf_counter() - start
        cpu = _children_cpu_s() - before
        total += seconds
        total_cpu += cpu
        stem = workdir / f"{i:02d}-{name}"
        stem.with_suffix(".stdout").write_bytes(done.stdout)
        stem.with_suffix(".stderr").write_bytes(done.stderr)
        stem.with_suffix(".exit").write_text(f"{done.returncode}\n")
        print(f"seed {seed}: {name} exit {done.returncode} {seconds:.3f} s wall "
              f"{cpu:.3f} s cpu")
        runs.append((name, done.returncode, done.stdout.decode("utf-8")))
    print(f"seed {seed}: total {total:.3f} s wall {total_cpu:.3f} s cpu")
    return runs


def _children_cpu_s() -> float:
    """User plus sys seconds of this process's waited-for children so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _csv_summary(lines: list[str]) -> dict:
    """Comment lines, header, row count, per-column numeric statistics and
    a digest of the other cells of one CSV file's lines."""
    comments = [line for line in lines if line.startswith("#")]
    header, *rows = [line.split(",") for line in lines if not line.startswith("#")]
    stats, other = [], hashlib.sha256()
    for j in range(len(header)):
        numbers = []
        for k, row in enumerate(rows, start=1):
            cell = row[j] if j < len(row) else ""
            try:
                numbers.append((k, float(cell)))
            except ValueError:
                other.update(f"{k},{j}:{cell}\n".encode("utf-8"))
        xs = [x for _, x in numbers]
        stats.append([len(xs), math.fsum(xs), math.fsum(k * x for k, x in numbers),
                      min(xs, default=None), max(xs, default=None)])
    return {"comments": comments, "header": header, "rows": len(rows), "stats": stats,
            "other_cells": other.hexdigest()}


def summarize(workdir: Path, seed: int, runs) -> dict:
    """The golden summary of one seed's walkthrough: runs is (name, exit
    code, stdout) per command, and every file in workdir but its
    subdirectories and the per-command records is one the commands wrote."""
    files = {}
    for path in sorted(workdir.iterdir()):
        if path.is_file() and path.suffix not in _RECORD_SUFFIXES:
            lines = path.read_text(encoding="utf-8").splitlines()
            files[path.name] = _csv_summary(lines) if path.suffix == ".csv" else lines
    return {"seed": seed,
            "commands": [{"name": name, "exit": code, "stdout": stdout.splitlines()}
                         for name, code, stdout in runs],
            "files": files}


def compare_summaries(actual: dict, golden: dict) -> list[str]:
    """One line per place where actual departs from golden: anything but
    a statistic differs, or a statistic is off by more than GOLDEN_RTOL
    relative (equal infinities and two nans agree)."""
    def close(a, b):
        if a is None or b is None:
            return a is b
        return a == b or (math.isnan(a) and math.isnan(b)) or math.isclose(
            a, b, rel_tol=GOLDEN_RTOL)

    lines = []
    if [c["name"] for c in actual["commands"]] != [c["name"] for c in golden["commands"]]:
        return ["the command list differs"]
    for mine, theirs in zip(actual["commands"], golden["commands"]):
        for key in ("exit", "stdout"):
            if mine[key] != theirs[key]:
                lines.append(f"{mine['name']}: {key} {mine[key]!r} != {theirs[key]!r}")
    for name in sorted(set(actual["files"]) | set(golden["files"])):
        mine, theirs = actual["files"].get(name), golden["files"].get(name)
        if mine is None or theirs is None:
            lines.append(f"{name}: {'missing' if mine is None else 'extra'}")
        elif isinstance(theirs, list):
            if mine != theirs:
                lines.append(f"{name}: lines differ")
        else:
            lines += [f"{name}: {key} differs" for key in
                      ("comments", "header", "rows", "other_cells") if mine[key] != theirs[key]]
            for column, a, b in zip(theirs["header"], mine["stats"], theirs["stats"]):
                if not all(map(close, a, b)):
                    lines.append(f"{name}: column {column} {a} != {b}")
    return lines


def relative_deviation(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude: 0 for equal values and
    for two nans, inf when only one side is a nan or an infinity."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare_text(mine: str, theirs: str, rtol: float, split) -> tuple[float, int, bool]:
    """(largest relative deviation, tokens over rtol, whether anything else
    differs) between two texts whose lines split breaks into tokens: the
    tokens that parse as numbers on both sides, past a % that ends both,
    are compared by value, other tokens and comment lines as text, and a
    different line or token count differs."""
    lines, other_lines = mine.splitlines(), theirs.splitlines()
    worst, over, other = 0.0, 0, len(lines) != len(other_lines)
    for a, b in zip(lines, other_lines):
        cells, other_cells = split(a), split(b)
        if a.startswith("#") or b.startswith("#") or len(cells) != len(other_cells):
            other = other or a != b
            continue
        for x, y in zip(cells, other_cells):
            if x == y:
                continue
            if x.endswith("%") and y.endswith("%"):
                x, y = x[:-1], y[:-1]
            try:
                deviation = relative_deviation(float(x), float(y))
            except ValueError:
                other = True
                continue
            worst = max(worst, deviation)
            over += deviation > rtol
    return worst, over, other


def compare_trees(out: Path, against: Path, rtol: float | None = None) -> list[tuple[str, bool]]:
    """(line, same) per path that is missing from out, extra in out or
    differs between the trees, by path relative to the tree roots.  With
    rtol, a CSV or stdout file whose bytes differ is compared by
    compare_text and is the same when only its numbers moved, none by
    more than rtol."""
    def files(root: Path) -> set[Path]:
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

    mine, theirs = files(out), files(against)
    lines = [(f"missing: {p}", False) for p in sorted(theirs - mine)]
    lines += [(f"extra: {p}", False) for p in sorted(mine - theirs)]
    for p in sorted(mine & theirs):
        if filecmp.cmp(out / p, against / p, shallow=False):
            continue
        if rtol is None or p.suffix not in _TOKENIZERS:
            lines.append((f"differs: {p}", False))
            continue
        worst, over, other = compare_text((out / p).read_text(encoding="utf-8"),
                                          (against / p).read_text(encoding="utf-8"), rtol,
                                          _TOKENIZERS[p.suffix])
        same = not (over or other)
        lines.append((f"{'within' if same else 'differs'}: {p}: largest relative deviation "
                      f"{worst:.3g}, {over} cells over {rtol:g}"
                      + (", and other cells or lines differ" if other else ""), same))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout to run (default: the one holding this script)")
    parser.add_argument("--against", type=Path,
                        help="an earlier OUT to compare this run's OUT with, file by file")
    parser.add_argument("--rtol", type=float,
                        help="with --against, let CSV and stdout numbers differ by this "
                             "much, relative")
    parser.add_argument("--golden", type=Path,
                        help="directory to write each seed's golden summary to")
    args = parser.parse_args(argv)
    repo = args.repo.resolve()
    if not (repo / "src" / "frametime").is_dir():
        parser.error(f"{repo} has no src/frametime")
    if args.against is not None and not args.against.is_dir():
        parser.error(f"{args.against} is not a directory")
    if args.rtol is not None and not (args.against is not None and args.rtol >= 0):
        parser.error("--rtol needs --against and a value >= 0")
    args.out.mkdir(parents=True, exist_ok=True)
    for seed in args.seeds:
        runs = run_seed(repo, args.out.resolve(), seed)
        if args.golden is not None:
            args.golden.mkdir(parents=True, exist_ok=True)
            summary = summarize(args.out.resolve() / f"seed-{seed}", seed, runs)
            (args.golden / f"seed-{seed}.json").write_text(
                json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    if args.against is None:
        return 0
    lines = compare_trees(args.out.resolve(), args.against.resolve(), args.rtol)
    for line, _ in lines:
        print(line)
    differing = sum(not same for _, same in lines)
    print(f"against {args.against}: {differing} paths not the same")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
