"""Run the CLI walkthrough once per seed and keep everything it prints and writes.

    python tools/walkthrough.py --out OUT [--seeds 1 7 42] [--repo CHECKOUT]
                                [--against DIR]

For each seed, OUT/seed-N/ receives a copy of the checkout's configs/, every
file the commands write, and for each command NN-name.stdout, .stderr and
.exit.  Commands run in that directory as `python -m frametime` with
CHECKOUT/src on PYTHONPATH, so no output names the checkout's location.
The wall time of each command, and their total per seed, go to stdout
only, so the files under OUT stay comparable between runs.  A
refactor that must leave the walkthrough unchanged is checked by running
this on the parent checkout, then on the change with --against:

    python tools/walkthrough.py --repo ../parent --out /tmp/before
    python tools/walkthrough.py --out /tmp/after --against /tmp/before

--against DIR compares OUT with DIR file by file, byte for byte, once
every command has run, and prints each path that differs, is missing
from OUT or is extra in OUT.

Standard library only.  Exit status 0 once every command has run, whatever
their own exit codes were, or 1 if --against found a path that is not the
same in both trees.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

DEFAULT_SEEDS = (1, 7, 42)


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


def run_seed(repo: Path, out: Path, seed: int) -> None:
    workdir = out / f"seed-{seed}"
    if workdir.exists():
        shutil.rmtree(workdir)
    shutil.copytree(repo / "configs", workdir / "configs")
    env = dict(os.environ, PYTHONPATH=str(repo / "src"), PYTHONHASHSEED="0")
    total = 0.0
    for i, (name, args) in enumerate(commands(seed), start=1):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "frametime", *args], cwd=workdir,
                              env=env, capture_output=True, check=False)
        seconds = time.perf_counter() - start
        total += seconds
        stem = workdir / f"{i:02d}-{name}"
        stem.with_suffix(".stdout").write_bytes(done.stdout)
        stem.with_suffix(".stderr").write_bytes(done.stderr)
        stem.with_suffix(".exit").write_text(f"{done.returncode}\n")
        print(f"seed {seed}: {name} exit {done.returncode} {seconds:.3f} s")
    print(f"seed {seed}: total {total:.3f} s")


def compare_trees(out: Path, against: Path) -> list[str]:
    """One line per file that differs between the trees, is missing from
    out or is extra in out, by path relative to the tree roots."""
    def files(root: Path) -> set[Path]:
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

    mine, theirs = files(out), files(against)
    lines = [f"missing: {p}" for p in sorted(theirs - mine)]
    lines += [f"extra: {p}" for p in sorted(mine - theirs)]
    lines += [f"differs: {p}" for p in sorted(mine & theirs)
              if not filecmp.cmp(out / p, against / p, shallow=False)]
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
    args = parser.parse_args(argv)
    repo = args.repo.resolve()
    if not (repo / "src" / "frametime").is_dir():
        parser.error(f"{repo} has no src/frametime")
    if args.against is not None and not args.against.is_dir():
        parser.error(f"{args.against} is not a directory")
    args.out.mkdir(parents=True, exist_ok=True)
    for seed in args.seeds:
        run_seed(repo, args.out.resolve(), seed)
    if args.against is None:
        return 0
    lines = compare_trees(args.out.resolve(), args.against.resolve())
    for line in lines:
        print(line)
    print(f"against {args.against}: {len(lines)} paths not the same")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
