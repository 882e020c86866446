"""The three walkthrough workloads: their commands, output checks and accuracy.

One pass runs a workload's CLI commands for one seed inside a working
directory, with output paths relative to it, either in-process through
`frametime.cli.main(argv)` or as `python -m frametime` subprocesses.
Checks take file text so tests can feed them deliberately wrong outputs.
"""

from __future__ import annotations

import io
import math
import os
import re
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Counters 2 and 3 of the characterization workload are the frequency-
# independent ones that carry signal; selection must find exactly these.
EXPECTED_SPEC = (2, 3)
FROZEN_SPEC = ("# frame-time feature spec\n"
               "counter_indices = 2,3\n"
               "counter_names = geometry_batches,shader_slots\n")
REPLAY_ROWS = {"rls": 2399, "dcd": 2399, "arlms": 2390}
SENSITIVITY_ROWS = 2399
JUMPS = 3
POLICIES = ("rls", "oracle", "ondemand")
HEAVY_RLS_LIMIT = 1.10          # acceptance criterion 10
SUBPROCESS_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[str, ...]                       # file names under configs/
    commands: Callable[[int, Path], list[list[str]]]
    outputs: tuple[str, ...]                       # files compared across runners
    check: Callable[[Path, list[str]], list[str]]  # problems, empty when correct
    accuracy: Callable[[Path, list[str]], dict[str, float]]
    min_passes: int                                # accuracy is the median over these
    spec_file: bool = False                        # write the frozen spec first


@dataclass
class PassResult:
    seed: int
    seconds: float
    start: float = 0.0            # perf_counter at the start of the timed region
    stdouts: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    accuracy: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Output checks

def _spec_counters(spec_text: str) -> tuple[int, ...]:
    for line in spec_text.splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "counter_indices":
            return tuple(int(v) for v in value.split(",") if v.strip())
    return ()


def check_select(spec_text: str) -> list[str]:
    counters = _spec_counters(spec_text)
    if counters != EXPECTED_SPEC:
        return [f"min-MSE spec holds counters {counters}, expected {EXPECTED_SPEC}"]
    return []


def _table(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in text.splitlines() if line]
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _nonfinite(rows, col: int) -> int:
    bad = 0
    for row in rows:
        cell = row[col] if col < len(row) else ""
        if cell and not math.isfinite(float(cell)):
            bad += 1
    return bad


def check_replay(replays: dict[str, str], sensitivity_text: str) -> list[str]:
    problems = []
    for algo, expected in REPLAY_ROWS.items():
        header, rows = _table(replays.get(algo, ""))
        if len(rows) != expected:
            problems.append(f"replay {algo}: {len(rows)} rows, expected {expected}")
        if "t_pred" not in header:
            problems.append(f"replay {algo}: no t_pred column")
            continue
        col = header.index("t_pred")
        if any(col >= len(row) or not row[col] for row in rows):
            problems.append(f"replay {algo}: missing predictions")
        elif bad := _nonfinite(rows, col):
            problems.append(f"replay {algo}: {bad} non-finite predictions")

    header, rows = _table(sensitivity_text)
    if len(rows) != SENSITIVITY_ROWS:
        problems.append(f"sensitivity: {len(rows)} rows, expected {SENSITIVITY_ROWS}")
    whatif = [i for i, name in enumerate(header) if name.startswith("delta_")]
    if len(whatif) != 2 * JUMPS:
        problems.append(f"sensitivity: {len(whatif)} what-if columns, expected {2 * JUMPS}")
    bad = sum(_nonfinite(rows, col) for col in whatif)
    if bad:
        problems.append(f"sensitivity: {bad} non-finite what-if cells")
    return problems


def govern_energies(text: str) -> dict[str, float]:
    """Policy -> total energy from the summary lines of a govern table."""
    out = {}
    for line in text.splitlines():
        cells = line.split(",")
        if cells[0] == "summary" and len(cells) >= 5:
            out[cells[1]] = float(cells[4])
    return out


def check_govern(tables: dict[str, str]) -> list[str]:
    problems = []
    for config, text in tables.items():
        energies = govern_energies(text)
        missing = [p for p in POLICIES if p not in energies]
        if missing:
            problems.append(f"{config}: no summary line for {missing}")
            continue
        oracle = energies["oracle"]
        for policy in POLICIES:
            if energies[policy] < oracle:
                problems.append(f"{config}: {policy} energy {energies[policy]:.6g} "
                                f"below the oracle's {oracle:.6g}")
        if config == "heavy" and energies["rls"] > HEAVY_RLS_LIMIT * oracle:
            problems.append(f"heavy: rls energy {energies['rls'] / oracle:.4f}x the oracle, "
                            f"limit {HEAVY_RLS_LIMIT}x")
    return problems


# ---------------------------------------------------------------------------
# Accuracy figures, parsed from what the commands print or write

def _printed(text: str, key: str) -> float:
    match = re.search(rf"{key}=([-+0-9.eE]+|inf|nan)%?", text)
    if match is None:
        raise ValueError(f"no {key}= in command output")
    return float(match.group(1))


def _min_cv_mse(table_text: str) -> tuple[float, float]:
    """(minimum CV MSE, CV MSE of the empty model at the largest penalty)."""
    mse = [float(line.split(",")[1]) for line in table_text.splitlines()
           if line and line[0].isdigit()]
    return min(mse), mse[0]


# ---------------------------------------------------------------------------
# The workloads

def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8") if path.exists() else ""


def _select_commands(seed: int, configs: Path) -> list[list[str]]:
    cfg = str(configs / "selection.ini")
    return [["characterize", "--config", cfg, "--out", "sweep.csv", "--seed", str(seed)],
            ["select-features", "--trace", "sweep.csv", "--config", cfg,
             "--out", "features.spec", "--rule", "min_mse"]]


def _select_accuracy(workdir: Path, stdouts: list[str]) -> dict[str, float]:
    best, empty = _min_cv_mse(stdouts[1])
    return {"cv_mse": best, "error_ratio": best / empty}


def _replay_commands(seed: int, configs: Path) -> list[list[str]]:
    cfg = str(configs / "characterization.ini")
    common = ["--trace", "runtime.csv", "--spec", "features.spec", "--config", cfg]
    cmds = [["characterize", "--config", cfg, "--out", "runtime.csv",
             "--mode", "runtime", "--seed", str(seed)]]
    cmds += [["replay", *common, "--algo", algo, "--out", f"replay_{algo}.csv"]
             for algo in REPLAY_ROWS]
    cmds.append(["sensitivity", *common, "--out", "sens.csv", "--jumps", str(JUMPS)])
    return cmds


def _replay_check(workdir: Path, stdouts: list[str]) -> list[str]:
    return check_replay({a: _read(workdir / f"replay_{a}.csv") for a in REPLAY_ROWS},
                        _read(workdir / "sens.csv"))


def _replay_accuracy(workdir: Path, stdouts: list[str]) -> dict[str, float]:
    rls_mape = _printed(stdouts[1], "mape")
    return {"rls_mape_pct": rls_mape,
            "dcd_mape_pct": _printed(stdouts[2], "mape"),
            "whatif_mape_pct": _printed(stdouts[4], "jump=1 candidate_mape"),
            "deriv_nrmse_pct": _printed(stdouts[4], "derivative_nrmse"),
            "error_ratio": rls_mape / 100.0}


GOVERN_CONFIGS = {"heavy": "governor_heavy.ini", "light": "governor_light.ini"}


def _govern_commands(seed: int, configs: Path) -> list[list[str]]:
    return [["govern", "--config", str(configs / ini), "--policy", "all",
             "--out", f"govern_{name}.csv", "--seed", str(seed)]
            for name, ini in GOVERN_CONFIGS.items()]


def _govern_tables(workdir: Path) -> dict[str, str]:
    return {name: _read(workdir / f"govern_{name}.csv") for name in GOVERN_CONFIGS}


def _govern_accuracy(workdir: Path, stdouts: list[str]) -> dict[str, float]:
    energies = govern_energies(_govern_tables(workdir)["heavy"])
    ratio = energies["rls"] / energies["oracle"]
    return {"energy_vs_oracle": ratio, "error_ratio": ratio}


WORKLOADS = {
    "select": Workload(
        name="select", configs=("selection.ini",), commands=_select_commands,
        outputs=("sweep.csv", "features.spec"),
        check=lambda d, out: check_select(_read(d / "features.spec")),
        accuracy=_select_accuracy, min_passes=1),
    "replay": Workload(
        name="replay", configs=("characterization.ini",), commands=_replay_commands,
        outputs=("runtime.csv", *(f"replay_{a}.csv" for a in REPLAY_ROWS), "sens.csv"),
        check=_replay_check, accuracy=_replay_accuracy, min_passes=5, spec_file=True),
    "govern": Workload(
        name="govern", configs=tuple(GOVERN_CONFIGS.values()), commands=_govern_commands,
        outputs=tuple(f"govern_{name}.csv" for name in GOVERN_CONFIGS),
        check=lambda d, out: check_govern(_govern_tables(d)),
        accuracy=_govern_accuracy, min_passes=5),
}


# ---------------------------------------------------------------------------
# Running one pass

def _prepare(workload: Workload, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for name in workload.outputs:
        (workdir / name).unlink(missing_ok=True)
    if workload.spec_file:
        (workdir / "features.spec").write_text(FROZEN_SPEC, encoding="utf-8")


def _finish(workload: Workload, result: PassResult, workdir: Path, codes) -> PassResult:
    for argv, code in zip(workload.commands(result.seed, Path()), codes):
        if code != 0:
            result.problems.append(f"{argv[0]} exited with {code}")
    if result.problems:
        return result
    try:
        result.problems.extend(workload.check(workdir, result.stdouts))
        if not result.problems:
            result.accuracy = workload.accuracy(workdir, result.stdouts)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        result.problems.append(f"unreadable output: {exc!r}")
    return result


def run_inprocess(cli, workload: Workload, seed: int, workdir: Path, configs: Path,
                  around=nullcontext) -> PassResult:
    """One pass through cli.main, looked up per call so tracing wrappers apply.

    around() is a context manager entered just outside the timed region;
    the traced run opens the pass's root span there.
    """
    _prepare(workload, workdir)
    argvs = workload.commands(seed, configs)
    stdouts, codes = [], []
    result = PassResult(seed=seed, seconds=0.0, stdouts=stdouts)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with around():
            t0 = result.start = time.perf_counter()
            try:
                for argv in argvs:
                    out = io.StringIO()
                    with redirect_stdout(out), redirect_stderr(io.StringIO()):
                        codes.append(cli.main(argv))
                    stdouts.append(out.getvalue())
            finally:
                result.seconds = time.perf_counter() - t0
    except Exception as exc:  # a crashing command fails the pass, not the run
        where = traceback.extract_tb(exc.__traceback__)[-1]
        result.problems.append(f"{argvs[len(codes)][0]} raised {exc!r} at "
                               f"{Path(where.filename).name}:{where.lineno}")
    finally:
        os.chdir(cwd)
    return _finish(workload, result, workdir, codes)


def run_subprocess(workload: Workload, seed: int, workdir: Path, configs: Path,
                   env: dict[str, str]) -> PassResult:
    """The same pass as `python -m frametime` processes, one per command."""
    _prepare(workload, workdir)
    stdouts, codes = [], []
    result = PassResult(seed=seed, seconds=0.0, stdouts=stdouts)
    t0 = result.start = time.perf_counter()
    for argv in workload.commands(seed, configs):
        try:
            proc = subprocess.run([sys.executable, "-m", "frametime", *argv], cwd=workdir,
                                  env=env, capture_output=True, text=True,
                                  timeout=SUBPROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            result.problems.append(f"{argv[0]} timed out")
            break
        codes.append(proc.returncode)
        stdouts.append(proc.stdout)
    result.seconds = time.perf_counter() - t0
    return _finish(workload, result, workdir, codes)


def output_differences(workload: Workload, dir_a: Path, stdouts_a, dir_b: Path,
                       stdouts_b) -> list[str]:
    """Output files and printed output that differ between two runs of one pass."""
    def content(path: Path):
        return path.read_bytes() if path.exists() else None
    diffs = [name for name in workload.outputs
             if content(dir_a / name) != content(dir_b / name)]
    if len(stdouts_a) != len(stdouts_b):
        diffs.append("number of commands run")
    diffs += [f"stdout of {argv[0]}" for argv, a, b in
              zip(workload.commands(0, Path()), stdouts_a, stdouts_b) if a != b]
    return diffs
