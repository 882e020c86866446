"""The exit-code contract, checked by property through cli.main.

For traces of 0 to 13 rows on one or two clocks, and a feature spec in
range, out of range or naming the wrong counters, every command exits
with the code an oracle written here expects: 3 for data too thin to
fit, checked before 4 for a spec that does not fit the trace, else 0.
A nonzero exit prints exactly one `error:` line, and no run warns.
"""

import contextlib
import io
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frametime.cli import EXIT_DEGENERATE, EXIT_MISMATCH, main
from frametime.estimator import ARLMS_ORDER
from frametime.features import CV_FOLDS, FeatureSpec, save_feature_spec
from frametime.trace import generate_runtime, serialize_trace
from scenarios import sensitivity_run, shipped

MAX_ROWS = 13
TABLE = shipped("characterization").freq_table
CLOCKS = {1: (400.0,), 2: (244.0, 444.0)}
SPECS = ("in_range", "out_of_range", "misnamed")
COMMANDS = ("select-features", "replay-rls", "replay-dcd", "replay-arlms", "sensitivity")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Traces of every length on each clock set, and one spec file per kind."""
    root = tmp_path_factory.mktemp("contract")
    spec, _ = sensitivity_run(MAX_ROWS, seed=3)
    for n_clocks, clocks in CLOCKS.items():
        freqs = [clocks[k % n_clocks] for k in range(MAX_ROWS)]
        lines = serialize_trace(generate_runtime(spec, TABLE, freqs, seed=3)).splitlines(True)
        for rows in range(MAX_ROWS + 1):
            # the table comment and the header, then the first rows intervals
            (root / f"trace-{n_clocks}-{rows}.csv").write_text("".join(lines[:2 + rows]))
    names = spec.counter_names
    save_feature_spec(FeatureSpec((2, 3), (names[2], names[3])), root / "in_range.spec")
    save_feature_spec(FeatureSpec((2, len(names))), root / "out_of_range.spec")
    save_feature_spec(FeatureSpec((2, 3), (names[3], names[2])), root / "misnamed.spec")
    return root


@pytest.fixture(scope="module")
def in_workdir(workdir):
    """Run every example in workdir, where the traces and specs are."""
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        yield


def expected_exit(command: str, rows: int, n_clocks: int, spec: str) -> int:
    if command == "select-features":
        thin = rows < 2 or n_clocks == 1 or rows - 1 < CV_FOLDS
        return EXIT_DEGENERATE if thin else 0
    shortest = ARLMS_ORDER + 1 if command == "replay-arlms" else 2
    if rows < shortest:
        return EXIT_DEGENERATE
    return 0 if spec == "in_range" else EXIT_MISMATCH


def argv(command: str, trace: str, spec: str) -> list[str]:
    if command == "select-features":
        return ["select-features", "--trace", trace, "--out", "selected.spec"]
    spec_args = ["--spec", f"{spec}.spec", "--out", "out.csv"]
    if command == "sensitivity":
        return ["sensitivity", "--trace", trace, *spec_args]
    return ["replay", "--trace", trace, "--algo", command.removeprefix("replay-"), *spec_args]


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(0, MAX_ROWS), n_clocks=st.sampled_from(sorted(CLOCKS)),
       spec=st.sampled_from(SPECS), command=st.sampled_from(COMMANDS))
@example(rows=0, n_clocks=2, spec="in_range", command="sensitivity")
@example(rows=1, n_clocks=2, spec="misnamed", command="replay-dcd")
@example(rows=2, n_clocks=2, spec="misnamed", command="sensitivity")
@example(rows=2, n_clocks=1, spec="in_range", command="replay-dcd")
@example(rows=ARLMS_ORDER, n_clocks=2, spec="in_range", command="replay-arlms")
@example(rows=ARLMS_ORDER, n_clocks=2, spec="misnamed", command="replay-arlms")
@example(rows=ARLMS_ORDER + 1, n_clocks=1, spec="out_of_range", command="replay-arlms")
@example(rows=MAX_ROWS, n_clocks=2, spec="misnamed", command="replay-arlms")
@example(rows=CV_FOLDS, n_clocks=2, spec="in_range", command="select-features")
@example(rows=CV_FOLDS + 1, n_clocks=2, spec="in_range", command="select-features")
@example(rows=MAX_ROWS, n_clocks=1, spec="in_range", command="select-features")
@example(rows=MAX_ROWS, n_clocks=2, spec="out_of_range", command="replay-rls")
def test_exit_code_matches_oracle(in_workdir, rows, n_clocks, spec, command):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv(command, f"trace-{n_clocks}-{rows}.csv", spec))
    assert code == expected_exit(command, rows, n_clocks, spec)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) == (code != 0), err.getvalue()
