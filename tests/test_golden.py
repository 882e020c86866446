"""The figures the walkthrough prints and writes, pinned at seed 1.

tools/walkthrough.py's step list runs in-process through cli.main, and
its summary (each command's exit code and stdout lines, each written
file's text or per-column CSV statistics) must match
tests/golden/seed-1.json, which `tools/walkthrough.py --golden` writes.
"""

import contextlib
import importlib.util
import io
import json
import shutil
from pathlib import Path

from frametime import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "seed-1.json"

_spec = importlib.util.spec_from_file_location("walkthrough", ROOT / "tools" / "walkthrough.py")
walkthrough = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(walkthrough)


def test_walkthrough_matches_golden(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    runs = []
    for name, args in walkthrough.commands(golden["seed"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(args)
        runs.append((name, code, out.getvalue()))
    summary = walkthrough.summarize(tmp_path, golden["seed"], runs)
    assert walkthrough.compare_summaries(summary, golden) == []
