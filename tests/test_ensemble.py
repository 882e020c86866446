"""tools/ensemble.py's summary, pinned on hand-written figures: no seed is run."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("ensemble", ROOT / "tools" / "ensemble.py")
ensemble = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ensemble)

PASSING = {
    "replay_mape_pct": 3.5, "derivative_nrmse_pct": 1.0, "one_level_mape_pct": 5.0,
    "widest_jump_mape_pct": 9.0, "widest_minus_one_level_pct": 4.0,
    "suite_rls_over_ondemand": 0.72, "worst_rls_over_oracle": 1.01,
    "least_ondemand_over_oracle": 1.3, "dominance": True, "pruned_to": [2, 3, 4, 5],
    "support": [2, 3], "m": 4,
}


def per_seed():
    # seed 4 misses criterion 5's one-level bound and criterion 11's support;
    # seed 9 sits on criterion 10's inclusive bound, which it meets
    return {
        9: {**PASSING, "one_level_mape_pct": 5.5, "suite_rls_over_ondemand": 0.75},
        4: {**PASSING, "one_level_mape_pct": 6.0, "support": [2, 3, 4], "m": 5},
        0: PASSING,
    }


def test_summary_of_hand_written_figures():
    summary = ensemble.summarize(per_seed())
    assert summary["seeds"] == [0, 4, 9]
    assert [row["seed"] for row in summary["per_seed"]] == [0, 4, 9]
    rows = {row["figure"]: row for row in summary["figures"]}
    assert list(rows) == [name for _, name, _, _ in ensemble.BOUNDS]
    assert rows["one_level_mape_pct"] == {
        "criterion": 5, "figure": "one_level_mape_pct", "bound": "< 6.0", "misses": [4],
        "min": 5.0, "median": 5.5, "max": 6.0, "margin": 0.0}
    suite = rows["suite_rls_over_ondemand"]
    assert (suite["misses"], suite["median"], suite["margin"]) == ([], 0.72, 0.0)
    least = rows["least_ondemand_over_oracle"]
    assert (least["bound"], least["misses"], least["margin"]) == (">= 1.25", [], 1.3 - 1.25)
    assert rows["support"]["counts"] == {"[2, 3]": 2, "[2, 3, 4]": 1}
    assert rows["support"]["misses"] == rows["m"]["misses"] == [4]
    assert rows["dominance"] == {"criterion": 10, "figure": "dominance", "bound": "== True",
                                 "misses": [], "counts": {"True": 3}}


def test_printed_lines():
    lines = ensemble.format_summary(ensemble.summarize(per_seed()))
    assert lines[0] == "ensemble over 3 seeds"
    assert lines[3] == ("criterion  5 one_level_mape_pct           < 6.0            "
                        "min 5  median 5.5  max 6  margin 0  misses: 4")
    assert lines[11] == ("criterion 11 support                      == [2, 3]        "
                         "[2, 3]: 2, [2, 3, 4]: 1  misses: 4")
    assert lines[-1] == ensemble.NOISELESS
    assert "criteria 7 and 8" in lines[-1]
    assert len(lines) == len(ensemble.BOUNDS) + 2
