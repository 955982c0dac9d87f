"""`scripts/bench_pairs.py`'s summary of alternated benchmark pairs, on
synthetic runs: no benchmark is run."""
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _runs(values, failed=None):
    failed = failed or [0] * len(values)
    return [{"seed": seed, "result": {
        "metrics": {"wall_s": {"value": v, "unit": "s"}, "peak_rss_mib": {"value": 40.0, "unit": "MiB"}},
        "correct": True, "attempted": 100, "failed": f}}
        for seed, (v, f) in enumerate(zip(values, failed), 1)]


# pair by pair the change reads lower in four, ties one and reads higher in one
PARENT = [4, 1, 3, 2, 5, 6]
CHANGE = [3, 1, 2, 1.5, 4, 7]


def test_quartiles_are_inclusive_and_the_ratio_is_of_the_medians():
    s = bench_pairs.summary({"parent": _runs(PARENT), "change": _runs(CHANGE)})["wall_s"]
    # inclusive: q1 of 1..6 sits at position 1.25 between 2 and 3 (the
    # exclusive method would give 1.75)
    assert s["parent_q1_median_q3"] == pytest.approx([2.25, 3.5, 4.75])
    assert s["change_q1_median_q3"] == pytest.approx([1.625, 2.5, 3.75])
    assert s["change_over_parent_median"] == pytest.approx(2.5 / 3.5)
    assert (s["unit"], s["pairs"]) == ("s", 6)


def test_a_tied_pair_counts_for_neither_side():
    forward = bench_pairs.summary({"parent": _runs(PARENT), "change": _runs(CHANGE)})["wall_s"]
    backward = bench_pairs.summary({"parent": _runs(CHANGE), "change": _runs(PARENT)})["wall_s"]
    assert (forward["pairs_change_lower"], backward["pairs_change_lower"]) == (4, 1)
    flat = bench_pairs.summary({"parent": _runs(PARENT), "change": _runs(PARENT)})
    assert flat["wall_s"]["pairs_change_lower"] == 0
    assert flat["peak_rss_mib"]["pairs_change_lower"] == 0
    assert flat["peak_rss_mib"]["change_over_parent_median"] == 1.0


def test_outcomes_of_every_run_are_pooled():
    s = bench_pairs.summary({"parent": _runs(PARENT), "change": _runs(CHANGE, failed=[0, 0, 2, 0, 0, 0])})
    assert s["correct"] is True
    assert s["attempted_failed"] == [(100, 0), (100, 2)]
