"""The verdicts of ``tools/bench_pairs.summarize`` on hand-made runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
summarize = bench_pairs.summarize

# ten base runs of a lower-is-better metric, median 10.045, tight quartiles
BASE = [10.0 + 0.01 * k for k in range(10)]


def test_gain_needs_nine_wins_of_ten():
    nine = summarize(BASE, [9.0] * 9 + [11.0], "lower", 0.25)
    assert (nine["wins"], nine["losses"], nine["ties"]) == (9, 1, 0)
    assert nine["status"] == "gain"
    # the same medians with one win fewer is no gain, and no loss either
    eight = summarize(BASE, [9.0] * 8 + [11.0] * 2, "lower", 0.25)
    assert (eight["wins"], eight["losses"]) == (8, 2)
    assert eight["change"]["median"] == nine["change"]["median"] == 9.0
    assert eight["status"] == "within bound"


def test_gain_needs_the_medians_apart_by_more_than_the_base_spread():
    # ten wins by less than the base's interquartile range
    close = summarize(BASE, [b - 0.001 for b in BASE], "lower", 0.25)
    assert close["wins"] == 10
    assert close["status"] == "within bound"


def test_worse_beyond_the_bound():
    assert summarize(BASE, [13.0] * 10, "lower", 0.25)["status"] == "worse"
    # 20% slower is within a bound of 25%
    assert summarize(BASE, [12.0] * 10, "lower", 0.25)["status"] == "within bound"


def test_unresolved_when_the_base_spreads_wider_than_the_bound():
    wide = [5.0, 15.0] * 5
    report = summarize(wide, [10.0] * 10, "lower", 0.25)
    assert report["base"]["q3"] - report["base"]["q1"] == 10.0
    assert report["status"] == "unresolved"
    # unless every run of the change beats every run of the base
    assert summarize(wide, [4.0] * 10, "lower", 0.25)["status"] == "within bound"


def test_ties_count_for_neither_side():
    report = summarize([10.0] * 10, [10.0] * 2 + [9.0] * 8, "lower", 0.25)
    assert (report["wins"], report["losses"], report["ties"]) == (8, 0, 2)
    # eight wins and two ties fall short of nine wins
    assert report["status"] == "within bound"


def test_higher_is_better():
    base = [0.5 + 0.001 * k for k in range(10)]
    up = summarize(base, [0.9] * 10, "higher", 0.001)
    assert (up["wins"], up["status"]) == (10, "gain")
    down = summarize(base, [0.4] * 10, "higher", 0.001)
    assert (down["losses"], down["status"]) == (10, "worse")


@pytest.mark.parametrize("change, status", [([9.0] * 10, "gain"), ([13.0] * 10, "-")])
def test_metrics_without_a_bound_are_gain_or_nothing(change, status):
    assert summarize(BASE, change, "lower", None)["status"] == status
