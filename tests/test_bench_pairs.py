"""The summary arithmetic of tools/bench_pairs.py, on hand-checked values."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
summarize = bench_pairs.summarize


def test_lower_is_better_counts_wins_and_ties():
    base = [10.0, 12.0, 11.0, 13.0]
    change = [8.0, 12.0, 9.0, 9.0]
    s = summarize(base, change, "lower")
    assert s["base"] == {"median": 11.5, "q1": 10.75, "q3": 12.25}
    assert s["change"] == {"median": 9.0, "q1": 8.75, "q3": 9.75}
    assert s["ratio"] == pytest.approx(9.0 / 11.5)
    # the tie at 12 counts for neither side
    assert (s["pairs"], s["change_won"], s["base_won"]) == (4, 3, 0)
    # 3 of 4 pairs is below nine tenths
    assert s["gain_shown"] is False


def test_higher_is_better_flips_the_direction():
    s = summarize([1.0, 2.0, 3.0], [2.0, 1.0, 4.0], "higher")
    assert (s["change_won"], s["base_won"]) == (2, 1)
    assert s["base"]["median"] == 2.0 and s["change"]["median"] == 2.0


def test_gain_rule_needs_nine_tenths_and_a_gap_beyond_the_base_iqr():
    base = [1.0 + 0.01 * k for k in range(10)]  # median 1.045, IQR 0.045
    clear = [0.5 + 0.01 * k for k in range(10)]
    assert summarize(base, clear, "lower")["gain_shown"] is True
    # every pair won, but the medians differ by less than the base's IQR
    close = [b - 0.02 for b in base]
    s = summarize(base, close, "lower")
    assert s["change_won"] == 10 and s["gain_shown"] is False
    # one pair lost in ten still passes; two do not
    one_lost = clear[:9] + [2.0]
    assert summarize(base, one_lost, "lower")["gain_shown"] is True
    two_lost = clear[:8] + [2.0, 2.0]
    assert summarize(base, two_lost, "lower")["gain_shown"] is False
    # fewer than ten pairs never show a gain, however clear each one is
    s = summarize(base[:9], clear[:9], "lower")
    assert s["change_won"] == 9 and s["gain_shown"] is False
    s = summarize([1.0], [0.5], "lower")
    assert s["change_won"] == 1 and s["gain_shown"] is False


def test_mismatched_runs_rejected():
    with pytest.raises(ValueError):
        summarize([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        summarize([], [], "lower")
