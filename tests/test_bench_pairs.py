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


def test_regression_verdict_worse_beyond_the_bound():
    base = [1.0, 1.0, 1.0, 1.0]  # median 1.0, IQR 0
    # lower is better: a median 1.3 is 30% worse, beyond a bound of 0.24
    assert summarize(base, [1.3] * 4, "lower", 0.24)["regression"] == "worse"
    # 20% worse stays within it
    assert summarize(base, [1.2] * 4, "lower", 0.24)["regression"] == "none"
    # higher is better: a median 0.7 is 30% worse
    assert summarize(base, [0.7] * 4, "higher", 0.24)["regression"] == "worse"
    assert summarize(base, [1.3] * 4, "higher", 0.24)["regression"] == "none"


def test_regression_verdict_unresolved_when_the_base_spreads_beyond_the_bound():
    base = [1.0, 2.0, 3.0, 4.0]  # median 2.5, quartiles 1.75 and 3.25: IQR 1.5 > 0.24 * 2.5
    s = summarize(base, [2.5, 2.5, 2.5, 2.5], "lower", 0.24)
    assert s["regression"] == "unresolved"
    # a worse median beyond the bound is a regression however wide the spread
    assert summarize(base, [4.0, 4.0, 4.0, 4.0], "lower", 0.24)["regression"] == "worse"
    # every change run beating every base run resolves it
    assert summarize(base, [0.5, 0.6, 0.7, 0.8], "lower", 0.24)["regression"] == "none"
    assert summarize(base, [4.5, 5.0, 5.5, 6.0], "higher", 0.24)["regression"] == "none"
    # a change run tied with the best base run does not beat it
    assert summarize(base, [1.0, 0.6, 0.7, 0.8], "lower", 0.24)["regression"] == "unresolved"


def test_regression_verdict_none_within_a_narrow_base():
    base = [10.0, 10.2, 10.4, 10.6]  # median 10.3, IQR 0.3 < 0.1 * 10.3
    s = summarize(base, [10.5, 10.9, 11.0, 11.1], "lower", 0.1)  # median 10.95: 6.3% worse
    assert s["regression"] == "none"
    # without a bound there is no verdict
    assert summarize(base, base, "lower")["regression"] is None
