import pytest

from stats import describe, summary


def test_median_count_and_range():
    s = summary([3.0, 1.0, 2.0, 10.0])
    assert s == {"n": 4, "median": 2.5, "min": 1.0, "max": 10.0}
    assert describe("run_s", s, "s") == "run_s median 2.5 s (n=4, min 1, max 10 s)"


def test_odd_count_median_is_a_sample():
    s = summary(float(i) for i in (5, 1, 4, 2, 3))
    assert (s["n"], s["median"], s["min"], s["max"]) == (5, 3.0, 1.0, 5.0)


def test_summary_needs_samples():
    with pytest.raises(ValueError):
        summary([])
