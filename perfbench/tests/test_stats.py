"""The tail rule: the highest percentile with at least ten samples beyond it."""

import pytest

from perfbench import stats


def test_p99_needs_ten_samples_beyond_it():
    values = list(range(1, 1001))  # 1000 samples
    assert stats.beyond(1000, 99.0) == 10
    assert stats.tail(values) == (99.0, 990, 1000)


def test_one_sample_short_falls_back_to_the_next_percentile():
    values = list(range(1, 1000))  # 999 samples: 9 beyond p99
    assert stats.beyond(999, 99.0) == 9
    assert stats.tail(values) == (98.0, 980, 999)


@pytest.mark.parametrize(
    ("n", "percent"),
    [(500, 98.0), (334, 97.0), (200, 95.0), (100, 90.0), (40, 75.0), (20, 50.0)],
)
def test_reported_percentile_always_leaves_ten_beyond(n, percent):
    reported, _, count = stats.tail([float(v) for v in range(n)])
    assert (reported, count) == (percent, n)
    assert stats.beyond(n, reported) >= stats.MIN_BEYOND


def test_too_few_samples_report_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 3)
    with pytest.raises(ValueError):
        stats.tail([])


def test_nearest_rank():
    assert stats.nearest_rank([1, 2, 3, 4], 50.0) == 2
    assert stats.nearest_rank([1, 2, 3, 4], 51.0) == 3
    assert stats.median([4.0, 1.0, 2.0]) == 2.0
