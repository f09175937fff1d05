"""The percentile and quartile helpers on known data."""

import statistics

import pytest

from stats import percentile, quartiles


def test_percentile_matches_linear_interpolation():
    data = [15.0, 20.0, 35.0, 40.0, 50.0]
    assert percentile(data, 0) == 15.0
    assert percentile(data, 100) == 50.0
    assert percentile(data, 50) == 35.0
    # rank = 4 * 0.4 = 1.6 -> 20 + 0.6 * (35 - 20)
    assert percentile(data, 40) == pytest.approx(29.0)
    assert percentile(list(range(1, 101)), 99) == pytest.approx(99.01)


def test_percentile_is_order_independent_and_validates():
    assert percentile([3, 1, 2], 50) == 2
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_quartiles_follow_statistics_quantiles():
    values = [10.0, 12.0, 11.0, 15.0, 9.0, 13.0, 14.0, 10.5, 11.5, 12.5]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([4.2]) == (4.2, 4.2, 4.2)
