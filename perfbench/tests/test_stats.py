import pytest

import stats


def test_p95_needs_ten_samples_beyond_it():
    values = list(range(1, 201))
    assert stats.percentile(values, 95) == 190
    with pytest.raises(ValueError, match="needs 10 samples beyond"):
        stats.percentile(values[:199], 95)


def test_p50_is_the_nearest_rank():
    assert stats.percentile([5, 1, 4, 2, 3] * 5, 50) == 3
    assert stats.percentile(list(range(1, 21)), 50) == 10


def test_percentile_refuses_a_too_small_sample():
    with pytest.raises(ValueError):
        stats.percentile([1.0] * 15, 50)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
    assert stats.quartile_spread(values) == pytest.approx((10.2 - 9.725) / 10.0, abs=0.01)
