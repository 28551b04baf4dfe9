"""Unit tests for distinct-value estimators."""

import numpy as np
import pytest

from repro.errors import StatisticsError
from repro.stats import gee_estimator, sample_distinct_counts


class TestFrequencyOfFrequencies:
    def test_basic(self):
        freq = sample_distinct_counts(np.array([1, 1, 2, 3, 3, 3]))
        assert freq == {1: 1, 2: 1, 3: 1}

    def test_all_unique(self):
        freq = sample_distinct_counts(np.arange(5))
        assert freq == {1: 5}

    def test_empty(self):
        assert sample_distinct_counts(np.array([], dtype=np.int64)) == {}

    def test_2d_raises(self):
        with pytest.raises(StatisticsError):
            sample_distinct_counts(np.zeros((2, 2)))


class TestGee:
    def test_all_unique_sample_scales_up(self):
        sample = np.arange(100)
        estimate = gee_estimator(sample, population_size=10_000)
        assert estimate == pytest.approx(np.sqrt(100) * 100)

    def test_all_repeated_sample_stays(self):
        sample = np.repeat(np.arange(10), 10)
        estimate = gee_estimator(sample, population_size=10_000)
        assert estimate == 10.0

    def test_capped_by_population(self):
        estimate = gee_estimator(np.arange(100), population_size=150)
        assert estimate <= 150

    def test_empty_sample(self):
        assert gee_estimator(np.array([], dtype=np.int64), 100) == 0.0

    def test_invalid_population_raises(self):
        with pytest.raises(StatisticsError):
            gee_estimator(np.arange(5), 0)

    def test_reasonable_on_uniform_domain(self):
        rng = np.random.default_rng(0)
        population = rng.integers(0, 500, 100_000)
        sample = rng.choice(population, 1000)
        estimate = gee_estimator(sample, 100_000)
        # true distinct count is 500; GEE guarantees a ratio error within
        # sqrt(N/n) = 10, and in practice lands within a small factor
        assert 250 <= estimate <= 2500

