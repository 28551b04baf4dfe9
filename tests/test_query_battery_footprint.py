"""Tests for the TPC-H query battery, storage footprint, and CI coverage."""

import numpy as np
import pytest

from repro.core import (
    ExactCardinalityEstimator,
    RobustCardinalityEstimator,
    SelectivityPosterior,
)
from repro.engine import ExecutionContext
from repro.optimizer import Optimizer
from repro.stats import StatisticsManager, database_footprint, table_footprint
from repro.workloads import QUERY_BATTERY
from tests.conftest import parse_battery


class TestQueryBattery:
    def test_all_queries_parse(self, tpch_db):
        queries = parse_battery(tpch_db)
        assert set(queries) == set(QUERY_BATTERY)

    @pytest.mark.parametrize("name", sorted(QUERY_BATTERY))
    def test_each_query_optimizes_and_runs(self, tpch_db, name):
        query = parse_battery(tpch_db)[name]
        planned = Optimizer(tpch_db, ExactCardinalityEstimator(tpch_db)).optimize(
            query
        )
        frame = planned.plan.execute(ExecutionContext(tpch_db))
        assert frame.num_rows >= 0
        assert planned.estimated_cost > 0

    def test_battery_runs_under_robust_estimator(self, tpch_db, tpch_stats):
        estimator = RobustCardinalityEstimator(tpch_stats, policy=0.8)
        optimizer = Optimizer(tpch_db, estimator)
        for query in parse_battery(tpch_db).values():
            planned = optimizer.optimize(query)
            planned.plan.execute(ExecutionContext(tpch_db))

    def test_hints_preserved(self, tpch_db):
        queries = parse_battery(tpch_db)
        assert queries["brand_audit"].hint == "conservative"
        assert queries["correlated_dates"].hint == 0.80


class TestStorageFootprint:
    """The §6.1 parity claim: a 500-tuple sample ≈ 250-bucket
    histograms on each attribute."""

    def test_parity_at_paper_parameters(self, tpch_db):
        manager = StatisticsManager(tpch_db)
        manager.update_statistics(sample_size=500, histogram_buckets=250, seed=0)
        footprint = table_footprint(manager, "lineitem")
        # The paper's arithmetic: 500 × 8 per column for the sample vs
        # ≤250 × 16 per column for histograms — within a small factor.
        # (Our lineitem is only 12k rows, so some histograms have fewer
        # than 250 buckets; parity is approximate, as in the paper.)
        assert 0.5 <= footprint.ratio <= 4.0

    def test_paper_exact_arithmetic(self, tpch_db):
        """With full 250-bucket histograms on every column, the ratio
        is exactly 500·8 / 250·16 = 1.0 per column."""
        sample_side = 500 * 8
        histogram_side = 250 * (8 + 2 * 4)
        assert sample_side / histogram_side == 1.0

    def test_database_footprint_covers_all_tables(self, tpch_db):
        manager = StatisticsManager(tpch_db)
        manager.update_statistics(sample_size=100, seed=0)
        footprints = database_footprint(manager)
        assert {f.table for f in footprints} == set(tpch_db.table_names)

    def test_no_statistics_zero_bytes(self, tpch_db):
        manager = StatisticsManager(tpch_db)
        footprint = table_footprint(manager, "part")
        assert footprint.sample_bytes == 0
        assert footprint.histogram_bytes == 0


class TestCredibleIntervalCoverage:
    def test_bayesian_coverage_matches_level(self):
        """When the true selectivity is drawn from the prior, the 90 %
        credible interval contains it ~90 % of the time — the defining
        calibration property of the Section 3.3 posterior."""
        rng = np.random.default_rng(123)
        n = 200
        trials = 400
        hits = 0
        for _ in range(trials):
            p = rng.beta(0.5, 0.5)  # drawn from the Jeffreys prior
            k = rng.binomial(n, p)
            low, high = SelectivityPosterior(k, n).credible_interval(0.90)
            hits += low <= p <= high
        coverage = hits / trials
        assert coverage == pytest.approx(0.90, abs=0.045)

    def test_undercoverage_without_bayes(self):
        """A naive ±2σ normal interval around k/n breaks down at the
        extremes (k=0 gives a zero-width interval) — the failure the
        Bayesian treatment avoids."""
        rng = np.random.default_rng(7)
        n = 200
        failures = 0
        for _ in range(200):
            p = rng.beta(0.5, 0.5)
            k = rng.binomial(n, p)
            mle = k / n
            sigma = np.sqrt(max(mle * (1 - mle), 1e-12) / n)
            if not (mle - 2 * sigma <= p <= mle + 2 * sigma):
                failures += 1
        # the naive interval misses far more often than 5 %
        assert failures / 200 > 0.08
