"""Unit tests for the RobustCardinalityEstimator (the paper's procedure)."""

import numpy as np
import pytest

from repro.core import (
    ExactCardinalityEstimator,
    JEFFREYS,
    RobustCardinalityEstimator,
    UNIFORM,
)
from repro.errors import EstimationError
from repro.expressions import col
from repro.stats import StatisticsManager


@pytest.fixture
def estimator(tpch_stats):
    return RobustCardinalityEstimator(tpch_stats, policy=0.5)


CORRELATED = col("lineitem.l_shipdate").between("1997-07-01", "1997-09-30") & col(
    "lineitem.l_receiptdate"
).between("1997-07-01", "1997-09-30")

JOIN_PREDICATE = (col("part.p_size") <= 10) & (col("lineitem.l_quantity") > 25)


class TestSynopsisPath:
    def test_single_table(self, estimator, tpch_db):
        estimate = estimator.estimate({"lineitem"}, CORRELATED)
        assert estimate.source == "synopsis"
        assert estimate.root_table == "lineitem"
        assert estimate.posterior is not None
        assert estimate.cardinality == pytest.approx(
            estimate.selectivity * tpch_db.table("lineitem").num_rows
        )

    def test_join_expression(self, estimator):
        estimate = estimator.estimate({"lineitem", "part"}, JOIN_PREDICATE)
        assert estimate.source == "synopsis"
        assert estimate.root_table == "lineitem"

    def test_no_predicate(self, estimator, tpch_db):
        estimate = estimator.estimate({"lineitem", "orders"}, None)
        # all synopsis tuples satisfy; estimate ≈ |lineitem|
        assert estimate.selectivity > 0.95
        assert estimate.cardinality == pytest.approx(
            tpch_db.table("lineitem").num_rows, rel=0.06
        )

    def test_threshold_monotone(self, tpch_stats):
        estimates = [
            RobustCardinalityEstimator(tpch_stats, policy=t)
            .estimate({"lineitem"}, CORRELATED)
            .selectivity
            for t in (0.05, 0.5, 0.95)
        ]
        assert estimates[0] < estimates[1] < estimates[2]

    def test_hint_overrides_policy(self, estimator):
        low = estimator.estimate({"lineitem"}, CORRELATED, hint=0.05)
        high = estimator.estimate({"lineitem"}, CORRELATED, hint=0.95)
        assert low.selectivity < high.selectivity
        assert low.threshold == 0.05 and high.threshold == 0.95

    def test_captures_correlation_histograms_miss(self, tpch_db, tpch_stats):
        """The robust estimate tracks the true joint selectivity of the
        correlated date predicates; the AVI product does not."""
        truth = ExactCardinalityEstimator(tpch_db).estimate(
            {"lineitem"}, CORRELATED
        )
        medians = []
        for seed in range(8):
            stats = StatisticsManager(tpch_db)
            stats.update_statistics(sample_size=500, seed=seed)
            estimator = RobustCardinalityEstimator(stats, policy=0.5)
            medians.append(estimator.estimate({"lineitem"}, CORRELATED).selectivity)
        assert np.mean(medians) == pytest.approx(truth.selectivity, abs=0.01)

    def test_posterior_counts_match_synopsis(self, estimator, tpch_stats):
        estimate = estimator.estimate({"lineitem"}, CORRELATED)
        synopsis = tpch_stats.synopsis_for("lineitem")
        assert estimate.posterior.n == synopsis.size
        assert estimate.posterior.k == synopsis.count_satisfying(CORRELATED)


class TestFallbacks:
    def _stats_without_synopses(self, tpch_db, seed=0):
        stats = StatisticsManager(tpch_db)
        stats.update_statistics(sample_size=400, seed=seed)
        for name in tpch_db.table_names:
            stats.drop_synopsis(name)
        return stats

    def test_single_table_sample_avi(self, tpch_db):
        stats = self._stats_without_synopses(tpch_db)
        estimator = RobustCardinalityEstimator(stats, policy=0.5)
        estimate = estimator.estimate({"lineitem", "part"}, JOIN_PREDICATE)
        assert estimate.source == "sample-avi"
        assert 0 < estimate.selectivity < 1

    def test_avi_product_shape(self, tpch_db):
        """Fallback selectivity ≈ product of per-table estimates."""
        stats = self._stats_without_synopses(tpch_db)
        estimator = RobustCardinalityEstimator(stats, policy=0.5)
        joint = estimator.estimate({"lineitem", "part"}, JOIN_PREDICATE)
        li = estimator.estimate({"lineitem"}, col("lineitem.l_quantity") > 25)
        part = estimator.estimate({"part"}, col("part.p_size") <= 10)
        assert joint.selectivity == pytest.approx(
            li.selectivity * part.selectivity, rel=0.02
        )

    def test_magic_when_no_sample(self, tpch_db):
        stats = self._stats_without_synopses(tpch_db)
        for name in tpch_db.table_names:
            stats.drop_sample(name)
        estimator = RobustCardinalityEstimator(stats, policy=0.5)
        estimate = estimator.estimate({"part"}, col("part.p_size") == 10)
        assert estimate.source == "magic"
        assert 0 < estimate.selectivity < 1

    def test_mixed_source_error_confinement(self, tpch_db):
        """Tables with samples keep sample-based estimates even when a
        sibling table's statistics are missing (Section 3.5)."""
        stats = self._stats_without_synopses(tpch_db)
        stats.drop_sample("part")
        estimator = RobustCardinalityEstimator(stats, policy=0.5)
        estimate = estimator.estimate({"lineitem", "part"}, JOIN_PREDICATE)
        assert estimate.source == "mixed"

    def test_magic_distribution_respects_threshold(self, tpch_db):
        stats = self._stats_without_synopses(tpch_db)
        for name in tpch_db.table_names:
            stats.drop_sample(name)
        predicate = col("part.p_size") == 10
        low = RobustCardinalityEstimator(stats, policy=0.05).estimate(
            {"part"}, predicate
        )
        high = RobustCardinalityEstimator(stats, policy=0.95).estimate(
            {"part"}, predicate
        )
        assert low.selectivity < high.selectivity


class TestConfiguration:
    def test_prior_choice(self, tpch_stats):
        jeffreys = RobustCardinalityEstimator(tpch_stats, prior=JEFFREYS, policy=0.5)
        uniform = RobustCardinalityEstimator(tpch_stats, prior=UNIFORM, policy=0.5)
        a = jeffreys.estimate({"lineitem"}, CORRELATED).selectivity
        b = uniform.estimate({"lineitem"}, CORRELATED).selectivity
        # close but not identical (Figure 4)
        assert a != b
        assert a == pytest.approx(b, abs=0.01)

    def test_empty_tables_raises(self, estimator):
        with pytest.raises(EstimationError):
            estimator.estimate(set(), None)

    def test_describe(self, estimator):
        assert "robust" in estimator.describe()
        assert "50%" in estimator.describe()

    def test_estimate_str(self, estimator):
        text = str(estimator.estimate({"lineitem"}, CORRELATED))
        assert "synopsis" in text


class TestDeepChainEstimation:
    """Synopses recurse through lineitem → orders → customer, so
    predicates anywhere along the chain are estimated from one sample."""

    def test_chain_predicate_accuracy(self, tpch_db):
        import numpy as np

        predicate = (col("customer.c_acctbal") > 5000) & (
            col("lineitem.l_quantity") > 25
        )
        tables = {"lineitem", "orders", "customer"}
        truth = ExactCardinalityEstimator(tpch_db).estimate(tables, predicate)
        estimates = []
        for seed in range(8):
            stats = StatisticsManager(tpch_db)
            stats.update_statistics(sample_size=500, seed=seed)
            estimator = RobustCardinalityEstimator(stats, policy=0.5)
            estimate = estimator.estimate(tables, predicate)
            assert estimate.source == "synopsis"
            estimates.append(estimate.selectivity)
        assert np.mean(estimates) == pytest.approx(truth.selectivity, abs=0.03)

    def test_full_four_table_expression(self, tpch_stats):
        predicate = (
            (col("customer.c_acctbal") > 0)
            & (col("part.p_size") <= 25)
            & (col("orders.o_totalprice") > 100_000)
        )
        tables = {"lineitem", "orders", "customer", "part"}
        estimate = RobustCardinalityEstimator(tpch_stats, policy=0.8).estimate(
            tables, predicate
        )
        assert estimate.source == "synopsis"
        assert estimate.root_table == "lineitem"
        assert 0 < estimate.selectivity < 1

    def test_mid_chain_root_resolution(self, tpch_stats):
        predicate = col("customer.c_acctbal") > 5000
        estimate = RobustCardinalityEstimator(tpch_stats, policy=0.5).estimate(
            {"orders", "customer"}, predicate
        )
        assert estimate.root_table == "orders"
        assert estimate.source == "synopsis"


class TestConjunctMaskCache:
    """The §6.1 memoization must never change results."""

    def test_cached_equals_uncached(self, tpch_stats):
        estimator = RobustCardinalityEstimator(tpch_stats, policy=0.8)
        synopsis = tpch_stats.synopsis_for("lineitem")
        predicates = [
            CORRELATED,
            JOIN_PREDICATE,
            col("lineitem.l_quantity") > 40,
            (col("part.p_size") <= 10)
            & col("lineitem.l_shipdate").between("1997-07-01", "1997-09-30"),
        ]
        for predicate in predicates:
            tables = {"lineitem"} | predicate.tables()
            estimate = estimator.estimate(tables, predicate)
            direct = synopsis.count_satisfying(predicate)
            assert estimate.posterior.k == direct
            # A second count reads every conjunct's mask from the cache.
            assert estimator._count_satisfying(synopsis, predicate) == direct

    def test_cache_reused_across_overlapping_predicates(self, tpch_stats):
        estimator = RobustCardinalityEstimator(tpch_stats, policy=0.5)
        estimator.estimate({"lineitem"}, CORRELATED)
        synopsis = tpch_stats.synopsis_for("lineitem")
        cached_conjuncts = estimator._mask_cache[synopsis]
        assert len(cached_conjuncts) == 2  # both date conjuncts

    def test_rebuilt_statistics_never_stale(self, tpch_db):
        """A fresh UPDATE STATISTICS yields fresh synopsis objects, so
        the weak-keyed cache cannot serve old masks."""
        manager = StatisticsManager(tpch_db)
        manager.update_statistics(sample_size=300, seed=1)
        estimator = RobustCardinalityEstimator(manager, policy=0.5)
        estimator.estimate({"lineitem"}, CORRELATED)  # kept on the second sight
        first = estimator.estimate({"lineitem"}, CORRELATED).posterior.k

        manager.update_statistics(sample_size=300, seed=2)
        second = estimator.estimate({"lineitem"}, CORRELATED).posterior.k
        fresh = RobustCardinalityEstimator(manager, policy=0.5)
        assert second == fresh.estimate({"lineitem"}, CORRELATED).posterior.k
        # different sample, (almost surely) different count than seed 1
        assert isinstance(first, int)
