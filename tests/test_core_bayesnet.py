"""The Chow–Liu Bayesian-network estimator arm."""

import numpy as np
import pytest

from repro.catalog import date_ordinal
from repro.core import (
    BayesNetCardinalityEstimator,
    HistogramCardinalityEstimator,
)
from repro.errors import EstimationError
from repro.expressions import col
from repro.stats import StatisticsManager

from tests.conftest import make_two_table_db

WINDOW = col("lineitem.l_shipdate").between("1997-07-01", "1997-09-30") & col(
    "lineitem.l_receiptdate"
).between("1997-07-01", "1997-09-30")


@pytest.fixture(scope="module")
def bayes(tpch_stats):
    return BayesNetCardinalityEstimator(tpch_stats)


def _truth(tpch_db, predicate_columns):
    lineitem = tpch_db.table("lineitem")
    lo, hi = date_ordinal("1997-07-01"), date_ordinal("1997-09-30")
    ship = lineitem.column("l_shipdate")
    receipt = lineitem.column("l_receiptdate")
    mask = (ship >= lo) & (ship <= hi) & (receipt >= lo) & (receipt <= hi)
    return float(mask.mean())


class TestSingleTableAccuracy:
    def test_marginal_range_close_to_truth(self, tpch_db, bayes):
        estimate = bayes.estimate({"lineitem"}, col("lineitem.l_quantity") > 25)
        values = tpch_db.table("lineitem").column("l_quantity")
        truth = float((values > 25).mean())
        assert estimate.selectivity == pytest.approx(truth, abs=0.1)

    def test_correlated_window_beats_avi_histogram(
        self, tpch_db, tpch_stats, bayes
    ):
        """The scenario the arm exists for: ship/receipt dates are
        correlated, the AVI product collapses, the tree edge holds."""
        truth = _truth(tpch_db, None)
        bn = bayes.estimate({"lineitem"}, WINDOW).selectivity
        avi = (
            HistogramCardinalityEstimator(tpch_stats)
            .estimate({"lineitem"}, WINDOW)
            .selectivity
        )
        assert truth > 0
        assert abs(bn - truth) < abs(avi - truth)
        assert bn > avi  # AVI multiplies the marginals and underestimates

    def test_anchored_to_root_rows(self, tpch_db, bayes):
        estimate = bayes.estimate({"lineitem"}, col("lineitem.l_quantity") > 25)
        root_rows = tpch_db.table("lineitem").num_rows
        assert estimate.cardinality == pytest.approx(
            estimate.selectivity * root_rows
        )
        assert estimate.source == "bayes"


class TestFallbacks:
    def test_string_conjunct_uses_sample_fraction(self, tpch_stats, bayes):
        predicate = col("part.p_container") == "SM BOX"
        sample = tpch_stats.sample_for("part")
        expected = sample.count_satisfying(predicate) / sample.size
        estimate = bayes.estimate({"part"}, predicate)
        assert estimate.selectivity == pytest.approx(expected)

    def test_multi_column_conjunct_uses_sample_fraction(self, tpch_stats, bayes):
        predicate = col("lineitem.l_shipdate") < col("lineitem.l_receiptdate")
        sample = tpch_stats.sample_for("lineitem")
        expected = sample.count_satisfying(predicate) / sample.size
        estimate = bayes.estimate({"lineitem"}, predicate)
        assert estimate.selectivity == pytest.approx(expected)

    def test_join_condition_priced_by_sketch(self, snowflake_stats):
        bayes = BayesNetCardinalityEstimator(snowflake_stats)
        predicate = col("sales.s_price") < col("item.i_price")
        estimate = bayes.estimate({"sales", "item"}, predicate)
        assert 0.0 < estimate.selectivity < 1.0
        assert estimate.source == "bayes"

    def test_empty_table_set_rejected(self, bayes):
        with pytest.raises(EstimationError):
            bayes.estimate(set(), None)


class TestDeterminismAndCaching:
    def test_two_instances_agree(self, tpch_stats):
        a = BayesNetCardinalityEstimator(tpch_stats)
        b = BayesNetCardinalityEstimator(tpch_stats)
        assert (
            a.estimate({"lineitem"}, WINDOW).selectivity
            == b.estimate({"lineitem"}, WINDOW).selectivity
        )

    def test_repeated_estimates_identical(self, bayes):
        first = bayes.estimate({"lineitem"}, WINDOW)
        second = bayes.estimate({"lineitem"}, WINDOW)
        assert first.selectivity == second.selectivity

    def test_statistics_bump_refits_trees(self):
        manager = StatisticsManager(make_two_table_db())
        manager.update_statistics(sample_size=200, seed=1)
        bayes = BayesNetCardinalityEstimator(manager)
        predicate = col("lineitem.l_quantity") > 25
        bayes.estimate({"lineitem"}, predicate)
        assert "lineitem" in bayes._trees
        manager.update_statistics(sample_size=300, seed=2)
        refreshed = bayes.estimate({"lineitem"}, predicate)
        assert bayes._trees_version == manager.version
        assert 0.0 <= refreshed.selectivity <= 1.0


class TestEstimateMany:
    def test_threshold_blind_repetition(self, bayes):
        grid = (0.05, 0.5, 0.95)
        many = bayes.estimate_many({"lineitem"}, WINDOW, grid)
        assert len(many) == len(grid)
        single = bayes.estimate({"lineitem"}, WINDOW)
        assert all(e.selectivity == single.selectivity for e in many)


class TestModelShape:
    def test_tree_spans_numeric_columns(self, tpch_stats, bayes):
        bayes.estimate({"lineitem"}, WINDOW)  # force a fit
        tree = bayes._trees["lineitem"]
        assert "l_shipdate" in tree.nodes
        assert "l_receiptdate" in tree.nodes
        # a spanning tree: every non-root node is someone's child once
        children = [child for _, child in tree.edges]
        assert sorted(children) == sorted(
            set(range(len(tree.cardinalities))) - {0}
        )

    def test_marginals_normalized(self, tpch_stats, bayes):
        bayes.estimate({"lineitem"}, WINDOW)
        tree = bayes._trees["lineitem"]
        for marginal in tree.marginals:
            assert float(np.sum(marginal)) == pytest.approx(1.0)
        for joint in tree.joints:
            assert float(np.sum(joint)) == pytest.approx(1.0)

    def test_describe(self, bayes):
        assert bayes.describe() == "bayes-net"
