"""Unit tests for GROUP BY result-size estimation (Section 3.5)."""

import numpy as np
import pytest

import repro.core.robust
from repro.core import RobustCardinalityEstimator
from repro.errors import EstimationError
from repro.expressions import col

#: The optimizer's row count for the grouped input; the sample path
#: scales by its own estimate instead, and only the fallback reads it.
ROWS = 1e9


@pytest.fixture
def robust(tpch_stats):
    return RobustCardinalityEstimator(tpch_stats, policy=0.5)


class TestGroupEstimation:
    def test_fk_grouping_close_to_truth(self, robust, tpch_db):
        estimate = robust.estimate_groups(
            {"lineitem"}, ["lineitem.l_partkey"], None, ROWS
        )
        truth = len(np.unique(tpch_db.table("lineitem").column("l_partkey")))
        assert truth * 0.3 <= estimate <= truth * 3.5

    def test_grouping_via_joined_table(self, robust, tpch_db):
        estimate = robust.estimate_groups(
            {"lineitem", "part"}, ["part.p_size"], None, ROWS
        )
        truth = len(np.unique(tpch_db.table("part").column("p_size")))
        assert truth * 0.3 <= estimate <= truth * 4

    def test_predicate_reduces_groups(self, robust):
        unfiltered = robust.estimate_groups(
            {"lineitem"}, ["lineitem.l_partkey"], None, ROWS
        )
        filtered = robust.estimate_groups(
            {"lineitem"},
            ["lineitem.l_partkey"],
            col("lineitem.l_shipdate").between("1997-07-01", "1997-07-10"),
            ROWS,
        )
        assert filtered < unfiltered

    def test_multi_column_groups(self, robust):
        single = robust.estimate_groups(
            {"lineitem"}, ["lineitem.l_partkey"], None, ROWS
        )
        double = robust.estimate_groups(
            {"lineitem"}, ["lineitem.l_partkey", "lineitem.l_quantity"], None, ROWS
        )
        assert double >= single * 0.9

    def test_empty_group_by_raises(self, robust):
        with pytest.raises(EstimationError):
            robust.estimate_groups({"lineitem"}, [], None, ROWS)

    def test_missing_synopsis_falls_back_to_histograms(
        self, robust, tpch_stats, monkeypatch
    ):
        def unreachable(*args):
            raise AssertionError("GEE needs a covering synopsis")

        monkeypatch.setattr(repro.core.robust, "gee_estimator", unreachable)
        histogram = tpch_stats.histogram("part", "p_size")
        estimate = robust.estimate_groups(
            {"part", "customer"}, ["part.p_size"], None, ROWS
        )
        assert estimate == histogram.distinct_values
        # The fallback caps at the grouped input's row count.
        assert robust.estimate_groups(
            {"part", "customer"}, ["part.p_size"], None, 3.0
        ) == 3.0

    def test_predicate_uses_cached_conjunct_masks(self, robust, tpch_stats):
        """The qualifying synopsis rows are the estimate's own masks: the
        same conjunction the whole predicate evaluates to."""
        predicate = col("lineitem.l_shipdate").between(
            "1997-07-01", "1997-09-30"
        ) & (col("lineitem.l_quantity") < 20)
        synopsis = tpch_stats.synopsis_covering({"lineitem"})
        direct = np.asarray(predicate.evaluate(synopsis.frame), dtype=bool)
        np.testing.assert_array_equal(
            robust._synopsis_mask(synopsis, predicate), direct
        )
