"""Unit tests for GROUP BY result-size estimation (Section 3.5)."""

import numpy as np
import pytest

from repro.core import GroupCountEstimator, RobustCardinalityEstimator
from repro.errors import EstimationError
from repro.expressions import col


@pytest.fixture
def group_estimator(tpch_stats):
    robust = RobustCardinalityEstimator(tpch_stats, policy=0.5)
    return GroupCountEstimator(robust)


class TestGroupEstimation:
    def test_fk_grouping_close_to_truth(self, group_estimator, tpch_db):
        estimate = group_estimator.estimate_groups(
            {"lineitem"}, ["lineitem.l_partkey"]
        )
        truth = len(np.unique(tpch_db.table("lineitem").column("l_partkey")))
        assert truth * 0.3 <= estimate <= truth * 3.5

    def test_grouping_via_joined_table(self, group_estimator, tpch_db):
        estimate = group_estimator.estimate_groups(
            {"lineitem", "part"}, ["part.p_size"]
        )
        truth = len(np.unique(tpch_db.table("part").column("p_size")))
        assert truth * 0.3 <= estimate <= truth * 4

    def test_predicate_reduces_groups(self, group_estimator):
        unfiltered = group_estimator.estimate_groups(
            {"lineitem"}, ["lineitem.l_partkey"]
        )
        filtered = group_estimator.estimate_groups(
            {"lineitem"},
            ["lineitem.l_partkey"],
            col("lineitem.l_shipdate").between("1997-07-01", "1997-07-10"),
        )
        assert filtered < unfiltered

    def test_multi_column_groups(self, group_estimator):
        single = group_estimator.estimate_groups(
            {"lineitem"}, ["lineitem.l_partkey"]
        )
        double = group_estimator.estimate_groups(
            {"lineitem"}, ["lineitem.l_partkey", "lineitem.l_quantity"]
        )
        assert double >= single * 0.9

    def test_empty_group_by_raises(self, group_estimator):
        with pytest.raises(EstimationError):
            group_estimator.estimate_groups({"lineitem"}, [])

    def test_missing_synopsis_raises(self, group_estimator):
        with pytest.raises(EstimationError):
            group_estimator.estimate_groups(
                {"part", "customer"}, ["part.p_size"]
            )
