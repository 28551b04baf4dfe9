"""Unit tests for the histogram/AVI baseline estimator."""

import pytest

from repro.core import ExactCardinalityEstimator, HistogramCardinalityEstimator
from repro.errors import EstimationError
from repro.expressions import col


@pytest.fixture
def estimator(tpch_stats):
    return HistogramCardinalityEstimator(tpch_stats)


class TestSingleTable:
    def test_range_predicate_accurate(self, estimator, tpch_db):
        predicate = col("lineitem.l_shipdate").between("1997-07-01", "1997-09-30")
        estimate = estimator.estimate({"lineitem"}, predicate)
        truth = ExactCardinalityEstimator(tpch_db).estimate({"lineitem"}, predicate)
        assert estimate.selectivity == pytest.approx(truth.selectivity, abs=0.01)
        assert estimate.source == "histogram"

    def test_equality_predicate(self, estimator, tpch_db):
        predicate = col("part.p_size") == 10
        estimate = estimator.estimate({"part"}, predicate)
        truth = ExactCardinalityEstimator(tpch_db).estimate({"part"}, predicate)
        assert estimate.selectivity == pytest.approx(truth.selectivity, abs=0.02)

    def test_in_list(self, estimator, tpch_db):
        predicate = col("part.p_size").isin([1, 2, 3])
        estimate = estimator.estimate({"part"}, predicate)
        truth = ExactCardinalityEstimator(tpch_db).estimate({"part"}, predicate)
        assert estimate.selectivity == pytest.approx(truth.selectivity, abs=0.03)

    @pytest.mark.parametrize(
        "values", [[10], [10, 10], [10, 10.0, 10], [10.0, 10]]
    )
    def test_repeated_in_list_value_counts_once(self, estimator, values):
        """``IN (10, 10.0)`` matches the rows ``= 10`` matches; a value
        repeated in the list, even spelled differently, adds nothing."""
        single = estimator.estimate(
            {"lineitem"}, col("lineitem.l_quantity").isin([10])
        )
        repeated = estimator.estimate(
            {"lineitem"}, col("lineitem.l_quantity").isin(values)
        )
        assert repeated.cardinality == single.cardinality

    def test_string_predicate_uses_magic(self, estimator):
        predicate = col("part.p_brand").contains("1")
        estimate = estimator.estimate({"part"}, predicate)
        assert estimate.selectivity == estimator.magic.string_match

    def test_no_predicate(self, estimator, tpch_db):
        estimate = estimator.estimate({"part"}, None)
        assert estimate.cardinality == tpch_db.table("part").num_rows


class TestAviFailure:
    """The baseline's defining weakness (paper Sections 2 and 6)."""

    def test_correlated_conjunction_underestimated(self, estimator, tpch_db):
        ship = col("lineitem.l_shipdate").between("1997-07-01", "1997-09-30")
        receipt = col("lineitem.l_receiptdate").between("1997-07-15", "1997-10-15")
        joint = ship & receipt
        avi = estimator.estimate({"lineitem"}, joint).selectivity
        marginal_ship = estimator.estimate({"lineitem"}, ship).selectivity
        marginal_receipt = estimator.estimate({"lineitem"}, receipt).selectivity
        # AVI means the joint estimate is exactly the marginal product
        assert avi == pytest.approx(marginal_ship * marginal_receipt, rel=1e-9)
        truth = (
            ExactCardinalityEstimator(tpch_db).estimate({"lineitem"}, joint).selectivity
        )
        # the correlated truth is far larger than the AVI product
        assert truth > 4 * avi

    def test_estimate_constant_across_shift(self, estimator):
        """Marginals fixed ⇒ AVI estimate fixed, whatever the overlap."""
        estimates = []
        for shift in (0, 30, 60, 90):
            import datetime

            from repro.catalog import date_ordinal

            low = datetime.date.fromordinal(
                date_ordinal("1997-07-01") + shift
            ).isoformat()
            high = datetime.date.fromordinal(
                date_ordinal("1997-09-30") + shift
            ).isoformat()
            predicate = col("lineitem.l_shipdate").between(
                "1997-07-01", "1997-09-30"
            ) & col("lineitem.l_receiptdate").between(low, high)
            estimates.append(estimator.estimate({"lineitem"}, predicate).selectivity)
        spread = max(estimates) - min(estimates)
        assert spread < 0.2 * max(estimates)


class TestJoins:
    def test_fk_join_cardinality(self, estimator, tpch_db):
        """With no predicates the FK-join estimate is the root size
        (containment assumption with referential integrity)."""
        estimate = estimator.estimate({"lineitem", "orders"}, None)
        assert estimate.cardinality == tpch_db.table("lineitem").num_rows

    def test_join_with_predicates(self, estimator):
        predicate = (col("part.p_size") <= 25) & (
            col("lineitem.l_quantity") > 25
        )
        estimate = estimator.estimate({"lineitem", "part"}, predicate)
        single = estimator.estimate(
            {"part"}, col("part.p_size") <= 25
        ).selectivity * estimator.estimate(
            {"lineitem"}, col("lineitem.l_quantity") > 25
        ).selectivity
        assert estimate.selectivity == pytest.approx(single, rel=1e-9)

    def test_empty_tables_raises(self, estimator):
        with pytest.raises(EstimationError):
            estimator.estimate(set(), None)

    def test_describe(self, estimator):
        assert estimator.describe() == "histogram-avi"
