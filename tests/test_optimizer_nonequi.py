"""Planning inequality-join queries: validation, plans, lane parity.

Band joins between FK-unrelated tables must validate (the conditions
connect what the FK graph cannot), plan as a ``NonEquiJoin``, execute
to the exact numpy ground truth, and keep the vectorized
``optimize_many`` lanes bit-identical to scalar planning. Lane parity
is asserted on ``signature()``/cost/rows, not ``explain()`` text —
shared subtrees carry the last stamped lane's cosmetic annotations.
"""

import numpy as np
import pytest

from repro.core import (
    HistogramCardinalityEstimator,
    RobustCardinalityEstimator,
)
from repro.cost import CostModel
from repro.engine import ExecutionContext
from repro.errors import ReproError
from repro.expressions import col
from repro.optimizer import Optimizer, SPJQuery
from repro.workloads import PromotionBandTemplate

BAND_PREDICATE = (
    (col("promotion.p_kind") == 2)
    & (col("promotion.p_lo") <= col("sales.s_price"))
    & (col("sales.s_price") < col("promotion.p_hi"))
)

MARKUP_PREDICATE = (col("sales.s_discount") <= 0.05) & (
    col("sales.s_price") < col("item.i_price")
)


class TestValidation:
    def test_band_join_between_fk_unrelated_tables_validates(self, snowflake_db):
        SPJQuery(["sales", "promotion"], BAND_PREDICATE).validate(snowflake_db)

    def test_condition_across_fk_edge_validates(self, snowflake_db):
        SPJQuery(["sales", "item"], MARKUP_PREDICATE).validate(snowflake_db)

    def test_cross_product_without_conditions_rejected(self, snowflake_db):
        query = SPJQuery(
            ["sales", "promotion"], col("promotion.p_kind") == 2
        )
        with pytest.raises(ReproError):
            query.validate(snowflake_db)

    def test_unreachable_table_reported(self, snowflake_db):
        query = SPJQuery(["sales", "promotion", "category"], BAND_PREDICATE)
        with pytest.raises(ReproError, match="join conditions"):
            query.validate(snowflake_db)


class TestBandJoinExecution:
    @pytest.fixture(scope="class")
    def truth(self, snowflake_db):
        return PromotionBandTemplate().true_rows(snowflake_db, 2)

    @pytest.mark.parametrize("kind", ["histogram", "robust"])
    def test_every_arm_plans_and_matches_truth(
        self, snowflake_db, snowflake_stats, kind, truth
    ):
        estimator = {
            "histogram": HistogramCardinalityEstimator(snowflake_stats),
            "robust": RobustCardinalityEstimator(snowflake_stats, policy=0.8),
        }[kind]
        optimizer = Optimizer(snowflake_db, estimator)
        planned = optimizer.optimize(SPJQuery(["sales", "promotion"], BAND_PREDICATE))
        assert "NonEquiJoin" in planned.explain()
        frame = planned.plan.execute(ExecutionContext(snowflake_db))
        assert frame.num_rows == truth

    def test_markup_join_matches_truth(self, snowflake_db, snowflake_stats):
        optimizer = Optimizer(
            snowflake_db, HistogramCardinalityEstimator(snowflake_stats)
        )
        planned = optimizer.optimize(SPJQuery(["sales", "item"], MARKUP_PREDICATE))
        frame = planned.plan.execute(ExecutionContext(snowflake_db))

        sales = snowflake_db.table("sales")
        item_prices = snowflake_db.table("item").column("i_price")
        matched = item_prices[sales.column("s_itemkey")]
        expected = int(
            (
                (sales.column("s_discount") <= 0.05)
                & (sales.column("s_price") < matched)
            ).sum()
        )
        assert frame.num_rows == expected

    def test_estimated_rows_positive(self, snowflake_db, snowflake_stats):
        optimizer = Optimizer(
            snowflake_db, HistogramCardinalityEstimator(snowflake_stats)
        )
        planned = optimizer.optimize(SPJQuery(["sales", "promotion"], BAND_PREDICATE))
        assert planned.estimated_rows > 0
        assert planned.estimated_cost > 0


class TestLaneParity:
    GRID = (0.5, 0.8, 0.95)

    def test_optimize_many_matches_scalar_on_band_join(
        self, snowflake_db, snowflake_stats
    ):
        estimator = RobustCardinalityEstimator(snowflake_stats, policy=0.8)
        optimizer = Optimizer(snowflake_db, estimator)
        lanes = optimizer.optimize_many(
            SPJQuery(["sales", "promotion"], BAND_PREDICATE), self.GRID
        )
        for threshold, lane in zip(self.GRID, lanes):
            scalar = optimizer.optimize(
                SPJQuery(["sales", "promotion"], BAND_PREDICATE, hint=threshold)
            )
            assert lane.plan.signature() == scalar.plan.signature()
            assert lane.estimated_cost == scalar.estimated_cost
            assert lane.estimated_rows == scalar.estimated_rows

    def test_optimize_many_matches_scalar_on_markup_join(
        self, snowflake_db, snowflake_stats
    ):
        estimator = RobustCardinalityEstimator(snowflake_stats, policy=0.8)
        optimizer = Optimizer(snowflake_db, estimator)
        lanes = optimizer.optimize_many(
            SPJQuery(["sales", "item"], MARKUP_PREDICATE), self.GRID
        )
        for threshold, lane in zip(self.GRID, lanes):
            scalar = optimizer.optimize(
                SPJQuery(["sales", "item"], MARKUP_PREDICATE, hint=threshold)
            )
            assert lane.plan.signature() == scalar.plan.signature()
            assert lane.estimated_cost == scalar.estimated_cost
            assert lane.estimated_rows == scalar.estimated_rows


class TestSessionNonEqui:
    """The full service path — SQL in, NonEquiJoin plan, traced run."""

    SQL = (
        "SELECT COUNT(*) AS hits FROM sales, promotion "
        "WHERE promotion.p_kind = 2 AND promotion.p_lo <= sales.s_price "
        "AND sales.s_price < promotion.p_hi"
    )

    @pytest.fixture(scope="class")
    def session(self, snowflake_db):
        from repro.service import Session

        return Session(snowflake_db, sample_size=300, statistics_seed=11)

    def test_prepare_plans_a_nonequi_join(self, session):
        prepared = session.prepare(self.SQL)
        assert "NonEquiJoin" in prepared.explain()

    def test_execute_matches_ground_truth(self, session, snowflake_db):
        result = session.execute(self.SQL)
        truth = PromotionBandTemplate().true_rows(snowflake_db, 2)
        assert int(result.column("hits")[0]) == truth

    def test_trace_records_sketch_backed_estimation(self, session):
        trace = session.trace_query(self.SQL, execute=True)
        assert trace["execution"] is not None
        assert "NonEquiJoin" in trace["execution"]["plan_shape"]
        assert trace["estimation"], "expected estimation spans"


class TestFKJoinOverABandJoin:
    """An FK join on top of a band join, on the indexed snowflake: the
    indexed NL candidate probing ``item.i_key`` has an outer side that
    spans two FK components (``sales`` and ``promotion``), and its
    fetched rows are priced per component instead of asking the
    estimator for a table set that is no rooted FK tree."""

    SQL = (
        "SELECT SUM(sales.s_price) AS r, COUNT(*) AS n "
        "FROM sales, item, promotion "
        "WHERE promotion.p_lo <= sales.s_price AND sales.s_price < promotion.p_hi "
        "AND promotion.p_kind = 1 AND item.i_attr BETWEEN 10 AND 40"
    )

    @staticmethod
    def truth(database):
        """``(sum of s_price in cents, pair count)`` by brute force."""
        sales, item = database.table("sales"), database.table("item")
        promotion = database.table("promotion")
        attrs = item.column("i_attr")[sales.column("s_itemkey")]  # i_key = row
        prices = sales.column("s_price")[(attrs >= 10) & (attrs <= 40)]
        cents = np.round(prices * 100).astype(np.int64)
        kind_1 = promotion.column("p_kind") == 1
        bands = zip(promotion.column("p_lo")[kind_1], promotion.column("p_hi")[kind_1])
        total = count = 0
        for lo, hi in bands:
            inside = (lo <= prices) & (prices < hi)
            total += int(cents[inside].sum())
            count += int(inside.sum())
        return total, count

    def test_plans_and_executes_to_the_exact_sum_and_count(self, snowflake_db):
        from repro.service import Session

        from tests.conftest import assert_rows_from_base_tables

        session = Session(snowflake_db, sample_size=300, statistics_seed=11)
        prepared = session.prepare(self.SQL)
        result = prepared.execute()
        total, count = self.truth(snowflake_db)
        assert count > 0
        assert int(result.column("n")[0]) == count
        assert round(float(result.column("r")[0]) * 100) == total

        (join,) = prepared.planned.plan.children()
        frame = join.execute(ExecutionContext(snowflake_db))
        assert frame.num_rows == count
        assert_rows_from_base_tables(frame, snowflake_db)


class TestCostModel:
    def test_nonequi_join_monotone_in_pairs(self):
        model = CostModel()
        cheap = model.nonequi_join(1000, 100, 500, 500, False)
        dear = model.nonequi_join(1000, 100, 50_000, 500, False)
        assert dear > cheap

    def test_residual_costs_extra(self):
        model = CostModel()
        bare = model.nonequi_join(1000, 100, 5000, 500, False)
        filtered = model.nonequi_join(1000, 100, 5000, 500, True)
        assert filtered > bare

    def test_sort_charged_on_right_input(self):
        model = CostModel()
        small = model.nonequi_join(1000, 10, 5000, 500, False)
        large = model.nonequi_join(1000, 10_000, 5000, 500, False)
        assert large > small
