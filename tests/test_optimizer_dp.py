"""Integration tests for the full optimizer (DP, joins, finalization)."""

import numpy as np
import pytest

from repro.core import ExactCardinalityEstimator, RobustCardinalityEstimator
from repro.cost import CostModel
from repro.engine import (
    AggregateSpec,
    ExecutionContext,
    HashJoin,
    IndexedNLJoin,
    MergeJoin,
)
from repro.errors import OptimizationError
from repro.expressions import col
from repro.optimizer import Optimizer, SPJQuery


@pytest.fixture
def optimizer(tpch_db):
    return Optimizer(tpch_db, ExactCardinalityEstimator(tpch_db))


def execute(db, planned):
    ctx = ExecutionContext(db)
    frame = planned.plan.execute(ctx)
    return frame, CostModel().time_from_counters(ctx.counters)


class TestSingleTable:
    def test_scan_chosen_at_high_selectivity(self, optimizer):
        query = SPJQuery(["lineitem"], col("lineitem.l_quantity") > 10)
        planned = optimizer.optimize(query)
        assert "SeqScan" in planned.plan.label()

    def test_index_chosen_at_low_selectivity(self, optimizer, tpch_db):
        # a 2-day window is far below the crossover
        query = SPJQuery(
            ["lineitem"],
            col("lineitem.l_shipdate").between("1997-07-01", "1997-07-02"),
        )
        planned = optimizer.optimize(query)
        assert "IndexSeek" in planned.plan.label()

    def test_correct_result_any_plan(self, optimizer, tpch_db):
        predicate = col("lineitem.l_shipdate").between("1997-07-01", "1997-07-31")
        query = SPJQuery(["lineitem"], predicate)
        planned = optimizer.optimize(query)
        frame, _ = execute(tpch_db, planned)
        truth = ExactCardinalityEstimator(tpch_db).estimate(
            {"lineitem"}, predicate
        )
        assert frame.num_rows == truth.cardinality


class TestJoins:
    def test_two_way_join_result_correct(self, optimizer, tpch_db):
        predicate = col("part.p_size") <= 10
        query = SPJQuery(["lineitem", "part"], predicate)
        planned = optimizer.optimize(query)
        frame, _ = execute(tpch_db, planned)
        truth = ExactCardinalityEstimator(tpch_db).estimate(
            {"lineitem", "part"}, predicate
        )
        assert frame.num_rows == truth.cardinality

    def test_three_way_join_result_correct(self, optimizer, tpch_db):
        predicate = (col("part.p_size") <= 10) & (
            col("orders.o_totalprice") > 100_000
        )
        query = SPJQuery(["lineitem", "orders", "part"], predicate)
        planned = optimizer.optimize(query)
        frame, _ = execute(tpch_db, planned)
        truth = ExactCardinalityEstimator(tpch_db).estimate(
            set(query.tables), predicate
        )
        assert frame.num_rows == truth.cardinality

    def test_four_way_chain_join(self, optimizer, tpch_db):
        query = SPJQuery(
            ["lineitem", "orders", "customer", "part"],
            col("customer.c_acctbal") > 0,
        )
        planned = optimizer.optimize(query)
        frame, _ = execute(tpch_db, planned)
        truth = ExactCardinalityEstimator(tpch_db).estimate(
            set(query.tables), query.predicate
        )
        assert frame.num_rows == truth.cardinality

    def test_indexed_nl_at_tiny_selectivity(self, optimizer):
        query = SPJQuery(["lineitem", "part"], col("part.p_partkey") == 3)
        planned = optimizer.optimize(query)
        kinds = {type(op) for op in planned.plan.walk()}
        assert IndexedNLJoin in kinds

    def test_merge_join_when_everything_joins(self, optimizer):
        query = SPJQuery(["lineitem", "orders"], None)
        planned = optimizer.optimize(query)
        kinds = {type(op) for op in planned.plan.walk()}
        # both clustered on the join keys: merge join should win
        assert MergeJoin in kinds

    def test_hash_join_builds_on_smaller_side(self, optimizer):
        query = SPJQuery(["lineitem", "part"], col("part.p_size") <= 25)
        planned = optimizer.optimize(query)
        hash_joins = [
            op for op in planned.plan.walk() if isinstance(op, HashJoin)
        ]
        for join in hash_joins:
            assert join.build.est_rows <= join.probe.est_rows


class TestCostConsistency:
    """With exact cardinalities, estimated cost == simulated time."""

    @pytest.mark.parametrize(
        "tables, predicate",
        [
            (["lineitem"], col("lineitem.l_quantity") > 30),
            (
                ["lineitem"],
                col("lineitem.l_shipdate").between("1997-07-01", "1997-07-05"),
            ),
            (["lineitem", "part"], col("part.p_size") <= 10),
            (
                ["lineitem", "orders", "part"],
                (col("part.p_size") <= 10)
                & (col("orders.o_totalprice") > 250_000),
            ),
        ],
    )
    def test_estimate_matches_execution(self, optimizer, tpch_db, tables, predicate):
        planned = optimizer.optimize(SPJQuery(tables, predicate))
        _, simulated = execute(tpch_db, planned)
        assert planned.estimated_cost == pytest.approx(simulated, rel=1e-6)

    def test_chosen_plan_is_cheapest_alternative(self, optimizer):
        query = SPJQuery(["lineitem", "part"], col("part.p_size") <= 10)
        planned = optimizer.optimize(query)
        costs = [candidate.cost for candidate in planned.alternatives]
        assert planned.estimated_cost <= min(costs) + 1e-12


class TestFinalization:
    def test_scalar_aggregate(self, optimizer, tpch_db):
        query = SPJQuery(
            ["lineitem"],
            col("lineitem.l_quantity") > 45,
            aggregates=[AggregateSpec("sum", "lineitem.l_extendedprice", "rev")],
        )
        planned = optimizer.optimize(query)
        frame, _ = execute(tpch_db, planned)
        assert frame.num_rows == 1
        table = tpch_db.table("lineitem")
        mask = table.column("l_quantity") > 45
        assert frame.column("rev")[0] == pytest.approx(
            table.column("l_extendedprice")[mask].sum()
        )

    def test_group_by(self, optimizer, tpch_db):
        query = SPJQuery(
            ["lineitem"],
            None,
            aggregates=[AggregateSpec("count", "*", "n")],
            group_by=["lineitem.l_partkey"],
        )
        planned = optimizer.optimize(query)
        frame, _ = execute(tpch_db, planned)
        truth = len(np.unique(tpch_db.table("lineitem").column("l_partkey")))
        assert frame.num_rows == truth

    @staticmethod
    def _plan_group_by_with(monkeypatch, tpch_db, tpch_stats, error):
        """Plan a GROUP BY while the sample-based group estimator raises."""
        import repro.core.robust

        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(repro.core.robust, "gee_estimator", failing)
        optimizer = Optimizer(tpch_db, RobustCardinalityEstimator(tpch_stats))
        return optimizer.optimize(
            SPJQuery(
                ["lineitem"],
                None,
                aggregates=[AggregateSpec("count", "*", "n")],
                group_by=["lineitem.l_partkey"],
            )
        )

    def test_group_estimation_error_falls_back_to_histogram(
        self, monkeypatch, tpch_db, tpch_stats
    ):
        from repro.errors import EstimationError

        planned = self._plan_group_by_with(
            monkeypatch, tpch_db, tpch_stats, EstimationError("no synopsis")
        )
        # The histogram heuristic: distinct l_partkey values (far fewer
        # than lineitem rows, so the row cap does not bind).
        histogram = tpch_stats.histogram("lineitem", "l_partkey")
        assert planned.estimated_rows == histogram.distinct_values

    def test_group_estimation_bug_propagates(
        self, monkeypatch, tpch_db, tpch_stats
    ):
        with pytest.raises(TypeError, match="boom"):
            self._plan_group_by_with(
                monkeypatch, tpch_db, tpch_stats, TypeError("boom")
            )

    def test_projection(self, optimizer, tpch_db):
        query = SPJQuery(
            ["lineitem"],
            col("lineitem.l_quantity") > 45,
            projection=["lineitem.l_linenumber"],
        )
        planned = optimizer.optimize(query)
        frame, _ = execute(tpch_db, planned)
        assert frame.column_names == ["lineitem.l_linenumber"]

    def test_estimation_call_count_reported(self, optimizer):
        query = SPJQuery(["lineitem", "part"], col("part.p_size") <= 10)
        planned = optimizer.optimize(query)
        assert planned.estimation_calls > 0

    def test_explain_output(self, optimizer):
        query = SPJQuery(["lineitem", "part"], col("part.p_size") <= 10)
        planned = optimizer.optimize(query)
        text = planned.explain()
        assert "rows=" in text and "cost=" in text


class TestRobustIntegration:
    def test_robust_estimator_plugs_in(self, tpch_db, tpch_stats):
        """The whole point: only the estimator changes."""
        estimator = RobustCardinalityEstimator(tpch_stats, policy=0.8)
        optimizer = Optimizer(tpch_db, estimator)
        query = SPJQuery(
            ["lineitem"],
            col("lineitem.l_shipdate").between("1997-07-01", "1997-09-30")
            & col("lineitem.l_receiptdate").between("1997-07-01", "1997-09-30"),
        )
        planned = optimizer.optimize(query)
        frame, _ = execute(tpch_db, planned)
        truth = ExactCardinalityEstimator(tpch_db).estimate(
            {"lineitem"}, query.predicate
        )
        assert frame.num_rows == truth.cardinality  # plans never change results

    def test_query_hint_respected(self, tpch_db, tpch_stats):
        estimator = RobustCardinalityEstimator(tpch_stats, policy=0.5)
        optimizer = Optimizer(tpch_db, estimator)
        predicate = col("lineitem.l_shipdate").between("1997-07-01", "1997-09-30")
        rows_by_hint = {}
        for hint in (0.05, 0.95):
            planned = optimizer.optimize(
                SPJQuery(["lineitem"], predicate, hint=hint)
            )
            rows_by_hint[hint] = planned.estimated_rows
        assert rows_by_hint[0.05] < rows_by_hint[0.95]


class TestPlanningDiagnostics:
    def test_estimates_exposed(self, optimizer):
        query = SPJQuery(["lineitem", "part"], col("part.p_size") <= 10)
        planned = optimizer.optimize(query)
        assert planned.estimates
        tables_seen = {key[0] for key in planned.estimates}
        assert frozenset({"lineitem", "part"}) in tables_seen

    def test_robust_estimates_carry_posteriors(self, tpch_db, tpch_stats):
        estimator = RobustCardinalityEstimator(tpch_stats, policy=0.8)
        planned = Optimizer(tpch_db, estimator).optimize(
            SPJQuery(["lineitem"], col("lineitem.l_quantity") > 40)
        )
        posteriors = [
            estimate.posterior
            for estimate in planned.estimates.values()
            if estimate.posterior is not None
        ]
        assert posteriors
        for posterior in posteriors:
            low, high = posterior.credible_interval(0.9)
            assert 0 <= low <= high <= 1
