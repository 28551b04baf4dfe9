"""The lattice's incremental costing against the independent re-coster.

``tests/reference_costing.py`` prices a finished plan tree from its
operators alone; re-costing a plan under the estimates it was built
with must reproduce the cost the DP assigned it, for every operator the
optimizer can emit — band joins included.
"""

import pytest

from repro.core import ExactCardinalityEstimator
from repro.cost import CostModel
from repro.engine import ExecutionContext
from repro.expressions import col
from repro.optimizer import Optimizer, SPJQuery
from repro.engine.scans import IndexCondition

from tests.reference_costing import PlanCoster, condition_to_expr


@pytest.fixture
def exact_card(tpch_db):
    exact = ExactCardinalityEstimator(tpch_db)

    def card(tables, predicate):
        return exact.estimate(tables, predicate).cardinality

    return card


QUERIES = [
    SPJQuery(["lineitem"], col("lineitem.l_quantity") > 30),
    SPJQuery(
        ["lineitem"],
        col("lineitem.l_shipdate").between("1997-07-01", "1997-07-05"),
    ),
    SPJQuery(
        ["lineitem"],
        col("lineitem.l_shipdate").between("1997-07-01", "1997-07-20")
        & col("lineitem.l_receiptdate").between("1997-07-01", "1997-07-20"),
    ),
    SPJQuery(["lineitem", "part"], col("part.p_size") <= 10),
    SPJQuery(["lineitem", "part"], col("part.p_partkey") == 3),
    SPJQuery(["lineitem", "orders"], None),
    SPJQuery(
        ["lineitem", "orders", "part"],
        (col("part.p_size") <= 10) & (col("orders.o_totalprice") > 250_000),
    ),
]


class TestConditionToExpr:
    def test_between(self, tpch_db):
        expr = condition_to_expr("lineitem", IndexCondition("l_shipdate", 5, 9))
        assert expr.columns() == {("lineitem", "l_shipdate")}

    def test_equality(self):
        expr = condition_to_expr("t", IndexCondition("c", 5, 5))
        assert "=" in repr(expr)

    def test_one_sided(self):
        expr = condition_to_expr("t", IndexCondition("c", low=5))
        assert ">= 5" in repr(expr).replace("'", "")


class TestRecostMatchesOriginal:
    @pytest.mark.parametrize("query", QUERIES, ids=range(len(QUERIES)))
    def test_recost_reproduces_optimizer_cost(self, tpch_db, exact_card, query):
        """Re-costing a plan under the estimates it was built with
        returns its original cost (before finalization)."""
        optimizer = Optimizer(tpch_db, ExactCardinalityEstimator(tpch_db))
        planned = optimizer.optimize(query)
        best = planned.alternatives[0]
        coster = PlanCoster(tpch_db, CostModel(), exact_card)
        cost, rows = coster.cost(best.operator)
        assert cost == pytest.approx(best.cost, rel=1e-9)
        assert rows == pytest.approx(best.rows, rel=1e-9)

    def test_recost_all_alternatives(self, tpch_db, exact_card):
        """Every candidate of a 3-way join re-costs to its DP cost."""
        query = QUERIES[-1]
        optimizer = Optimizer(tpch_db, ExactCardinalityEstimator(tpch_db))
        planned = optimizer.optimize(query)
        coster = PlanCoster(tpch_db, CostModel(), exact_card)
        for candidate in planned.alternatives:
            cost, _ = coster.cost(candidate.operator)
            assert cost == pytest.approx(candidate.cost, rel=1e-9)

    def test_recost_star_plan(self, star_db):
        exact = ExactCardinalityEstimator(star_db)

        def card(tables, predicate):
            return exact.estimate(tables, predicate).cardinality

        predicate = (
            col("dim1.d_attr").between(0, 99)
            & col("dim2.d_attr").between(50, 149)
            & col("dim3.d_attr").between(0, 99)
        )
        query = SPJQuery(["fact", "dim1", "dim2", "dim3"], predicate)
        optimizer = Optimizer(star_db, exact)
        planned = optimizer.optimize(query)
        coster = PlanCoster(star_db, CostModel(), card)
        for candidate in planned.alternatives:
            cost, _ = coster.cost(candidate.operator)
            assert cost == pytest.approx(candidate.cost, rel=1e-9)

    def test_recost_matches_simulated_time(self, tpch_db, exact_card):
        """Recost(exact) == simulated execution time."""
        model = CostModel()
        query = QUERIES[3]
        optimizer = Optimizer(tpch_db, ExactCardinalityEstimator(tpch_db))
        planned = optimizer.optimize(query)
        best = planned.alternatives[0]
        coster = PlanCoster(tpch_db, model, exact_card)
        cost, _ = coster.cost(best.operator)
        ctx = ExecutionContext(tpch_db)
        best.operator.execute(ctx)
        assert cost == pytest.approx(model.time_from_counters(ctx.counters), rel=1e-9)


class TestRecostUnderDifferentEstimates:
    def test_scaled_cardinalities_scale_risky_cost(self, tpch_db, exact_card):
        """Inflating cardinalities raises an index plan's re-cost."""
        query = QUERIES[1]
        optimizer = Optimizer(tpch_db, ExactCardinalityEstimator(tpch_db))
        planned = optimizer.optimize(query)
        seek = next(
            candidate
            for candidate in planned.alternatives
            if "IndexSeek" in candidate.operator.label()
        )

        def inflated(tables, predicate):
            return 5.0 * exact_card(tables, predicate)

        model = CostModel()
        base, _ = PlanCoster(tpch_db, model, exact_card).cost(seek.operator)
        more, _ = PlanCoster(tpch_db, model, inflated).cost(seek.operator)
        assert more > 2 * base
