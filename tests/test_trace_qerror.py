"""Q-error accounting on a hand-built two-table query.

The execution span joins the optimizer's estimate against the observed
row count. Using an estimator whose estimates are an exact ground
truth scaled by a known factor makes every number in the span exactly
predictable: actual rows from the data, estimated rows = actual ×
factor, Q-error = max(factor, 1/factor), and the under/over flags
follow the factor's side of 1.
"""

import pytest

from repro.core import ExactCardinalityEstimator
from repro.core.estimate import CardinalityEstimate
from repro.cost import CostModel
from repro.obs import execution_span, operator_spans
from repro.optimizer import Optimizer, SPJQuery

from tests.conftest import execute_recorded


class ScaledEstimator(ExactCardinalityEstimator):
    """Ground truth multiplied by a fixed factor — known error."""

    def __init__(self, database, factor):
        super().__init__(database)
        self.factor = factor

    def estimate(self, tables, predicate, hint=None):
        exact = super().estimate(tables, predicate, hint)
        return CardinalityEstimate(
            tables=exact.tables,
            selectivity=min(1.0, exact.selectivity * self.factor),
            cardinality=exact.cardinality * self.factor,
            root_table=exact.root_table,
            source="scaled-exact",
        )


def plan_and_span(database, factor):
    # join every lineitem row to its part: 2000 rows, no predicate,
    # so the only estimation question is the join cardinality itself
    query = SPJQuery(["part", "lineitem"], None)
    cost_model = CostModel()
    planned = Optimizer(
        database, ScaledEstimator(database, factor), cost_model
    ).optimize(query)
    _, record = execute_recorded(planned.plan, database)
    return execution_span(
        planned.plan,
        record,
        cost_model,
        estimated_rows=planned.estimated_rows,
        estimated_cost=planned.estimated_cost,
    ), record[0][0]


class TestPlanLevelQError:
    def test_exact_estimate_has_qerror_one(self, two_table_db):
        span, actual = plan_and_span(two_table_db, factor=1.0)
        assert actual == 2000
        assert span["estimated_rows"] == pytest.approx(2000.0)
        assert span["q_error"] == pytest.approx(1.0)
        assert span["underestimate"] is False
        assert span["overestimate"] is False

    def test_underestimate_by_4x(self, two_table_db):
        span, actual = plan_and_span(two_table_db, factor=0.25)
        assert span["estimated_rows"] == pytest.approx(actual / 4)
        assert span["q_error"] == pytest.approx(4.0)
        assert span["underestimate"] is True
        assert span["overestimate"] is False

    def test_overestimate_by_2x(self, two_table_db):
        span, actual = plan_and_span(two_table_db, factor=2.0)
        assert span["estimated_rows"] == pytest.approx(actual * 2)
        assert span["q_error"] == pytest.approx(2.0)
        assert span["underestimate"] is False
        assert span["overestimate"] is True


class TestOperatorAttribution:
    def test_operator_counters_sum_to_plan_total(self, two_table_db):
        span, _ = plan_and_span(two_table_db, factor=1.0)
        totals = {name: 0.0 for name in span["counters"]}
        for op in span["operators"]:
            for name, value in op["counters"].items():
                totals[name] += value
        assert totals == pytest.approx(span["counters"])

    def test_total_work_matches_counter_sum(self, two_table_db):
        span, _ = plan_and_span(two_table_db, factor=1.0)
        assert span["total_work"] == pytest.approx(
            sum(span["counters"].values())
        )

    def test_time_breakdown_sums_to_simulated(self, two_table_db):
        span, _ = plan_and_span(two_table_db, factor=1.0)
        assert sum(span["time_breakdown"].values()) == pytest.approx(
            span["simulated_seconds"]
        )

    def test_root_actual_rows_from_reexecution(self, two_table_db):
        # (the name predates the capture: the rows are now read off the
        # one execution's record instead of a second run of the root)
        query = SPJQuery(["part", "lineitem"], None)
        planned = Optimizer(
            two_table_db, ExactCardinalityEstimator(two_table_db), CostModel()
        ).optimize(query)
        _, record = execute_recorded(planned.plan, two_table_db)
        spans = operator_spans(planned.plan, record)
        rows, counters = record[0]
        assert rows == 2000
        assert spans[0]["depth"] == 0
        assert spans[0]["actual_rows"] == 2000
        assert counters.total_work() > 0
