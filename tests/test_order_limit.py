"""Tests for ORDER BY / LIMIT: operators, optimizer, and SQL syntax."""

import numpy as np
import pytest

from repro.core import ExactCardinalityEstimator
from repro.cost import CostModel
from repro.engine import ExecutionContext, Limit, SeqScan, Sort
from repro.errors import ExecutionError, OptimizationError
from repro.expressions import col
from repro.optimizer import Optimizer, SPJQuery
from repro.sql import parse_query

from tests.conftest import make_two_table_db


@pytest.fixture
def db():
    return make_two_table_db(n_part=40, n_lineitem=600)


class TestLimitOperator:
    def test_truncates(self, db):
        frame = Limit(SeqScan("lineitem"), 10).execute(ExecutionContext(db))
        assert frame.num_rows == 10

    def test_passes_short_input(self, db):
        frame = Limit(SeqScan("part"), 10_000).execute(ExecutionContext(db))
        assert frame.num_rows == db.table("part").num_rows

    def test_zero(self, db):
        frame = Limit(SeqScan("part"), 0).execute(ExecutionContext(db))
        assert frame.num_rows == 0

    def test_negative_raises(self, db):
        with pytest.raises(ExecutionError):
            Limit(SeqScan("part"), -1)


class TestMultiKeySort:
    def test_lexicographic(self, db):
        plan = Sort(SeqScan("lineitem"), ["lineitem.l_partkey", "lineitem.l_id"])
        frame = plan.execute(ExecutionContext(db))
        keys = frame.column("lineitem.l_partkey")
        ids = frame.column("lineitem.l_id")
        assert (np.diff(keys) >= 0).all()
        same_key = np.diff(keys) == 0
        assert (np.diff(ids)[same_key] > 0).all()

    def test_empty_keys_raise(self, db):
        with pytest.raises(ExecutionError):
            Sort(SeqScan("lineitem"), [])


class TestOptimizerOrderLimit:
    def test_order_by_applied(self, db):
        query = SPJQuery(
            ["lineitem"],
            col("lineitem.l_quantity") > 25,
            order_by=["lineitem.l_shipdate"],
        )
        planned = Optimizer(db, ExactCardinalityEstimator(db)).optimize(query)
        frame = planned.plan.execute(ExecutionContext(db))
        assert (np.diff(frame.column("lineitem.l_shipdate")) >= 0).all()

    def test_limit_applied(self, db):
        query = SPJQuery(["lineitem"], None, limit=7)
        planned = Optimizer(db, ExactCardinalityEstimator(db)).optimize(query)
        frame = planned.plan.execute(ExecutionContext(db))
        assert frame.num_rows == 7
        assert planned.estimated_rows == 7.0

    def test_order_limit_cost_matches_execution(self, db):
        model = CostModel()
        query = SPJQuery(
            ["lineitem"],
            col("lineitem.l_quantity") > 25,
            order_by=["lineitem.l_shipdate"],
            limit=5,
        )
        planned = Optimizer(db, ExactCardinalityEstimator(db), model).optimize(query)
        ctx = ExecutionContext(db)
        planned.plan.execute(ctx)
        assert planned.estimated_cost == pytest.approx(
            model.time_from_counters(ctx.counters), rel=1e-9
        )

    def test_sort_elided_when_order_available(self, db):
        """ORDER BY the clustering column costs no sort — the
        interesting-orders machinery pays off."""
        query = SPJQuery(["lineitem"], None, order_by=["lineitem.l_id"])
        planned = Optimizer(db, ExactCardinalityEstimator(db)).optimize(query)
        assert "Sort" not in planned.plan.explain()
        frame = planned.plan.execute(ExecutionContext(db))
        assert (np.diff(frame.column("lineitem.l_id")) >= 0).all()

    def test_sort_present_for_other_columns(self, db):
        query = SPJQuery(["lineitem"], None, order_by=["lineitem.l_quantity"])
        planned = Optimizer(db, ExactCardinalityEstimator(db)).optimize(query)
        assert "Sort" in planned.plan.explain()

    def test_negative_limit_rejected(self):
        with pytest.raises(OptimizationError):
            SPJQuery(["lineitem"], None, limit=-1)


class TestSqlOrderLimit:
    def test_parse_order_by(self, tpch_db):
        query = parse_query(
            "SELECT * FROM lineitem ORDER BY lineitem.l_shipdate", tpch_db
        )
        assert query.order_by == ("lineitem.l_shipdate",)

    def test_parse_multi_order(self, tpch_db):
        query = parse_query(
            "SELECT * FROM lineitem "
            "ORDER BY lineitem.l_partkey, lineitem.l_shipdate",
            tpch_db,
        )
        assert len(query.order_by) == 2

    def test_parse_limit(self, tpch_db):
        query = parse_query("SELECT * FROM lineitem LIMIT 10", tpch_db)
        assert query.limit == 10

    def test_full_clause_order(self, tpch_db):
        query = parse_query(
            "SELECT lineitem.l_partkey, COUNT(*) AS n FROM lineitem "
            "WHERE lineitem.l_quantity > 10 "
            "GROUP BY lineitem.l_partkey "
            "ORDER BY lineitem.l_partkey "
            "LIMIT 5 OPTION (CONFIDENCE 80)",
            tpch_db,
        )
        assert query.limit == 5
        assert query.hint == 0.8

    def test_fractional_limit_rejected(self):
        from repro.sql.lexer import SqlSyntaxError

        with pytest.raises(SqlSyntaxError, match="integer"):
            parse_query("SELECT * FROM t LIMIT 2.5")

    @pytest.mark.parametrize("limit", ["1e3", "1E+2", "5e0"])
    def test_exponent_limit_rejected(self, limit):
        """An exponent makes a float literal, even one with an integral
        value."""
        from repro.sql.lexer import SqlSyntaxError

        with pytest.raises(SqlSyntaxError, match="integer"):
            parse_query(f"SELECT * FROM t LIMIT {limit}")

    def test_sql_executes_end_to_end(self, tpch_db):
        query = parse_query(
            "SELECT * FROM lineitem WHERE lineitem.l_quantity > 48 "
            "ORDER BY lineitem.l_extendedprice LIMIT 3",
            tpch_db,
        )
        planned = Optimizer(tpch_db, ExactCardinalityEstimator(tpch_db)).optimize(
            query
        )
        frame = planned.plan.execute(ExecutionContext(tpch_db))
        assert frame.num_rows == 3
        prices = frame.column("lineitem.l_extendedprice")
        assert (np.diff(prices) >= 0).all()
