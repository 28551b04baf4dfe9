"""Unit tests for the SPJQuery specification."""

import pytest

from repro.engine import AggregateSpec
from repro.errors import OptimizationError
from repro.expressions import col
from repro.optimizer import SPJQuery


class TestConstruction:
    def test_basic(self):
        query = SPJQuery(["lineitem"], col("lineitem.l_quantity") > 1)
        assert query.tables == ("lineitem",)

    def test_duplicate_tables_removed(self):
        query = SPJQuery(["a", "b", "a"])
        assert query.tables == ("a", "b")

    def test_empty_tables_raises(self):
        with pytest.raises(OptimizationError):
            SPJQuery([])

    def test_str(self):
        query = SPJQuery(
            ["lineitem", "orders"],
            col("lineitem.l_quantity") > 1,
            aggregates=[AggregateSpec("sum", "lineitem.l_quantity", "q")],
            group_by=["orders.o_orderkey"],
        )
        text = str(query)
        assert "lineitem" in text and "GROUP BY" in text


class TestJoinEdges:
    def test_edges_found(self, tpch_db):
        query = SPJQuery(["lineitem", "orders", "part"])
        edges = query.join_edges(tpch_db)
        pairs = {(e.child, e.parent) for e in edges}
        assert pairs == {("lineitem", "orders"), ("lineitem", "part")}

    def test_edge_columns_qualified(self, tpch_db):
        query = SPJQuery(["lineitem", "orders"])
        [edge] = query.join_edges(tpch_db)
        assert edge.child_column == "lineitem.l_orderkey"
        assert edge.parent_column == "orders.o_orderkey"

    def test_no_edges_single_table(self, tpch_db):
        assert SPJQuery(["lineitem"]).join_edges(tpch_db) == []


class TestValidation:
    def test_valid_query(self, tpch_db):
        SPJQuery(
            ["lineitem", "orders"], col("lineitem.l_quantity") > 1
        ).validate(tpch_db)

    def test_unknown_table_raises(self, tpch_db):
        with pytest.raises(Exception):
            SPJQuery(["ghost"]).validate(tpch_db)

    def test_disconnected_tables_raise(self, tpch_db):
        with pytest.raises(Exception):
            SPJQuery(["part", "customer"]).validate(tpch_db)

    def test_predicate_on_foreign_table_raises(self, tpch_db):
        query = SPJQuery(["lineitem"], col("part.p_size") > 1)
        with pytest.raises(OptimizationError, match="not in query"):
            query.validate(tpch_db)

    def test_unqualified_column_raises(self, tpch_db):
        query = SPJQuery(["lineitem"], col("l_quantity") > 1)
        with pytest.raises(OptimizationError, match="unqualified"):
            query.validate(tpch_db)

    def test_unknown_column_raises(self, tpch_db):
        query = SPJQuery(["lineitem"], col("lineitem.zzz") > 1)
        with pytest.raises(OptimizationError, match="no column"):
            query.validate(tpch_db)

    def test_columns_under_or_and_not_are_checked(self, tpch_db):
        typo = col("lineitem.zzz") > 1
        for predicate in ((col("lineitem.l_quantity") > 1) | typo, ~typo):
            with pytest.raises(OptimizationError, match="no column"):
                SPJQuery(["lineitem"], predicate).validate(tpch_db)


class TestPredicateRouting:
    def test_per_table(self):
        query = SPJQuery(
            ["lineitem", "part"],
            (col("lineitem.l_quantity") > 1) & (col("part.p_size") < 10),
        )
        routed = query.predicates_per_table()
        assert set(routed) == {"lineitem", "part"}

    def test_no_predicate(self):
        assert SPJQuery(["lineitem"]).predicates_per_table() == {}
