"""Unit tests for the SPJQuery specification."""

import numpy as np
import pytest

from bench.statements import FAMILIES
from repro import Session
from repro.engine import AggregateSpec
from repro.errors import OptimizationError
from repro.expressions import col
from repro.optimizer import SPJQuery
from repro.sql import parse_query

from tests.conftest import battery_queries


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


#: Statements that parse but read a column the engine cannot produce;
#: each must be refused at prepare, before a plan reaches the cache.
UNRUNNABLE = {
    "unknown select column": "SELECT orders.o_nope FROM orders",
    "unknown group column": (
        "SELECT orders.o_nope, COUNT(*) AS n FROM orders GROUP BY orders.o_nope"
    ),
    "unknown aggregate argument": "SELECT SUM(orders.o_nope) AS s FROM orders",
    "unknown order column": (
        "SELECT COUNT(*) AS n FROM orders ORDER BY orders.o_nope"
    ),
    "unqualified select column": "SELECT o_custkey FROM orders",
    "select column of another table": "SELECT part.p_size FROM orders",
    "order by an aggregated-away column": (
        "SELECT COUNT(*) AS n FROM orders ORDER BY orders.o_orderkey"
    ),
    "order by a non-group column": (
        "SELECT orders.o_custkey, COUNT(*) AS n FROM orders "
        "GROUP BY orders.o_custkey ORDER BY orders.o_totalprice"
    ),
    "order by a projected-away column": (
        "SELECT orders.o_custkey FROM orders ORDER BY orders.o_totalprice"
    ),
}


class TestOutputColumns:
    @pytest.mark.parametrize("policy", ["50", "histogram"])
    @pytest.mark.parametrize("case", sorted(UNRUNNABLE))
    def test_refused_at_prepare(self, tpch_db, tpch_stats, case, policy):
        session = Session(tpch_db, statistics=tpch_stats, policy=policy)
        query = parse_query(UNRUNNABLE[case])
        with pytest.raises(OptimizationError):
            session.prepare(query)
        assert len(session.plan_cache) == 0

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT orders.o_custkey, SUM(orders.o_totalprice) AS spend "
            "FROM orders GROUP BY orders.o_custkey ORDER BY spend LIMIT 3",
            "SELECT DISTINCT orders.o_custkey FROM orders "
            "ORDER BY orders.o_custkey",
            "SELECT orders.o_custkey FROM orders ORDER BY orders.o_custkey",
            "SELECT * FROM orders ORDER BY orders.o_totalprice LIMIT 2",
        ],
    )
    def test_sortable_outputs_run(self, tpch_db, tpch_stats, sql):
        session = Session(tpch_db, statistics=tpch_stats)
        assert session.execute(sql).num_rows > 0

    @pytest.mark.parametrize("family", ["tpch", "star", "snowflake"])
    def test_every_battery_statement_validates(self, families, family):
        database = families[family][0]
        for query in battery_queries(family, database):
            query.validate(database)

    def test_every_benchmark_statement_validates(self, families):
        databases = {
            "tpch": families["tpch"][0],
            "star": families["star"][0],
            "snow": families["snowflake"][0],
        }
        rng = np.random.default_rng(0)
        for make, dims in FAMILIES.values():
            for _ in range(5):
                statement = make(rng.random(dims).tolist())
                parse_query(statement.sql, databases[statement.database])


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
