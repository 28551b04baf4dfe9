"""Unit tests for repro.catalog.database."""

import numpy as np
import pytest

from repro.catalog import Column, ColumnType, Database, ForeignKey, Schema, Table
from repro.errors import CatalogError


def table(name, columns, data, primary_key=None, foreign_keys=None):
    return Table(
        name,
        Schema(columns, primary_key=primary_key, foreign_keys=foreign_keys or []),
        data,
    )


def chain_db() -> Database:
    """c <- b <- a : a has FK to b, b has FK to c."""
    c = table(
        "c",
        [Column("ck", ColumnType.INT64)],
        {"ck": np.arange(3)},
        primary_key="ck",
    )
    b = table(
        "b",
        [Column("bk", ColumnType.INT64), Column("b_ck", ColumnType.INT64)],
        {"bk": np.arange(6), "b_ck": np.arange(6) % 3},
        primary_key="bk",
        foreign_keys=[ForeignKey("b_ck", "c", "ck")],
    )
    a = table(
        "a",
        [Column("ak", ColumnType.INT64), Column("a_bk", ColumnType.INT64)],
        {"ak": np.arange(12), "a_bk": np.arange(12) % 6},
        primary_key="ak",
        foreign_keys=[ForeignKey("a_bk", "b", "bk")],
    )
    return Database([a, b, c])


class TestTables:
    def test_lookup(self):
        db = chain_db()
        assert db.table("a").name == "a"
        assert "b" in db
        assert db.table_names == ["a", "b", "c"]

    def test_missing_raises(self):
        with pytest.raises(CatalogError):
            chain_db().table("zzz")

    def test_duplicate_add_raises(self):
        db = chain_db()
        with pytest.raises(CatalogError):
            db.add_table(db.table("a"))

    def test_iteration(self):
        assert [t.name for t in chain_db()] == ["a", "b", "c"]


class TestForeignKeyGraph:
    def test_edges(self):
        db = chain_db()
        assert db.foreign_key_edge("a", "b") is not None
        assert db.foreign_key_edge("b", "a") is None
        assert db.foreign_key_edge("a", "c") is None

    def test_reachability(self):
        db = chain_db()
        assert db.reachable_from("a") == {"a", "b", "c"}
        assert db.reachable_from("b") == {"b", "c"}
        assert db.reachable_from("c") == {"c"}

    def test_root_relation_chain(self):
        db = chain_db()
        assert db.root_relation(["a", "b"]) == "a"
        assert db.root_relation(["a", "b", "c"]) == "a"
        assert db.root_relation(["b", "c"]) == "b"
        assert db.root_relation(["c"]) == "c"

    def test_root_relation_disconnected_raises(self):
        db = chain_db()
        # a and c are in the set but a cannot reach c without b
        with pytest.raises(CatalogError):
            db.root_relation(["a", "c"])

    def test_root_relation_empty_raises(self):
        with pytest.raises(CatalogError):
            chain_db().root_relation([])

    def test_validate_ok(self):
        chain_db().validate()

    def test_validate_detects_dangling_fk(self):
        c = table(
            "c",
            [Column("ck", ColumnType.INT64)],
            {"ck": np.arange(2)},
            primary_key="ck",
        )
        b = table(
            "b",
            [Column("bk", ColumnType.INT64), Column("b_ck", ColumnType.INT64)],
            {"bk": np.arange(3), "b_ck": np.array([0, 1, 99])},
            primary_key="bk",
            foreign_keys=[ForeignKey("b_ck", "c", "ck")],
        )
        with pytest.raises(CatalogError, match="missing from"):
            Database([b, c]).validate()

    def test_validate_detects_unknown_parent(self):
        b = table(
            "b",
            [Column("bk", ColumnType.INT64), Column("x", ColumnType.INT64)],
            {"bk": np.arange(2), "x": np.arange(2)},
            primary_key="bk",
            foreign_keys=[ForeignKey("x", "ghost", "gk")],
        )
        with pytest.raises(CatalogError, match="unknown table"):
            Database([b]).validate()

    def test_validate_detects_non_pk_target(self):
        c = table(
            "c",
            [Column("ck", ColumnType.INT64), Column("other", ColumnType.INT64)],
            {"ck": np.arange(2), "other": np.arange(2)},
            primary_key="ck",
        )
        b = table(
            "b",
            [Column("bk", ColumnType.INT64), Column("x", ColumnType.INT64)],
            {"bk": np.arange(2), "x": np.arange(2)},
            primary_key="bk",
            foreign_keys=[ForeignKey("x", "c", "other")],
        )
        with pytest.raises(CatalogError, match="primary key"):
            Database([b, c]).validate()

    def test_validate_detects_cycle(self):
        x = table(
            "x",
            [Column("xk", ColumnType.INT64), Column("x_yk", ColumnType.INT64)],
            {"xk": np.arange(2), "x_yk": np.arange(2)},
            primary_key="xk",
            foreign_keys=[ForeignKey("x_yk", "y", "yk")],
        )
        y = table(
            "y",
            [Column("yk", ColumnType.INT64), Column("y_xk", ColumnType.INT64)],
            {"yk": np.arange(2), "y_xk": np.arange(2)},
            primary_key="yk",
            foreign_keys=[ForeignKey("y_xk", "x", "xk")],
        )
        with pytest.raises(CatalogError, match="cycle"):
            Database([x, y]).validate()


class TestIndexes:
    def test_create_and_lookup(self):
        db = chain_db()
        db.create_index("a", "a_bk")
        assert db.has_index("a", "a_bk")
        assert db.sorted_index("a", "a_bk") is not None
        assert db.sorted_index("a", "ak") is None
        assert not db.has_index("a", "ak")

    def test_clustering_column(self):
        db = chain_db()
        db.create_index("a", "ak", clustered=True)
        assert db.clustering_column("a") == "ak"
        assert db.clustering_column("b") is None

    def test_conflicting_clustering_raises(self):
        db = chain_db()
        db.create_index("a", "ak", clustered=True)
        with pytest.raises(CatalogError, match="already clustered"):
            db.create_index("a", "a_bk", clustered=True)

    def test_missing_column_raises(self):
        with pytest.raises(CatalogError):
            chain_db().create_index("a", "zzz")

    def test_clustering_is_checked_against_storage_order(self):
        """A clustered index promises the table is stored in key order:
        the optimizer then reads a SeqScan as ordered and drops an ORDER
        BY's sort. A column stored out of order is refused — declared
        clustered, ``ORDER BY t.t_c LIMIT 5`` answered five rows in
        storage order — and indexed nonclustered it sorts."""
        from repro.core import ExactCardinalityEstimator
        from repro.engine import ExecutionContext
        from repro.optimizer import Optimizer
        from repro.sql import parse_query

        shuffled = np.random.default_rng(0).permutation(5000)
        db = Database(
            [
                table(
                    "t",
                    [Column("t_id", ColumnType.INT64), Column("t_c", ColumnType.INT64)],
                    {"t_id": np.arange(5000), "t_c": shuffled},
                    primary_key="t_id",
                )
            ]
        )
        with pytest.raises(CatalogError, match="not stored in 't_c' order"):
            db.create_index("t", "t_c", clustered=True)
        assert db.clustering_column("t") is None
        assert not db.has_index("t", "t_c")

        db.create_index("t", "t_id", clustered=True)
        db.create_index("t", "t_c")
        query = parse_query("SELECT t.t_c FROM t ORDER BY t.t_c LIMIT 5", db)
        plan = Optimizer(db, ExactCardinalityEstimator(db)).optimize(query).plan
        frame = plan.execute(ExecutionContext(db))
        assert frame.column("t.t_c").tolist() == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize(
        "values",
        [[1, 1, 2, 5], [0.5, 2.0, np.nan, np.nan], ["a", "a", "b"], [7]],
        ids=["int-runs", "float-nan-last", "strings", "one-row"],
    )
    def test_clustering_accepts_non_decreasing_columns(self, values):
        values = np.array(values)
        ctype = {"i": ColumnType.INT64, "f": ColumnType.FLOAT64}.get(
            values.dtype.kind, ColumnType.STRING
        )
        db = Database([table("t", [Column("t_c", ctype)], {"t_c": values})])
        db.create_index("t", "t_c", clustered=True)
        assert db.clustering_column("t") == "t_c"
