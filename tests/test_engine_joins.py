"""Unit tests for join operators, checked against brute-force joins."""

import numpy as np
import pytest

from repro.engine import (
    ExecutionContext,
    HashJoin,
    IndexedNLJoin,
    MergeJoin,
    SeqScan,
)
from repro.engine.kernels import match_keys
from repro.errors import ExecutionError
from repro.expressions import Frame, col

from tests.conftest import make_two_table_db


@pytest.fixture
def db():
    return make_two_table_db(n_part=40, n_lineitem=500)


def brute_force_join_size(db, part_mask=None, lineitem_mask=None):
    part_keys = db.table("part").column("p_partkey")
    li_fk = db.table("lineitem").column("l_partkey")
    keep_parts = part_keys if part_mask is None else part_keys[part_mask]
    keep_li = li_fk if lineitem_mask is None else li_fk[lineitem_mask]
    return int(np.isin(keep_li, keep_parts).sum())


class TestMatchKeys:
    def test_fk_join(self):
        left = np.array([10, 20, 20, 30])
        right = np.array([20, 10, 40])
        li, ri = match_keys(left, right)
        pairs = sorted(zip(left[li], right[ri]))
        assert pairs == [(10, 10), (20, 20), (20, 20)]

    def test_duplicates_both_sides(self):
        left = np.array([1, 1])
        right = np.array([1, 1, 1])
        li, ri = match_keys(left, right)
        assert len(li) == 6  # full cross product per key

    def test_empty(self):
        li, ri = match_keys(np.array([]), np.array([1]))
        assert len(li) == 0
        li, ri = match_keys(np.array([1]), np.array([]))
        assert len(ri) == 0

    def test_no_matches(self):
        li, ri = match_keys(np.array([1, 2]), np.array([3, 4]))
        assert len(li) == 0


class TestHashJoin:
    def test_fk_join_preserves_child_cardinality(self, db):
        join = HashJoin(
            SeqScan("part"),
            SeqScan("lineitem"),
            "part.p_partkey",
            "lineitem.l_partkey",
        )
        ctx = ExecutionContext(db)
        frame = join.execute(ctx)
        assert frame.num_rows == db.table("lineitem").num_rows
        assert ctx.counters.hash_build_rows == db.table("part").num_rows
        assert ctx.counters.hash_probe_rows == db.table("lineitem").num_rows

    def test_filtered_build_side(self, db):
        predicate = col("part.p_size") <= 10
        join = HashJoin(
            SeqScan("part", predicate),
            SeqScan("lineitem"),
            "part.p_partkey",
            "lineitem.l_partkey",
        )
        ctx = ExecutionContext(db)
        frame = join.execute(ctx)
        expected = brute_force_join_size(
            db, part_mask=db.table("part").column("p_size") <= 10
        )
        assert frame.num_rows == expected

    def test_join_values_align(self, db):
        join = HashJoin(
            SeqScan("part"),
            SeqScan("lineitem"),
            "part.p_partkey",
            "lineitem.l_partkey",
        )
        frame = join.execute(ExecutionContext(db))
        assert np.array_equal(
            frame.column("part.p_partkey"), frame.column("lineitem.l_partkey")
        )

    def test_output_has_both_tables_columns(self, db):
        join = HashJoin(
            SeqScan("part"),
            SeqScan("lineitem"),
            "part.p_partkey",
            "lineitem.l_partkey",
        )
        frame = join.execute(ExecutionContext(db))
        assert "part.p_brand" in frame.column_names
        assert "lineitem.l_quantity" in frame.column_names


class TestMergeJoin:
    def test_same_result_as_hash(self, db):
        hash_frame = HashJoin(
            SeqScan("part"),
            SeqScan("lineitem"),
            "part.p_partkey",
            "lineitem.l_partkey",
        ).execute(ExecutionContext(db))
        ctx = ExecutionContext(db)
        merge_frame = MergeJoin(
            SeqScan("part"),
            SeqScan("lineitem"),
            "part.p_partkey",
            "lineitem.l_partkey",
        ).execute(ctx)
        assert merge_frame.num_rows == hash_frame.num_rows
        assert ctx.counters.merge_rows == (
            db.table("part").num_rows + db.table("lineitem").num_rows
        )
        assert ctx.counters.hash_build_rows == 0


class TestIndexedNLJoin:
    def test_matches_hash_join(self, db):
        predicate = col("part.p_size") <= 5
        inl = IndexedNLJoin(
            SeqScan("part", predicate),
            "lineitem",
            "part.p_partkey",
            "l_partkey",
        )
        ctx = ExecutionContext(db)
        frame = inl.execute(ctx)
        expected = brute_force_join_size(
            db, part_mask=db.table("part").column("p_size") <= 5
        )
        assert frame.num_rows == expected
        # one index probe per outer row, one random I/O per match
        selected_parts = int((db.table("part").column("p_size") <= 5).sum())
        assert ctx.counters.index_lookups == selected_parts
        assert ctx.counters.random_ios == expected

    def test_residual_filters_inner(self, db):
        residual = col("lineitem.l_quantity") > 25
        inl = IndexedNLJoin(
            SeqScan("part"), "lineitem", "part.p_partkey", "l_partkey", residual
        )
        frame = inl.execute(ExecutionContext(db))
        assert (frame.column("lineitem.l_quantity") > 25).all()

    def test_equal_signatures_do_not_mean_equal_predicates(self, db):
        """The label omits the residual, so ``signature()`` alone cannot
        key executions across statements."""
        plans = [
            IndexedNLJoin(
                SeqScan("part"), "lineitem", "part.p_partkey", "l_partkey",
                col("lineitem.l_quantity") > bound,
            )
            for bound in (10, 40)
        ]
        assert plans[0].signature() == plans[1].signature()
        rows = [plan.execute(ExecutionContext(db)).num_rows for plan in plans]
        assert rows[0] != rows[1]

    def test_clustered_inner_counts_pages(self, db):
        # join lineitem ids 0..9 against the clustered l_id index
        outer = SeqScan("part", col("part.p_partkey") < 10)
        inl = IndexedNLJoin(outer, "lineitem", "part.p_partkey", "l_id")
        ctx = ExecutionContext(db)
        frame = inl.execute(ctx)
        assert frame.num_rows == 10
        assert ctx.counters.random_ios == 0
        assert ctx.counters.seq_pages >= 1

    @pytest.mark.parametrize("inner_column", ["l_partkey", "l_id"])
    @pytest.mark.parametrize(
        "residual", [None, col("lineitem.l_quantity") > 25], ids=["plain", "residual"]
    )
    def test_index_probe_equals_match_keys_over_inner_column(
        self, db, inner_column, residual
    ):
        """Probing the prebuilt index returns the rows, the row order
        and the work counters of matching against the whole inner column
        (non-clustered ``l_partkey`` with duplicate keys; clustered
        ``l_id``)."""
        outer = SeqScan("part", col("part.p_size") <= 30)
        inl = IndexedNLJoin(
            outer, "lineitem", "part.p_partkey", inner_column, residual
        )
        ctx = ExecutionContext(db)
        frame = inl.execute(ctx)

        expected_ctx = ExecutionContext(db)
        outer_frame = outer.execute(expected_ctx)
        inner = db.table("lineitem")
        outer_idx, inner_idx = match_keys(
            outer_frame.column("part.p_partkey"), inner.column(inner_column)
        )
        counters = expected_ctx.counters
        counters.index_lookups += outer_frame.num_rows
        counters.index_entries += len(inner_idx)
        if inner_column == "l_id":
            counters.seq_pages += -(-len(inner_idx) // inner.rows_per_page)
        else:
            counters.random_ios += len(inner_idx)
        expected = outer_frame.take(outer_idx).merged_with(
            Frame.from_table_rows(inner, inner_idx)
        )
        if residual is not None:
            counters.cpu_rows += expected.num_rows
            expected = expected.mask(residual.evaluate(expected))
        counters.rows_output += expected.num_rows

        assert frame.num_rows == expected.num_rows > 0
        assert frame.column_names == expected.column_names
        for name in expected.column_names:
            np.testing.assert_array_equal(frame.column(name), expected.column(name))
        assert ctx.counters.as_dict() == counters.as_dict()

    def test_missing_index_raises(self, db):
        inl = IndexedNLJoin(
            SeqScan("part"), "lineitem", "part.p_partkey", "l_quantity"
        )
        with pytest.raises(ExecutionError, match="no index"):
            inl.execute(ExecutionContext(db))
