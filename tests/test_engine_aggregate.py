"""Unit tests for aggregation operators."""

import numpy as np
import pytest

from repro.engine import (
    AggregateSpec,
    ExecutionContext,
    Filter,
    HashAggregate,
    Project,
    SeqScan,
)
from repro.engine.base import PhysicalOperator
from repro.errors import ExecutionError
from repro.expressions import Frame, col

from tests.conftest import make_two_table_db


@pytest.fixture
def db():
    return make_two_table_db(n_part=30, n_lineitem=400)


class TestScalarAggregates:
    def test_sum(self, db):
        plan = HashAggregate(
            SeqScan("lineitem"),
            [AggregateSpec("sum", "lineitem.l_quantity", "total")],
        )
        frame = plan.execute(ExecutionContext(db))
        assert frame.num_rows == 1
        expected = db.table("lineitem").column("l_quantity").sum()
        assert frame.column("total")[0] == pytest.approx(expected)

    def test_count_star(self, db):
        plan = HashAggregate(
            SeqScan("lineitem"), [AggregateSpec("count", "*", "n")]
        )
        frame = plan.execute(ExecutionContext(db))
        assert frame.column("n")[0] == db.table("lineitem").num_rows

    def test_min_max_avg(self, db):
        plan = HashAggregate(
            SeqScan("lineitem"),
            [
                AggregateSpec("min", "lineitem.l_quantity", "lo"),
                AggregateSpec("max", "lineitem.l_quantity", "hi"),
                AggregateSpec("avg", "lineitem.l_quantity", "mean"),
            ],
        )
        frame = plan.execute(ExecutionContext(db))
        quantity = db.table("lineitem").column("l_quantity")
        assert frame.column("lo")[0] == quantity.min()
        assert frame.column("hi")[0] == quantity.max()
        assert frame.column("mean")[0] == pytest.approx(quantity.mean())

    def test_sum_of_empty_input_is_zero(self, db):
        plan = HashAggregate(
            SeqScan("lineitem", col("lineitem.l_quantity") > 1e9),
            [AggregateSpec("sum", "lineitem.l_quantity", "total")],
        )
        frame = plan.execute(ExecutionContext(db))
        assert frame.column("total")[0] == 0.0

    def test_min_of_empty_input_is_nan(self, db):
        plan = HashAggregate(
            SeqScan("lineitem", col("lineitem.l_quantity") > 1e9),
            [AggregateSpec("min", "lineitem.l_quantity", "lo")],
        )
        frame = plan.execute(ExecutionContext(db))
        assert np.isnan(frame.column("lo")[0])


class TestGroupedAggregates:
    def test_group_by_fk(self, db):
        plan = HashAggregate(
            SeqScan("lineitem"),
            [AggregateSpec("count", "*", "n")],
            group_by=["lineitem.l_partkey"],
        )
        frame = plan.execute(ExecutionContext(db))
        fk = db.table("lineitem").column("l_partkey")
        keys, counts = np.unique(fk, return_counts=True)
        assert frame.num_rows == len(keys)
        order = np.argsort(frame.column("lineitem.l_partkey"))
        assert np.array_equal(
            frame.column("n")[order].astype(int), counts
        )

    def test_group_sums_match_total(self, db):
        plan = HashAggregate(
            SeqScan("lineitem"),
            [AggregateSpec("sum", "lineitem.l_quantity", "q")],
            group_by=["lineitem.l_partkey"],
        )
        frame = plan.execute(ExecutionContext(db))
        total = db.table("lineitem").column("l_quantity").sum()
        assert frame.column("q").sum() == pytest.approx(total)

    def test_float_sum_and_avg_bit_identical_to_one_reduction_per_group(self):
        """Inexact float sums over unsorted keys with repeated group
        sizes: the batched reduction equals ``np.sum`` per group."""
        rng = np.random.default_rng(3)
        keys = rng.permutation(np.repeat(np.arange(300), rng.integers(1, 12, 300)))
        amounts = rng.uniform(0, 1e5, len(keys)) / 7

        class Rows(PhysicalOperator):
            def execute(self, ctx):
                return Frame({"t.k": keys, "t.amount": amounts})

        aggregates = [
            AggregateSpec("sum", "t.amount", "total"),
            AggregateSpec("avg", "t.amount", "mean"),
            AggregateSpec("count", "*", "n"),
            AggregateSpec("count", "t.amount", "n_amount"),
        ]
        plan = HashAggregate(Rows(), aggregates, group_by=["t.k"])
        frame = plan.execute(ExecutionContext(make_two_table_db(5, 5)))
        np.testing.assert_array_equal(frame.column("t.k"), np.arange(300))
        groups = [amounts[keys == key] for key in range(300)]
        assert np.array_equal(frame.column("total"), [float(g.sum()) for g in groups])
        assert np.array_equal(frame.column("mean"), [float(g.mean()) for g in groups])
        assert np.array_equal(frame.column("n"), [float(len(g)) for g in groups])
        assert np.array_equal(frame.column("n"), frame.column("n_amount"))

    def test_multi_column_group(self, db):
        plan = HashAggregate(
            SeqScan("lineitem"),
            [AggregateSpec("count", "*", "n")],
            group_by=["lineitem.l_partkey", "lineitem.l_quantity"],
        )
        frame = plan.execute(ExecutionContext(db))
        table = db.table("lineitem")
        combos = {
            (int(a), float(b))
            for a, b in zip(table.column("l_partkey"), table.column("l_quantity"))
        }
        assert frame.num_rows == len(combos)

    def test_empty_input_grouped(self, db):
        plan = HashAggregate(
            SeqScan("lineitem", col("lineitem.l_quantity") > 1e9),
            [AggregateSpec("count", "*", "n")],
            group_by=["lineitem.l_partkey"],
        )
        frame = plan.execute(ExecutionContext(db))
        assert frame.num_rows == 0


class TestValidation:
    def test_unknown_function_raises(self):
        with pytest.raises(ExecutionError):
            AggregateSpec("median", "x", "m")

    def test_empty_aggregate_raises(self, db):
        with pytest.raises(ExecutionError):
            HashAggregate(SeqScan("lineitem"), [])


class TestFilterAndProject:
    def test_filter(self, db):
        plan = Filter(SeqScan("lineitem"), col("lineitem.l_quantity") > 25)
        ctx = ExecutionContext(db)
        frame = plan.execute(ctx)
        assert (frame.column("lineitem.l_quantity") > 25).all()
        assert ctx.counters.cpu_rows >= db.table("lineitem").num_rows

    def test_project(self, db):
        plan = Project(SeqScan("lineitem"), ["lineitem.l_id"])
        frame = plan.execute(ExecutionContext(db))
        assert frame.column_names == ["lineitem.l_id"]
        assert [op.label() for op in plan.walk()] == [
            "Project(lineitem.l_id)", "SeqScan(lineitem)"
        ]

    def test_explain_renders_tree(self, db):
        plan = Filter(SeqScan("lineitem"), col("lineitem.l_quantity") > 25)
        text = plan.explain()
        assert "Filter" in text and "SeqScan" in text

    def test_walk_visits_all(self, db):
        plan = Filter(SeqScan("lineitem"), col("lineitem.l_quantity") > 25)
        assert len(list(plan.walk())) == 2
