"""Unit tests for aggregation operators."""

import gc
import weakref

import numpy as np
import pytest

from repro.engine import (
    AggregateSpec,
    ExecutionContext,
    Filter,
    HashAggregate,
    Limit,
    Project,
    SeqScan,
    Sort,
    kernels,
)
from repro.engine import sort as sort_module
from repro.engine.base import PhysicalOperator
from repro.errors import ExecutionError
from repro.expressions import Frame, col
from repro.expressions.frame import _Source

from tests.conftest import make_two_table_db, materialized_columns


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

    def test_count_reads_no_column(self, db):
        """COUNT(*) and COUNT(col) are the row count (no NULLs), bit for
        bit, and COUNT(col) over a selection frame gathers nothing."""
        frames = []

        class Captured(PhysicalOperator):
            def execute(self, ctx):
                frames.append(
                    SeqScan("lineitem", col("lineitem.l_quantity") > 25)
                    .execute(ctx)
                )
                return frames[-1]

        plan = HashAggregate(
            Captured(),
            [
                AggregateSpec("count", "*", "n"),
                AggregateSpec("count", "lineitem.l_shipdate", "n_ship"),
            ],
        )
        frame = plan.execute(ExecutionContext(db))
        quantity = db.table("lineitem").column("l_quantity")
        expected = np.array([float(len(quantity[quantity > 25]))])
        for name in ("n", "n_ship"):
            assert frame.column(name).dtype == expected.dtype
            assert frame.column(name).tobytes() == expected.tobytes()
        assert "lineitem.l_shipdate" not in materialized_columns(frames[0])

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


class _Rows(PhysicalOperator):
    """A leaf yielding fixed columns through a selection vector (the
    shape of a join's output), charging one cpu row per row."""

    def __init__(self, columns: dict, seed: int = 0) -> None:
        self.columns = columns
        self.seed = seed

    def execute(self, ctx):
        n = len(next(iter(self.columns.values())))
        ctx.counters.cpu_rows += n
        order = np.random.default_rng(self.seed).permutation(n)
        return Frame(self.columns).take(order)

    def label(self) -> str:
        return f"Rows({', '.join(self.columns)})"


def _rows(keys, seed=1) -> _Rows:
    """Keys plus an int and an inexact float column per row."""
    keys = np.asarray(keys)
    rng = np.random.default_rng(seed)
    return _Rows(
        {
            "t.k": keys,
            "t.i": rng.integers(-50, 1000, len(keys)),
            "t.f": rng.uniform(0, 1e5, len(keys)) / 7,
        },
        seed,
    )


#: Every function over the int and the float column, COUNT(*) first.
_EVERY_AGGREGATE = [AggregateSpec("count", "*", "n")] + [
    AggregateSpec(func, column, f"{func}_{column[-1]}")
    for func in ("sum", "avg", "min", "max")
    for column in ("t.i", "t.f")
]


def _keys(n_groups: int, seed: int = 2, low: int = 0) -> np.ndarray:
    """Group sizes 1–11 (lengths repeat, so the float reduce batches),
    keys shuffled and spaced out over a compact span from ``low``."""
    rng = np.random.default_rng(seed)
    distinct = low + np.sort(rng.choice(3 * n_groups, n_groups, replace=False))
    return rng.permutation(np.repeat(distinct, rng.integers(1, 12, n_groups)))


class TestLimitReadsOnlyItsGroups:
    """``Limit(k)`` over ``Sort`` on the group key makes a compact-key
    aggregate reduce only the ``k`` groups read. Every case equals the
    full computation (the same plan with the Limit's read count
    withheld) in result bytes and dtypes, ``WorkCounters``,
    ``operator_rows``, ``operator_work`` and ``explain()``."""

    @pytest.fixture
    def reduced(self, monkeypatch):
        """Group counts each ``compact_group_rows`` call reduced."""
        calls = []
        inner = kernels.compact_group_rows

        def spy(groups, selected):
            calls.append(len(selected))
            return inner(groups, selected)

        monkeypatch.setattr(kernels, "compact_group_rows", spy)
        return calls

    @staticmethod
    def _run(plan, db):
        rows, work = {}, {}
        ctx = ExecutionContext(db, operator_rows=rows, operator_work=work)
        frame = plan.execute(ctx)
        ops = list(plan.walk())
        return (
            frame,
            ctx.counters,
            [rows[op] for op in ops],
            [work[op] for op in ops],
            plan.explain(),
        )

    def assert_full_equal(self, plan, db, monkeypatch):
        """Run ``plan`` as is and with no read count; return the frame."""
        explain, signature = plan.explain(), plan.signature()
        got = self._run(plan, db)
        with monkeypatch.context() as patch:
            patch.setattr(sort_module, "_groups_in_key_order", lambda child: None)
            want = self._run(plan, db)
        frame, expected = got[0], want[0]
        assert frame.column_names == expected.column_names
        for name in frame.column_names:
            column, reference = frame.column(name), expected.column(name)
            assert column.dtype == reference.dtype, name
            assert column.tobytes() == reference.tobytes(), name
        assert got[1:] == want[1:]
        assert plan.explain() == explain == got[4]
        assert plan.signature() == signature
        assert all(type(src) is _Source for src in frame._sources.values())
        return frame

    @staticmethod
    def _plan(child, aggregates, limit, group_by=("t.k",), order_by=("t.k",)):
        plan = HashAggregate(child, aggregates, group_by=list(group_by))
        if order_by:
            plan = Sort(plan, list(order_by))
        return plan if limit is None else Limit(plan, limit)

    @pytest.mark.parametrize("offset", [-40, -39, -1, 0, 5])
    def test_every_limit_around_the_group_count(self, offset, monkeypatch, reduced):
        """LIMIT 0, 1, n−1, n and n+5 over n = 40 groups."""
        db = make_two_table_db(5, 5)
        limit = 40 + offset
        plan = self._plan(_rows(_keys(40)), _EVERY_AGGREGATE, limit)
        frame = self.assert_full_equal(plan, db, monkeypatch)
        assert frame.num_rows == min(limit, 40)
        # Below n the eight non-COUNT columns each reduce k groups (once
        # for the run itself); from n up the group sort serves them.
        assert reduced == ([limit] * 8 if limit < 40 else [])

    def test_values_equal_one_reduction_per_group(self, reduced):
        db = make_two_table_db(5, 5)
        child = _rows(_keys(60, seed=4), seed=4)
        plan = self._plan(child, _EVERY_AGGREGATE, 7)
        frame = plan.execute(ExecutionContext(db))
        # Each group's rows in the order the aggregate reads them.
        rows = child.execute(ExecutionContext(db))
        keys = rows.column("t.k")
        first = np.unique(keys)[:7]
        np.testing.assert_array_equal(frame.column("t.k"), first)
        for spec in _EVERY_AGGREGATE[1:]:
            column = rows.column(spec.column)
            expected = [
                float(getattr(column[keys == key], spec.func.replace("avg", "mean"))())
                for key in first
            ]
            assert frame.column(spec.alias).tolist() == expected, spec.alias
        assert reduced == [7] * 8

    @pytest.mark.parametrize(
        "keys",
        [
            pytest.param(np.full(9, 4), id="single-group"),
            pytest.param(_keys(30, low=-45), id="negative-keys"),
            pytest.param(_keys(30).astype(np.int32), id="int32-keys"),
        ],
    )
    def test_key_shapes(self, keys, monkeypatch):
        db = make_two_table_db(5, 5)
        for limit in (0, 1, 3):
            plan = self._plan(_rows(keys), _EVERY_AGGREGATE, limit)
            self.assert_full_equal(plan, db, monkeypatch)

    def test_empty_input(self, db, monkeypatch, reduced):
        scan = SeqScan("lineitem", col("lineitem.l_quantity") > 1e9)
        aggregates = [
            AggregateSpec("sum", "lineitem.l_quantity", "q"),
            AggregateSpec("count", "*", "n"),
        ]
        plan = self._plan(
            scan, aggregates, 3, ["lineitem.l_partkey"], ["lineitem.l_partkey"]
        )
        assert self.assert_full_equal(plan, db, monkeypatch).num_rows == 0
        assert reduced == []

    def test_over_a_base_table_scan(self, db, monkeypatch, reduced):
        scan = SeqScan("lineitem", col("lineitem.l_quantity") > 10)
        aggregates = [
            AggregateSpec("avg", "lineitem.l_shipdate", "ship"),
            AggregateSpec("sum", "lineitem.l_quantity", "q"),
        ]
        plan = self._plan(
            scan, aggregates, 6, ["lineitem.l_partkey"], ["lineitem.l_partkey"]
        )
        self.assert_full_equal(plan, db, monkeypatch)
        assert reduced == [6, 6]

    def test_distinct(self, monkeypatch, reduced):
        plan = self._plan(_rows(_keys(20)), [], 5)
        frame = self.assert_full_equal(plan, make_two_table_db(5, 5), monkeypatch)
        assert frame.column_names == ["t.k"] and reduced == []

    @pytest.mark.parametrize(
        "case",
        ["wide-span", "two-keys", "order-by-alias", "no-limit", "no-sort", "float-key"],
    )
    def test_fallbacks_keep_the_group_sort(self, case, monkeypatch, reduced):
        keys = _keys(30)
        group_by, order_by, limit = ("t.k",), ("t.k",), 5
        if case == "wide-span":
            keys = keys * 2**30
        elif case == "two-keys":
            group_by = order_by = ("t.k", "t.i")
        elif case == "order-by-alias":
            order_by = ("sum_f",)
        elif case == "no-limit":
            limit = None
        elif case == "no-sort":
            order_by = ()
        elif case == "float-key":
            keys = keys / 4
        plan = self._plan(_rows(keys), _EVERY_AGGREGATE, limit, group_by, order_by)
        self.assert_full_equal(plan, make_two_table_db(5, 5), monkeypatch)
        assert reduced == []

    def test_the_limit_keeps_no_reference_to_the_input(self):
        """What the plan returns holds plain arrays of ``k`` rows; the
        aggregate's input is released when the plan returns."""
        inputs = []

        class Watched(_Rows):
            def execute(self, ctx):
                frame = super().execute(ctx)
                inputs.append(weakref.ref(frame))
                return frame

        plan = self._plan(Watched(_rows(_keys(50)).columns), _EVERY_AGGREGATE, 3)
        frame = plan.execute(ExecutionContext(make_two_table_db(5, 5)))
        gc.collect()
        assert inputs and inputs[0]() is None
        for spec in _EVERY_AGGREGATE[1:]:
            source = frame._sources[spec.alias]
            assert source.sel is None and len(source.base) == 3
