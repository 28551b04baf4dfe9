"""Tests for IndexUnionSeek (IN-list index-OR strategy)."""

import pytest

from repro.core import ExactCardinalityEstimator
from repro.cost import CostModel
from repro.engine import ExecutionContext, IndexUnionSeek, SeqScan
from repro.errors import ExecutionError
from repro.expressions import col
from repro.optimizer import Optimizer, SPJQuery

from tests.conftest import make_two_table_db


@pytest.fixture
def db():
    return make_two_table_db(n_part=50, n_lineitem=3000)


@pytest.fixture
def sparse_db():
    """A lineitem whose shipdate domain is huge, so each IN-list value
    matches well under one row on average — the index-union regime."""
    import numpy as np

    from repro.catalog import Column, ColumnType, Database, Schema, Table

    rng = np.random.default_rng(3)
    n = 20_000
    lineitem = Table(
        "lineitem",
        Schema(
            [
                Column("l_id", ColumnType.INT64),
                Column("l_shipdate", ColumnType.INT64),
                Column("l_quantity", ColumnType.FLOAT64),
            ],
            primary_key="l_id",
        ),
        {
            "l_id": np.arange(n),
            "l_shipdate": rng.integers(0, 1_000_000, n),
            "l_quantity": rng.uniform(1, 50, n),
        },
    )
    database = Database([lineitem])
    database.validate()
    database.create_index("lineitem", "l_id", clustered=True)
    database.create_index("lineitem", "l_shipdate")
    return database


class TestOperator:
    def test_matches_scan(self, db):
        dates = [729100, 729200, 729300]
        union = IndexUnionSeek("lineitem", "l_shipdate", dates)
        scan = SeqScan("lineitem", col("lineitem.l_shipdate").isin(dates))
        a = union.execute(ExecutionContext(db))
        b = scan.execute(ExecutionContext(db))
        assert a.num_rows == b.num_rows
        assert sorted(a.column("lineitem.l_id")) == sorted(
            b.column("lineitem.l_id")
        )

    def test_counters(self, db):
        dates = [729100, 729200]
        ctx = ExecutionContext(db)
        frame = IndexUnionSeek("lineitem", "l_shipdate", dates).execute(ctx)
        assert ctx.counters.index_lookups == 2
        assert ctx.counters.random_ios == frame.num_rows
        assert ctx.counters.seq_pages == 0

    def test_duplicate_values_deduped(self, db):
        union = IndexUnionSeek("lineitem", "l_shipdate", [729100, 729100])
        assert union.values == [729100]
        ctx = ExecutionContext(db)
        union.execute(ctx)
        assert ctx.counters.index_lookups == 1

    def test_residual(self, db):
        dates = [729100, 729200, 729300]
        residual = col("lineitem.l_quantity") > 25
        frame = IndexUnionSeek("lineitem", "l_shipdate", dates, residual).execute(
            ExecutionContext(db)
        )
        assert (frame.column("lineitem.l_quantity") > 25).all()

    def test_empty_values_raise(self, db):
        with pytest.raises(ExecutionError):
            IndexUnionSeek("lineitem", "l_shipdate", [])

    def test_missing_index_raises(self, db):
        union = IndexUnionSeek("lineitem", "l_quantity", [5])
        with pytest.raises(ExecutionError, match="no index"):
            union.execute(ExecutionContext(db))

    def test_clustered_column_reads_pages(self, db):
        ctx = ExecutionContext(db)
        IndexUnionSeek("lineitem", "l_id", [1, 2, 3]).execute(ctx)
        assert ctx.counters.random_ios == 0
        assert ctx.counters.seq_pages >= 1

    def test_label(self, db):
        label = IndexUnionSeek("lineitem", "l_shipdate", list(range(10))).label()
        assert "IN" in label and "..." in label


class TestOptimizerIntegration:
    def test_union_path_generated(self, db):
        """The union path is always *generated* for indexed IN-lists,
        even when the scan ultimately prunes it in the DP."""
        from repro.optimizer.access import access_paths
        from tests.conftest import built_candidates

        exact = ExactCardinalityEstimator(db)
        predicate = col("lineitem.l_shipdate").isin([729100, 729200])
        paths = built_candidates(
            access_paths(
                db, CostModel(), lambda t, p: exact.estimate(t, p), "lineitem",
                predicate,
            )
        )
        kinds = {type(p.operator) for p in paths}
        assert IndexUnionSeek in kinds

    def test_union_chosen_at_low_selectivity(self, sparse_db):
        predicate = col("lineitem.l_shipdate").isin([17, 9_999, 123_456])
        query = SPJQuery(["lineitem"], predicate)
        planned = Optimizer(sparse_db, ExactCardinalityEstimator(sparse_db)).optimize(
            query
        )
        assert isinstance(planned.plan, IndexUnionSeek)

    def test_scan_chosen_for_huge_in_list(self, db):
        # an IN list covering most of the domain → scan wins
        dates = list(range(729000, 729365))
        predicate = col("lineitem.l_shipdate").isin(dates)
        query = SPJQuery(["lineitem"], predicate)
        planned = Optimizer(db, ExactCardinalityEstimator(db)).optimize(query)
        assert isinstance(planned.plan, SeqScan)

    def test_cost_matches_execution(self, db):
        model = CostModel()
        predicate = col("lineitem.l_shipdate").isin([729050, 729150, 729250]) & (
            col("lineitem.l_quantity") > 10
        )
        query = SPJQuery(["lineitem"], predicate)
        planned = Optimizer(db, ExactCardinalityEstimator(db), model).optimize(query)
        ctx = ExecutionContext(db)
        planned.plan.execute(ctx)
        assert planned.estimated_cost == pytest.approx(
            model.time_from_counters(ctx.counters), rel=1e-9
        )

    def test_result_correct(self, db):
        predicate = col("lineitem.l_shipdate").isin([729050, 729150])
        query = SPJQuery(["lineitem"], predicate)
        planned = Optimizer(db, ExactCardinalityEstimator(db)).optimize(query)
        frame = planned.plan.execute(ExecutionContext(db))
        truth = ExactCardinalityEstimator(db).estimate({"lineitem"}, predicate)
        assert frame.num_rows == truth.cardinality

    def test_recost_matches(self, sparse_db):
        from tests.reference_costing import PlanCoster

        exact = ExactCardinalityEstimator(sparse_db)
        predicate = col("lineitem.l_shipdate").isin([17, 9_999]) & (
            col("lineitem.l_quantity") > 10
        )
        planned = Optimizer(sparse_db, exact).optimize(
            SPJQuery(["lineitem"], predicate)
        )
        union_candidate = next(
            c
            for c in planned.alternatives
            if isinstance(c.operator, IndexUnionSeek)
        )
        coster = PlanCoster(
            sparse_db, CostModel(), lambda t, p: exact.estimate(t, p).cardinality
        )
        cost, rows = coster.cost(union_candidate.operator)
        assert cost == pytest.approx(union_candidate.cost, rel=1e-9)

    def test_sql_in_list_uses_union(self, sparse_db):
        from repro.sql import parse_query

        query = parse_query(
            "SELECT COUNT(*) FROM lineitem "
            "WHERE lineitem.l_shipdate IN (17, 9999)",
            sparse_db,
        )
        planned = Optimizer(sparse_db, ExactCardinalityEstimator(sparse_db)).optimize(
            query
        )
        assert "IndexUnionSeek" in planned.plan.explain()
