"""Unit tests for access-path generation."""

import numpy as np
import pytest

from repro.core import ExactCardinalityEstimator
from repro.cost import CostModel
from repro.engine import IndexIntersect, IndexSeek, SeqScan
from repro.expressions import col
from repro.optimizer import access
from repro.optimizer.access import range_to_expr
from repro.expressions.analysis import as_range_condition

from tests.conftest import built_candidates, make_two_table_db


def access_paths(*args):
    """Every path ``access.access_paths`` prices, built when read."""
    return built_candidates(access.access_paths(*args))


@pytest.fixture
def db():
    return make_two_table_db()


@pytest.fixture
def card(db):
    exact = ExactCardinalityEstimator(db)

    def oracle(tables, predicate):
        return exact.estimate(tables, predicate)

    return oracle


MODEL = CostModel()

DATE_RANGE = col("lineitem.l_shipdate").between(729100, 729150)
BOTH_DATES = DATE_RANGE & col("lineitem.l_receiptdate").between(729100, 729150)


class TestRangeToExpr:
    def test_between_roundtrip(self):
        condition = as_range_condition(col("t.a").between(1, 5))
        rebuilt = as_range_condition(range_to_expr(condition))
        assert rebuilt.low == 1 and rebuilt.high == 5

    def test_one_sided(self):
        condition = as_range_condition(col("t.a") > 3)
        rebuilt = as_range_condition(range_to_expr(condition))
        assert rebuilt.low == 3 and not rebuilt.low_inclusive

    def test_mixed_exclusivity(self):
        merged = as_range_condition(col("t.a") >= 1)
        merged = merged.__class__("t", "a", 1, 9, True, False)
        rebuilt_expr = range_to_expr(merged)
        rebuilt = None
        # a half-open two-sided range becomes a conjunction; just check
        # it references the right column
        assert rebuilt_expr.columns() == {("t", "a")}


class TestAccessPaths:
    def test_always_includes_seqscan(self, db, card):
        paths = access_paths(db, MODEL, card, "lineitem", None)
        assert any(isinstance(p.operator, SeqScan) for p in paths)
        assert len(paths) == 1  # no predicate → nothing else

    def test_index_seek_generated(self, db, card):
        paths = access_paths(db, MODEL, card, "lineitem", DATE_RANGE)
        kinds = {type(p.operator) for p in paths}
        assert SeqScan in kinds and IndexSeek in kinds

    def test_index_intersection_generated(self, db, card):
        paths = access_paths(db, MODEL, card, "lineitem", BOTH_DATES)
        kinds = {type(p.operator) for p in paths}
        assert IndexIntersect in kinds
        # two single-column seeks as well
        seeks = [p for p in paths if isinstance(p.operator, IndexSeek)]
        assert len(seeks) == 2

    def test_no_index_paths_for_unindexed_columns(self, db, card):
        predicate = col("lineitem.l_quantity") > 25
        paths = access_paths(db, MODEL, card, "lineitem", predicate)
        assert all(isinstance(p.operator, SeqScan) for p in paths)

    def test_rows_estimates_agree(self, db, card):
        paths = access_paths(db, MODEL, card, "lineitem", BOTH_DATES)
        rows = {round(p.rows, 3) for p in paths}
        assert len(rows) == 1  # same logical result for every path

    def test_costs_are_positive_and_differ(self, db, card):
        paths = access_paths(db, MODEL, card, "lineitem", BOTH_DATES)
        costs = [p.cost for p in paths]
        assert all(c > 0 for c in costs)
        assert len({round(c, 9) for c in costs}) > 1

    def test_seek_residual_preserves_semantics(self, db, card):
        """Each path must produce the same rows when executed."""
        from repro.engine import ExecutionContext

        predicate = BOTH_DATES & (col("lineitem.l_quantity") > 10)
        paths = access_paths(db, MODEL, card, "lineitem", predicate)
        results = set()
        for path in paths:
            frame = path.operator.execute(ExecutionContext(db))
            results.add(tuple(sorted(frame.column("lineitem.l_id"))))
        assert len(results) == 1

    def test_order_annotations(self, db, card):
        paths = access_paths(db, MODEL, card, "lineitem", DATE_RANGE)
        by_type = {type(p.operator): p for p in paths}
        assert by_type[SeqScan].order == "lineitem.l_id"  # clustered
        assert by_type[IndexSeek].order == "lineitem.l_shipdate"

    def test_annotations_set(self, db, card):
        paths = access_paths(db, MODEL, card, "lineitem", DATE_RANGE)
        for path in paths:
            assert path.operator.est_rows is not None
            assert path.operator.est_cost is not None

    def test_date_string_literals_coerced(self, db, card):
        import datetime

        low = datetime.date.fromordinal(729100).isoformat()
        high = datetime.date.fromordinal(729150).isoformat()
        predicate = col("lineitem.l_shipdate").between(low, high)
        paths = access_paths(db, MODEL, card, "lineitem", predicate)
        seek = next(p for p in paths if isinstance(p.operator, IndexSeek))
        assert seek.operator.condition.low == 729100


class TestUncoercibleBoundsOfferNoIndexPath:
    """A literal an integer column cannot hold exactly (``100.5``, a
    fractional IN-list value) used to crash planning in
    ``coerce_scalar``, although a sequential scan answers it. The index
    paths are not offered — not rounded into a different predicate —
    and the statement runs."""

    @pytest.fixture(scope="class")
    def tpch(self):
        from repro import Session
        from repro.workloads import TpchConfig, build_tpch_database

        database = build_tpch_database(TpchConfig(num_lineitem=20_000, seed=1))
        return database, Session(database, sample_size=400, statistics_seed=11)

    @pytest.mark.parametrize(
        "condition, truth",
        [
            ("lineitem.l_partkey < 100.5", lambda k: k < 100.5),
            (
                "lineitem.l_partkey BETWEEN 10.5 AND 300.5",
                lambda k: (k >= 10.5) & (k <= 300.5),
            ),
            ("lineitem.l_partkey IN (3, 4.5)", lambda k: np.isin(k, [3, 4.5])),
        ],
    )
    def test_session_answers_like_numpy(self, tpch, condition, truth):
        database, session = tpch
        result = session.execute(
            f"SELECT COUNT(*) AS n FROM lineitem WHERE {condition}"
        )
        keys = database.table("lineitem").column("l_partkey")
        assert result.column("n")[0] == np.count_nonzero(truth(keys)) > 0

    def test_other_indexes_still_seek(self, db, card):
        """The fractional range loses its own seek and intersections and
        rides along as residual; the other range keeps its seek, and
        every path returns the same rows."""
        from repro.engine import ExecutionContext

        predicate = DATE_RANGE & (col("lineitem.l_partkey") < 40.5)
        paths = access_paths(db, MODEL, card, "lineitem", predicate)
        seeks = [p.operator for p in paths if isinstance(p.operator, IndexSeek)]
        assert [seek.condition.column for seek in seeks] == ["l_shipdate"]
        assert not any(isinstance(p.operator, IndexIntersect) for p in paths)
        results = set()
        for path in paths:
            frame = path.operator.execute(ExecutionContext(db))
            results.add(tuple(sorted(frame.column("lineitem.l_id"))))
        assert len(results) == 1
