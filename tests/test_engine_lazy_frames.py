"""Zero-copy execution: selection-vector frames, projection pruning,
and the shared scan cache.

Three contracts under test:

1. What a frame reads back is the data: ``base[name][positions]``,
   same values, same dtypes — for the frame transforms (against plain
   numpy; the generated chains are in ``test_expressions_frame.py``)
   and for every operator (row provenance: each output row's every
   column is the base-table row its key column names), including the
   >1M-row and all-duplicate-position edge cases.
2. Columns are gathered on first read, so columns nothing reads are
   never materialized.
3. The scan cache reuses base scans across plan executions while
   charging the exact same :class:`WorkCounters` — the simulation's
   unit of account — so experiment records don't depend on the cache.

The comparand used to be a second, copy-per-operator ``Frame``
implementation ("eager"); it is deleted. Test ids that name it
(``test_lazy_matches_eager[...]``) are kept, as the floor of test names
wants, and check the same outputs against the base tables instead.
"""

import numpy as np
import pytest

from repro.engine import (
    ExecutionContext,
    HashAggregate,
    HashJoin,
    IndexIntersect,
    IndexSeek,
    IndexUnionSeek,
    IndexedNLJoin,
    Limit,
    MergeJoin,
    ScanCache,
    SeqScan,
    Sort,
    StarSemiJoin,
)
from repro.engine.aggregate import AggregateSpec
from repro.engine.scans import IndexCondition
from repro.engine.star import DimensionSpec
from repro.errors import ExpressionError
from repro.expressions import Frame, col

from tests.conftest import (
    assert_rows_from_base_tables,
    make_two_table_db,
    materialized_columns,
)


@pytest.fixture(scope="module")
def db():
    return make_two_table_db(n_part=60, n_lineitem=3000)


def assert_reads_back(frame: Frame, base: dict, positions: np.ndarray):
    """``frame`` holds exactly ``base[name][positions]``, dtype included."""
    assert frame.column_names == list(base)
    assert frame.num_rows == len(positions)
    for name, array in base.items():
        column = frame.column(name)
        assert column.dtype == array.dtype, name
        np.testing.assert_array_equal(column, array[positions], err_msg=name)


class TestLazyFrameBasics:
    def test_mask_composes_without_materializing(self):
        frame = Frame.from_table_rows(_table(), np.arange(50))
        out = frame.mask(np.arange(50) % 2 == 0)
        assert out.num_rows == 25
        assert materialized_columns(out) == []

    def test_column_read_memoizes_and_matches_eager(self):
        base = _columns()
        rows = np.array([5, 3, 3, 0])
        out = Frame(base).take(rows)
        assert materialized_columns(out) == []
        np.testing.assert_array_equal(out.column("t.a"), base["t.a"][rows])
        assert materialized_columns(out) == ["t.a"]
        # Second read returns the memoized array object.
        assert out.column("t.a") is out.column("t.a")

    def test_take_rejects_boolean_row_ids(self):
        frame = Frame(_columns())
        with pytest.raises(ExpressionError, match="positions"):
            frame.take(np.array([True] * frame.num_rows))

    def test_empty_selection(self):
        base = _columns()
        keep = np.zeros(400, dtype=bool)
        assert_reads_back(Frame(base).mask(keep), base, np.flatnonzero(keep))

    def test_all_duplicate_positions(self):
        base = _columns()
        rows = np.zeros(1000, dtype=np.int64)
        assert_reads_back(Frame(base).take(rows), base, rows)

    def test_chained_compositions_match(self):
        base = _columns()
        rng = np.random.default_rng(0)
        keep = rng.random(400) < 0.5
        masked = Frame(base).mask(keep)
        rows = rng.integers(0, masked.num_rows, 37)
        assert_reads_back(masked.take(rows), base, np.arange(400)[keep][rows])

    def test_select_prunes_sources(self):
        out = Frame(_columns()).select(["t.b"])
        assert out.column_names == ["t.b"]

    def test_million_row_mask_bit_identical(self):
        n = 1_200_000
        rng = np.random.default_rng(1)
        base = {
            "t.x": rng.integers(0, 1000, n),
            "t.y": rng.uniform(0, 1, n),
        }
        keep = base["t.x"] % 3 == 0
        assert_reads_back(Frame(base).mask(keep), base, np.flatnonzero(keep))

    def test_a_computed_column_computes_only_the_rows_read(self):
        base = _columns()
        asked = []

        def doubled(sel):
            asked.append(None if sel is None else sel.tolist())
            return base["t.a"] * 2 if sel is None else base["t.a"][sel] * 2

        frame = Frame.computed({"t.a": base["t.a"], "t.d": doubled}, 400)
        rng = np.random.default_rng(2)
        keep = rng.random(400) < 0.5
        rows = rng.integers(0, keep.sum(), 9)
        out = frame.mask(keep).take(rows).select(["t.d", "t.a"]).materialized()
        positions = np.flatnonzero(keep)[rows]
        assert asked == [positions.tolist()]
        assert_reads_back(out, {"t.d": base["t.a"] * 2, "t.a": base["t.a"]}, positions)
        assert out.materialized() is out and frame.column("t.d") is frame.column("t.d")
        assert asked[-1] is None


def _table():
    return make_two_table_db(n_part=50, n_lineitem=200).table("part")


def _columns():
    rng = np.random.default_rng(42)
    return {
        "t.a": rng.integers(0, 100, 400),
        "t.b": rng.uniform(0, 1, 400),
        "u.c": rng.choice(["x", "y", "z"], 400),
    }


def scan_part(pred=True):
    return SeqScan("part", col("part.p_size") <= 25 if pred else None)


def scan_lineitem(pred=True):
    return SeqScan("lineitem", col("lineitem.l_quantity") > 20 if pred else None)


OPERATORS = {
    "seqscan": lambda: scan_lineitem(),
    "indexseek": lambda: IndexSeek(
        "lineitem",
        IndexCondition("l_shipdate", 729050, 729250),
        residual=col("lineitem.l_quantity") > 10,
    ),
    "indexunion": lambda: IndexUnionSeek(
        "lineitem", "l_partkey", [3, 9, 27], residual=col("lineitem.l_quantity") > 5
    ),
    "indexintersect": lambda: IndexIntersect(
        "lineitem",
        [
            IndexCondition("l_shipdate", 729050, 729250),
            IndexCondition("l_receiptdate", 729100, 729300),
        ],
    ),
    "hashjoin": lambda: HashJoin(
        scan_part(), scan_lineitem(), "part.p_partkey", "lineitem.l_partkey"
    ),
    "mergejoin": lambda: MergeJoin(
        scan_part(), scan_lineitem(), "part.p_partkey", "lineitem.l_partkey"
    ),
    "indexednljoin": lambda: IndexedNLJoin(
        scan_part(),
        "lineitem",
        "part.p_partkey",
        "l_partkey",
        residual=col("lineitem.l_quantity") > 15,
    ),
    "sort-limit": lambda: Limit(
        Sort(scan_lineitem(), ["lineitem.l_quantity", "lineitem.l_id"]), 40
    ),
    "aggregate": lambda: HashAggregate(
        scan_lineitem(),
        [
            AggregateSpec("sum", "lineitem.l_quantity", "qty"),
            AggregateSpec("count", "*", "n"),
            AggregateSpec("min", "lineitem.l_shipdate", "first_ship"),
            AggregateSpec("max", "lineitem.l_shipdate", "last_ship"),
            AggregateSpec("avg", "lineitem.l_quantity", "avg_qty"),
        ],
        group_by=["lineitem.l_partkey"],
    ),
}


def assert_groups_from_base_table(frame: Frame, database):
    """``OPERATORS["aggregate"]``'s output, each group recomputed from
    ``lineitem`` with plain numpy."""
    lineitem = database.table("lineitem")
    keep = lineitem.column("l_quantity") > 20
    partkey = lineitem.column("l_partkey")[keep]
    quantity = lineitem.column("l_quantity")[keep]
    shipdate = lineitem.column("l_shipdate")[keep]
    keys = frame.column("lineitem.l_partkey")
    assert keys.dtype == partkey.dtype
    np.testing.assert_array_equal(keys, np.unique(partkey))
    for i, key in enumerate(keys):
        rows = partkey == key
        assert frame.column("qty")[i] == quantity[rows].sum()
        assert frame.column("n")[i] == rows.sum()
        assert frame.column("first_ship")[i] == shipdate[rows].min()
        assert frame.column("last_ship")[i] == shipdate[rows].max()
        assert frame.column("avg_qty")[i] == quantity[rows].mean()


def run_cold(op, db):
    ctx = ExecutionContext(db)
    return op.execute(ctx), ctx.counters.as_dict()


class TestOperatorBitIdentity:
    """Row provenance: what an operator emits is rows of the base tables.

    Selection vectors can fail one way — columns of one row gathered
    through different positions — and that is checked against the data:
    each output row's every column equals the base row its key column
    (``l_id``, ``p_partkey``, the star's ``f_id`` / ``d_key``) names.
    """

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_lazy_matches_eager(self, db, name):
        frame, counters = run_cold(OPERATORS[name](), db)
        assert frame.num_rows > 0
        if name == "aggregate":
            assert_groups_from_base_table(frame, db)
        else:
            assert_rows_from_base_tables(frame, db)
        assert run_cold(OPERATORS[name](), db)[1] == counters

    def test_star_semijoin_lazy_matches_eager(self, star_db):
        window = 100

        def make():
            return StarSemiJoin(
                "fact",
                semi_dims=[
                    DimensionSpec(
                        "dim1", "f_dim1key", col("dim1.d_attr") <= window - 1
                    ),
                    DimensionSpec(
                        "dim2",
                        "f_dim2key",
                        (col("dim2.d_attr") >= 10)
                        & (col("dim2.d_attr") <= window + 9),
                    ),
                ],
                hash_dims=[
                    DimensionSpec(
                        "dim3", "f_dim3key", col("dim3.d_attr") <= window - 1
                    )
                ],
            )

        frame, counters = run_cold(make(), star_db)
        assert frame.num_rows > 0
        assert_rows_from_base_tables(frame, star_db)
        assert run_cold(make(), star_db)[1] == counters

    def test_oracle_rejects_a_misaligned_selection_vector(self, db):
        lineitem = db.table("lineitem")
        rows = np.arange(10, 60)
        aligned = Frame.from_table_rows(lineitem, rows)
        assert_rows_from_base_tables(aligned, db)
        # l_quantity gathered one row off from the key beside it.
        misaligned = aligned.select(
            ["lineitem.l_id", "lineitem.l_partkey"]
        ).merged_with(
            Frame.from_table_rows(lineitem, rows + 1).select(
                ["lineitem.l_quantity"]
            )
        )
        with pytest.raises(AssertionError, match="lineitem.l_quantity"):
            assert_rows_from_base_tables(misaligned, db)


class TestProjectionPruning:
    def test_filtered_scan_materializes_nothing_downstream(self, db):
        ctx = ExecutionContext(db)
        frame = scan_lineitem().execute(ctx)
        # The predicate read l_quantity on the *input* frame; the
        # output is a fresh composition with no gathered columns.
        assert materialized_columns(frame) == []

    def test_join_gathers_only_touched_columns(self, db):
        op = HashJoin(
            scan_part(), scan_lineitem(), "part.p_partkey", "lineitem.l_partkey"
        )
        ctx = ExecutionContext(db)
        result = op.execute(ctx)
        # The join only gathered its key columns on the *inputs*; the
        # merged output starts unmaterialized.
        assert materialized_columns(result) == []
        result.column("lineitem.l_quantity")
        assert materialized_columns(result) == ["lineitem.l_quantity"]


class TestScanCache:
    def test_repeat_scans_hit(self, db):
        cache = ScanCache()
        op = scan_lineitem()
        first = op.execute(ExecutionContext(db, scan_cache=cache))
        second = op.execute(ExecutionContext(db, scan_cache=cache))
        assert cache.hits == 1 and cache.misses == 1
        assert second is first  # the memoized frame itself

    def test_counters_identical_hot_and_cold(self, db):
        cache = ScanCache()
        for make in OPERATORS.values():
            op = make()
            cold = ExecutionContext(db, scan_cache=cache)
            op.execute(cold)
            warm = ExecutionContext(db, scan_cache=cache)
            op.execute(warm)
            assert cold.counters.as_dict() == warm.counters.as_dict(), op.label()
        assert cache.hits > 0

    def test_different_predicates_do_not_collide(self, db):
        cache = ScanCache()
        a = SeqScan("lineitem", col("lineitem.l_quantity") > 20)
        b = SeqScan("lineitem", col("lineitem.l_quantity") > 30)
        fa = a.execute(ExecutionContext(db, scan_cache=cache))
        fb = b.execute(ExecutionContext(db, scan_cache=cache))
        assert cache.hits == 0 and cache.misses == 2
        assert fa.num_rows != fb.num_rows

    def test_cache_pinned_to_first_database(self, db):
        cache = ScanCache()
        op = scan_lineitem()
        op.execute(ExecutionContext(db, scan_cache=cache))
        other = make_two_table_db(n_part=60, n_lineitem=3000)
        # Same content, different Database object: the cache must not
        # serve (it cannot prove the data is the same), and must not
        # poison itself either.
        frame = op.execute(ExecutionContext(other, scan_cache=cache))
        assert cache.hits == 0
        assert frame.num_rows > 0

    def test_index_error_not_cached(self, db):
        from repro.errors import ExecutionError

        cache = ScanCache()
        bad = IndexSeek("lineitem", IndexCondition("l_quantity", 0, 10))
        for _ in range(2):
            with pytest.raises(ExecutionError, match="no index"):
                bad.execute(ExecutionContext(db, scan_cache=cache))
        assert len(cache) == 0


class TestExperimentRecordsUnchanged:
    """The scan cache must be invisible in experiment records."""

    def test_runner_records_bit_identical(self, tpch_db):
        from repro.experiments import ExperimentRunner, default_configs
        from repro.workloads import PartCorrelationTemplate

        from tests.reference_runner import reference_run

        # A join grid: arms that pick different join plans for one
        # parameter still share their base-table leaves.
        template = PartCorrelationTemplate()
        low, high = template.param_range()
        params = [
            (p, template.true_selectivity(tpch_db, p))
            for p in (low, (low + high) // 2, high)
        ]
        configs = default_configs()
        cached = ExperimentRunner(
            tpch_db, template, sample_size=200, seeds=[0], workers=1
        ).run(params, configs)
        uncached = reference_run(
            tpch_db, template, params, configs, seeds=[0], sample_size=200
        )
        assert cached.records == uncached.records
        assert cached.perf.scan_cache_hits > 0
        assert cached.perf.as_dict()["scan_cache_hit_rate"] > 0

    def test_session_prepared_reexecution_reuses_scans(self, tpch_db):
        from repro.service import Session

        session = Session(tpch_db, sample_size=200)
        query = (
            "SELECT COUNT(*) FROM lineitem "
            "WHERE lineitem.l_quantity > 30"
        )
        prepared = session.prepare(query)
        first = prepared.execute()
        second = prepared.execute()
        assert first.simulated_seconds == second.simulated_seconds
        assert first.frame.column_names == second.frame.column_names
        for name in first.frame.column_names:
            np.testing.assert_array_equal(
                first.frame.column(name), second.frame.column(name)
            )
        assert session._scan_cache.hits > 0
