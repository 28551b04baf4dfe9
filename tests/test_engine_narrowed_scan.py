"""A sequential scan reads the index it already has.

``scan_table`` finds the rows of a narrow range over an indexed integer
column through that column's ``SortedIndex`` — the range's RIDs sorted
ascending, the other conjuncts evaluated on those rows alone — and
everything else by comparing every row. Both must return the same frame:
the same positions in the same dtype, so every column reads back the
same values. Held here against full evaluation
(``Frame.from_table(t).mask(predicate.evaluate(...))``) over generated
columns of every integer dtype and generated conjunctions of ranges,
residuals and literals the index cannot take.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.catalog import Column, ColumnType, Database, Schema, Table
from repro.engine import ExecutionContext, ScanCache, scans
from repro.expressions import Frame, col, conjunction, lit
from repro.expressions.expr import Comparison
from repro.indexes import SortedIndex

INTEGER_DTYPES = [
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
]


def make_database(keys: np.ndarray, seed: int = 0) -> Database:
    """Table ``t``: ``rid`` (the row position), ``k`` (``keys``, in
    their own dtype), ``j`` (int64), ``f`` (float64) — those three
    indexed — and the unindexed ``m`` (int64) and ``s`` (strings).

    ``Table`` stores every INT64 column as int64, so ``k`` is swapped in
    before it is indexed: the scan must handle any integer dtype an
    index can hold.
    """
    n = len(keys)
    rng = np.random.default_rng(seed)
    schema = Schema(
        [
            Column("rid", ColumnType.INT64),
            Column("k", ColumnType.INT64),
            Column("j", ColumnType.INT64),
            Column("f", ColumnType.FLOAT64),
            Column("m", ColumnType.INT64),
            Column("s", ColumnType.STRING),
        ]
    )
    table = Table(
        "t",
        schema,
        {
            "rid": np.arange(n),
            "k": np.zeros(n, dtype=np.int64),
            "j": rng.integers(-5, 6, n),
            "f": rng.integers(0, 8, n) / 2,
            "m": rng.integers(0, 5, n),
            "s": rng.choice(["ab", "ba", "abc", "c"], n) if n else np.array([], str),
        },
    )
    keys = keys.copy()
    keys.setflags(write=False)
    table._columns["k"] = keys
    database = Database([table])
    for column in ("k", "j", "f"):
        database.create_index("t", column)
    return database


def full_evaluation(table, predicate) -> Frame:
    frame = Frame.from_table(table)
    return frame.mask(predicate.evaluate(frame))


def assert_same_frame(got: Frame, want: Frame) -> None:
    assert got.num_rows == want.num_rows
    assert got.column_names == want.column_names
    for name in want.column_names:
        values, expected = got.column(name), want.column(name)
        assert values.dtype == expected.dtype, name
        np.testing.assert_array_equal(values, expected, err_msg=name)


@st.composite
def key_columns(draw):
    """Keys of one integer dtype from a small pool (so bounds land on
    them), the dtype's extremes included; empty columns too."""
    limits = np.iinfo(draw(st.sampled_from(INTEGER_DTYPES)))
    elements = st.one_of(
        npst.from_dtype(limits.dtype),
        st.sampled_from([limits.min, limits.max, 0, 1]),
    )
    pool = draw(npst.arrays(limits.dtype, st.integers(1, 6), elements=elements))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
    return pool[np.array(picks, dtype=np.intp)]


def bounds(keys: np.ndarray):
    """A literal for ``k``: a key, a value of the dtype, one past or far
    outside its range, a fraction, or a date string."""
    limits = np.iinfo(keys.dtype)
    return st.one_of(
        st.sampled_from(keys.tolist() or [0]),
        st.integers(int(limits.min), int(limits.max)),
        st.sampled_from(
            [
                int(limits.min) - 1,
                int(limits.max) + 1,
                2**63,
                -(2**63) - 1,
                2**64,
                2**70,
                -(2**70),
            ]
        ),
        st.floats(-300, 300).filter(lambda x: not x.is_integer()),
        st.just("1995-03-04"),
    )


_OPS = ["<", "<=", ">", ">=", "=", "!="]


def comparison(draw, column, literal):
    """``column <op> literal`` or, as often, ``literal <op> column``."""
    op = draw(st.sampled_from(_OPS))
    if draw(st.booleans()):
        return Comparison(lit(literal), col(column), op)
    return Comparison(col(column), lit(literal), op)


@st.composite
def conjuncts(draw, keys):
    kind = draw(
        st.sampled_from(["k-cmp", "k-between", "j", "f", "in", "like"])
    )
    k = draw(st.sampled_from(["t.k", "k"]))
    if kind == "k-cmp":
        return comparison(draw, k, draw(bounds(keys)))
    if kind == "k-between":  # reversed bounds included
        return col(k).between(draw(bounds(keys)), draw(bounds(keys)))
    if kind == "j":
        low = draw(st.integers(-6, 6))
        if draw(st.booleans()):
            return col("t.j").between(low, draw(st.integers(-6, 6)))
        return comparison(draw, "t.j", low)
    if kind == "f":  # a float column: the index is not used
        return comparison(draw, "t.f", draw(st.sampled_from([0.5, 1.0, 2.5])))
    if kind == "in":
        return col("t.m").isin(draw(st.lists(st.integers(0, 5), min_size=1)))
    if draw(st.booleans()):
        return col("t.s").contains(draw(st.sampled_from(["a", "bc"])))
    return col("t.s").startswith(draw(st.sampled_from(["a", "b"])))


@st.composite
def scans_of_generated_tables(draw):
    keys = draw(key_columns())
    predicate = conjunction(
        draw(st.lists(conjuncts(keys), min_size=1, max_size=4))
    )
    return keys, predicate, draw(st.sampled_from([1, 2, 8]))


class TestNarrowedScanEqualsFullEvaluation:
    @settings(max_examples=500, deadline=None)
    @given(case=scans_of_generated_tables())
    def test_selection_dtype_and_columns(self, case):
        """Selection (the ``rid`` column holds the positions), dtype and
        every column, at the crossover and with any range narrower than
        the table read through the index (factor 1)."""
        keys, predicate, factor = case
        database = make_database(keys)
        table = database.table("t")
        want = full_evaluation(table, predicate)
        with mock.patch.object(scans, "_NARROW_SCAN_FACTOR", factor):
            narrowed = scans._narrowed_scan(database, table, predicate)
            got = scans.scan_table(ExecutionContext(database), "t", predicate)
        if narrowed is not None:
            assert_same_frame(narrowed, want)
        assert_same_frame(got, want)
        assert got.column("t.rid").dtype == np.int64


@pytest.fixture(scope="module")
def database():
    keys = np.random.default_rng(3).integers(0, 1000, 4000).astype(np.int32)
    return make_database(keys, seed=3)


@pytest.fixture
def ranges_read(monkeypatch):
    """The width of every key range read through an index."""
    widths = []
    rows_at = SortedIndex.rows_at

    def recording(index, lo, hi):
        widths.append(hi - lo)
        return rows_at(index, lo, hi)

    monkeypatch.setattr(SortedIndex, "rows_at", recording)
    return widths


class TestWhichScansReadTheIndex:
    @pytest.mark.parametrize(
        "predicate",
        [
            col("t.k").between(100, 180),
            # The narrow one of two ranges on k; the wide one is residual.
            (col("t.k") > 50) & (col("t.k") < 100) & col("t.s").contains("b"),
            (lit(90) > col("k")) & (col("t.m").isin([1, 2])),
            col("t.k") == 7,
            col("t.k").between(100, 180) & (col("t.f") > 1.0),
        ],
        ids=["between", "two-ranges", "literal-first", "equality", "float-residual"],
    )
    def test_a_narrow_integer_range(self, database, ranges_read, predicate):
        table = database.table("t")
        frame = scans._narrowed_scan(database, table, predicate)
        assert frame is not None and len(ranges_read) == 1
        assert ranges_read[0] * 8 <= table.num_rows
        assert_same_frame(frame, full_evaluation(table, predicate))

    @pytest.mark.parametrize(
        "predicate",
        [
            col("t.k") < 500,  # wider than an eighth of the table
            col("t.k").between(100.5, 180.5),  # not an integer bound
            col("t.f") < 0.5,  # a float column
            col("t.m") == 3,  # no index
            col("t.k") != 7,  # not a range
            col("t.k").isin([1, 2, 3]),
            col("other.k").between(100, 180),  # another table's column
            # NULL literals match no row (or raise); they are no range.
            Comparison(col("t.k"), lit(None), "="),
            col("t.k").between(None, 180),
        ],
        ids=["wide", "fractional", "float", "unindexed", "not-equal", "in-list",
             "foreign", "null", "null-between"],
    )
    def test_falls_back(self, database, ranges_read, predicate):
        assert scans._narrowed_scan(database, database.table("t"), predicate) is None
        assert ranges_read == []

    def test_reads_the_narrowest_range(self, database, ranges_read):
        """Of several indexed ranges the narrowest is read (one sorted
        slice), the others run as residual conjuncts."""
        table = database.table("t")
        predicate = (
            col("t.j").between(-1, 1)
            & col("t.k").between(100, 109)
            & col("t.k").between(0, 400)
        )
        frame = scans._narrowed_scan(database, table, predicate)
        assert ranges_read == [
            len(database.sorted_index("t", "k").lookup_range(100, 109))
        ]
        assert_same_frame(frame, full_evaluation(table, predicate))

    def test_empty_table(self):
        database = make_database(np.empty(0, dtype=np.int16))
        table = database.table("t")
        predicate = col("t.k").between(1, 2) & col("t.s").contains("a")
        frame = scans._narrowed_scan(database, table, predicate)
        assert frame is not None and frame.num_rows == 0
        assert_same_frame(frame, full_evaluation(table, predicate))

    def test_counters_and_cache_key_do_not_see_the_index(self, database):
        """Both paths charge the table's pages and rows, and store under
        one scan-cache key."""
        predicate = col("t.k").between(100, 180)
        narrow, full = ExecutionContext(database), ExecutionContext(database)
        scans.scan_table(narrow, "t", predicate)
        with mock.patch.object(scans, "_narrowed_scan", lambda *args: None):
            scans.scan_table(full, "t", predicate)
        assert narrow.counters.as_dict() == full.counters.as_dict()
        cache = ScanCache()
        ctx = ExecutionContext(database, scan_cache=cache)
        scans.scan_table(ctx, "t", predicate)
        with mock.patch.object(scans, "_narrowed_scan", lambda *args: None):
            scans.scan_table(ctx, "t", predicate)
        assert cache.hits == 1
