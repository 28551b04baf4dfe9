"""Sort, don't hash: the sort-based kernels against numpy's set routines.

Primary-key checks, index builds and RID algebra sort
(:func:`~repro.indexes.sorted_index.stable_order`,
:func:`~repro.indexes.sorted_index.sorted_unique`) where they used to
call ``np.argsort``, ``np.unique`` and ``np.intersect1d``, whose
hash-based implementation costs many times a sort. The old
formulations live on below as references, and the tests hold the new
ones to them:

- ``sorted_unique`` equals ``np.unique`` in values, dtype and counts
  over generated arrays of every key dtype, NaN, ±0.0 and ±inf included;
- every column's index holds ``np.argsort(column, kind="stable")`` on the
  TPC-H, star and snowflake databases at two scales;
- the RID algebra equals Python sets and the ``np.unique`` /
  ``np.intersect1d`` formulation, order and dtype included, at 200 k
  elements;
- every plan the optimizer considered for the three battery families
  returns the same columns, dtypes and ``WorkCounters`` over indexes built
  by ``np.argsort`` and with the reference RID algebra patched in;
- with ``np.unique`` and ``np.intersect1d`` made to raise, the three
  databases build, their statistics refresh and the battery executes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.catalog import Database
from repro.core import HistogramCardinalityEstimator, RobustCardinalityEstimator
from repro.engine import ExecutionContext, scans, star
from repro.indexes import SortedIndex, intersect_rid_sets, sorted_index, union_rid_lists
from repro.indexes.sorted_index import sorted_unique
from repro.optimizer import Optimizer
from repro.stats import StatisticsManager, sample_distinct_counts
from repro.workloads import (
    SnowflakeConfig,
    StarConfig,
    TpchConfig,
    build_snowflake_database,
    build_star_database,
    build_tpch_database,
)

from tests.conftest import battery_queries

_EMPTY = np.empty(0, dtype=np.int64)


def reference_intersect(rid_sets):
    """``intersect_rid_sets`` as ``np.unique`` + ``np.intersect1d``."""
    if not rid_sets:
        return _EMPTY
    ordered = sorted(rid_sets, key=len)
    result = np.unique(ordered[0])
    for rids in ordered[1:]:
        if not len(result):
            return _EMPTY
        result = np.intersect1d(result, rids, assume_unique=False)
    return result


def reference_union(rid_lists):
    """``union_rid_lists`` as ``np.unique`` of the concatenation."""
    chunks = [rids for rids in rid_lists if len(rids)]
    if not chunks:
        return _EMPTY
    return np.unique(np.concatenate(chunks))


def reference_order(values):
    """The index build's order as ``np.argsort``."""
    return np.argsort(values, kind="stable")


# ----------------------------------------------------------------------
# sorted_unique ≡ np.unique
# ----------------------------------------------------------------------

_FLOAT_SPECIALS = [np.nan, 0.0, -0.0, np.inf, -np.inf]


@st.composite
def key_arrays(draw):
    """Arrays of one key dtype drawn from a small pool of values (so runs
    repeat), empty and length-1 arrays included; floats mix in NaN,
    ±0.0 and ±inf."""
    dtype = np.dtype(
        draw(
            st.sampled_from(
                [np.int8, np.int16, np.int32, np.int64, np.uint64, np.float64, "<U3"]
            )
        )
    )
    elements = npst.from_dtype(dtype)
    if dtype.kind == "f":
        elements = st.one_of(elements, st.sampled_from(_FLOAT_SPECIALS))
    pool = draw(npst.arrays(dtype, st.integers(1, 8), elements=elements))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=60))
    return pool[np.array(picks, dtype=np.intp)]


class TestSortedUniqueMatchesNumpy:
    @settings(max_examples=400, deadline=None)
    @given(values=key_arrays())
    def test_values_dtype_and_counts(self, values):
        expected, expected_counts = np.unique(values, return_counts=True)
        for got in (sorted_unique(values), sorted_unique(values, True)[0]):
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)  # NaN == NaN here
        counts = sorted_unique(values, return_counts=True)[1]
        assert counts.dtype == expected_counts.dtype
        np.testing.assert_array_equal(counts, expected_counts)

    @settings(max_examples=100, deadline=None)
    @given(values=key_arrays())
    def test_frequency_of_frequencies(self, values):
        _, counts = np.unique(values, return_counts=True)
        frequencies, occurrences = np.unique(counts, return_counts=True)
        assert sample_distinct_counts(values) == {
            int(j): int(m) for j, m in zip(frequencies, occurrences)
        }


# ----------------------------------------------------------------------
# Every column's index holds np.argsort's stable order
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def default_scale_databases():
    """The three families at their default (larger) scales."""
    return {
        "tpch": build_tpch_database(TpchConfig(seed=1)),
        "star": build_star_database(StarConfig(seed=3)),
        "snowflake": build_snowflake_database(SnowflakeConfig(seed=9)),
    }


def _assert_every_column_indexes_like_argsort(database):
    for table in database:
        for column in table.schema.column_names:
            values = table.column(column)
            index = SortedIndex(values)
            order = reference_order(values)
            label = table.qualified(column)
            assert index._rids.dtype == np.int64, label
            np.testing.assert_array_equal(index._rids, order, err_msg=label)
            assert index._keys.dtype == values.dtype, label
            np.testing.assert_array_equal(index._keys, values[order], err_msg=label)
            assert index.in_storage_order == bool(
                np.array_equal(order, np.arange(len(order)))
            ), label


class TestIndexOrderIsArgsort:
    def test_fixture_scale(self, tpch_db, star_db, snowflake_db):
        for database in (tpch_db, star_db, snowflake_db):
            _assert_every_column_indexes_like_argsort(database)

    def test_default_scale(self, default_scale_databases):
        for database in default_scale_databases.values():
            _assert_every_column_indexes_like_argsort(database)


# ----------------------------------------------------------------------
# RID algebra ≡ Python sets ≡ the np.unique / np.intersect1d formulation
# ----------------------------------------------------------------------

class TestRidAlgebraAtScale:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_intersection_and_union_at_200k(self, seed):
        rng = np.random.default_rng(seed)
        # Overlapping ranges, duplicates and negatives; sizes spread so
        # the smallest-first order matters.
        sets = [
            rng.integers(-50_000, 250_000, size, dtype=np.int64)
            for size in (200_000, 120_000, 200_000, 60_000)
        ]
        expected = set(sets[0].tolist())
        for rids in sets[1:]:
            expected &= set(rids.tolist())
        got = intersect_rid_sets(sets)
        assert got.tolist() == sorted(expected)
        reference = reference_intersect(sets)
        assert got.dtype == reference.dtype
        np.testing.assert_array_equal(got, reference)

        union = union_rid_lists(sets)
        assert union.tolist() == sorted(set().union(*(s.tolist() for s in sets)))
        reference = reference_union(sets)
        assert union.dtype == reference.dtype
        np.testing.assert_array_equal(union, reference)

    def test_disjoint_and_empty_sets(self):
        low = np.arange(0, 200_000, dtype=np.int64)
        high = np.arange(200_000, 400_000, dtype=np.int64)
        for sets in ([low, high], [low, _EMPTY], [low[::-1], low[::2]]):
            np.testing.assert_array_equal(
                intersect_rid_sets(sets), reference_intersect(sets)
            )


# ----------------------------------------------------------------------
# Plan-level identity under the reference formulations
# ----------------------------------------------------------------------

def _reindexed(database):
    """The same tables under the same indexes, built afresh (by whatever
    ``stable_order`` is at the time)."""
    copy = Database(list(database))
    for name in database.table_names:
        clustering = database.clustering_column(name)
        for column in database.table(name).schema.column_names:
            if database.has_index(name, column):
                copy.create_index(name, column, clustered=column == clustering)
    return copy


def _run(plan, database):
    ctx = ExecutionContext(database)
    frame = plan.execute(ctx)
    return {c: frame.column(c) for c in frame.column_names}, ctx.counters


class TestPlansIdenticalUnderReferenceFormulations:
    """Which sort builds an index or intersects RIDs is invisible above
    the kernels: every distinct plan of the TPC-H / star / snowflake
    battery returns the same columns and charges the same
    ``WorkCounters`` over ``np.argsort``-built indexes with the
    ``np.unique`` / ``np.intersect1d`` RID algebra patched in."""

    def test_battery_alternatives(self, monkeypatch, families, planned_trees):
        rid_plans = 0
        for family, (database, _) in families.items():
            with monkeypatch.context() as patched:
                patched.setattr(sorted_index, "stable_order", reference_order)
                reference_db = _reindexed(database)
            seen = set()
            for _, plan in planned_trees[family]:
                signature = plan.signature()
                if signature in seen:
                    continue
                seen.add(signature)
                columns, counters = _run(plan, database)
                with monkeypatch.context() as patched:
                    patched.setattr(scans, "intersect_rid_sets", reference_intersect)
                    patched.setattr(scans, "union_rid_lists", reference_union)
                    patched.setattr(star, "intersect_rid_sets", reference_intersect)
                    expected, expected_counters = _run(plan, reference_db)
                assert list(columns) == list(expected), signature
                for name, values in columns.items():
                    assert values.dtype == expected[name].dtype, (signature, name)
                    np.testing.assert_array_equal(
                        values, expected[name], err_msg=f"{signature}: {name}"
                    )
                assert counters.as_dict() == expected_counters.as_dict(), signature
                rid_plans += any(
                    word in signature
                    for word in ("IndexIntersect", "IndexUnionSeek", "StarSemiJoin")
                )
        assert rid_plans >= 3  # the RID-algebra operators were really run


# ----------------------------------------------------------------------
# Guard: nothing measured reaches numpy's hash-based set routines
# ----------------------------------------------------------------------

class TestNoHashedSetRoutine:
    """Both routines raise for every caller. ``np.isin``'s sort path
    calls ``np.unique`` on its inputs, so no measured path may reach it
    either."""

    def test_build_refresh_and_battery_without_unique(self, monkeypatch, star_config):
        def refusing(original):
            def refuse(*args, **kwargs):
                raise AssertionError(f"np.{original.__name__} was called")

            return refuse

        monkeypatch.setattr(np, "unique", refusing(np.unique))
        monkeypatch.setattr(np, "intersect1d", refusing(np.intersect1d))
        databases = {
            "tpch": build_tpch_database(TpchConfig(num_lineitem=12_000, seed=1)),
            "star": build_star_database(star_config),
            "snowflake": build_snowflake_database(
                SnowflakeConfig(num_sales=6_000, seed=9)
            ),
        }
        executed = 0
        for family, database in databases.items():
            statistics = StatisticsManager(database)
            statistics.update_statistics(sample_size=300, seed=11)
            for estimator in (
                RobustCardinalityEstimator(statistics, policy=0.5),
                HistogramCardinalityEstimator(statistics),
            ):
                optimizer = Optimizer(database, estimator)
                for query in battery_queries(family, database):
                    planned = optimizer.optimize(query)
                    for plan in [planned.plan] + [
                        c.operator for c in planned.alternatives
                    ]:
                        plan.execute(ExecutionContext(database))
                        executed += 1
        assert executed > 100
