"""Unit tests for the StatisticsManager."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

import repro.stats.manager
from repro import Session
from repro.catalog import Column, ColumnType, ForeignKey, Schema, Table
from repro.stats import (
    EquiDepthHistogram,
    StatisticsManager,
    load_statistics,
    save_statistics,
)
from repro.workloads import TpchConfig, build_tpch_database

from tests.conftest import make_two_table_db

HISTOGRAM_ARRAYS = ("uppers", "counts", "distincts", "boundary_counts")


class TestUpdateStatistics:
    def test_builds_samples_for_every_table(self, tpch_stats, tpch_db):
        for name in tpch_db.table_names:
            assert tpch_stats.sample_for(name) is not None
            assert tpch_stats.synopsis_for(name) is not None

    def test_builds_histograms_for_numeric_columns(self, tpch_stats):
        assert tpch_stats.histogram("lineitem", "l_shipdate") is not None
        assert tpch_stats.histogram("part", "p_size") is not None

    def test_no_histograms_for_string_columns(self, tpch_stats):
        assert tpch_stats.histogram("part", "p_brand") is None

    def test_sample_size_recorded(self, tpch_stats):
        assert tpch_stats.sample_size == 500
        assert tpch_stats.sample_for("lineitem").size == 500

    def test_table_rows(self, tpch_stats, tpch_db):
        assert tpch_stats.table_rows("part") == tpch_db.table("part").num_rows


class TestSynopsisCovering:
    def test_exact_root_match(self, tpch_stats):
        synopsis = tpch_stats.synopsis_covering({"lineitem", "orders"})
        assert synopsis is not None
        assert synopsis.root_table == "lineitem"

    def test_full_set(self, tpch_stats):
        synopsis = tpch_stats.synopsis_covering(
            {"lineitem", "orders", "customer", "part"}
        )
        assert synopsis is not None

    def test_mid_chain(self, tpch_stats):
        synopsis = tpch_stats.synopsis_covering({"orders", "customer"})
        assert synopsis.root_table == "orders"

    def test_disconnected_returns_none(self, tpch_stats):
        assert tpch_stats.synopsis_covering({"part", "customer"}) is None

    def test_unknown_table_returns_none(self, tpch_stats):
        assert tpch_stats.synopsis_covering({"ghost"}) is None


class TestDropStatistics:
    def test_drop_synopsis(self, tpch_db):
        manager = StatisticsManager(tpch_db)
        manager.update_statistics(sample_size=100, seed=0)
        manager.drop_synopsis("lineitem")
        assert manager.synopsis_for("lineitem") is None
        assert manager.synopsis_covering({"lineitem", "part"}) is None
        # other statistics untouched
        assert manager.sample_for("lineitem") is not None

    def test_drop_sample(self, tpch_db):
        manager = StatisticsManager(tpch_db)
        manager.update_statistics(sample_size=100, seed=0)
        manager.drop_sample("part")
        assert manager.sample_for("part") is None

    def test_drop_histograms(self, tpch_db):
        manager = StatisticsManager(tpch_db)
        manager.update_statistics(sample_size=100, seed=0)
        manager.drop_histograms("part")
        assert manager.histogram("part", "p_size") is None
        assert manager.histogram("lineitem", "l_shipdate") is not None


class TestDeterminism:
    def test_same_seed_same_sample(self, tpch_db):
        import numpy as np

        a = StatisticsManager(tpch_db)
        a.update_statistics(sample_size=100, seed=3)
        b = StatisticsManager(tpch_db)
        b.update_statistics(sample_size=100, seed=3)
        assert np.array_equal(
            a.sample_for("lineitem").row_ids, b.sample_for("lineitem").row_ids
        )

    def test_partial_update(self, tpch_db):
        manager = StatisticsManager(tpch_db)
        manager.update_statistics(sample_size=50, seed=0, tables=["part"])
        assert manager.sample_for("part") is not None
        assert manager.sample_for("lineitem") is None


class TestSynopsisCoveringErrorDiscipline:
    def test_catalog_errors_mean_no_synopsis(self, tpch_stats, monkeypatch):
        from repro.errors import CatalogError

        def raising(tables):
            raise CatalogError("no rooted FK tree")

        monkeypatch.setattr(
            tpch_stats.database, "root_relation", raising
        )
        assert tpch_stats.synopsis_covering({"lineitem", "orders"}) is None

    def test_unexpected_errors_propagate(self, tpch_stats, monkeypatch):
        """Regression: a bare ``except Exception`` here used to turn
        genuine bugs in root-relation resolution into a silent "no
        synopsis", sending estimates down the fallback chain with no
        indication anything was wrong."""

        def raising(tables):
            raise RuntimeError("bug in root_relation")

        monkeypatch.setattr(
            tpch_stats.database, "root_relation", raising
        )
        with pytest.raises(RuntimeError, match="bug in root_relation"):
            tpch_stats.synopsis_covering({"lineitem", "orders"})


class TestVersionEpoch:
    def test_versions_unique_across_managers(self, tpch_db):
        a = StatisticsManager(tpch_db)
        b = StatisticsManager(tpch_db)
        a.update_statistics(sample_size=50, seed=0, tables=["part"])
        b.update_statistics(sample_size=50, seed=0, tables=["part"])
        assert a.version != b.version

    def test_bump_version_monotonic_and_floored(self, tpch_db):
        manager = StatisticsManager(tpch_db)
        first = manager.bump_version()
        second = manager.bump_version(floor=first + 100)
        assert second > first + 100
        third = manager.bump_version(floor=0)  # floor below current
        assert third > second


class TestHealthIssues:
    def test_fresh_manager_reports_nothing_built(self, tpch_db):
        issues = StatisticsManager(tpch_db).health_issues()
        assert issues == [
            "no statistics built (every estimate will fall back)"
        ]

    def test_complete_statistics_healthy(self, tpch_stats):
        assert tpch_stats.health_issues() == []

    def test_missing_pieces_reported_per_table(self, tpch_db):
        manager = StatisticsManager(tpch_db)
        manager.update_statistics(sample_size=50, seed=0)
        manager.drop_sample("part")
        manager.drop_synopsis("lineitem")
        issues = manager.health_issues()
        assert "table 'part': no sample" in issues
        assert "table 'lineitem': no join synopsis" in issues

    def test_out_of_range_sample_reported(self, tpch_db):
        manager = StatisticsManager(tpch_db)
        manager.update_statistics(sample_size=50, seed=0)
        sample = manager.sample_for("part")
        sample.row_ids[0] = tpch_db.table("part").num_rows + 1
        issues = manager.health_issues()
        assert any("sample row ids out of range" in issue for issue in issues)


def fresh_tpch():
    """A database no other test has built statistics over. The
    session-scoped fixtures share their tables, so the process-wide
    histogram memo already holds theirs."""
    return build_tpch_database(TpchConfig(num_lineitem=3_000, seed=2))


def numeric_columns(database):
    return [
        (table.name, column.name)
        for table in database
        for column in table.schema.columns
        if column.column_type is not ColumnType.STRING
    ]


@pytest.fixture
def histogram_builds(monkeypatch):
    """The bucket count of every histogram the manager constructs."""
    builds = []

    class CountingHistogram(EquiDepthHistogram):
        def __init__(self, values, num_buckets=250):
            builds.append(num_buckets)
            super().__init__(values, num_buckets)

    monkeypatch.setattr(repro.stats.manager, "EquiDepthHistogram", CountingHistogram)
    return builds


class TestSharedHistograms:
    def test_managers_share_histograms_but_redraw_samples(self):
        database = fresh_tpch()
        a = StatisticsManager(database)
        a.update_statistics(sample_size=100, seed=1)
        b = StatisticsManager(database)
        b.update_statistics(sample_size=100, seed=2)
        for table, column in numeric_columns(database):
            assert a.histogram(table, column) is b.histogram(table, column)
        for name in database.table_names:
            assert not np.array_equal(
                a.sample_for(name).row_ids, b.sample_for(name).row_ids
            )
            assert not np.array_equal(
                a.synopsis_for(name).root_row_ids, b.synopsis_for(name).root_row_ids
            )
        assert a.version != b.version

    def test_shared_histogram_equals_a_fresh_build(self):
        database = fresh_tpch()
        manager = StatisticsManager(database)
        manager.update_statistics(sample_size=50, histogram_buckets=40, seed=0)
        for table, column in numeric_columns(database):
            shared = manager.histogram(table, column)
            fresh = EquiDepthHistogram(database.table(table).column(column), 40)
            for field in HISTOGRAM_ARRAYS:
                expected, actual = getattr(fresh, field), getattr(shared, field)
                assert actual.dtype == expected.dtype, (table, column, field)
                np.testing.assert_array_equal(actual, expected)
            assert shared.minimum == fresh.minimum
            assert shared.total_rows == fresh.total_rows

    def test_another_bucket_count_builds_its_own(self, histogram_builds):
        database = fresh_tpch()
        coarse = StatisticsManager(database)
        coarse.update_statistics(sample_size=50, histogram_buckets=20, seed=0)
        fine = StatisticsManager(database)
        fine.update_statistics(sample_size=50, histogram_buckets=250, seed=0)
        columns = numeric_columns(database)
        assert histogram_builds == [20] * len(columns) + [250] * len(columns)
        shipdate = ("lineitem", "l_shipdate")
        assert coarse.histogram(*shipdate) is not fine.histogram(*shipdate)
        assert coarse.histogram(*shipdate).num_buckets <= 20
        assert fine.histogram(*shipdate).num_buckets > 20

    def test_a_second_database_shares_nothing(self):
        first, second = fresh_tpch(), fresh_tpch()
        a = StatisticsManager(first)
        a.update_statistics(sample_size=50, seed=0)
        b = StatisticsManager(second)
        b.update_statistics(sample_size=50, seed=0)
        for table, column in numeric_columns(first):
            ours, theirs = a.histogram(table, column), b.histogram(table, column)
            assert ours is not theirs
            np.testing.assert_array_equal(ours.counts, theirs.counts)

    def test_session_refreshes_build_no_histograms(self, histogram_builds):
        database = fresh_tpch()
        session = Session(database, sample_size=100, statistics_seed=3)
        session.prepare("SELECT COUNT(*) FROM part WHERE part.p_size <= 10")
        first_build = len(histogram_builds)
        assert first_build == len(numeric_columns(database))
        versions = {session.statistics_version()}
        for seed in range(4):
            versions.add(session.refresh_statistics(seed=seed))
        assert len(histogram_builds) == first_build
        assert len(versions) == 5

    def test_drop_then_update_restores_and_partial_updates_work(
        self, histogram_builds
    ):
        database = fresh_tpch()
        manager = StatisticsManager(database)
        manager.update_statistics(sample_size=50, seed=0)
        built = len(histogram_builds)
        p_size = manager.histogram("part", "p_size")
        manager.drop_histograms("part")
        assert manager.histogram("part", "p_size") is None
        manager.update_statistics(sample_size=50, seed=1, tables=["part"])
        assert manager.histogram("part", "p_size") is p_size
        partial = StatisticsManager(database)
        partial.update_statistics(sample_size=50, seed=0, tables=["part"])
        assert partial.histogram("part", "p_size") is p_size
        assert partial.histogram("lineitem", "l_shipdate") is None
        assert partial.sample_for("lineitem") is None
        assert len(histogram_builds) == built

    def test_a_dropped_database_frees_its_histograms(self):
        database = fresh_tpch()
        manager = StatisticsManager(database)
        manager.update_statistics(sample_size=50, seed=0)
        table = weakref.ref(database.table("lineitem"))
        del database, manager
        gc.collect()
        assert table() is None

    def test_histograms_are_read_only(self, tmp_path):
        database = make_two_table_db()
        manager = StatisticsManager(database)
        manager.update_statistics(sample_size=50, seed=0)
        save_statistics(manager, tmp_path / "stats")
        loaded = load_statistics(database, tmp_path / "stats")
        for histogram in (
            manager.histogram("lineitem", "l_quantity"),
            loaded.histogram("lineitem", "l_quantity"),
        ):
            for field in HISTOGRAM_ARRAYS:
                array = getattr(histogram, field)
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[0]

    def test_threads_refreshing_two_sessions_share_one_histogram(self):
        database = fresh_tpch()
        sessions = [
            Session(database, sample_size=50, statistics_seed=seed)
            for seed in (1, 2)
        ]
        failures = []

        def refresh(session):
            try:
                for seed in range(3):
                    session.refresh_statistics(seed=seed)
            except Exception as error:  # surfaced by the assertion below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=refresh, args=(session,))
                for session in sessions
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        a, b = (session.statistics for session in sessions)
        for table, column in numeric_columns(database):
            assert a.histogram(table, column) is b.histogram(table, column)


def with_empty_table():
    """The part/lineitem pair plus ``returns``, which has no rows."""
    database = make_two_table_db(n_part=20, n_lineitem=200)
    database.add_table(
        Table(
            "returns",
            Schema(
                [
                    Column("r_id", ColumnType.INT64),
                    Column("r_partkey", ColumnType.INT64),
                    Column("r_amount", ColumnType.FLOAT64),
                ],
                primary_key="r_id",
                foreign_keys=[ForeignKey("r_partkey", "part", "p_partkey")],
            ),
            {
                "r_id": np.zeros(0, dtype=np.int64),
                "r_partkey": np.zeros(0, dtype=np.int64),
                "r_amount": np.zeros(0),
            },
        )
    )
    database.validate()
    return database


class TestEmptyTable:
    def test_update_skips_it_and_health_stays_clean(self):
        manager = StatisticsManager(with_empty_table())
        manager.update_statistics(sample_size=50, seed=0)
        assert manager.sample_for("returns") is None
        assert manager.synopsis_for("returns") is None
        assert manager.histogram("returns", "r_amount") is None
        assert manager.sample_for("lineitem") is not None
        assert manager.health_issues() == []

    def test_queries_on_it_and_its_neighbours_answer(self):
        """Regression: sampling the empty table raised, so the first
        prepare on *any* table of the database failed."""
        database = with_empty_table()
        session = Session(database, sample_size=50, statistics_seed=0)

        def answer(sql):
            result = session.execute(sql)
            return [result.column(name).tolist() for name in result.column_names]

        assert answer("SELECT COUNT(*) FROM returns") == [[0]]
        assert answer("SELECT SUM(returns.r_amount) FROM returns") == [[0.0]]
        assert answer(
            "SELECT returns.r_partkey, COUNT(*) FROM returns "
            "GROUP BY returns.r_partkey"
        ) == [[], []]
        sizes = database.table("part").column("p_size")
        assert answer("SELECT COUNT(*) FROM part WHERE part.p_size <= 10") == [
            [int((sizes <= 10).sum())]
        ]
        assert session.health == "healthy"
