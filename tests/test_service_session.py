"""Behavioral tests for the Session/PreparedQuery facade.

The contract under test: the plan cache is keyed on (query
fingerprint, policy, statistics version and feedback generation), so
the same query twice is a hit returning the identical plan, a
statistics bump invalidates automatically, a stale handle re-plans
under the policy it already resolved, concurrent prepares plan exactly
once, and cached plans are byte-identical to what a hand-wired
optimizer produces from the same statistics.
"""

import threading
import time
import weakref
from dataclasses import replace

import pytest

from repro.core import RobustCardinalityEstimator
from repro.cost import CostModel
from repro.engine import scancache
from repro.errors import OptimizationError
from repro.obs import Tracer
from repro.optimizer import Optimizer, SPJQuery
from repro.optimizer.shape import LatticeShape
from repro.selection import PolicyError
from repro.service import session as session_module
from repro.service.cache import PlanCache
from repro.service import (
    Session,
    SessionConfig,
    SessionError,
    canonical_sql,
    query_fingerprint,
)
from repro.sql import parse_query
from repro.stats import StatisticsManager
from repro.workloads import QUERY_BATTERY

from tests.conftest import make_two_table_db

QUERY = "SELECT COUNT(*) FROM lineitem WHERE lineitem.l_quantity > 45"
JOIN_QUERY = (
    "SELECT COUNT(*) FROM lineitem, part "
    "WHERE part.p_size <= 10 AND lineitem.l_quantity > 30"
)


@pytest.fixture()
def db():
    return make_two_table_db()


@pytest.fixture()
def session(db):
    return Session(db, sample_size=400, statistics_seed=11)


class TestConfig:
    def test_unknown_estimator_rejected(self):
        # An unknown spec is resolve_policy's error, not the session's.
        with pytest.raises(PolicyError):
            SessionConfig(policy="oracle")

    def test_keyword_overrides(self, db):
        session = Session(db, policy="histogram", plan_cache_size=16)
        assert session.config.estimator == "histogram"
        assert session.config.plan_cache_size == 16

    def test_describe(self, session):
        text = session.describe()
        assert "robust" in text and "T=80%" in text


class TestPrepareCaching:
    def test_same_query_twice_is_a_hit_with_same_plan_object(self, session):
        first = session.prepare(QUERY)
        second = session.prepare(QUERY)
        assert first.from_cache is False
        assert second.from_cache is True
        assert second.planned is first.planned
        stats = session.cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_fingerprint_ignores_confidence_hint(self, db):
        plain = parse_query(QUERY, db)
        hinted = parse_query(QUERY + " OPTION (CONFIDENCE 95)", db)
        assert query_fingerprint(plain) == query_fingerprint(hinted)
        assert "OPTION" not in canonical_sql(hinted)

    def test_distinct_thresholds_get_distinct_entries(self, session):
        moderate = session.prepare(QUERY, policy="80")
        conservative = session.prepare(QUERY, policy="95")
        assert conservative.from_cache is False
        assert moderate.threshold == 0.8
        assert conservative.threshold == 0.95

    def test_hint_overrides_call_and_session_threshold(self, session):
        prepared = session.prepare(
            QUERY + " OPTION (CONFIDENCE 95)", policy="50"
        )
        assert prepared.threshold == 0.95

    def test_cached_plan_byte_identical_to_fresh_optimize(self, db):
        """A cache hit serves exactly what hand-wiring would produce."""
        session = Session(db, sample_size=400, statistics_seed=11)
        session.prepare(QUERY)
        hit = session.prepare(QUERY)
        assert hit.from_cache is True

        # Hand-wire the old way against identically built statistics.
        statistics = StatisticsManager(db)
        statistics.update_statistics(sample_size=400, seed=11)
        estimator = RobustCardinalityEstimator(statistics, policy=0.8)
        fresh = Optimizer(db, estimator, CostModel()).optimize(
            parse_query(QUERY, db)
        )
        assert hit.explain().encode() == fresh.explain().encode()
        assert hit.plan.signature() == fresh.plan.signature()
        assert hit.estimated_cost == fresh.estimated_cost
        assert hit.estimated_rows == fresh.estimated_rows

    def test_lru_eviction_respects_bound(self, db):
        session = Session(db, plan_cache_size=2, cache_stripes=1,
                          sample_size=200)
        queries = [
            QUERY,
            "SELECT COUNT(*) FROM part WHERE part.p_size <= 10",
            JOIN_QUERY,
        ]
        for q in queries:
            session.prepare(q)
        stats = session.cache_stats()
        assert stats["size"] == 2
        assert stats["evictions"] == 1
        # The oldest entry was evicted: preparing it again is a miss.
        assert session.prepare(queries[0]).from_cache is False


class TestCanonicalSql:
    """What the fingerprint's canonical form normalizes, and what it
    keeps (``repro.service.fingerprint``'s docstring)."""

    BASE = (
        "SELECT COUNT(*) FROM lineitem, part "
        "WHERE part.p_size <= 10 AND lineitem.l_quantity > 30"
    )

    @pytest.mark.parametrize(
        "spelling",
        [
            "select  count(*)\n from lineitem, part where "
            "part.p_size <= 10 and lineitem.l_quantity > 30",
            "SELECT COUNT(*) FROM lineitem, part "
            "WHERE ((part.p_size <= 10) AND (lineitem.l_quantity > 30))",
            "SELECT COUNT(*) AS count_all FROM lineitem, part "
            "WHERE part.p_size <= 10 AND lineitem.l_quantity > 30",
            "SELECT COUNT(*) FROM lineitem JOIN part "
            "ON lineitem.l_partkey = part.p_partkey "
            "WHERE part.p_size <= 10 AND lineitem.l_quantity > 30",
            BASE + " OPTION (CONFIDENCE 95)",
        ],
        ids=["case-and-space", "parentheses", "default-alias", "join-on", "hint"],
    )
    def test_normalizes(self, db, spelling):
        base = parse_query(self.BASE, db)
        assert canonical_sql(parse_query(spelling, db)) == canonical_sql(base)
        assert query_fingerprint(parse_query(spelling, db)) == query_fingerprint(base)

    @pytest.mark.parametrize(
        "spelling",
        [
            "SELECT COUNT(*) FROM part, lineitem "
            "WHERE part.p_size <= 10 AND lineitem.l_quantity > 30",
            "SELECT COUNT(*) FROM lineitem, part "
            "WHERE lineitem.l_quantity > 30 AND part.p_size <= 10",
            "SELECT COUNT(*) FROM lineitem, part "
            "WHERE 10 >= part.p_size AND lineitem.l_quantity > 30",
            "SELECT COUNT(*) FROM lineitem, part "
            "WHERE part.p_size <= 10.0 AND lineitem.l_quantity > 30",
            "SELECT COUNT(*) AS n FROM lineitem, part "
            "WHERE part.p_size <= 10 AND lineitem.l_quantity > 30",
        ],
        ids=["from-order", "conjunct-order", "operand-order", "literal", "alias"],
    )
    def test_keeps(self, db, spelling):
        base = parse_query(self.BASE, db)
        assert query_fingerprint(parse_query(spelling, db)) != query_fingerprint(base)

    def test_keeps_between_and_in_list_order(self, db):
        def fingerprint(where):
            return query_fingerprint(
                parse_query(f"SELECT COUNT(*) FROM lineitem WHERE {where}", db)
            )

        assert fingerprint("lineitem.l_partkey BETWEEN 4 AND 9") != fingerprint(
            "lineitem.l_partkey >= 4 AND lineitem.l_partkey <= 9"
        )
        assert fingerprint("lineitem.l_partkey IN (3, 1)") != fingerprint(
            "lineitem.l_partkey IN (1, 3)"
        )


class TestStatisticsVersioning:
    def test_refresh_invalidates_cached_plans(self, session):
        prepared = session.prepare(QUERY)
        assert prepared.is_stale() is False
        version = session.refresh_statistics(seed=12)
        assert version == prepared.statistics_version + 1
        assert prepared.is_stale() is True
        fresh = session.prepare(QUERY)
        assert fresh.from_cache is False, "new version must miss"
        assert fresh.statistics_version == version

    def test_execute_replans_transparently(self, session):
        prepared = session.prepare(QUERY)
        session.refresh_statistics(seed=12)
        result = prepared.execute()
        assert prepared.is_stale() is False, "handle re-bound to new plan"
        assert prepared.statistics_version == session.statistics_version()
        assert result.num_rows == 1
        replans = session.metrics.counter(
            "repro_session_replans_total", ""
        ).value()
        assert replans == 1

    def test_stale_lane_replans_under_its_own_policy(self, db, session):
        """A grid lane of a hinted statement keeps its lane's threshold
        through a re-plan: the hint never wins it back."""
        hinted = JOIN_QUERY + " OPTION (CONFIDENCE 95)"
        handles = session.prepare_many(hinted, [0.5, 0.8])
        assert handles[0].planned.query.hint == 0.5
        session.refresh_statistics()
        handles[0].execute()
        assert handles[0].threshold == 0.5
        assert handles[0].planned.query.hint == 0.5
        fresh = session.prepare_many(hinted, [0.5])[0]
        assert handles[0].explain() == fresh.explain()
        other = Session(db, sample_size=400, statistics_seed=11)
        other.refresh_statistics()
        assert handles[0].explain() == other.prepare_many(hinted, [0.5])[0].explain()

    def test_exact_sessions_have_no_statistics(self, db):
        session = Session(db, policy="exact")
        prepared = session.prepare(QUERY)
        assert prepared.threshold is None
        assert session.statistics_version() == 0
        with pytest.raises(SessionError):
            session.refresh_statistics()


class TestConcurrency:
    def test_concurrent_prepares_plan_exactly_once(self, db, monkeypatch):
        session = Session(db, sample_size=200)
        session.prepare(JOIN_QUERY)  # warm statistics, then forget plans
        session.plan_cache.clear()

        calls = []
        real_optimize = Optimizer.optimize

        def slow_optimize(self, query):
            calls.append(1)
            time.sleep(0.05)
            return real_optimize(self, query)

        monkeypatch.setattr(Optimizer, "optimize", slow_optimize)
        barrier = threading.Barrier(6)
        prepared = []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            handle = session.prepare(JOIN_QUERY)
            with lock:
                prepared.append(handle)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(calls) == 1, "singleflight: one planning pass total"
        assert len(prepared) == 6
        assert all(p.planned is prepared[0].planned for p in prepared)


class TestPrepareMany:
    GRID = (0.05, 0.5, 0.95)

    def test_lanes_match_scalar_prepare(self, session):
        lanes = session.prepare_many(QUERY, self.GRID)
        assert [p.threshold for p in lanes] == list(self.GRID)
        # A later scalar prepare at any lane threshold is a cache hit.
        again = session.prepare(QUERY, policy=0.5)
        assert again.from_cache is True
        assert again.planned is lanes[1].planned

    def test_lane_plans_equal_scalar_plans(self, db):
        vector_session = Session(db, sample_size=400, statistics_seed=11)
        scalar_session = Session(db, sample_size=400, statistics_seed=11)
        lanes = vector_session.prepare_many(JOIN_QUERY, self.GRID)
        for threshold, lane in zip(self.GRID, lanes):
            scalar = scalar_session.prepare(JOIN_QUERY, policy=threshold)
            assert lane.plan.signature() == scalar.plan.signature()
            assert lane.estimated_cost == pytest.approx(
                scalar.estimated_cost
            )

    def test_requires_robust_session(self, db):
        session = Session(db, policy="histogram")
        with pytest.raises(SessionError):
            session.prepare_many(QUERY, self.GRID)
        robust = Session(db)
        with pytest.raises(SessionError):
            robust.prepare_many(QUERY, ())


class TestExecuteAndExplain:
    def test_execute_sql_end_to_end(self, session):
        result = session.execute(QUERY)
        assert result.num_rows == 1
        assert len(result.column_names) == 1
        assert result.simulated_seconds > 0
        assert result.plan_cached is False
        assert session.execute(QUERY).plan_cached is True

    def test_explain_includes_plan_and_provenance(self, session):
        text = session.explain(QUERY)
        assert "Aggregate" in text or "Scan" in text
        assert "chosen plan:" in text
        assert "estimation evidence" in text

    def test_trace_query_record_shape(self, session):
        record = session.trace_query(QUERY, execute=True, label="test")
        assert record["template"] == "test"
        assert record["kind"] == "query"
        assert record["execution"]["actual_rows"] == 1
        assert record["estimation"], "estimation spans must be captured"
        assert record["timing"]["optimize_seconds"] >= 0

    def test_tracing_does_not_pollute_the_plan_cache(self, session):
        session.trace_query(QUERY)
        assert len(session.plan_cache) == 0
        assert session.prepare(QUERY).from_cache is False

    def test_explain_does_not_pollute_the_plan_cache(self, session):
        plain = session.explain(QUERY)
        analyzed = session.explain(QUERY, analyze=True)
        assert len(session.plan_cache) == 0
        prepares = session.metrics.counter("repro_session_prepares_total", "")
        assert prepares.value(result="miss") == 0
        assert prepares.value(result="hit") == 0
        # ... and the tree it prints is the plan a prepare would cache
        tree = session.prepare(QUERY).explain()
        assert plain.startswith(tree) and analyzed.startswith(tree)
        assert "execution breakdown" in analyzed


class TestLifecycle:
    def test_closed_session_rejects_use(self, session):
        session.prepare(QUERY)
        session.close()
        with pytest.raises(SessionError):
            session.prepare(QUERY)
        with pytest.raises(SessionError):
            session.execute(QUERY)

    def test_context_manager_closes(self, db):
        with Session(db, sample_size=200) as session:
            session.prepare(QUERY)
        assert session._closed

    def test_close_releases_the_scan_cache(self, session):
        for _ in range(2):  # the scan is kept on its second sight
            session.execute(QUERY)
        cache = session._scan_cache
        frame = next(
            entry.frame
            for entry in cache._entries.values()
            if entry.frame.owned_nbytes()
        )
        selection = weakref.ref(frame._sources["lineitem.l_quantity"].sel)
        del frame
        assert cache.stats()["bytes"] > 0
        session.close()
        stats = cache.stats()
        assert stats["entries"] == 0 and stats["bytes"] == 0
        assert stats["misses"] > 0  # counters survive the clear
        assert selection() is None

    @pytest.mark.parametrize("budget, evicts", [(None, False), (4 << 10, True)])
    def test_cache_stats_mirrors_the_scan_cache(
        self, session, monkeypatch, budget, evicts
    ):
        if budget is not None:
            monkeypatch.setattr(scancache, "SCAN_CACHE_BYTES", budget)
        for quantity in (5, 15, 25, 35, 45, 15):
            session.execute(QUERY.replace("45", str(quantity)))
        returned = session.cache_stats()
        assert returned == session.plan_cache.stats()  # the plan cache's, as ever
        gauge = session.metrics.gauge("repro_session_scan_cache", "")
        stats = session._scan_cache.stats()
        assert sorted(stats) == [
            "bytes", "entries", "evictions", "hits", "misses", "seen_once",
        ]
        for name, value in stats.items():
            assert gauge.value(stat=name) == value
        assert (stats["evictions"] > 0) == evicts
        assert stats["bytes"] > 0
        session.close()  # the final snapshot is taken before the clear
        assert gauge.value(stat="bytes") == stats["bytes"]

    def test_cache_stats_mirrors_the_estimate_memo(self, session):
        gauge = session.metrics.gauge("repro_session_estimate_memo", "")
        names = ("entries", "seen_once", "hits", "misses")
        session.cache_stats()  # no estimator built yet
        assert [gauge.value(stat=name) for name in names] == [0.0] * 4
        for quantity in (5, 15, 25, 35, 45):
            session.prepare(QUERY.replace("45", str(quantity)))
        session.cache_stats()
        stats = session._state.estimator.estimate_memo_stats()
        assert sorted(stats) == sorted(names)
        for name, value in stats.items():
            assert gauge.value(stat=name) == value
        assert stats["seen_once"] >= 5 and stats["misses"] > 0

    def test_metrics_track_prepares_by_outcome(self, session):
        session.prepare(QUERY)
        session.prepare(QUERY)
        counter = session.metrics.counter("repro_session_prepares_total", "")
        assert counter.value(result="miss") == 1
        assert counter.value(result="hit") == 1

    def test_shared_statistics_are_not_rebuilt(self, db):
        statistics = StatisticsManager(db)
        statistics.update_statistics(sample_size=400, seed=11)
        version = statistics.version
        session = Session(db, statistics=statistics)
        session.prepare(QUERY)
        assert statistics.version == version


class TestExecutionMemo:
    """The first execution of a (fingerprint, plan signature) keeps its
    record in the session's execution memo, the second its result, and
    every later one returns it: same frame bytes, same simulated
    seconds, same feedback."""

    LIMIT_QUERY = (
        "SELECT lineitem.l_partkey, COUNT(*) AS n FROM lineitem "
        "GROUP BY lineitem.l_partkey ORDER BY lineitem.l_partkey LIMIT 3"
    )
    #: Its join order flips when statistics move from seed 11 to 12;
    #: JOIN_QUERY's does not.
    FLIP_QUERY = (
        "SELECT COUNT(*) FROM lineitem, part "
        "WHERE part.p_size <= 10 AND lineitem.l_shipdate >= 729363"
    )

    @staticmethod
    def memo(prepared):
        return getattr(prepared.planned, session_module._MEMO, None)

    @staticmethod
    def bypass_memo(session):
        """Give ``session`` an execution memo that keeps nothing."""
        session._execution_memo = PlanCache(capacity=0)

    @staticmethod
    def assert_same_result(result, expected):
        assert result.column_names == expected.column_names
        assert result.simulated_seconds == expected.simulated_seconds
        for name in expected.column_names:
            column, want = result.column(name), expected.column(name)
            assert column.dtype == want.dtype, name
            assert column.tobytes() == want.tobytes(), name

    def test_second_run_stores_and_third_replays(self, session, built_contexts):
        prepared = session.prepare(JOIN_QUERY)
        first = prepared.execute()
        assert isinstance(self.memo(prepared), session_module._Record)
        second = prepared.execute()
        memo = self.memo(prepared)
        assert isinstance(memo, session_module._Execution)
        assert len(memo.record.operators) == len(list(prepared.plan.walk()))
        contexts = len(built_contexts)
        third = prepared.execute()
        assert len(built_contexts) == contexts  # nothing executed
        assert third.frame is memo.frame
        for result in (second, third):
            self.assert_same_result(result, first)
        # a fresh handle on the cached plan shares the memo
        assert session.execute(JOIN_QUERY).frame is memo.frame
        executes = session.metrics.counter("repro_session_executes_total", "")
        reused = session.metrics.counter(
            "repro_session_executions_reused_total", ""
        )
        assert executes.value() == 4
        assert reused.value() == 2

    def test_replayed_rows_feed_the_same_feedback(self, db):
        statistics = StatisticsManager(db)
        statistics.update_statistics(sample_size=400, seed=11)
        memoized, uncached = (Session(db, statistics=statistics) for _ in "ab")
        self.bypass_memo(uncached)
        handles = []
        for session in (memoized, uncached):
            session.enable_feedback()
            handles.append(session.prepare(JOIN_QUERY))
        results = []
        for _ in range(5):
            results.append(handles[0].execute())
            vars(handles[1].planned).pop(session_module._MEMO, None)
            self.assert_same_result(handles[1].execute(), results[-1])
        assert isinstance(self.memo(handles[1]), session_module._Record)
        assert len(uncached._execution_memo) == 0
        reused = memoized.metrics.counter(
            "repro_session_executions_reused_total", ""
        )
        assert reused.value() == 3
        assert uncached.metrics.counter(
            "repro_session_executions_reused_total", ""
        ).value() == 0
        assert memoized.feedback.observations == 5
        assert (
            memoized.feedback.store.to_dict()
            == uncached.feedback.store.to_dict()
        )
        assert memoized.feedback.report() == uncached.feedback.report()

    def test_replan_reuses_only_a_matching_signature(self, db):
        for query, same_tree in ((JOIN_QUERY, True), (self.FLIP_QUERY, False)):
            sessions = [
                Session(db, sample_size=400, statistics_seed=11) for _ in "ab"
            ]
            self.bypass_memo(sessions[1])
            handles = [session.prepare(query) for session in sessions]
            for _ in range(3):
                for prepared in handles:
                    prepared.execute()
            prepared, twin = handles
            old, old_memo = prepared.planned, self.memo(prepared)
            for session in sessions:
                session.refresh_statistics(seed=12)
            result, expected = prepared.execute(), twin.execute()
            assert prepared.planned is not old
            signature = prepared.plan.signature()
            assert (signature == old.plan.signature()) is same_tree
            assert signature == twin.plan.signature()
            reused = sessions[0].metrics.counter(
                "repro_session_executions_reused_total", ""
            )
            if same_tree:
                assert self.memo(prepared) is old_memo
                assert result.frame is old_memo.frame
                assert reused.value() == 2
            else:
                assert isinstance(self.memo(prepared), session_module._Record)
                assert result.frame is not old_memo.frame
                assert reused.value() == 1  # the third run before the refresh
            self.assert_same_result(result, expected)

    def test_traces_and_analyze_read_the_served_run(
        self, session, built_contexts
    ):
        prepared = session.prepare(JOIN_QUERY)
        prepared.execute()
        rows = [rows for rows, _ in self.memo(prepared).operators]
        reused = session.metrics.counter(
            "repro_session_executions_reused_total", ""
        )

        def traced_rows(record):
            return [op["actual_rows"] for op in record["execution"]["operators"]]

        built_contexts.clear()
        record = session.trace_query(JOIN_QUERY, execute=True)
        assert len(built_contexts) == 0
        assert record["execution"]["cache_hit"]
        assert traced_rows(record) == rows
        # the next served run keeps the result, as without the trace
        prepared.execute()
        assert len(built_contexts) == 1
        text = session.explain(JOIN_QUERY, analyze=True)
        assert len(built_contexts) == 1
        assert "[execution cache hit]" in text
        assert f"actual {rows[0]} " in text
        # ... and the one after is answered from the memo
        result = prepared.execute()
        assert len(built_contexts) == 1
        assert result.frame is self.memo(prepared).frame
        assert reused.value() == 1

    def test_threads_executing_and_tracing_agree(self, db):
        """More threads than cores, switching often, execute and trace
        two statements through one memo: every result and every traced
        row count equals an uncached session's."""
        import sys

        statements = (JOIN_QUERY, self.LIMIT_QUERY)
        reference = Session(db, sample_size=400, statistics_seed=11)
        self.bypass_memo(reference)

        def traced_rows(session, sql):
            record = session.trace_query(sql, execute=True)
            return [op["actual_rows"] for op in record["execution"]["operators"]]

        expected = {sql: reference.execute(sql) for sql in statements}
        expected_rows = {sql: traced_rows(reference, sql) for sql in statements}
        session = Session(db, sample_size=400, statistics_seed=11)
        results, traces, errors = [], [], []
        barrier = threading.Barrier(6)

        def worker(index):
            try:
                barrier.wait(timeout=10)
                for step in range(6):
                    sql = statements[(index + step) % 2]
                    if (index + step) % 3 == 0:
                        traces.append((sql, traced_rows(session, sql)))
                    else:
                        results.append((sql, session.execute(sql)))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(results) + len(traces) == 36
        for sql, result in results:
            self.assert_same_result(result, expected[sql])
        for sql, rows in traces:
            assert rows == expected_rows[sql]

    @pytest.mark.parametrize("budget_bytes, kept", [(7, False), (8, True)])
    def test_results_over_the_bound_are_not_kept(
        self, session, monkeypatch, budget_bytes, kept
    ):
        # COUNT(*) is one float64: 8 bytes against a slot's share
        per_slot = session.config.plan_cache_size
        monkeypatch.setattr(scancache, "SCAN_CACHE_BYTES", budget_bytes * per_slot)
        prepared = session.prepare(QUERY)
        results = [prepared.execute() for _ in range(3)]
        memo = self.memo(prepared)
        if kept:
            assert results[2].frame is memo.frame
        else:
            assert isinstance(memo, session_module._Execution)
            assert memo.frame is None
            assert len({id(result.frame) for result in results}) == 3
        for result in results[1:]:
            self.assert_same_result(result, results[0])

    def test_a_limit_memo_owns_only_its_rows(self, session):
        prepared = session.prepare(self.LIMIT_QUERY)
        first = prepared.execute()
        second = prepared.execute()
        frame = self.memo(prepared).frame
        assert frame.num_rows == 3
        for name in frame.column_names:
            column = frame.column(name)
            assert column.base is None and column.flags.owndata
            assert column.nbytes == 3 * column.itemsize
            assert not column.flags.writeable
        # what the memo copied was a take over the whole aggregate
        source = second.frame._sources[frame.column_names[0]]
        assert len(source.base) > 3
        self.assert_same_result(prepared.execute(), first)

    def test_replans_under_feedback_churn_reuse_what_already_ran_twice(
        self, db
    ):
        statements = [
            QUERY, JOIN_QUERY, self.FLIP_QUERY, self.LIMIT_QUERY,
            "SELECT COUNT(*) FROM lineitem, part "
            "WHERE part.p_size <= 25 AND lineitem.l_quantity > 49",
            "SELECT COUNT(*) FROM lineitem "
            "WHERE lineitem.l_shipdate >= 729300",
        ]

        def statistics(seed):
            manager = StatisticsManager(db)
            manager.update_statistics(sample_size=400, seed=seed)
            return manager

        # One manager per swap, attached to both sessions, so their
        # feedback epochs (statistics versions) match.
        shared = statistics(11)
        memoized, uncached = (Session(db, statistics=shared) for _ in "ab")
        self.bypass_memo(uncached)
        for session in (memoized, uncached):
            session.enable_feedback()
        # Per window: every statement prepared under two policies, then
        # its first handle run again (a harvest leaves that handle's
        # plan in place but re-plans the next prepare); then a swap.
        slots = ("threshold:0.8", "threshold:0.95", None)
        window = len(slots) * len(statements)
        runs: dict = {}
        plans, held = [], {}
        expected_reused = 0
        for request in range(6 * window):
            if request and request % window == 0:
                shared = statistics(request)
                for session in (memoized, uncached):
                    session.attach_statistics(shared)
            sql = statements[request % len(statements)]
            policy = slots[request % window // len(statements)]
            if policy is None:
                prepared, twin = held[sql]
            else:
                prepared = memoized.prepare(sql, policy=policy)
                twin = uncached.prepare(sql, policy=policy)
                if policy is slots[0]:
                    held[sql] = (prepared, twin)
            vars(twin.planned).pop(session_module._MEMO, None)
            assert prepared.explain() == twin.explain()
            key = (prepared.fingerprint, prepared.plan.signature())
            expected_reused += runs.get(key, 0) >= 2
            runs[key] = runs.get(key, 0) + 1
            plans.append(prepared.planned)
            self.assert_same_result(prepared.execute(), twin.execute())
        # re-plans picked trees that had already run
        assert len({id(planned) for planned in plans}) > len(runs)
        reused = memoized.metrics.counter(
            "repro_session_executions_reused_total", ""
        )
        assert 0 < expected_reused == reused.value()
        assert uncached.metrics.counter(
            "repro_session_executions_reused_total", ""
        ).value() == 0
        assert (
            memoized.feedback.store.to_dict()
            == uncached.feedback.store.to_dict()
        )
        assert memoized.feedback.report() == uncached.feedback.report()

    def test_statements_run_once_keep_no_result(self, db):
        session = Session(
            db, sample_size=400, statistics_seed=11, plan_cache_size=8
        )
        gauge = session.metrics.gauge("repro_session_execution_memo", "")

        def held():
            session.cache_stats()
            return gauge.value(stat="entries"), gauge.value(stat="bytes")

        for quantity in range(30):
            session.execute(
                "SELECT COUNT(*) FROM lineitem "
                f"WHERE lineitem.l_quantity > {quantity}"
            )
            entries, held_bytes = held()
            assert entries <= session.config.plan_cache_size
            assert held_bytes == 0
        assert all(
            isinstance(entry, session_module._Record)
            for entry in session._execution_memo.values()
        )
        for _ in range(2):
            session.execute(JOIN_QUERY)
        entries, held_bytes = held()
        assert entries <= session.config.plan_cache_size
        assert 0 < held_bytes <= scancache.SCAN_CACHE_BYTES
        session.close()
        assert len(session._execution_memo) == 0


class TestLatticeShapes:
    """A statement's lattice shape (``repro.optimizer.shape``) is stored
    by its second plan, and every later plan of the statement — any
    policy, lane, statistics version or feedback generation — prices it
    into exactly what a fresh optimizer plans on the same snapshot."""

    STATEMENTS = (
        "pricing_summary", "forecast_revenue", "shipping_priority",
        "promo_parts", "top_customers", "correlated_dates",
    )
    LANES = (0.5, 0.65, 0.8, 0.9, 0.95)
    PENALTY = "cvar:0.9:32"

    @staticmethod
    def fresh(session, prepared, grid=None, tracer=None):
        """What an optimizer of its own plans for ``prepared`` on the
        snapshot it was planned against: its policy's plan, or with
        ``grid`` one plan per lane."""
        request = prepared.request
        optimizer = Optimizer(
            session.database,
            session._estimator(request.state),
            session.cost_model,
            tracer=tracer,
        )
        if grid is not None:
            return optimizer.optimize_many(replace(request.query, hint=None), grid)
        return request.policy.plan(
            optimizer,
            request.query,
            query_key=request.fingerprint,
            statistics_token=request.state.sampling_token,
        )

    @staticmethod
    def plan_print(planned) -> tuple:
        """``explain()``, the alternatives with their costs, every
        estimate and the estimator-call count of one plan."""
        return (
            planned.explain(),
            [(c.operator.explain(), c.cost, c.order) for c in planned.alternatives],
            [
                (key, e.cardinality, e.selectivity, e.source, e.threshold)
                for key, e in planned.estimates.items()
            ],
            planned.estimation_calls,
        )

    def dp_levels(self, session, prepared, policy):
        """The ``trace_query`` span's DP levels for ``prepared``'s
        statement under ``policy``, and a fresh traced optimizer's."""
        traced = session.trace_query(prepared.query, policy=policy)
        fresh = self.fresh(session, prepared, tracer=Tracer())
        return traced["optimizer"]["dp_levels"], fresh.trace["dp_levels"]

    def test_replans_price_the_stored_shape_like_a_fresh_optimizer(
        self, tpch_db, monkeypatch
    ):
        session = Session(tpch_db, sample_size=300, statistics_seed=4)
        session.enable_feedback()
        passes = []
        plan = session._plan
        monkeypatch.setattr(
            session, "_plan", lambda *a, **k: passes.append(1) or plan(*a, **k)
        )
        queries = [
            parse_query(QUERY_BATTERY[name], tpch_db) for name in self.STATEMENTS
        ]
        planned = 0
        for round_ in range(4):
            for query in queries:
                single = session.prepare(query)
                penalty = session.prepare(query, policy=self.PENALTY)
                lanes = session.prepare_many(query, self.LANES)
                for prepared in (single, penalty):
                    assert self.plan_print(prepared.planned) == self.plan_print(
                        self.fresh(session, prepared)
                    )
                # (the 0.8 lane is the scalar plan above: one vector pass
                # planned the other four)
                missing = [lane for lane in lanes if not lane.from_cache]
                assert len(missing) == len(self.LANES) - 1
                fresh_lanes = self.fresh(
                    session, lanes[0], grid=tuple(p.threshold for p in missing)
                )
                for lane, expected in zip(missing, fresh_lanes):
                    assert self.plan_print(lane.planned) == self.plan_print(
                        expected
                    )
                for prepared, policy in (
                    (single, None), (penalty, self.PENALTY), (lanes[2], 0.8),
                ):
                    traced, expected = self.dp_levels(session, prepared, policy)
                    assert traced == expected
                planned += 2 + len(missing)
                single.execute()  # a harvest: the next round re-plans
            if round_ % 2:
                session.refresh_statistics(seed=round_)
        assert len(session._shapes) == len(self.STATEMENTS)
        reused = session.metrics.counter(
            "repro_session_plan_shapes_reused_total", ""
        ).value()
        # every planning pass but each statement's first two priced a
        # stored shape (a harvest that moves no fold re-plans nothing)
        assert reused == len(passes) - 2 * len(self.STATEMENTS)
        assert len(passes) > 4 * len(self.STATEMENTS) * 3
        assert planned == 4 * len(self.STATEMENTS) * 6

    def test_two_workers_preparing_one_statement_plan_identically(
        self, tpch_db, monkeypatch
    ):
        from repro.serving import QueryServer, TenantSpec

        sql = QUERY_BATTERY["shipping_priority"]
        config = SessionConfig(sample_size=300, statistics_seed=4)
        with QueryServer(
            [TenantSpec("t", tpch_db, config)], worker_threads=2
        ) as server:
            for policy in (0.5, 0.95):  # the second plan stores the shape
                server.serve("t", sql, policy=policy, execute=False)
            session = server.session("t")
            shape = session._shapes.get(query_fingerprint(parse_query(sql, tpch_db)))
            assert isinstance(shape, LatticeShape)

            pricing = []
            enumerate_joins = Optimizer._enumerate_joins

            def slow(self, ctx, query, dp_stats=None):
                pricing.append(ctx.shape)
                time.sleep(0.05)  # both workers price the shape meanwhile
                return enumerate_joins(self, ctx, query, dp_stats)

            monkeypatch.setattr(Optimizer, "_enumerate_joins", slow)
            barrier = threading.Barrier(2)
            policies = (0.8, self.PENALTY)

            def client(policy):
                barrier.wait()
                server.serve("t", sql, policy=policy, execute=False)

            threads = [
                threading.Thread(target=client, args=(p,)) for p in policies
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert pricing == [shape, shape]
            monkeypatch.undo()
            for policy in policies:
                prepared = session.prepare(sql, policy=policy)
                assert prepared.from_cache
                assert self.plan_print(prepared.planned) == self.plan_print(
                    self.fresh(session, prepared)
                )

    def test_threads_sharing_stored_shapes_plan_identically(self, tpch_db):
        """More threads than cores, switching often, prepare three
        statements under three policies at once, their shapes stored and
        shared: every plan is a fresh optimizer's, and each statement
        keeps one stored shape."""
        import sys

        names = self.STATEMENTS[1:4]
        session = Session(tpch_db, sample_size=300, statistics_seed=4)
        for name in names:  # store every shape before the threads start
            session.prepare_many(QUERY_BATTERY[name], (0.5,))
            session.prepare_many(QUERY_BATTERY[name], (0.95,))
        jobs = [(name, p) for name in names for p in (0.8, 0.65, self.PENALTY)]
        prepared = {}
        barrier = threading.Barrier(len(jobs))

        def worker(job):
            barrier.wait(timeout=10)
            prepared[job] = session.prepare(QUERY_BATTERY[job[0]], policy=job[1])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(j,)) for j in jobs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert set(prepared) == set(jobs)
        for handle in prepared.values():
            assert self.plan_print(handle.planned) == self.plan_print(
                self.fresh(session, handle)
            )
        stored = [v for v in session._shapes.values() if isinstance(v, LatticeShape)]
        assert len(stored) == len(names)
        assert session.metrics.counter(
            "repro_session_plan_shapes_reused_total", ""
        ).value() == len(jobs)

    def test_store_is_bounded_reported_and_emptied_on_close(self, tpch_db):
        session = Session(
            tpch_db, sample_size=300, plan_cache_size=4, cache_stripes=1
        )
        gauge = session.metrics.gauge("repro_session_plan_cache", "")
        session.prepare(QUERY_BATTERY["pricing_summary"])
        session.cache_stats()
        assert gauge.value(stat="shapes") == 0  # planned once: a mark
        for name in self.STATEMENTS:
            session.prepare(QUERY_BATTERY[name])
            session.prepare_many(QUERY_BATTERY[name], (0.5, 0.95))
        assert len(session._shapes) == 4
        returned = session.cache_stats()
        assert returned == session.plan_cache.stats()
        assert gauge.value(stat="shapes") == 4
        session.close()
        assert len(session._shapes) == 0

    def test_a_query_failing_validation_raises_and_stores_no_shape(
        self, tpch_db
    ):
        session = Session(tpch_db, sample_size=300)
        invalid = SPJQuery(
            ["lineitem"],
            projection=["lineitem.l_quantity"],
            order_by=["lineitem.l_partkey"],
        )
        for _ in range(2):
            with pytest.raises(OptimizationError, match="ORDER BY"):
                session.prepare(invalid)
        assert len(session._shapes) == 0
        assert len(session.plan_cache) == 0

    def test_a_statement_is_validated_once(self, tpch_db, monkeypatch):
        """Where it comes in: ``parse_query`` validates SQL text, the
        first prepare an ``SPJQuery`` object, and building the shape
        (first and second plan) validates nothing again. An optimizer
        without a session validates what it plans."""
        validated = []
        validate = SPJQuery.validate
        monkeypatch.setattr(
            SPJQuery,
            "validate",
            lambda query, db: validated.append(query) or validate(query, db),
        )
        session = Session(tpch_db, sample_size=300)
        direct = parse_query(QUERY_BATTERY["brand_audit"])
        for statement in (*(QUERY_BATTERY[n] for n in self.STATEMENTS), direct):
            for policy in ("threshold:0.5", "threshold:0.95", "threshold:0.5"):
                session.prepare(statement, policy=policy)
        assert len(validated) == len(self.STATEMENTS) + 1
        assert validated[-1] is direct
        assert len(session._shapes) == len(self.STATEMENTS) + 1
        optimizer = Optimizer(
            tpch_db, session._estimator(session._ensure_state()), session.cost_model
        )
        optimizer.optimize(direct)
        assert validated[-1] is direct and len(validated) == len(self.STATEMENTS) + 2
