"""Tests for the session degraded-mode state machine.

Covers statistics attachment (healthy and failing), degraded planning
after estimator faults, fallback attribution, and the staleness
regression the statistics epoch exists to prevent: two archives loaded
into one session must never produce equal plan-cache keys.
"""

import shutil

import pytest

from repro.errors import EstimationError
from repro.obs import DEGRADATION_REASONS, DegradationEvent
from repro.service import DEGRADED, HEALTHY, Session, SessionError
from repro.stats import StatisticsManager, save_statistics

from tests.conftest import make_two_table_db

QUERY = "SELECT COUNT(*) FROM lineitem WHERE lineitem.l_quantity > 45"


@pytest.fixture(scope="module")
def db():
    return make_two_table_db()


@pytest.fixture(scope="module")
def archive(db, tmp_path_factory):
    path = tmp_path_factory.mktemp("degraded") / "stats"
    manager = StatisticsManager(db)
    manager.update_statistics(sample_size=64, seed=5)
    save_statistics(manager, path)
    return path


@pytest.fixture()
def session(db):
    with Session(db, sample_size=64, statistics_seed=5) as s:
        yield s


class TestDegradationEvent:
    def test_reason_validated(self):
        with pytest.raises(ValueError, match="unknown degradation reason"):
            DegradationEvent(
                reason="just-vibes",
                detail="",
                component="statistics",
                statistics_version=1,
            )

    def test_as_dict(self):
        event = DegradationEvent(
            reason=DEGRADATION_REASONS[0],
            detail="d",
            component="c",
            statistics_version=3,
        )
        assert event.as_dict() == {
            "reason": DEGRADATION_REASONS[0],
            "detail": "d",
            "component": "c",
            "statistics_version": 3,
        }


class TestAttachStatistics:
    def test_healthy_attach(self, session, archive):
        version = session.attach_statistics(str(archive))
        assert session.health == HEALTHY
        assert session.degradations() == []
        assert session.statistics_version() == version
        assert session.execute(QUERY).num_rows == 1

    def test_missing_archive_degrades(self, session, tmp_path):
        before = session.statistics_version()
        session.attach_statistics(str(tmp_path / "nowhere"))
        assert session.health == DEGRADED
        events = session.degradations()
        assert [e.reason for e in events] == ["statistics-load-failed"]
        # The session keeps its previous statistics and still plans.
        assert session.statistics_version() == before
        assert session.execute(QUERY).num_rows == 1
        assert "DEGRADED" in session.describe()

    def test_strict_attach_raises(self, session, tmp_path):
        from repro.errors import StatisticsError

        with pytest.raises(StatisticsError, match="manifest"):
            session.attach_statistics(
                str(tmp_path / "nowhere"), strict=True
            )
        # A strict failure is the caller's problem, not degraded mode.
        assert session.health == HEALTHY
        assert session.degradations() == []

    def test_unhealthy_statistics_attributed(self, db, session, tmp_path):
        partial = StatisticsManager(db)
        partial.update_statistics(sample_size=64, seed=5, tables=["part"])
        save_statistics(partial, tmp_path / "partial")
        session.attach_statistics(str(tmp_path / "partial"))
        assert session.health == DEGRADED
        (event,) = session.degradations()
        assert event.reason == "statistics-health"
        assert "lineitem" in event.detail
        assert session.execute(QUERY).num_rows == 1

    def test_metrics_counter_tracks_attaches(self, session, archive):
        session.attach_statistics(str(archive))
        counter = session.metrics.counter(
            "repro_session_statistics_attaches_total",
            "Statistics managers attached to the session.",
        )
        assert counter.value(result="healthy") == 1

    def test_refresh_recovers_health(self, session, tmp_path):
        session.attach_statistics(str(tmp_path / "nowhere"))
        assert session.health == DEGRADED
        session.refresh_statistics()
        assert session.health == HEALTHY
        # The event log is history, not state: it survives recovery.
        assert len(session.degradations()) == 1


class TestCrossArchiveCaching:
    def test_no_cache_hit_across_archives(self, db, archive, tmp_path):
        """Regression: loading two archives must never alias cache keys.

        Before statistics versions were allocated from a process-wide
        epoch, every loaded manager restarted at the saved counter, so
        two attaches produced identical plan-cache keys and the second
        archive was served the first archive's plans.
        """
        other = tmp_path / "other"
        shutil.copytree(archive, other)
        with Session(db, sample_size=64, statistics_seed=5) as session:
            v1 = session.attach_statistics(str(archive))
            first = session.prepare(QUERY)
            assert not first.from_cache
            # Warm hit under the same archive: the cache itself works.
            assert session.prepare(QUERY).from_cache

            v2 = session.attach_statistics(str(other))
            assert v1 != v2
            second = session.prepare(QUERY)
            assert not second.from_cache
            assert second.statistics_version != first.statistics_version

    def test_reattaching_same_archive_also_misses(self, db, archive):
        with Session(db, sample_size=64, statistics_seed=5) as session:
            session.attach_statistics(str(archive))
            session.prepare(QUERY)
            session.attach_statistics(str(archive))
            assert not session.prepare(QUERY).from_cache


class _ExplodingEstimator:
    def __init__(self, inner):
        self.inner = inner

    def estimate(self, tables, predicate, hint=None):
        raise EstimationError("injected")

    def estimate_many(self, tables, predicate, thresholds):
        raise EstimationError("injected")

    def describe(self):
        return "exploding"


class TestDegradedPlanning:
    def test_estimator_failure_routes_to_fallback(self, session):
        session.estimator_decorator = _ExplodingEstimator
        prepared = session.prepare(QUERY)
        assert prepared.degraded_reason == "estimator-failure"
        assert prepared.execute().num_rows == 1
        assert session.health == DEGRADED
        (event,) = session.degradations()
        assert event.reason == "estimator-failure"
        assert event.component == "planner"

    def test_degraded_plans_never_cached(self, session):
        session.estimator_decorator = _ExplodingEstimator
        first = session.prepare(QUERY)
        second = session.prepare(QUERY)
        assert not first.from_cache
        assert not second.from_cache
        # Two plans, two attributed degradations: nothing was silent.
        assert len(session.degradations()) == 2

    def test_recovery_after_decorator_removed(self, session):
        session.estimator_decorator = _ExplodingEstimator
        assert session.prepare(QUERY).degraded_reason == "estimator-failure"
        session.estimator_decorator = None
        session.refresh_statistics()
        prepared = session.prepare(QUERY)
        assert prepared.degraded_reason is None
        assert session.health == HEALTHY

    def test_degradation_metrics_match_events(self, session):
        session.estimator_decorator = _ExplodingEstimator
        session.prepare(QUERY)
        session.prepare(QUERY)
        counter = session.metrics.counter(
            "repro_session_degradations_total",
            "Graceful degradations, by attributed reason.",
        )
        assert counter.value(reason="estimator-failure") == 2
        gauge = session.metrics.gauge(
            "repro_session_degraded",
            "1 while the session is in degraded mode, else 0.",
        )
        assert gauge.value() == 1.0

    def test_prepare_many_degrades_per_threshold(self, session):
        session.estimator_decorator = _ExplodingEstimator
        prepared = session.prepare_many(QUERY, [0.5, 0.8])
        assert len(prepared) == 2
        assert all(p.degraded_reason == "estimator-failure" for p in prepared)
        assert all(p.execute().num_rows == 1 for p in prepared)


class TestFallbackAttribution:
    def test_fallback_estimates_counted(self, session):
        statistics = session._ensure_state().manager
        statistics.drop_synopsis("lineitem")
        statistics.drop_sample("lineitem")
        statistics.drop_histograms("lineitem")
        session.prepare(QUERY)
        counter = session.metrics.counter(
            "repro_session_fallback_estimates_total",
            "Estimation passes routed through the §3.5 fallbacks, "
            "by fallback source.",
        )
        total = sum(
            counter.value(source=source)
            for source in ("magic", "sample", "histogram")
        )
        assert total >= 1
        assert counter.value(source="magic") >= 1


class TestEstimationDrift:
    def test_drift_lands_in_the_degradation_log(self, session):
        """A feedback session's class drifts from an accurate band to a
        worse one once its statistics are gone and the magic constants
        answer: the ledger's event is the session's degradation."""
        session.enable_feedback()
        session.execute(
            "SELECT lineitem.l_quantity FROM lineitem WHERE lineitem.l_quantity > 45"
        )
        assert session.health == HEALTHY
        statistics = session._ensure_state().manager
        statistics.drop_synopsis("lineitem")
        statistics.drop_sample("lineitem")
        statistics.drop_histograms("lineitem")
        session.execute(
            "SELECT lineitem.l_quantity FROM lineitem WHERE lineitem.l_quantity > 49"
        )
        [event] = session.degradations()
        assert event.reason == "estimation-drift"
        assert "accurate -> " in event.detail
        assert session.health == DEGRADED
        counter = session.metrics.counter(
            "repro_session_degradations_total",
            "Graceful degradations, by attributed reason.",
        )
        assert counter.value(reason="estimation-drift") == 1
