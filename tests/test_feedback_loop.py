"""The closed feedback loop through the Session and serving layers.

Covers the tentpole's integration contracts:

* executions harvest observed cardinalities into the statistics
  epoch's namespace and the next prepare folds them into the
  posterior (``source="feedback"`` in traced evidence);
* the plan cache keys on the feedback generation, so new evidence
  re-plans instead of serving the pre-feedback plan — and a statement's
  own harvest *is* new evidence for its next plan until the
  observation cap is reached;
* feedback never picks the policy: hints and per-call overrides win,
  and the session default applies otherwise;
* a stale handle's re-plan carries the fresh prepare's degraded
  state, so only plans from the configured estimator are harvested;
* the epoch fence: across a statistics hot-swap, zero stale-feedback
  folds — a record that would drag its own epoch's estimate 5x off is
  refused by a provider bound to the next epoch;
* per-tenant isolation of the loop in the serving layer.
"""

from __future__ import annotations

import pytest

from repro.core import RobustCardinalityEstimator
from repro.errors import EstimationError
from repro.expressions import col, expr_key
from repro.feedback import (
    FeedbackConfig,
    FeedbackProvider,
    FeedbackStore,
    SessionFeedback,
    harvest_traces,
    plan_observations,
)
from repro.feedback.harvest import predicate_for_tables
from repro.feedback.store import MAX_OBSERVATIONS
from repro.optimizer import SPJQuery
from repro.service import Session, SessionError
from repro.serving import QueryServer, TenantSpec
from repro.stats import StatisticsManager

SELECTION = (
    "SELECT COUNT(*) FROM lineitem WHERE "
    "lineitem.l_shipdate >= '1997-01-01' "
    "AND lineitem.l_shipdate <= '1997-03-31' "
    "AND lineitem.l_receiptdate >= '1997-01-01' "
    "AND lineitem.l_receiptdate <= '1997-04-15'"
)
JOIN = (
    "SELECT COUNT(*) FROM lineitem, part "
    "WHERE part.p_size <= 10 AND lineitem.l_quantity > 30"
)


class Exploding:
    """Estimator middleware that fails every estimate."""

    def __init__(self, inner):
        self.inner = inner

    def estimate(self, tables, predicate, hint=None):
        raise EstimationError("injected")

    def estimate_many(self, tables, predicate, thresholds):
        raise EstimationError("injected")

    def describe(self):
        return "exploding"


@pytest.fixture()
def session(two_table_db):
    with Session(
        two_table_db, sample_size=300, statistics_seed=3
    ) as session:
        yield session


class TestEnableFeedback:
    def test_disabled_by_default(self, session):
        assert session.feedback is None

    def test_enable_is_idempotent(self, session):
        controller = session.enable_feedback()
        assert session.enable_feedback() is controller
        assert session.feedback is controller
        assert ", feedback" in session.describe()

    def test_reenable_with_arguments_rejected(self, session):
        session.enable_feedback()
        with pytest.raises(SessionError, match="already enabled"):
            session.enable_feedback(store=FeedbackStore())

    def test_non_robust_session_rejected(self, two_table_db):
        with Session(two_table_db, policy="exact") as session:
            with pytest.raises(SessionError, match="robust"):
                session.enable_feedback()


class TestClosedLoop:
    def test_execution_harvests_into_epoch_namespace(self, session):
        feedback = session.enable_feedback()
        result = session.execute(SELECTION)
        version = result.prepared.statistics_version
        assert feedback.observations == 1
        assert feedback.store.namespaces() == [f"epoch={version}"]
        assert feedback.store.size() > 0

    def test_next_prepare_folds_feedback(self, session):
        feedback = session.enable_feedback()
        session.execute(SELECTION)
        session.execute(SELECTION)
        counters = feedback.provider_counters()
        assert sum(c["folds"] for c in counters.values()) > 0
        assert feedback.stale_hits() == 0

    def test_traced_evidence_attributes_feedback(self, session):
        session.enable_feedback()
        session.execute(SELECTION)
        record = session.trace_query(SELECTION)
        spans = record["estimation"]
        fed = [s for s in spans if s["source"] == "feedback"]
        assert fed, [s["source"] for s in spans]
        attribution = fed[0]["feedback"]
        assert attribution["namespace"].startswith("epoch=")
        assert attribution["observations"] >= 1
        assert "prior_quantile" in attribution
        assert 0.0 <= attribution["observed_selectivity"] <= 1.0

    def test_feedback_generation_invalidates_plan_cache(self, session):
        session.enable_feedback()
        first = session.execute(SELECTION)
        assert first.plan_cached is False
        # The harvest bumped the generation: the same statement must
        # re-plan (fold the new evidence), not hit the stale entry.
        second = session.execute(SELECTION)
        assert second.plan_cached is False
        # Prepare-only passes don't harvest, so the generation holds
        # still and the second prepare is the cache hit.
        third = session.prepare(SELECTION)
        assert third.from_cache is False
        fourth = session.prepare(SELECTION)
        assert fourth.from_cache is True

    def test_own_harvest_moves_the_folds_a_plan_reads_until_the_cap(
        self, session, monkeypatch
    ):
        """Why a plan cache validated against the folds the plan *read*
        cannot hit on a hot set between refreshes (ROADMAP item 2): each
        execution's own harvest raises the mass ``weight x
        min(observations, MAX_OBSERVATIONS)`` of every fold its next
        plan reads, so the read values differ after each of the first
        ``MAX_OBSERVATIONS`` executions in an epoch — and only from then
        on, on unchanged data, are they bit-identical."""
        session.enable_feedback()
        cap = MAX_OBSERVATIONS
        reads = {}
        pseudo_counts = FeedbackProvider.pseudo_counts

        def recording(provider, tables, predicate_key, total_rows):
            folded = pseudo_counts(provider, tables, predicate_key, total_rows)
            key = (provider.namespace, tuple(sorted(tables)), predicate_key)
            reads[key] = None if folded is None else folded[:2]
            return folded

        monkeypatch.setattr(FeedbackProvider, "pseudo_counts", recording)
        read_sets = []
        for _ in range(cap + 4):
            reads.clear()
            session.execute(JOIN)
            read_sets.append(dict(reads))
        # Plan k (0-based) read the folds of k harvested executions.
        assert all(read_sets)
        for executions in range(cap):
            assert read_sets[executions] != read_sets[executions + 1], executions
        for later in read_sets[cap + 1 :]:
            assert later == read_sets[cap]

    def test_ledger_tracks_query_class(self, session):
        feedback = session.enable_feedback()
        session.execute(SELECTION)
        report = feedback.ledger.report()
        assert "lineitem" in report
        assert report["lineitem"]["count"] == 1

    def test_degraded_plans_are_not_harvested(self, session):
        feedback = session.enable_feedback()
        session.estimator_decorator = Exploding
        result = session.execute(SELECTION)
        assert result.prepared.degraded_reason == "estimator-failure"
        assert feedback.observations == 0
        assert feedback.store.size() == 0

    def test_stale_replan_onto_the_magic_path_is_not_harvested(
        self, session
    ):
        feedback = session.enable_feedback()
        prepared = session.prepare(SELECTION)
        prepared.execute()
        assert feedback.observations == 1
        session.refresh_statistics(seed=11)
        session.estimator_decorator = Exploding
        result = prepared.execute()
        assert result.prepared.degraded_reason == "estimator-failure"
        assert feedback.observations == 1

    def test_stale_replan_off_the_magic_path_is_harvested(self, session):
        feedback = session.enable_feedback()
        session.estimator_decorator = Exploding
        prepared = session.prepare(SELECTION)
        assert prepared.degraded_reason == "estimator-failure"
        session.estimator_decorator = None
        session.refresh_statistics(seed=11)
        result = prepared.execute()
        assert result.prepared.degraded_reason is None
        assert feedback.observations == 1


class TestPolicyPrecedence:
    """Feedback folds evidence; the policy stays hint > per-call >
    session default, however badly a class has estimated."""

    def seed_catastrophic(self, feedback):
        for _ in range(4):
            feedback.ledger.ingest("lineitem", 5000.0)

    def test_per_call_threshold_wins(self, session):
        self.seed_catastrophic(session.enable_feedback())
        prepared = session.prepare(SELECTION, policy="50")
        assert prepared.threshold == 0.5

    def test_hint_wins(self, session):
        self.seed_catastrophic(session.enable_feedback())
        prepared = session.prepare(
            SELECTION + " OPTION (CONFIDENCE 50)"
        )
        assert prepared.threshold == 0.5

    def test_cold_class_uses_session_default(self, session):
        session.enable_feedback()
        prepared = session.prepare(SELECTION)
        assert prepared.policy == session.config.policy


class TestEpochFence:
    """The hot-swap regression: stale feedback must never fold."""

    def make_query(self):
        predicate = (
            col("lineitem.l_shipdate").between("1997-01-01", "1997-03-31")
            & col("lineitem.l_receiptdate").between(
                "1997-01-01", "1997-04-15"
            )
        )
        return SPJQuery(tables=("lineitem",), predicate=predicate)

    def poisoned_store(self, query, namespace="epoch=1"):
        """A store whose only observation is wildly wrong."""
        store = FeedbackStore()
        key = expr_key(
            predicate_for_tables(query, frozenset(query.tables))
        )
        for _ in range(8):
            store.record(
                namespace,
                tables=query.tables,
                predicate_key=key,
                observed_rows=1_900.0,
                estimated_rows=1.0,
            )
        return store

    def estimate(self, two_table_db, provider):
        manager = StatisticsManager(two_table_db)
        manager.update_statistics(sample_size=300, seed=9)
        estimator = RobustCardinalityEstimator(manager, policy=0.8)
        estimator.feedback = provider
        query = self.make_query()
        predicate = predicate_for_tables(query, frozenset(query.tables))
        return estimator.estimate(("lineitem",), predicate).cardinality

    def test_fenced_provider_refuses_a_foreign_epochs_poison(
        self, two_table_db
    ):
        """What the namespace fence prevents.

        Feedback harvested under a *different* statistics epoch (here:
        a poisoned ``epoch=1`` record claiming ~all rows match) drags
        that epoch's own estimate far from the unfed posterior; a
        provider bound to ``epoch=2`` refuses it and estimates as if
        the store were empty.
        """
        query = self.make_query()
        store = self.poisoned_store(query)
        clean = FeedbackProvider(store, "epoch=2")
        same_epoch = FeedbackProvider(store, "epoch=1", weight=400.0)
        base = self.estimate(two_table_db, None)
        assert self.estimate(two_table_db, clean) == base
        assert clean.counters()["stale_refused"] == 1
        assert clean.counters()["folds"] == 0
        # The record is poison where it is served (~1900 rows observed).
        assert self.estimate(two_table_db, same_epoch) > 5 * base

    def test_session_hot_swap_has_zero_stale_hits(self, two_table_db):
        with Session(
            two_table_db, sample_size=300, statistics_seed=3
        ) as session:
            feedback = session.enable_feedback()
            session.execute(SELECTION)
            session.execute(SELECTION)
            v1 = session.statistics_version()
            v2 = session.refresh_statistics(seed=11)
            assert v2 != v1
            session.execute(SELECTION)
            session.execute(SELECTION)
            namespaces = feedback.store.namespaces()
            assert f"epoch={v1}" in namespaces
            assert f"epoch={v2}" in namespaces
            assert feedback.stale_hits() == 0
            counters = feedback.provider_counters()
            # The new epoch's provider saw the old key and refused it
            # before its own harvest landed.
            assert counters[f"epoch={v2}"]["stale_refused"] >= 1
            assert counters[f"epoch={v2}"]["folds"] >= 1

    def test_attach_statistics_renames_namespace(self, two_table_db):
        with Session(
            two_table_db, sample_size=300, statistics_seed=3
        ) as session:
            feedback = session.enable_feedback()
            session.execute(SELECTION)
            manager = StatisticsManager(two_table_db)
            manager.update_statistics(sample_size=300, seed=23)
            version = session.attach_statistics(manager)
            session.execute(SELECTION)
            assert f"epoch={version}" in feedback.store.namespaces()
            assert feedback.stale_hits() == 0


class TestHarvestDeterminism:
    def observations(self, two_table_db):
        with Session(
            two_table_db, sample_size=300, statistics_seed=3
        ) as session:
            prepared = session.prepare(JOIN)
            prepared.execute()
            return plan_observations(
                prepared.query, prepared.plan, two_table_db
            )

    def test_plan_observations_cover_table_sets(self, two_table_db):
        observations = self.observations(two_table_db)
        tablesets = {obs["tables"] for obs in observations}
        assert ("lineitem", "part") in tablesets
        assert any(len(t) == 1 for t in tablesets)
        for obs in observations:
            assert obs["observed_rows"] >= 0.0

    def test_store_bytes_independent_of_harvest_order(self, two_table_db):
        observations = self.observations(two_table_db)

        def build(order):
            store = FeedbackStore()
            for obs in order:
                store.record(
                    "epoch=1",
                    tables=obs["tables"],
                    predicate_key=obs["predicate_key"],
                    observed_rows=obs["observed_rows"],
                    estimated_rows=obs["estimated_rows"],
                )
            return store.to_bytes()

        forward = build(observations)
        assert build(list(reversed(observations))) == forward

    def test_harvest_traces_from_session_trace(self, session):
        record = session.trace_query(JOIN, execute=True)
        record["template"] = "join"
        record["seed"] = 0
        store = FeedbackStore()
        query = session._request(JOIN).query
        count = harvest_traces(
            store, [record], query_for=lambda r: query
        )
        assert count > 0
        assert store.namespaces() == ["join/seed=0"]

    def test_session_feedback_report_shape(self, session):
        session.enable_feedback()
        session.execute(SELECTION)
        report = session.feedback.report()
        assert set(report) == {
            "observations",
            "store",
            "ledger",
            "providers",
        }
        assert report["observations"] == 1


class TestServingIsolation:
    def make_server(self, two_table_db):
        return QueryServer(
            [
                TenantSpec(
                    "alpha",
                    two_table_db,
                    feedback=True,
                ),
                TenantSpec(
                    "beta",
                    two_table_db,
                    feedback=FeedbackConfig(weight=32.0),
                ),
                TenantSpec("gamma", two_table_db),
            ],
            worker_threads=2,
        )

    def test_per_tenant_feedback_stores_are_private(self, two_table_db):
        with self.make_server(two_table_db) as server:
            alpha = server.session("alpha").feedback
            beta = server.session("beta").feedback
            assert alpha is not None and beta is not None
            assert alpha.store is not beta.store
            assert beta.config.weight == 32.0
            assert server.session("gamma").feedback is None

    def test_served_executions_feed_only_their_tenant(self, two_table_db):
        with self.make_server(two_table_db) as server:
            server.serve("alpha", SELECTION)
            server.serve("alpha", SELECTION)
            server.serve("gamma", SELECTION)
            alpha = server.session("alpha").feedback.report()
            assert alpha["observations"] == 2
            beta = server.session("beta").feedback.report()
            assert beta["observations"] == 0
            assert server.session("gamma").feedback is None
            isolation = server.feedback_isolation_report()
            assert isolation["isolated"] is True
            assert isolation["stale_hits"] == {"alpha": 0, "beta": 0}
            assert isolation["shared_stores"] == []

    def test_swap_statistics_keeps_feedback_fenced(self, two_table_db):
        with self.make_server(two_table_db) as server:
            server.serve("alpha", SELECTION)
            manager = StatisticsManager(two_table_db)
            manager.update_statistics(sample_size=200, seed=31)
            server.swap_statistics("alpha", manager)
            server.serve("alpha", SELECTION)
            report = server.stats()
            assert report["feedback_isolation"]["isolated"] is True
            assert report["tenants"]["alpha"]["feedback"]["stale_hits"] == 0
            assert report["tenants"]["gamma"]["feedback"] is None
