"""The SelectionPolicy surface of the Session facade.

Pins the policy resolution order — hint > per-call > session default,
with or without the feedback loop — plus the cache-key separation
between policies and the conflict/compatibility errors.
"""

from __future__ import annotations

import pytest

from repro.core import MODERATE
from repro.selection import (
    ExactPolicy,
    PenaltyPolicy,
    SelectionPolicy,
    ThresholdPolicy,
    resolve_policy,
)
from repro.service import Session, SessionConfig, SessionError

SELECTION = (
    "SELECT COUNT(*) FROM lineitem WHERE "
    "lineitem.l_shipdate >= '1997-01-01' "
    "AND lineitem.l_shipdate <= '1997-03-31' "
    "AND lineitem.l_receiptdate >= '1997-01-01' "
    "AND lineitem.l_receiptdate <= '1997-04-15'"
)


@pytest.fixture()
def session(two_table_db):
    with Session(two_table_db, sample_size=300, statistics_seed=3) as session:
        yield session


@pytest.fixture()
def penalty_session(two_table_db):
    with Session(
        two_table_db,
        policy="cvar:0.9:8",
        sample_size=300,
        statistics_seed=3,
    ) as session:
        yield session


class TestPolicyIsTotal:
    """Every session has a policy; ``None`` only ever means "default"."""

    def test_none_is_the_moderate_threshold(self):
        assert SessionConfig().policy == ThresholdPolicy(MODERATE)
        assert SessionConfig(policy=None) == SessionConfig()

    @pytest.mark.parametrize(
        "spec",
        ["threshold:0.9", "cvar:0.9:8", "histogram", "exact", "fixed"],
    )
    def test_every_kind_plans_under_its_policy(self, two_table_db, spec):
        expected = resolve_policy(spec)
        with Session(
            two_table_db, policy=spec, sample_size=300, statistics_seed=3
        ) as session:
            assert session.config.policy == expected
            assert session.config.estimator == expected.estimator_kind
            effective = session._request(SELECTION).policy
            assert isinstance(effective, SelectionPolicy)
            assert effective == expected
            prepared = session.prepare(SELECTION)
            assert prepared.policy == expected
            assert f"policy={spec}" in repr(prepared)

    def test_exact_session_has_a_policy(self, two_table_db, session):
        with Session(two_table_db, policy="exact") as exact:
            first = exact.execute(SELECTION)
            assert first.prepared.policy == ExactPolicy()
            assert first.prepared.threshold is None
            assert first.prepared.from_cache is False
            # Its own cache entry, keyed by the policy like any other.
            assert exact.prepare(SELECTION).from_cache is True
            assert exact.statistics is None
            assert first.num_rows == session.execute(SELECTION).num_rows

    def test_exact_session_traces_an_execution(self, two_table_db):
        # No statistics manager to read a sampling token from.
        with Session(two_table_db, policy="exact") as exact:
            record = exact.trace_query(SELECTION, execute=True)
            assert record["execution"] is not None
            assert exact.explain(SELECTION, analyze=True)


class TestPenaltySessions:
    def test_prepare_selects_by_penalty(self, penalty_session):
        prepared = penalty_session.prepare(SELECTION)
        assert prepared.policy == PenaltyPolicy(samples=8, risk="cvar", alpha=0.9)
        assert prepared.threshold is None  # threshold-blind selection
        selection = prepared.selection
        assert selection["strategy"] == "penalty"
        assert selection["samples"] == 8
        assert len(selection["plans"]) >= 1

    def test_execute_and_cache_roundtrip(self, penalty_session):
        first = penalty_session.execute(SELECTION)
        assert first.prepared.from_cache is False
        second = penalty_session.execute(SELECTION)
        assert second.prepared.from_cache is True
        assert first.num_rows == second.num_rows

    def test_per_call_penalty_on_threshold_session(self, session):
        prepared = session.prepare(SELECTION, policy="expected:8")
        assert prepared.policy == PenaltyPolicy(samples=8)
        assert prepared.selection["risk"] == "expected"


class TestConflictsAndCompatibility:
    def test_estimator_family_mismatch_rejected(self, session, two_table_db):
        with pytest.raises(SessionError, match="histogram"):
            session.prepare(SELECTION, policy="histogram")
        with pytest.raises(SessionError, match="exact"):
            session.execute(SELECTION, policy="exact")
        with Session(two_table_db, policy="exact") as exact:
            with pytest.raises(SessionError, match="robust"):
                exact.prepare(SELECTION, policy="threshold:0.9")

    def test_retired_spellings_are_type_errors(self, session, two_table_db):
        with pytest.raises(TypeError):
            Session(two_table_db, estimator="histogram")
        with pytest.raises(TypeError):
            Session(two_table_db, threshold=0.9)
        with pytest.raises(TypeError):
            session.prepare(SELECTION, threshold=0.9)
        with pytest.raises(TypeError):
            session.execute(SELECTION, 0.9)
        # A stale positional threshold must not read as analyze=True.
        with pytest.raises(TypeError):
            session.explain(SELECTION, 0.95)
        with pytest.raises(TypeError):
            session.trace_query(SELECTION, 0.95)


class TestPrecedence:
    """hint > per-call > session default."""

    def seed_catastrophic(self, feedback, query_class="lineitem"):
        for _ in range(4):
            feedback.ledger.ingest(query_class, 5000.0)

    def test_hint_beats_per_call_policy(self, session):
        prepared = session.prepare(
            SELECTION + " OPTION (CONFIDENCE 50)", policy="cvar:0.9:8"
        )
        assert prepared.policy == ThresholdPolicy(0.5)
        assert prepared.threshold == 0.5

    def test_per_call_policy_beats_default(self, session):
        feedback = session.enable_feedback()
        self.seed_catastrophic(feedback)
        prepared = session.prepare(SELECTION, policy="expected:8")
        assert prepared.policy == PenaltyPolicy(samples=8)

    def test_feedback_never_changes_the_policy(self, session):
        feedback = session.enable_feedback()
        self.seed_catastrophic(feedback)
        assert feedback.ledger.report()["lineitem"]["severity"] == (
            "catastrophic"
        )
        prepared = session.prepare(SELECTION)
        assert prepared.policy == session.config.policy
        assert prepared.threshold == MODERATE

    def test_default_policy_when_nothing_overrides(self, session):
        prepared = session.prepare(SELECTION)
        assert prepared.policy == session.config.policy
        assert prepared.policy == ThresholdPolicy(MODERATE)


class TestCacheSeparation:
    def test_policies_never_share_cache_slots(self, session):
        expected = session.prepare(SELECTION, policy="expected:8")
        cvar = session.prepare(SELECTION, policy="cvar:0.9:8")
        threshold = session.prepare(SELECTION)
        assert expected.from_cache is False
        assert cvar.from_cache is False
        assert threshold.from_cache is False

    def test_same_policy_hits_the_cache(self, session):
        session.prepare(SELECTION, policy="cvar:0.9:8")
        again = session.prepare(SELECTION, policy="cvar:0.9:8")
        assert again.from_cache is True

    def test_equal_policies_share_regardless_of_spelling(self, session):
        session.prepare(SELECTION, policy="expected:24")
        again = session.prepare(SELECTION, policy=PenaltyPolicy(samples=24))
        assert again.from_cache is True


class TestIntrospection:
    def test_repr_names_the_policy(self, penalty_session):
        prepared = penalty_session.prepare(SELECTION)
        assert "cvar:0.9:8" in repr(prepared)

    def test_describe_names_the_policy(self, penalty_session):
        assert "CVaR" in penalty_session.describe()

    def test_trace_query_records_selection(self, penalty_session):
        record = penalty_session.trace_query(SELECTION)
        span = record["optimizer"]
        assert span["strategy"] == "penalty"
        selection = span["selection"]
        assert selection["strategy"] == "penalty"
        assert selection["risk"] == "cvar"
        # Per-plan penalty distributions ride along for the trace view.
        assert all("penalty" in plan for plan in selection["plans"])
