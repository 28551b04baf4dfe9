"""Tests for the fault-injection and graceful-degradation layer."""

import numpy as np
import pytest

from repro import Session
from repro.core import MagicDistribution
from repro.errors import EstimationError, StatisticsError
from repro.faults import (
    ARCHIVE_FAULTS,
    ChaosHarness,
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    FaultyEstimator,
    INVARIANTS,
    RUNTIME_FAULTS,
    apply_archive_fault,
    generate_fault_plans,
    magic_envelope,
    span_violations,
)
from repro.faults.plan import FaultPlanError
from repro.stats import StatisticsManager, load_statistics, save_statistics
from repro.workloads import QUERY_BATTERY

from tests.conftest import make_two_table_db

QUERY = "SELECT COUNT(*) FROM lineitem WHERE lineitem.l_quantity > 45"
JOIN_QUERY = (
    "SELECT COUNT(*) FROM lineitem, part "
    "WHERE part.p_size <= 10 AND lineitem.l_quantity > 30"
)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultSpec(kind="set-fire-to-disk")

    def test_rate_bounds(self):
        with pytest.raises(FaultPlanError, match="rate"):
            FaultSpec(kind="estimator-error", rate=1.5)

    def test_negative_delay_rejected(self):
        with pytest.raises(FaultPlanError, match="delay"):
            FaultSpec(kind="estimator-delay", delay_seconds=-1.0)

    def test_kind_partition(self):
        assert set(FAULT_KINDS) == set(ARCHIVE_FAULTS) | set(RUNTIME_FAULTS)
        assert not set(ARCHIVE_FAULTS) & set(RUNTIME_FAULTS)

    def test_plan_splits_specs(self):
        plan = FaultPlan(
            name="p",
            seed=1,
            specs=(
                FaultSpec(kind="archive-missing-npz"),
                FaultSpec(kind="drop-sample"),
            ),
        )
        assert [s.kind for s in plan.archive_specs] == ["archive-missing-npz"]
        assert [s.kind for s in plan.runtime_specs] == ["drop-sample"]


class TestGenerateFaultPlans:
    def test_deterministic(self):
        a = generate_fault_plans(10, seed=42, tables=("part", "lineitem"))
        b = generate_fault_plans(10, seed=42, tables=("part", "lineitem"))
        assert a == b

    def test_seed_changes_plans(self):
        a = generate_fault_plans(10, seed=1)
        b = generate_fault_plans(10, seed=2)
        assert a != b

    def test_respects_max_faults(self):
        for plan in generate_fault_plans(30, seed=0, max_faults=2):
            assert 1 <= len(plan.specs) <= 2

    def test_distinct_kinds_within_plan(self):
        for plan in generate_fault_plans(30, seed=3):
            kinds = [s.kind for s in plan.specs]
            assert len(kinds) == len(set(kinds))

    def test_count_validated(self):
        with pytest.raises(FaultPlanError, match="count"):
            generate_fault_plans(0)

    @pytest.mark.parametrize("max_faults", [0, -1, len(FAULT_KINDS) + 1])
    def test_max_faults_out_of_range_rejected(self, max_faults):
        with pytest.raises(FaultPlanError, match="max_faults"):
            generate_fault_plans(4, max_faults=max_faults)

    def test_max_faults_may_name_every_kind(self):
        plans = generate_fault_plans(50, seed=0, max_faults=len(FAULT_KINDS))
        assert max(len(plan.specs) for plan in plans) <= len(FAULT_KINDS)


class TestMagicEnvelope:
    def test_matches_magic_distribution(self):
        lo, hi = magic_envelope(0.8)
        assert lo == pytest.approx(
            MagicDistribution(0.1).selectivity(0.8)
        )
        assert hi == pytest.approx(
            MagicDistribution(0.9).selectivity(0.8)
        )

    def test_conjuncts_shrink_lower_edge(self):
        lo1, hi1 = magic_envelope(0.8, conjuncts=1)
        lo3, hi3 = magic_envelope(0.8, conjuncts=3)
        assert lo3 == pytest.approx(lo1**3)
        assert hi3 == hi1
        assert lo3 < lo1

    def test_single_magic_span_inside_envelope(self):
        quantile = MagicDistribution(0.1).selectivity(0.8)
        record = {
            "estimation": [
                {
                    "tables": ["lineitem"],
                    "source": "magic",
                    "threshold": 0.8,
                    "quantile": quantile,
                }
            ]
        }
        assert span_violations(record, conjunct_bound=2) == []

    def test_out_of_envelope_magic_span_flagged(self):
        record = {
            "estimation": [
                {
                    "tables": ["lineitem"],
                    "source": "magic",
                    "threshold": 0.8,
                    "quantile": 0.999,
                }
            ]
        }
        violations = span_violations(record, conjunct_bound=1)
        assert len(violations) == 1
        assert "fallback-envelope" in violations[0]

    def test_invalid_quantile_flagged_for_any_source(self):
        record = {
            "estimation": [
                {
                    "tables": ["part"],
                    "source": "synopsis",
                    "threshold": 0.8,
                    "quantile": 1.7,
                }
            ]
        }
        violations = span_violations(record, conjunct_bound=1)
        assert len(violations) == 1
        assert "outside [0, 1]" in violations[0]

    def test_list_lanes_checked_per_threshold(self):
        lo_t, hi_t = 0.5, 0.9
        record = {
            "estimation": [
                {
                    "tables": ["lineitem"],
                    "source": "magic",
                    "threshold": [lo_t, hi_t],
                    "quantile": [
                        MagicDistribution(0.1).selectivity(lo_t),
                        0.9999,  # outside the envelope for hi_t
                    ],
                }
            ]
        }
        violations = span_violations(record, conjunct_bound=1)
        assert len(violations) == 1
        assert f"T={hi_t:g}" in violations[0]


class TestFaultyEstimator:
    class _Inner:
        def estimate(self, tables, predicate, hint=None):
            return "estimate"

        def estimate_many(self, tables, predicate, thresholds):
            return "many"

        def condition_selectivity(self, condition):
            return "condition"

        def estimate_groups(self, tables, group_by, predicate, rows, hint=None):
            return "groups"

        def describe(self):
            return "inner"

    def test_deterministic_error_sequence(self):
        def run():
            estimator = FaultyEstimator(
                self._Inner(), np.random.default_rng(5), error_rate=0.5
            )
            outcomes = []
            for _ in range(20):
                try:
                    estimator.estimate(set(), None)
                    outcomes.append("ok")
                except EstimationError:
                    outcomes.append("err")
            return outcomes, estimator.errors_fired

        first, second = run(), run()
        assert first == second
        assert first[1] > 0  # the configured rate actually fires

    def test_zero_rate_never_fires(self):
        estimator = FaultyEstimator(
            self._Inner(), np.random.default_rng(0), error_rate=0.0
        )
        for _ in range(50):
            assert estimator.estimate(set(), None) == "estimate"
        assert estimator.errors_fired == 0
        assert estimator.calls == 50

    def test_delegates_and_describes(self):
        estimator = FaultyEstimator(self._Inner(), np.random.default_rng(0))
        assert estimator.estimate_many(set(), None, [0.5]) == "many"
        assert estimator.condition_selectivity(None) == "condition"
        assert estimator.estimate_groups(set(), ["t.c"], None, 1.0) == "groups"
        assert estimator.describe() == "faulty(inner)"
        assert estimator.calls == 3

    @pytest.mark.parametrize("family", ["tpch", "snowflake"])
    def test_zero_rate_decorator_plans_like_the_bare_estimator(
        self, families, family
    ):
        """A decorator that never fires changes no plan: the band join's
        condition selectivity and the GROUP BY's group count reach the
        inner estimator's statistics through it. (Prepared plans, not
        ``Session.explain``: traced planning builds an undecorated
        estimator.)"""
        database, statistics = families[family]
        statements = {
            "tpch": [
                *QUERY_BATTERY.values(),
                "SELECT orders.o_custkey, COUNT(*) AS n FROM orders "
                "GROUP BY orders.o_custkey",
            ],
            "snowflake": [
                "SELECT SUM(sales.s_price) AS r FROM sales, promotion "
                "WHERE promotion.p_kind = 2 AND promotion.p_lo <= sales.s_price "
                "AND sales.s_price < promotion.p_hi",
            ],
        }[family]
        bare = Session(database, statistics=statistics)
        decorated = Session(database, statistics=statistics)
        decorated.estimator_decorator = lambda inner: FaultyEstimator(
            inner, np.random.default_rng(0), error_rate=0.0
        )
        for sql in statements:
            assert decorated.prepare(sql).explain() == bare.prepare(sql).explain()


@pytest.fixture(scope="module")
def chaos_db():
    return make_two_table_db()


@pytest.fixture(scope="module")
def pristine_archive(chaos_db, tmp_path_factory):
    path = tmp_path_factory.mktemp("chaos") / "stats"
    manager = StatisticsManager(chaos_db)
    manager.update_statistics(sample_size=64, seed=5)
    save_statistics(manager, path)
    return path


class TestArchiveFaults:
    """Every corruption mode must be rejected by the loader."""

    @pytest.mark.parametrize("kind", ARCHIVE_FAULTS)
    def test_corrupted_archive_rejected(
        self, chaos_db, pristine_archive, tmp_path, kind
    ):
        import shutil

        copy = tmp_path / "corrupted"
        shutil.copytree(pristine_archive, copy)
        spec = FaultSpec(kind=kind)
        description = apply_archive_fault(
            copy, spec, np.random.default_rng(3)
        )
        assert description
        with pytest.raises(StatisticsError):
            load_statistics(chaos_db, copy)

    def test_runtime_kind_rejected(self, pristine_archive):
        with pytest.raises(FaultPlanError, match="not an archive fault"):
            apply_archive_fault(
                pristine_archive,
                FaultSpec(kind="drop-sample"),
                np.random.default_rng(0),
            )


class TestChaosHarness:
    def test_requires_queries(self, chaos_db):
        with pytest.raises(Exception, match="at least one query"):
            ChaosHarness(chaos_db, [])

    def test_sweep_passes_all_invariants(self, chaos_db, tmp_path):
        harness = ChaosHarness(
            chaos_db,
            [QUERY, JOIN_QUERY],
            sample_size=64,
            statistics_seed=5,
            workdir=tmp_path,
        )
        plans = generate_fault_plans(
            20, seed=0, tables=("part", "lineitem")
        )
        report = harness.run(plans)
        summary = report.format_summary()
        assert report.passed, summary
        assert len(report.outcomes) == 20
        # The sweep must actually exercise degraded operation, not
        # just happy paths that trivially satisfy the invariants.
        assert sum(1 for o in report.outcomes if o.degradations) >= 5
        assert all(o.queries_run >= 4 for o in report.outcomes)
        assert "PASS" in summary

    def test_invariant_names_stable(self):
        assert INVARIANTS == (
            "executable-plan",
            "fallback-envelope",
            "cache-versioning",
            "degradation-attributed",
        )
