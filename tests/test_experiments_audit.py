"""Tests for cardinality auditing and plan-sensitivity analysis."""

import pytest

from repro.core import (
    ExactCardinalityEstimator,
    HistogramCardinalityEstimator,
    RobustCardinalityEstimator,
)
from repro.errors import ReproError
from repro.experiments import (
    audit_plan,
    format_audit,
    format_sensitivity,
    policy_arm,
    sensitivity_sweep,
)
from repro.expressions import col
from repro.optimizer import Optimizer, SPJQuery
from repro.workloads import ShippingDatesTemplate

CORRELATED = col("lineitem.l_shipdate").between("1997-07-01", "1997-09-30") & col(
    "lineitem.l_receiptdate"
).between("1997-07-01", "1997-09-30")


def worst_q_error(entries) -> float:
    """The largest per-operator q-error in the audit (1.0 if none)."""
    return max((e.q_error for e in entries if e.q_error is not None), default=1.0)


class TestAudit:
    def test_exact_estimator_audits_clean(self, tpch_db):
        planned = Optimizer(tpch_db, ExactCardinalityEstimator(tpch_db)).optimize(
            SPJQuery(["lineitem", "part"], col("part.p_size") <= 10)
        )
        entries = audit_plan(planned, tpch_db)
        assert len(entries) == len(list(planned.plan.walk()))
        # with exact cardinalities every estimate matches reality
        assert worst_q_error(entries) == pytest.approx(1.0, abs=1e-9)

    def test_histogram_estimator_shows_error_on_correlation(self, tpch_db, tpch_stats):
        planned = Optimizer(
            tpch_db, HistogramCardinalityEstimator(tpch_stats)
        ).optimize(SPJQuery(["lineitem"], CORRELATED))
        entries = audit_plan(planned, tpch_db)
        # the AVI underestimate is visible as a large q-error
        assert worst_q_error(entries) > 3.0

    def test_robust_estimator_much_closer(self, tpch_db, tpch_stats):
        robust = Optimizer(
            tpch_db, RobustCardinalityEstimator(tpch_stats, policy=0.5)
        ).optimize(SPJQuery(["lineitem"], CORRELATED))
        histogram = Optimizer(
            tpch_db, HistogramCardinalityEstimator(tpch_stats)
        ).optimize(SPJQuery(["lineitem"], CORRELATED))
        assert worst_q_error(audit_plan(robust, tpch_db)) < worst_q_error(
            audit_plan(histogram, tpch_db)
        )

    def test_depths_match_tree(self, tpch_db):
        planned = Optimizer(tpch_db, ExactCardinalityEstimator(tpch_db)).optimize(
            SPJQuery(["lineitem", "orders", "part"], col("part.p_size") <= 10)
        )
        entries = audit_plan(planned, tpch_db)
        assert entries[0].depth == 0
        assert max(e.depth for e in entries) >= 1

    def test_format(self, tpch_db):
        planned = Optimizer(tpch_db, ExactCardinalityEstimator(tpch_db)).optimize(
            SPJQuery(["lineitem"], CORRELATED)
        )
        text = format_audit(audit_plan(planned, tpch_db))
        assert "est rows" in text and "q-err" in text

    def test_q_error_none_without_estimate(self):
        from repro.experiments import AuditEntry

        entry = AuditEntry("x", 0, None, 10)
        assert entry.q_error is None

    def test_q_error_symmetric(self):
        from repro.experiments import AuditEntry

        over = AuditEntry("x", 0, 100.0, 10)
        under = AuditEntry("x", 0, 10.0, 100)
        assert over.q_error == pytest.approx(under.q_error)


class TestSensitivity:
    @pytest.fixture(scope="class")
    def reports(self, tpch_db):
        template = ShippingDatesTemplate()
        configs = [policy_arm(0.8), policy_arm("histogram")]
        params = [270, 240, 215, 200, 190]
        return sensitivity_sweep(
            tpch_db, template, configs, params, sample_size=500, statistics_seed=5
        )

    def test_reports_cover_all_points(self, reports):
        assert list(reports) == ["T=80%", "Histograms"]
        assert len(reports["T=80%"].points) == 5

    def test_oracle_regret_nonnegative(self, reports):
        for report in reports.values():
            assert all(point.regret >= 0 for point in report.points)

    def test_robust_has_less_regret_than_histograms(self, reports):
        assert reports["T=80%"].total_regret < reports["Histograms"].total_regret

    def test_robust_switches_plans(self, reports):
        """The robust estimator adapts across the sweep; the histogram
        baseline never does."""
        assert len(reports["T=80%"].switch_points()) >= 1
        assert len(reports["Histograms"].switch_points()) == 0

    def test_agreement_rates(self, reports):
        assert reports["T=80%"].agreement_rate >= reports["Histograms"].agreement_rate

    def test_format(self, reports):
        text = format_sensitivity(reports)
        assert "mean regret" in text and "T=80%" in text

    def test_an_exact_arm_collides_with_the_oracle(self, tpch_db):
        with pytest.raises(ReproError, match="Exact"):
            sensitivity_sweep(
                tpch_db, ShippingDatesTemplate(), [policy_arm("exact")], [200]
            )
