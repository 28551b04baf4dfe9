"""Tests for the threshold advisor."""

import pytest

from repro.errors import ReproError
from repro.experiments import recommend_threshold
from repro.workloads import ShippingDatesTemplate


@pytest.fixture(scope="module")
def workload(tpch_db):
    template = ShippingDatesTemplate()
    return [template.instantiate(shift) for shift in (260, 230, 210, 195)]


class TestAdvisor:
    @pytest.fixture(scope="class")
    def balanced(self, tpch_db, workload):
        return recommend_threshold(
            tpch_db, workload, risk_aversion=1.0, sample_size=300, seeds=(0, 1)
        )

    def test_recommends_a_candidate(self, balanced):
        assert balanced.threshold in (0.05, 0.20, 0.50, 0.80, 0.95)
        assert balanced.profile.mean_time > 0

    def test_candidates_reported(self, balanced):
        assert len(balanced.candidates) == 5
        labels = {point.label for point in balanced.candidates}
        assert "T=95%" in labels

    def test_recommendation_minimizes_objective(self, balanced):
        objective = lambda p: p.mean_time + 1.0 * p.std_time
        best = min(balanced.candidates, key=objective)
        assert balanced.profile.label == best.label

    def test_risk_aversion_moves_threshold_up(self, tpch_db, workload):
        throughput = recommend_threshold(
            tpch_db, workload, risk_aversion=0.0, sample_size=300, seeds=(0, 1)
        )
        paranoid = recommend_threshold(
            tpch_db, workload, risk_aversion=50.0, sample_size=300, seeds=(0, 1)
        )
        assert paranoid.threshold >= throughput.threshold
        # extreme risk aversion lands on the paper's "predictability is
        # paramount" setting
        assert paranoid.threshold == 0.95

    def test_str(self, balanced):
        text = str(balanced)
        assert "T=" in text and "mean" in text

    def test_validation(self, tpch_db):
        with pytest.raises(ReproError):
            recommend_threshold(tpch_db, [], risk_aversion=1.0)
        with pytest.raises(ReproError):
            recommend_threshold(
                tpch_db,
                [ShippingDatesTemplate().instantiate(200)],
                risk_aversion=-1.0,
            )
        with pytest.raises(ReproError, match="candidate"):
            recommend_threshold(
                tpch_db,
                [ShippingDatesTemplate().instantiate(200)],
                candidate_thresholds=(),
            )

    def test_duplicate_candidates_measured_once(self, tpch_db, workload):
        recommendation = recommend_threshold(
            tpch_db,
            workload,
            candidate_thresholds=(0.8, 0.95, 0.8),
            sample_size=300,
            seeds=(0,),
        )
        labels = [point.label for point in recommendation.candidates]
        assert labels == ["T=80%", "T=95%"]
