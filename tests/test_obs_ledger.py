"""Accuracy ledger: severity bands, drift, degradation, routing."""

from __future__ import annotations

import pytest

from repro.core import AGGRESSIVE, CONSERVATIVE, MODERATE
from repro.feedback import DEFAULT_BAND_THRESHOLDS, ThresholdRouter
from repro.obs import MetricsRegistry
from repro.obs.ledger import (
    AccuracyLedger,
    SEVERITY_BANDS,
    SEVERITY_ORDER,
    classify_q_error,
)
from repro.selection import PenaltyPolicy, ThresholdPolicy


class TestClassification:
    @pytest.mark.parametrize(
        "value, band",
        [
            (1.0, "accurate"),
            (1.99, "accurate"),
            (2.0, "moderate"),
            (9.99, "moderate"),
            (10.0, "major"),
            (999.0, "major"),
            (1000.0, "catastrophic"),
            (1e9, "catastrophic"),
        ],
    )
    def test_band_boundaries(self, value, band):
        assert classify_q_error(value) == band

    def test_subunit_qerror_clamps_to_accurate(self):
        assert classify_q_error(0.1) == "accurate"

    def test_order_matches_band_tuple(self):
        names = [name for name, _ in SEVERITY_BANDS]
        assert sorted(SEVERITY_ORDER, key=SEVERITY_ORDER.get) == names


class TestIngestAndSeverity:
    def test_severity_none_before_data(self):
        ledger = AccuracyLedger()
        assert ledger.severity("q") is None

    def test_severity_follows_window_p90(self):
        ledger = AccuracyLedger(window=10)
        for _ in range(8):
            ledger.ingest("q", 1.2)
        assert ledger.severity("q") == "accurate"
        for _ in range(2):
            ledger.ingest("q", 50.0)
        # Two outliers in ten put the nearest-rank p90 on an outlier.
        assert ledger.severity("q") == "major"

    def test_window_forgets_old_errors(self):
        ledger = AccuracyLedger(window=4, baseline=2)
        for _ in range(4):
            ledger.ingest("q", 2000.0)
        assert ledger.severity("q") == "catastrophic"
        for _ in range(4):
            ledger.ingest("q", 1.1)
        assert ledger.severity("q") == "accurate"

    def test_quantiles_and_classes(self):
        ledger = AccuracyLedger()
        for q in (1.0, 2.0, 4.0, 8.0):
            ledger.ingest("a", q)
        ledger.ingest("b", 3.0)
        assert ledger.classes() == ["a", "b"]
        assert ledger.quantile("a", 0.5) == 2.0
        assert ledger.quantile("a", 1.0) == 8.0
        assert ledger.quantile("missing", 0.5) is None

    def test_per_expr_series_aggregates(self):
        ledger = AccuracyLedger()
        ledger.ingest("q", 4.0, expr_key="e1")
        ledger.ingest("q", 9.0, expr_key="e1")
        ledger.ingest("q", 2.0, expr_key="e2")
        report = ledger.report()["q"]
        assert report["expressions"]["e1"]["count"] == 2
        assert report["expressions"]["e1"]["geomean_q"] == pytest.approx(6.0)
        assert report["expressions"]["e2"]["max_q"] == 2.0

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            AccuracyLedger(window=0)
        with pytest.raises(ValueError):
            AccuracyLedger(baseline=0)


class TestDriftAndDegradation:
    def test_worsening_transition_raises_event(self):
        events = []
        ledger = AccuracyLedger(window=4, on_degradation=events.append)
        ledger.ingest("q", 1.1)
        assert not events
        event = ledger.ingest("q", 5000.0, statistics_version=3)
        assert event is not None
        assert event.reason == "estimation-drift"
        assert event.component == "estimator"
        assert event.statistics_version == 3
        assert "'q'" in event.detail
        assert events == [event] == ledger.events

    def test_improving_transition_is_silent(self):
        ledger = AccuracyLedger(window=2)
        ledger.ingest("q", 5000.0)
        ledger.ingest("q", 5000.0)
        assert ledger.ingest("q", 1.0) is None
        assert ledger.ingest("q", 1.0) is None
        assert ledger.severity("q") == "accurate"
        assert ledger.events == []

    def test_first_observation_never_degrades(self):
        ledger = AccuracyLedger()
        assert ledger.ingest("q", 1e6) is None

    def test_drift_score_is_log10_shift_vs_baseline(self):
        ledger = AccuracyLedger(window=4, baseline=4)
        for _ in range(4):
            ledger.ingest("q", 1.0)
        assert ledger.drift_score("q") == pytest.approx(0.0)
        for _ in range(4):
            ledger.ingest("q", 100.0)
        # Window now all 100x against an all-1x baseline: shift = 2.
        assert ledger.drift_score("q") == pytest.approx(2.0)
        assert ledger.drift_score("unknown") == 0.0

    def test_gauges_published_per_class(self):
        registry = MetricsRegistry()
        ledger = AccuracyLedger(registry=registry)
        for q in (1.0, 2.0, 16.0):
            ledger.ingest("q", q)
        gauge = registry.gauge("repro_feedback_qerror")
        assert gauge.value(**{"class": "q", "quantile": "p50"}) == 2.0
        assert gauge.value(**{"class": "q", "quantile": "max"}) == 16.0
        drift = registry.gauge("repro_feedback_drift_score")
        assert drift.value(**{"class": "q"}) == pytest.approx(0.0)

    def test_reset_forgets_one_class_or_all(self):
        ledger = AccuracyLedger()
        ledger.ingest("a", 5.0)
        ledger.ingest("b", 5.0)
        ledger.reset("a")
        assert ledger.classes() == ["b"]
        ledger.reset()
        assert ledger.classes() == []


class TestThresholdRouter:
    def make(self, window=4):
        ledger = AccuracyLedger(window=window)
        return ledger, ThresholdRouter(ledger)

    def test_cold_class_routes_none(self):
        _, router = self.make()
        assert router.route("q") is None
        assert router.routed_counts == {}

    def test_accurate_routes_aggressive(self):
        ledger, router = self.make()
        ledger.ingest("q", 1.2)
        assert router.route("q") == ThresholdPolicy(AGGRESSIVE)
        assert router.routed_counts == {"accurate": 1}

    def test_catastrophic_routes_conservative(self):
        ledger, router = self.make()
        for _ in range(4):
            ledger.ingest("q", 5000.0)
        assert router.route("q") == ThresholdPolicy(CONSERVATIVE)
        assert router.routed_counts == {"catastrophic": 1}

    def test_penalty_band_routes_policy(self):
        ledger = AccuracyLedger(window=4)
        bands = dict(DEFAULT_BAND_THRESHOLDS, catastrophic="cvar:0.9:16")
        router = ThresholdRouter(ledger, bands)
        for _ in range(4):
            ledger.ingest("q", 5000.0)
        routed = router.route("q")
        assert routed == PenaltyPolicy(samples=16, risk="cvar", alpha=0.9)
        table = router.routing_table()
        assert table["q"]["policy"] == "cvar:0.9:16"

    def test_default_map_covers_every_band(self):
        assert set(DEFAULT_BAND_THRESHOLDS) == set(SEVERITY_ORDER)
        assert DEFAULT_BAND_THRESHOLDS["moderate"] == MODERATE

    def test_missing_band_rejected(self):
        ledger = AccuracyLedger()
        with pytest.raises(ValueError, match="catastrophic"):
            ThresholdRouter(ledger, {"accurate": 0.5})

    def test_routing_table_reflects_ledger(self):
        ledger, router = self.make()
        ledger.ingest("a", 1.0)
        ledger.ingest("b", 30.0)
        table = router.routing_table()
        assert table["a"] == {
            "severity": "accurate",
            "policy": f"threshold:{AGGRESSIVE:g}",
        }
        assert table["b"]["severity"] == "major"
