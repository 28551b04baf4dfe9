"""Accuracy ledger: severity bands, drift, degradation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.obs.ledger import (
    BASELINE,
    WINDOW,
    AccuracyLedger,
    SEVERITY_BANDS,
    SEVERITY_ORDER,
    classify_q_error,
)


def severity(ledger, query_class="q"):
    return ledger.report()[query_class]["severity"]


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
        assert ledger.report() == {}

    def test_severity_follows_window_p90(self):
        ledger = AccuracyLedger()
        for _ in range(8):
            ledger.ingest("q", 1.2)
        assert severity(ledger) == "accurate"
        for _ in range(2):
            ledger.ingest("q", 50.0)
        # Two outliers in ten put the nearest-rank p90 on an outlier.
        assert severity(ledger) == "major"

    def test_window_forgets_old_errors(self):
        ledger = AccuracyLedger()
        for _ in range(WINDOW):
            ledger.ingest("q", 2000.0)
        assert severity(ledger) == "catastrophic"
        for _ in range(WINDOW):
            ledger.ingest("q", 1.1)
        assert severity(ledger) == "accurate"
        report = ledger.report()["q"]
        assert report["count"] == 2 * WINDOW
        assert report["max_q"] == 2000.0

    def test_quantiles_and_classes(self):
        ledger = AccuracyLedger()
        for q in (1.0, 2.0, 4.0, 8.0):
            ledger.ingest("a", q)
        ledger.ingest("b", 3.0)
        report = ledger.report()
        assert list(report) == ["a", "b"]
        assert report["a"]["window_p50"] == 2.0
        assert report["a"]["window_p90"] == 8.0
        assert report["a"]["geomean_q"] == pytest.approx(2.0 ** 1.5)
        assert report["b"]["window_p50"] == 3.0


class TestDriftAndDegradation:
    def test_worsening_transition_raises_event(self):
        events = []
        ledger = AccuracyLedger(on_degradation=events.append)
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
        ledger = AccuracyLedger()
        ledger.ingest("q", 5000.0)
        ledger.ingest("q", 5000.0)
        for _ in range(WINDOW):
            assert ledger.ingest("q", 1.0) is None
        assert severity(ledger) == "accurate"
        assert ledger.events == []

    def test_first_observation_never_degrades(self):
        ledger = AccuracyLedger()
        assert ledger.ingest("q", 1e6) is None

    def test_drift_score_is_log10_shift_vs_baseline(self):
        ledger = AccuracyLedger()
        for _ in range(BASELINE):
            ledger.ingest("q", 1.0)
        assert ledger.report()["q"]["drift_score"] == pytest.approx(0.0)
        for _ in range(WINDOW):
            ledger.ingest("q", 100.0)
        # Window now all 100x against an all-1x baseline: shift = 2.
        assert ledger.report()["q"]["drift_score"] == pytest.approx(2.0)

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


class TestArithmeticIsUnchanged:
    """The report and the gauges are the floats the ledger's first
    arithmetic gave: every quantile a nearest rank of a freshly sorted
    window, ``max`` of the window, and both log-means ``log10`` summed
    over the window and the baseline in order, on every ingest."""

    @staticmethod
    def rank(values, fraction):
        ordered = sorted(values)
        rank = min(len(ordered) - 1, int(math.ceil(fraction * len(ordered))) - 1)
        return ordered[max(rank, 0)]

    @staticmethod
    def drift(window, baseline):
        recent = sum(math.log10(q) for q in window) / len(window)
        return recent - sum(math.log10(q) for q in baseline) / len(baseline)

    def test_report_and_gauges_are_byte_equal(self):
        rng = np.random.default_rng(11)
        registry = MetricsRegistry()
        ledger = AccuracyLedger(registry=registry)
        qerror = registry.gauge("repro_feedback_qerror")
        drift = registry.gauge("repro_feedback_drift_score")
        seen: dict[str, list[float]] = {"a": [], "b": []}
        # 3x the window per class, so windows slide and baselines freeze
        for draw in range(6 * WINDOW):
            name = "ab"[draw % 2]
            q = float(10 ** rng.uniform(-0.5, 3.5))
            ledger.ingest(name, q)
            seen[name].append(max(q, 1.0))
            values = seen[name]
            window, baseline = values[-WINDOW:], values[:BASELINE]
            for label, expected in (
                ("p50", self.rank(window, 0.5)),
                ("p90", self.rank(window, 0.9)),
                ("max", max(window)),
            ):
                got = qerror.value(**{"class": name, "quantile": label})
                assert got.hex() == expected.hex()
            expected = self.drift(window, baseline)
            assert drift.value(**{"class": name}).hex() == expected.hex()
        report = ledger.report()
        for name, values in seen.items():
            window, baseline = values[-WINDOW:], values[:BASELINE]
            log_sum = 0.0
            for q in values:
                log_sum += math.log10(q)
            assert report[name] == {
                "count": len(values),
                "severity": classify_q_error(self.rank(window, 0.9)),
                "drift_score": self.drift(window, baseline),
                "geomean_q": 10 ** (log_sum / len(values)),
                "max_q": max(values),
                "window_p50": self.rank(window, 0.5),
                "window_p90": self.rank(window, 0.9),
            }
