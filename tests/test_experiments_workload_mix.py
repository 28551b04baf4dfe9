"""Tests for the workload-mix latency-percentile harness."""

import pytest

from repro.errors import ReproError
from repro.experiments import (
    LatencyProfile,
    MixComponent,
    default_configs,
    format_latency_profiles,
    penalty_configs,
    run_workload_mix,
)
from repro.optimizer import Optimizer
from repro.workloads import PartCorrelationTemplate, ShippingDatesTemplate


@pytest.fixture(scope="module")
def profiles(tpch_db):
    components = [
        MixComponent(ShippingDatesTemplate(), weight=2.0),
        MixComponent(PartCorrelationTemplate(), weight=1.0),
    ]
    configs = default_configs(thresholds=(0.05, 0.95))
    return run_workload_mix(
        tpch_db,
        components,
        num_queries=40,
        configs=configs,
        sample_size=300,
    )


class TestLatencyProfile:
    def test_from_times(self):
        profile = LatencyProfile.from_times("x", [1.0, 2.0, 3.0, 4.0])
        assert profile.mean == pytest.approx(2.5)
        assert profile.p50 == pytest.approx(2.5)
        assert profile.worst == 4.0
        assert profile.p50 <= profile.p95 <= profile.p99 <= profile.worst

    def test_empty_raises(self):
        with pytest.raises(ReproError):
            LatencyProfile.from_times("x", [])


class TestWorkloadMix:
    def test_one_profile_per_config(self, profiles):
        assert set(profiles) == {"T=5%", "T=95%", "Histograms"}

    def test_percentiles_ordered(self, profiles):
        for profile in profiles.values():
            assert profile.p50 <= profile.p95 <= profile.p99 <= profile.worst

    def test_conservative_tail_no_worse(self, profiles):
        """The paper's predictability story in percentile form: the
        conservative threshold controls the tail."""
        assert profiles["T=95%"].p99 <= profiles["T=5%"].p99 * 1.05
        assert profiles["T=95%"].worst <= profiles["T=5%"].worst * 1.05

    def test_histograms_worst_tail(self, profiles):
        assert profiles["Histograms"].worst >= profiles["T=95%"].worst * 0.95

    def test_format(self, profiles):
        text = format_latency_profiles(profiles)
        assert "p99" in text and "T=95%" in text

    def test_validation(self, tpch_db):
        with pytest.raises(ReproError):
            run_workload_mix(tpch_db, [], num_queries=1)
        for weight in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ReproError, match="finite and positive"):
                run_workload_mix(
                    tpch_db,
                    [
                        MixComponent(ShippingDatesTemplate(), weight=weight),
                        MixComponent(PartCorrelationTemplate()),
                    ],
                    num_queries=1,
                )

    def test_deterministic(self, tpch_db):
        components = [MixComponent(ShippingDatesTemplate())]
        configs = default_configs(thresholds=(0.5,), include_histogram=False)
        a = run_workload_mix(
            tpch_db, components, num_queries=10, configs=configs, sample_size=200
        )
        b = run_workload_mix(
            tpch_db, components, num_queries=10, configs=configs, sample_size=200
        )
        assert a["T=50%"].mean == b["T=50%"].mean

    def test_penalty_arms_plan_through_their_policy(self, tpch_db, monkeypatch):
        """Regression: the mix planned every arm with a plain
        ``optimize``, so a penalty arm ran at its estimator's T = 50 %."""
        calls = []
        original = Optimizer.optimize_penalty

        def counting(self, *args, **kwargs):
            calls.append(kwargs["risk"])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Optimizer, "optimize_penalty", counting)
        profiles = run_workload_mix(
            tpch_db,
            [MixComponent(ShippingDatesTemplate())],
            num_queries=5,
            configs=penalty_configs(samples=8),
            sample_size=200,
        )
        assert len(profiles) == 2
        assert calls == ["expected"] * 5 + ["cvar"] * 5
