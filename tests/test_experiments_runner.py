"""Tests for the experiment harness."""

import pickle

import pytest

from repro.experiments import (
    EstimatorConfig,
    ExperimentRunner,
    default_configs,
    format_selectivity_table,
    format_tradeoff_table,
    penalty_configs,
    policy_arm,
    scenario_configs,
)
from repro.core import (
    BayesNetCardinalityEstimator,
    ExactCardinalityEstimator,
    HistogramCardinalityEstimator,
    RobustCardinalityEstimator,
)
from repro.selection import (
    BayesNetPolicy,
    HistogramPolicy,
    PenaltyPolicy,
    ThresholdPolicy,
)
from repro.errors import ReproError
from repro.workloads import ShippingDatesTemplate


@pytest.fixture(scope="module")
def small_result(tpch_db):
    template = ShippingDatesTemplate()
    params = template.params_for_targets(tpch_db, [0.0, 0.003], step=8)
    runner = ExperimentRunner(tpch_db, template, sample_size=300, seeds=(0, 1))
    configs = default_configs(thresholds=(0.05, 0.95))
    return runner.run(params, configs)


class TestDefaultConfigs:
    def test_names(self):
        configs = default_configs()
        names = [c.name for c in configs]
        assert names == ["T=5%", "T=20%", "T=50%", "T=80%", "T=95%", "Histograms"]

    def test_without_histogram(self):
        configs = default_configs(thresholds=(0.5,), include_histogram=False)
        assert [c.name for c in configs] == ["T=50%"]

    def test_builders_independent(self, tpch_stats):
        """Each config builds its own threshold (no closure aliasing)."""
        configs = default_configs(thresholds=(0.05, 0.95))
        a = configs[0].estimator(tpch_stats)
        b = configs[1].estimator(tpch_stats)
        assert a.policy.default == 0.05
        assert b.policy.default == 0.95

    def test_factories_keep_their_arm_fields(self):
        """Every factory arm but the strawman is a policy and nothing
        else; the runner plans each through it."""

        def fields(configs):
            return [(c.name, c.build is None, c.policy) for c in configs]

        assert fields(default_configs(thresholds=(0.05, 0.95))) == [
            ("T=5%", True, ThresholdPolicy(0.05)),
            ("T=95%", True, ThresholdPolicy(0.95)),
            ("Histograms", True, HistogramPolicy()),
        ]
        assert fields(scenario_configs()) == [
            ("T=80%", True, ThresholdPolicy(0.8)),
            ("Histograms", True, HistogramPolicy()),
            ("BayesNet", True, BayesNetPolicy()),
            ("Fixed", False, None),
        ]
        expected = PenaltyPolicy(samples=8)
        cvar = PenaltyPolicy(samples=8, risk="cvar", alpha=0.9)
        assert fields(penalty_configs(samples=8)) == [
            ("E[penalty](m=8)", True, expected),
            ("CVaR(α=0.9, m=8)", True, cvar),
        ]

    def test_penalty_arms_price_at_the_median(self, tpch_stats):
        for arm in penalty_configs(samples=8):
            estimator = arm.estimator(tpch_stats)
            assert type(estimator) is RobustCardinalityEstimator
            assert estimator.policy.default == 0.5

    def test_arm_without_policy_or_build_rejected(self):
        with pytest.raises(ReproError, match="needs a policy or a build"):
            EstimatorConfig("nothing")

    @pytest.mark.parametrize(
        "spec, name, estimator_class",
        [
            ("histogram", "Histograms", HistogramCardinalityEstimator),
            ("bayes", "BayesNet", BayesNetCardinalityEstimator),
            ("exact", "Exact", ExactCardinalityEstimator),
        ],
    )
    def test_policy_arm_builds_the_named_estimator(
        self, tpch_stats, spec, name, estimator_class
    ):
        """Regression: every non-robust spec used to come back as the
        histogram arm, which the CLI's name de-dup then dropped."""
        arm = policy_arm(spec)
        assert arm.name == name
        assert type(arm.estimator(tpch_stats)) is estimator_class
        pickle.loads(pickle.dumps(arm))  # fans out to worker processes


class TestRunner:
    def test_record_grid_complete(self, small_result):
        # 3 configs × 2 params × 2 seeds
        assert len(small_result.records) == 12

    def test_config_names_ordered(self, small_result):
        assert small_result.config_names == ["T=5%", "T=95%", "Histograms"]

    def test_selectivities(self, small_result):
        assert len(small_result.selectivities) == 2

    def test_times_positive(self, small_result):
        assert all(r.time > 0 for r in small_result.records)

    def test_curve(self, small_result):
        curve = [
            small_result.mean_time("T=95%", selectivity)
            for selectivity in small_result.selectivities
        ]
        assert len(curve) == 2
        assert all(time > 0 for time in curve)

    def test_tradeoff_points(self, small_result):
        points = small_result.tradeoff_points()
        assert [p.label for p in points] == small_result.config_names
        assert all(p.mean_time > 0 for p in points)

    def test_plan_counts(self, small_result):
        counts = small_result.plan_counts("T=95%")
        assert sum(counts.values()) == 4  # 2 params × 2 seeds

    def test_missing_config_raises(self, small_result):
        with pytest.raises(ReproError):
            small_result.mean_time("nope", small_result.selectivities[0])
        with pytest.raises(ReproError):
            small_result.tradeoff_point("nope")

    def test_deterministic_given_seeds(self, tpch_db):
        template = ShippingDatesTemplate()
        params = [(150, template.true_selectivity(tpch_db, 150))]
        configs = [
            EstimatorConfig(
                "T=50%", lambda stats: RobustCardinalityEstimator(stats, policy=0.5)
            )
        ]
        runner = ExperimentRunner(tpch_db, template, sample_size=200, seeds=(3,))
        a = runner.run(params, configs)
        b = runner.run(params, configs)
        assert a.records[0].time == b.records[0].time
        assert a.records[0].plan == b.records[0].plan


class TestReports:
    def test_selectivity_table(self, small_result):
        text = format_selectivity_table(small_result)
        assert "T=5%" in text and "Histograms" in text
        # one line per selectivity plus header material
        assert len(text.splitlines()) == 2 + 1 + 2

    def test_tradeoff_table(self, small_result):
        text = format_tradeoff_table(small_result)
        assert "mean_time" in text and "std_time" in text
        assert "T=95%" in text


class TestCsvOutput:
    def test_selectivity_csv(self, small_result):
        from repro.experiments import selectivity_csv

        text = selectivity_csv(small_result)
        lines = text.splitlines()
        assert lines[0] == "selectivity,T=5%,T=95%,Histograms"
        assert len(lines) == 1 + len(small_result.selectivities)
        # every cell parses as a float
        for line in lines[1:]:
            for cell in line.split(","):
                float(cell)

    def test_tradeoff_csv(self, small_result):
        from repro.experiments import tradeoff_csv

        text = tradeoff_csv(small_result)
        lines = text.splitlines()
        assert lines[0] == "config,mean_time,std_time"
        assert len(lines) == 1 + len(small_result.config_names)
