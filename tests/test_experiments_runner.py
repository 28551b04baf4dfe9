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
    ExactCardinalityEstimator,
    FixedSelectivityEstimator,
    HistogramCardinalityEstimator,
    JEFFREYS,
    UNIFORM,
    RobustCardinalityEstimator,
    estimator_for,
)
from repro.optimizer import Optimizer
from repro.selection import (
    ExactPolicy,
    FixedPolicy,
    HistogramPolicy,
    PenaltyPolicy,
    ThresholdPolicy,
)
from repro.errors import EstimationError, ReproError
from repro.service import Session, query_fingerprint
from repro.workloads import PartCorrelationTemplate, ShippingDatesTemplate


class _UnbuildablePolicy(ExactPolicy):
    """A point policy naming an estimator family nobody builds."""

    NAME = "unbuildable"


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

    def test_builders_independent(self, tpch_db, tpch_stats):
        """Each arm's policy prices at its own threshold."""
        configs = default_configs(thresholds=(0.05, 0.95))
        a, b = (
            estimator_for(c.policy, tpch_db, tpch_stats) for c in configs[:2]
        )
        assert a.threshold == 0.05
        assert b.threshold == 0.95

    def test_factories_keep_their_arm_fields(self):
        """Every factory arm is a name and a policy; the runner plans
        each through it."""

        def fields(configs):
            return [(c.name, c.policy) for c in configs]

        assert fields(default_configs(thresholds=(0.05, 0.95))) == [
            ("T=5%", ThresholdPolicy(0.05)),
            ("T=95%", ThresholdPolicy(0.95)),
            ("Histograms", HistogramPolicy()),
        ]
        assert fields(scenario_configs()) == [
            ("T=80%", ThresholdPolicy(0.8)),
            ("Histograms", HistogramPolicy()),
            ("Fixed", FixedPolicy()),
        ]
        expected = PenaltyPolicy(samples=8)
        cvar = PenaltyPolicy(samples=8, risk="cvar", alpha=0.9)
        assert fields(penalty_configs(samples=8)) == [
            ("E[penalty](m=8)", expected),
            ("CVaR(α=0.9, m=8)", cvar),
        ]

    def test_penalty_plans_ignore_the_unhinted_threshold(
        self, tpch_db, tpch_stats
    ):
        """A penalty pass prices every lane it plans on explicitly, its
        reference lane at the median included, so the threshold its
        estimator prices unhinted estimates at changes nothing."""
        shipping, part = ShippingDatesTemplate(), PartCorrelationTemplate()
        queries = [shipping.instantiate(p) for p in (60, 150, 230)]
        queries += [part.instantiate(p) for p in (5, 40)]
        optimizers = [
            Optimizer(tpch_db, RobustCardinalityEstimator(tpch_stats, policy=t))
            for t in (0.5, 0.8)
        ]
        for arm in penalty_configs(samples=8):
            for query in queries:
                median, moderate = (
                    arm.policy.plan(
                        optimizer,
                        query,
                        query_key=query_fingerprint(query),
                        statistics_token=tpch_stats.sampling_token(),
                    )
                    for optimizer in optimizers
                )
                assert median.plan.signature() == moderate.plan.signature()
                assert median.estimated_rows == moderate.estimated_rows
                assert median.estimated_cost == moderate.estimated_cost

    @pytest.mark.parametrize(
        "spec, name, estimator_class",
        [
            ("histogram", "Histograms", HistogramCardinalityEstimator),
            ("exact", "Exact", ExactCardinalityEstimator),
            ("fixed", "Fixed", FixedSelectivityEstimator),
        ],
    )
    def test_policy_arm_builds_the_named_estimator(
        self, tpch_db, tpch_stats, spec, name, estimator_class
    ):
        """Regression: every non-robust spec used to come back as the
        histogram arm, which the CLI's name de-dup then dropped."""
        arm = policy_arm(spec)
        assert arm.name == name
        estimator = estimator_for(arm.policy, tpch_db, tpch_stats)
        assert type(estimator) is estimator_class
        pickle.loads(pickle.dumps(arm))  # fans out to worker processes


class TestRunner:
    def test_record_grid_complete(self, small_result):
        # 3 configs × 2 params × 2 seeds
        assert len(small_result.records) == 12

    def test_config_names_ordered(self, small_result):
        assert small_result.config_names == ["T=5%", "T=95%", "Histograms"]

    def test_records_for_one_arm_in_run_order(self, small_result):
        records = small_result.records_for("T=95%")
        assert {r.config for r in records} == {"T=95%"}
        assert [r.seed for r in records] == [0, 0, 1, 1]
        assert small_result.records_for("nope") == []

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
        configs = [policy_arm(0.5)]
        runner = ExperimentRunner(tpch_db, template, sample_size=200, seeds=(3,))
        a = runner.run(params, configs)
        b = runner.run(params, configs)
        assert a.records[0].time == b.records[0].time
        assert a.records[0].plan == b.records[0].plan

    def test_the_arm_policy_beats_a_template_hint(self, tpch_db):
        """Every arm plans under its own policy, as ``policy.plan``
        does: a confidence hint the template puts on its queries
        changes no record (a session would let the hint win)."""
        params = ShippingDatesTemplate().params_for_targets(
            tpch_db, [0.0, 0.003], step=8
        )
        configs = [policy_arm(0.05)] + penalty_configs(samples=8)
        plain, hinted = (
            ExperimentRunner(
                tpch_db, template, sample_size=200, seeds=(0,), workers=1
            ).run(params, configs)
            for template in (
                ShippingDatesTemplate(),
                ShippingDatesTemplate(hint=0.95),
            )
        )
        assert hinted.records == plain.records

    def test_two_arms_sharing_a_name_are_rejected(self, tpch_db):
        """Regression: records are grouped by arm name, so a second arm
        of the same name silently merged into the first."""
        template = ShippingDatesTemplate()
        params = [(p, template.true_selectivity(tpch_db, p)) for p in (150, 200)]
        runner = ExperimentRunner(
            tpch_db, template, sample_size=200, seeds=(0,), workers=1
        )
        with pytest.raises(ReproError, match="T=80%"):
            runner.run(params, [policy_arm(0.8), policy_arm(0.8)])

    @pytest.mark.parametrize("trace", [False, True])
    def test_an_estimator_failure_fails_the_run(self, tpch_db, trace):
        """Regression: planning through the session's cached path
        turned an arm's estimator failure into a §3.5 magic-number plan
        recorded under the arm's name. Traced or not, it propagates."""
        template = ShippingDatesTemplate()
        params = [(150, template.true_selectivity(tpch_db, 150))]
        runner = ExperimentRunner(
            tpch_db, template, sample_size=200, seeds=(0,), workers=1, trace=trace
        )
        arms = [policy_arm(0.8), EstimatorConfig("Broken", _UnbuildablePolicy())]
        with pytest.raises(EstimationError, match="unknown estimator family"):
            runner.run(params, arms)


class TestSessionExperiment:
    def test_run_experiment_keeps_the_session_prior(self, tpch_db):
        """Regression: ``Session.run_experiment`` dropped the session's
        prior and planned under Jeffreys. Records rarely show it, so
        compare the traced estimates at a zero-count predicate."""
        template = ShippingDatesTemplate()
        params = template.params_for_targets(tpch_db, [0.0], step=8)
        arms = [policy_arm(0.8)]

        def estimates(result):
            return [trace["estimation"] for trace in result.traces]

        def runner(prior):
            return ExperimentRunner(
                tpch_db,
                template,
                sample_size=200,
                prior=prior,
                seeds=(0,),
                workers=1,
                trace=True,
            ).run(params, arms)

        session = Session(tpch_db, prior=UNIFORM, sample_size=200)
        result = session.run_experiment(
            template, params, arms, seeds=(0,), workers=1, trace=True
        )
        assert any(
            span["k"] == 0 for trace in estimates(result) for span in trace
        )
        assert estimates(result) == estimates(runner(UNIFORM))
        assert estimates(result) != estimates(runner(JEFFREYS))


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
