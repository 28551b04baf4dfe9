"""End-to-end shape tests: the paper's headline results at small scale.

These run miniature versions of the Section 6 experiments and assert
the *qualitative* claims — who wins, in which regime, and in which
direction the knobs move — not absolute numbers.
"""

import numpy as np
import pytest

from repro.experiments import ExperimentRunner, default_configs
from repro.workloads import (
    ShippingDatesTemplate,
    StarJoinTemplate,
    TpchConfig,
    build_tpch_database,
)


@pytest.fixture(scope="module")
def exp1_result():
    database = build_tpch_database(TpchConfig(num_lineitem=20_000, seed=2))
    template = ShippingDatesTemplate()
    targets = [0.0, 0.001, 0.002, 0.004, 0.006, 0.008]
    params = template.params_for_targets(database, targets, step=4)
    runner = ExperimentRunner(database, template, sample_size=500, seeds=range(4))
    return runner.run(params)


@pytest.fixture(scope="module")
def exp3_result(star_db, star_config):
    template = StarJoinTemplate(star_config.num_dim)
    params = [
        (shift, template.true_selectivity(star_db, shift))
        for shift in (100, 90, 70, 40, 0)
    ]
    runner = ExperimentRunner(star_db, template, sample_size=500, seeds=range(3))
    return runner.run(params)


class TestExperiment1Shapes:
    def test_histograms_always_pick_index_intersection(self, exp1_result):
        """Section 6.2.1: 'The standard estimation module always
        selected the index intersection plan.'"""
        counts = exp1_result.plan_counts("Histograms")
        assert set(counts) == {"HashAggregate>IndexIntersect"}

    def test_t95_always_picks_sequential_scan(self, exp1_result):
        counts = exp1_result.plan_counts("T=95%")
        assert set(counts) == {"HashAggregate>SeqScan"}

    def test_std_decreases_with_threshold(self, exp1_result):
        """Figure 9(b): variance decreases steadily as T increases."""
        stds = [
            exp1_result.tradeoff_point(f"T={t}%").std_time
            for t in (5, 20, 50, 80, 95)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(stds, stds[1:]))

    def test_best_mean_at_moderate_threshold(self, exp1_result):
        """Figure 9(b): lowest mean at T=80 %, closely followed by 50 %."""
        means = {
            t: exp1_result.tradeoff_point(f"T={t}%").mean_time
            for t in (5, 20, 50, 80, 95)
        }
        best = min(means, key=means.get)
        assert best in (50, 80)

    def test_histograms_dominated(self, exp1_result):
        """The histogram baseline loses on performance *and*
        predictability."""
        histogram = exp1_result.tradeoff_point("Histograms")
        moderate = exp1_result.tradeoff_point("T=80%")
        assert histogram.mean_time > moderate.mean_time
        assert histogram.std_time > moderate.std_time

    def test_low_threshold_wins_at_zero_selectivity(self, exp1_result):
        zero = min(exp1_result.selectivities)
        aggressive = exp1_result.mean_time("T=5%", zero)
        conservative = exp1_result.mean_time("T=95%", zero)
        assert aggressive < conservative / 10

    def test_low_threshold_loses_at_high_selectivity(self, exp1_result):
        high = max(exp1_result.selectivities)
        aggressive = exp1_result.mean_time("T=5%", high)
        conservative = exp1_result.mean_time("T=95%", high)
        assert aggressive > 1.5 * conservative

    def test_histogram_time_grows_linearly(self, exp1_result):
        """The stuck index-intersection plan costs ∝ selectivity."""
        selectivities = np.array(exp1_result.selectivities)
        times = np.array(
            [exp1_result.mean_time("Histograms", s) for s in selectivities]
        )
        correlation = np.corrcoef(selectivities, times)[0, 1]
        assert correlation > 0.99


class TestExperiment3Shapes:
    def test_histograms_always_semijoin(self, exp3_result):
        """AVI pins the estimate at ≈0.1 %, so the histogram optimizer
        always chooses the semijoin strategy (Section 6.2.3)."""
        counts = exp3_result.plan_counts("Histograms")
        assert all("StarSemiJoin" in plan for plan in counts)

    def test_robust_adapts_plan_to_selectivity(self, exp3_result):
        """Robust estimation at T=50 % switches between the semijoin
        strategy and the hash cascade across the sweep."""
        counts = exp3_result.plan_counts("T=50%")
        assert len(counts) >= 2

    def test_histograms_worst_at_high_selectivity(self, exp3_result):
        high = max(exp3_result.selectivities)
        histogram = exp3_result.mean_time("Histograms", high)
        for threshold in (50, 80, 95):
            assert histogram > exp3_result.mean_time(f"T={threshold}%", high)

    def test_high_threshold_consistent(self, exp3_result):
        """High T: 'very consistent query performance across all
        selectivities'."""
        t95 = exp3_result.tradeoff_point("T=95%")
        t5 = exp3_result.tradeoff_point("T=5%")
        assert t95.std_time < t5.std_time


class TestExperiment4SampleSize:
    @pytest.fixture(scope="class")
    def by_sample_size(self):
        database = build_tpch_database(TpchConfig(num_lineitem=20_000, seed=2))
        template = ShippingDatesTemplate()
        targets = [0.0, 0.002, 0.004, 0.008]
        params = template.params_for_targets(database, targets, step=4)
        configs = default_configs(thresholds=(0.5,), include_histogram=False)
        results = {}
        for size in (50, 500):
            runner = ExperimentRunner(
                database, template, sample_size=size, seeds=range(4)
            )
            results[size] = runner.run(params, configs)
        return results

    def test_tiny_sample_self_adjusts_to_stable_plan(self, by_sample_size):
        """Section 6.2.4: with 50-tuple samples at T=50 % the optimizer
        always chooses the sequential scan."""
        counts = by_sample_size[50].plan_counts("T=50%")
        assert set(counts) == {"HashAggregate>SeqScan"}

    def test_tiny_sample_has_tiny_variance(self, by_sample_size):
        small = by_sample_size[50].tradeoff_point("T=50%")
        large = by_sample_size[500].tradeoff_point("T=50%")
        assert small.std_time < large.std_time

    def test_larger_sample_uses_risky_plan_sometimes(self, by_sample_size):
        counts = by_sample_size[500].plan_counts("T=50%")
        assert "HashAggregate>IndexIntersect" in counts
