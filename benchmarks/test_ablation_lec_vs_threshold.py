"""Ablation: confidence threshold vs least-expected-cost selection.

The paper's approach inverts the posterior cdf once and hands a single
number to the optimizer; the related-work alternative (Chu et al.,
Donjerkovic & Ramakrishnan) treats the optimizer as a black box,
invokes it once per parameter value and averages costs — "a blowup in
optimization time by a factor equal to the number of subroutine
invocations" (Section 2.2). This ablation measures both sides of that
trade on the Experiment 1 scenario: plan quality (mean/std simulated
time) and optimization effort (estimator invocations, planning time).

The least-expected-cost plan is ``Optimizer.optimize_penalty`` over the
midpoint quantiles — mean regret is mean cost minus a constant, so its
``expected`` risk *is* LEC (``tests/test_optimizer_lec.py`` holds it to
the black-box recipe's winner). What the recipe pays for that plan is
measured here by running its invocations: one ``optimize(hint=u)`` per
quantile. The third row is what the threshold-vectorized lattice pays
for the same plan: one pass.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from benchmarks.conftest import render_series, write_result
from repro.analysis import tradeoff_from_times
from repro.core import RobustCardinalityEstimator
from repro.cost import CostModel
from repro.engine import ExecutionContext
from repro.optimizer import Optimizer
from repro.stats import StatisticsManager
from repro.workloads import ShippingDatesTemplate

TARGETS = [0.0, 0.002, 0.004, 0.008, 0.012]
SEEDS = (0, 1, 2)
QUANTILES = 7
MIDPOINTS = (np.arange(QUANTILES) + 0.5) / QUANTILES

THRESHOLD = "T=80%"
RECIPE = "LEC"
ONE_PASS = "LEC, one vectorized pass"


@pytest.fixture(scope="module")
def setup(bench_tpch_db):
    template = ShippingDatesTemplate()
    params = template.params_for_targets(bench_tpch_db, TARGETS, step=4)
    return template, params


def run_comparison(database, template, params):
    cost_model = CostModel()
    times = {THRESHOLD: [], RECIPE: [], ONE_PASS: []}
    calls = dict.fromkeys(times, 0)
    planning = dict.fromkeys(times, 0.0)

    def simulated(planned):
        ctx = ExecutionContext(database)
        planned.plan.execute(ctx)
        return cost_model.time_from_counters(ctx.counters)

    for seed in SEEDS:
        statistics = StatisticsManager(database)
        statistics.update_statistics(sample_size=500, seed=seed)
        threshold_optimizer = Optimizer(
            database, RobustCardinalityEstimator(statistics, policy=0.8), cost_model
        )
        lec_optimizer = Optimizer(
            database, RobustCardinalityEstimator(statistics), cost_model
        )
        for param, _ in params:
            query = template.instantiate(param)

            started = time.perf_counter()
            planned = threshold_optimizer.optimize(query)
            planning[THRESHOLD] += time.perf_counter() - started
            calls[THRESHOLD] += planned.estimation_calls
            times[THRESHOLD].append(simulated(planned))

            # The recipe's optimizer invocations, one per quantile (its
            # re-costing of the pooled plans would only add to this).
            started = time.perf_counter()
            for quantile in MIDPOINTS:
                invocation = lec_optimizer.optimize(
                    replace(query, hint=float(quantile))
                )
                calls[RECIPE] += invocation.estimation_calls
            planning[RECIPE] += time.perf_counter() - started

            started = time.perf_counter()
            planned = lec_optimizer.optimize_penalty(query, MIDPOINTS)
            planning[ONE_PASS] += time.perf_counter() - started
            calls[ONE_PASS] += planned.estimation_calls
            lec_time = simulated(planned)
            times[RECIPE].append(lec_time)
            times[ONE_PASS].append(lec_time)
    return times, calls, planning


def test_ablation_lec_vs_threshold(benchmark, bench_tpch_db, setup):
    template, params = setup
    times, calls, planning = benchmark.pedantic(
        lambda: run_comparison(bench_tpch_db, template, params),
        rounds=1,
        iterations=1,
    )

    points = {name: tradeoff_from_times(name, ts) for name, ts in times.items()}
    rows = [
        [
            name,
            f"{point.mean_time:9.4f}",
            f"{point.std_time:9.4f}",
            f"{calls[name]:8d}",
            f"{1e3 * planning[name] / len(times[name]):8.2f}",
        ]
        for name, point in points.items()
    ]
    table = render_series(
        "Ablation: threshold inversion vs least expected cost "
        f"({QUANTILES} quantiles)",
        ["selector", "mean(s)", "std(s)", "est.calls", "plan(ms)"],
        rows,
    )
    write_result("ablation_lec_vs_threshold.txt", table)

    # The paper's criticism quantified: the black-box recipe needs
    # ~quantile-many times the estimation work of the single-inversion
    # approach ...
    assert calls[RECIPE] > (QUANTILES - 1) * calls[THRESHOLD]
    # ... and a threshold-vectorized lattice selects the same plan
    # without paying it: one estimator call per subexpression.
    assert calls[ONE_PASS] == calls[THRESHOLD]
    # Plan quality is comparable: LEC does not beat the threshold
    # approach by more than a modest margin on either axis.
    assert points[RECIPE].mean_time < 1.5 * points[THRESHOLD].mean_time
    assert points[THRESHOLD].mean_time < 1.5 * max(
        points[RECIPE].mean_time, 1e-9
    )
