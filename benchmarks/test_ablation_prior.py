"""Ablation: does the prior matter at the system level?

Figure 4 argues the Jeffreys-vs-uniform choice barely moves the
posterior. This ablation carries the claim through the whole stack and
surfaces its one caveat: at decision boundaries driven by *zero-count*
samples the ~1/n difference between the priors' upper tails can flip
the k=0 plan choice at high thresholds. Away from that boundary
(T=50 %), the two priors are system-level identical.
"""

import pytest

from benchmarks.conftest import render_series, write_result
from repro.core import JEFFREYS, UNIFORM
from repro.experiments import EstimatorConfig, ExperimentResult, ExperimentRunner
from repro.selection import ThresholdPolicy
from repro.workloads import ShippingDatesTemplate

TARGETS = [0.0, 0.002, 0.004, 0.008]
PRIORS = {"jeffreys": JEFFREYS, "uniform": UNIFORM}
THRESHOLDS = (50, 80)
#: Table rows: the two priors side by side at each threshold.
ROWS = [f"{prior}@{t}" for t in THRESHOLDS for prior in PRIORS]


@pytest.fixture(scope="module")
def setup(bench_tpch_db):
    template = ShippingDatesTemplate()
    params = template.params_for_targets(bench_tpch_db, TARGETS, step=4)
    runners = {
        name: ExperimentRunner(
            bench_tpch_db, template, sample_size=500, prior=prior, seeds=range(4)
        )
        for name, prior in PRIORS.items()
    }
    return template, runners, params


def run_priors(template, runners, params) -> ExperimentResult:
    """One runner per prior over the same threshold arms, merged."""
    result = ExperimentResult(template=template.name)
    for name, runner in runners.items():
        arms = [
            EstimatorConfig(f"{name}@{t}", ThresholdPolicy(t / 100))
            for t in THRESHOLDS
        ]
        result.records.extend(runner.run(params, arms).records)
    return result


def test_ablation_prior_choice(benchmark, setup):
    result = benchmark.pedantic(
        lambda: run_priors(*setup), rounds=1, iterations=1
    )

    points = {name: result.tradeoff_point(name) for name in ROWS}
    rows = [
        [p.label, f"{p.mean_time:9.4f}", f"{p.std_time:9.4f}"]
        for p in points.values()
    ]
    table = render_series(
        "Ablation: Jeffreys vs uniform prior (n=500)",
        ["config", "mean(s)", "std(s)"],
        rows,
    )
    write_result("ablation_prior.txt", table)

    # At T=50% the priors' k-cutoffs coincide: identical plan choices
    # and (hence) identical outcomes.
    j50 = result.plan_counts("jeffreys@50")
    u50 = result.plan_counts("uniform@50")
    total = sum(j50.values())
    agreement = sum(min(j50.get(k, 0), u50.get(k, 0)) for k in j50)
    assert agreement >= 0.9 * total
    assert points["jeffreys@50"].mean_time == pytest.approx(
        points["uniform@50"].mean_time, rel=0.1
    )

    # The caveat: at T=80% the uniform prior's heavier zero-count upper
    # tail (ppf ≈ 3.2e-3 vs Jeffreys ≈ 1.6e-3 at k=0, n=500) can sit on
    # the other side of the plan crossover — the priors may then make
    # *different* k=0 gambles. Both remain sensible: each stays within
    # the envelope spanned by the T=50% and always-stable behaviours.
    stable_mean = result.mean_time(
        "uniform@80", max(result.selectivities)
    )  # scan-like behaviour at the top of the sweep
    for name in ("jeffreys@80", "uniform@80"):
        assert points[name].mean_time <= 1.6 * stable_mean
