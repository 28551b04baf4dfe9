"""The runner's records equal the plain loop's, record for record.

``tests/reference_runner.py`` runs a grid with nothing shared: every
arm planned as a scalar through its policy, every plan executed in a
fresh context without caches, one seed after another. The runner
vectorizes threshold arms, reuses executions and scans, and fans seeds
out over processes; over the default, penalty and scenario grids, on
TPC-H, on the star schema and on a list of mixed TPC-H queries, at one
and two workers, and under either prior, its records must be exactly
the reference's. The
sensitivity sweep, the workload mix and the threshold advisor are
summaries of runner records, so they must equal the same summaries of
the reference's.
"""

import numpy as np
import pytest

from repro.analysis.tradeoff import tradeoff_from_times
from repro.core import UNIFORM
from repro.experiments import (
    ExperimentRunner,
    LatencyProfile,
    MixComponent,
    SweepPoint,
    default_configs,
    penalty_configs,
    policy_arm,
    recommend_threshold,
    run_workload_mix,
    scenario_configs,
    sensitivity_sweep,
)
from repro.experiments.runner import _QueryList
from repro.workloads import (
    PartCorrelationTemplate,
    ShippingDatesTemplate,
    StarJoinTemplate,
)

from tests.reference_runner import reference_run

SEEDS = (0, 1)
SAMPLE_SIZE = 200

GRIDS = {
    "default": default_configs,
    "penalty": lambda: penalty_configs(8),
    "scenario": scenario_configs,
}


def _query_list(queries, database):
    template = _QueryList(queries)
    return template, template.calibrate(database)


@pytest.fixture(scope="module")
def workloads(tpch_db, star_db, star_config):
    shipping = ShippingDatesTemplate()
    part = PartCorrelationTemplate()
    star = StarJoinTemplate(star_config.num_dim)
    mixed = [shipping.instantiate(230), part.instantiate(40)]
    mixed += [shipping.instantiate(200), part.instantiate(5)]
    return {
        "mix": (tpch_db, *_query_list(mixed, tpch_db)),
        "tpch": (
            tpch_db,
            shipping,
            shipping.params_for_targets(tpch_db, [0.0, 0.003, 0.008], step=4),
        ),
        "star": (
            star_db,
            star,
            [(s, star.true_selectivity(star_db, s)) for s in (100, 50, 0)],
        ),
    }


@pytest.mark.parametrize("family", ["tpch", "star", "mix"])
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_runner_records_equal_the_reference(workloads, family, grid):
    database, template, params = workloads[family]
    configs = GRIDS[grid]()
    expected = reference_run(
        database,
        template,
        params,
        configs,
        seeds=SEEDS,
        sample_size=SAMPLE_SIZE,
    ).records
    assert len(expected) == len(SEEDS) * len(configs) * len(params)
    for workers in (1, 2):
        result = ExperimentRunner(
            database,
            template,
            sample_size=SAMPLE_SIZE,
            seeds=SEEDS,
            workers=workers,
        ).run(params, configs)
        assert result.records == expected, f"workers={workers}"
        if grid == "default":
            # the comparison exercised what the reference leaves out
            assert result.perf.vector_passes == len(SEEDS) * len(params)
            assert result.perf.exec_cache_hits > 0


@pytest.mark.parametrize("family", ["tpch", "mix"])
def test_runner_records_equal_the_reference_under_a_uniform_prior(
    workloads, family
):
    database, template, params = workloads[family]
    configs = default_configs() + penalty_configs(8)
    expected = reference_run(
        database,
        template,
        params,
        configs,
        seeds=SEEDS,
        sample_size=SAMPLE_SIZE,
        prior=UNIFORM,
    ).records
    for workers in (1, 2):
        result = ExperimentRunner(
            database,
            template,
            sample_size=SAMPLE_SIZE,
            prior=UNIFORM,
            seeds=SEEDS,
            workers=workers,
        ).run(params, configs)
        assert result.records == expected, f"workers={workers}"


def test_helpers_summarize_the_reference(tpch_db):
    shipping = ShippingDatesTemplate()

    # The sweep: each arm's points against the Exact oracle arm.
    configs = [policy_arm(0.8), policy_arm("histogram")]
    params = [270, 215, 190]
    expected = reference_run(
        tpch_db,
        shipping,
        [(p, shipping.true_selectivity(tpch_db, p)) for p in params],
        [policy_arm("exact"), *configs],
        seeds=(5,),
        sample_size=SAMPLE_SIZE,
    )
    oracle = expected.records_for("Exact")
    reports = sensitivity_sweep(
        tpch_db, shipping, configs, params, sample_size=SAMPLE_SIZE, statistics_seed=5
    )
    assert list(reports) == ["T=80%", "Histograms"]
    for name, report in reports.items():
        assert report.points == [
            SweepPoint(r.param, r.selectivity, r.plan, r.time, o.plan, o.time)
            for r, o in zip(expected.records_for(name), oracle)
        ]

    # The mix: each arm's latency profile over the drawn query sequence.
    components = [
        MixComponent(shipping, weight=2.0),
        MixComponent(PartCorrelationTemplate()),
    ]
    rng = np.random.default_rng(1)
    weights = np.array([2.0, 1.0]) / 3.0
    queries = []
    for _ in range(6):
        template = components[int(rng.choice(2, p=weights))].template
        low, high = template.param_range()
        queries.append(template.instantiate(int(rng.integers(low, high + 1))))
    configs = default_configs(thresholds=(0.05, 0.95)) + penalty_configs(8)
    template, params = _query_list(queries, tpch_db)
    expected = reference_run(
        tpch_db, template, params, configs, seeds=(0,), sample_size=SAMPLE_SIZE
    )
    profiles = run_workload_mix(
        tpch_db,
        components,
        num_queries=6,
        configs=configs,
        sample_size=SAMPLE_SIZE,
        workload_seed=1,
    )
    assert profiles == {
        c.name: LatencyProfile.from_times(
            c.name, [r.time for r in expected.records_for(c.name)]
        )
        for c in configs
    }

    # The advisor: each candidate's (mean, std) over seeds and queries.
    workload = [shipping.instantiate(shift) for shift in (260, 210, 195)]
    configs = default_configs((0.2, 0.8, 0.95), include_histogram=False)
    template, params = _query_list(workload, tpch_db)
    expected = reference_run(
        tpch_db, template, params, configs, seeds=SEEDS, sample_size=SAMPLE_SIZE
    )
    recommendation = recommend_threshold(
        tpch_db,
        workload,
        candidate_thresholds=(0.2, 0.8, 0.95),
        sample_size=SAMPLE_SIZE,
        seeds=SEEDS,
    )
    assert recommendation.candidates == tuple(
        tradeoff_from_times(c.name, [r.time for r in expected.records_for(c.name)])
        for c in configs
    )
