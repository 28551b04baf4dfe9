"""The runner's records equal the plain loop's, record for record.

``tests/reference_runner.py`` runs a grid with nothing shared: every
arm planned as a scalar through its policy, every plan executed in a
fresh context without caches, one seed after another. The runner
vectorizes threshold arms, reuses executions and scans, and fans seeds
out over processes; over the default, penalty and scenario grids, on
TPC-H and on the star schema, at one and two workers, its records must
be exactly the reference's.
"""

import pytest

from repro.experiments import (
    ExperimentRunner,
    default_configs,
    penalty_configs,
    scenario_configs,
)
from repro.workloads import ShippingDatesTemplate, StarJoinTemplate

from tests.reference_runner import reference_run

SEEDS = (0, 1)
SAMPLE_SIZE = 200

GRIDS = {
    "default": default_configs,
    "penalty": lambda: penalty_configs(8),
    "scenario": scenario_configs,
}


@pytest.fixture(scope="module")
def workloads(tpch_db, star_db, star_config):
    shipping = ShippingDatesTemplate()
    star = StarJoinTemplate(star_config.num_dim)
    return {
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


@pytest.mark.parametrize("family", ["tpch", "star"])
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
