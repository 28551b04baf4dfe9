"""The scenario-diversity grid: 3 estimator arms × 4 workloads
(BENCH_scenarios).

One :func:`~repro.experiments.scenario_configs` arm per estimation
philosophy — robust posterior quantile (T=80 %), AVI histograms, and
the fixed-selectivity strawman — run through the unchanged
``ExperimentRunner`` over four scenarios:

* ``star`` — the paper's three-dimension star join (cross-table
  correlation through FK joins);
* ``snowflake-chain`` — the same correlation trick two FK hops deep
  (fact → item → brand → category);
* ``snowflake-markup`` — an inequality join condition between
  FK-connected tables (``sales.s_price < item.i_price``);
* ``snowflake-band`` — a band join against the FK-unrelated
  ``promotion`` table, which must plan a ``NonEquiJoin``.

Every scenario runs every arm with 1 and 2 workers and the benchmark
asserts the record streams are byte-identical — non-equi planning and
every estimator arm inherit the harness's determinism contract.
Results land in ``benchmarks/results/BENCH_scenarios.json``.

``REPRO_SCENARIO_SMOKE=1`` runs a reduced grid (CI): fewer seeds and
parameters, same scenarios, arms, and assertions.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from benchmarks.conftest import RESULTS_DIR
from repro.cost import CostModel
from repro.experiments import ExperimentRunner, scenario_configs
from repro.workloads import (
    PriceMarkupTemplate,
    PromotionBandTemplate,
    SnowflakeChainTemplate,
    StarJoinTemplate,
)

pytestmark = pytest.mark.perf

SMOKE = os.environ.get("REPRO_SCENARIO_SMOKE") == "1"

SAMPLE_SIZE = 400
SEEDS = (0,) if SMOKE else (0, 1)
ARM_NAMES = ("T=80%", "Histograms", "Fixed")


def _scenarios(star_config):
    """(name, template, database fixture key, params) per scenario."""
    chain = SnowflakeChainTemplate()
    return [
        (
            "star",
            StarJoinTemplate(star_config.num_dim),
            "star",
            (0,) if SMOKE else (0, star_config.num_dim // 20),
        ),
        (
            "snowflake-chain",
            chain,
            "snowflake",
            (0,) if SMOKE else (0, chain.window),
        ),
        (
            "snowflake-markup",
            PriceMarkupTemplate(),
            "snowflake",
            (4,) if SMOKE else (2, 8),
        ),
        (
            "snowflake-band",
            PromotionBandTemplate(),
            "snowflake",
            (2,) if SMOKE else (1, 3),
        ),
    ]


def _records_digest(result) -> str:
    payload = [
        [r.config, r.param, r.selectivity, r.seed, r.time, r.plan, r.actual_rows]
        for r in result.records
    ]
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def _run_scenario(database, template, params, workers: int):
    runner = ExperimentRunner(
        database,
        template,
        CostModel(),
        sample_size=SAMPLE_SIZE,
        seeds=SEEDS,
        workers=workers,
    )
    pairs = [(p, template.true_selectivity(database, p)) for p in params]
    return runner.run(pairs, scenario_configs())


@pytest.fixture(scope="session")
def scenario_report(bench_star_db, bench_star_config, bench_snowflake_db):
    databases = {"star": bench_star_db, "snowflake": bench_snowflake_db}
    report: dict = {
        "grid": {
            "arms": list(ARM_NAMES),
            "sample_size": SAMPLE_SIZE,
            "seeds": list(SEEDS),
            "smoke": SMOKE,
        },
        "scenarios": {},
    }
    for name, template, db_key, params in _scenarios(bench_star_config):
        database = databases[db_key]
        results = {
            workers: _run_scenario(database, template, params, workers)
            for workers in (1, 2)
        }
        digests = {w: _records_digest(r) for w, r in results.items()}
        result = results[1]
        arms: dict = {}
        for arm in ARM_NAMES:
            records = [r for r in result.records if r.config == arm]
            arms[arm] = {
                "records": len(records),
                "mean_time_seconds": sum(r.time for r in records)
                / len(records),
                "plans": sorted({r.plan for r in records}),
            }
        report["scenarios"][name] = {
            "template": template.name,
            "params": list(params),
            "true_selectivities": [
                template.true_selectivity(database, p) for p in params
            ],
            "arms": arms,
            "sha256_workers_1": digests[1],
            "sha256_workers_2": digests[2],
            "byte_identical": digests[1] == digests[2],
        }

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_scenarios.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(report, indent=2, sort_keys=True))
    return report


class TestGridCompleteness:
    def test_every_scenario_ran_every_arm(self, scenario_report):
        for name, scenario in scenario_report["scenarios"].items():
            for arm in ARM_NAMES:
                assert scenario["arms"][arm]["records"] > 0, (name, arm)

    def test_expected_record_counts(self, scenario_report):
        per_arm = len(SEEDS)
        for name, scenario in scenario_report["scenarios"].items():
            expected = per_arm * len(scenario["params"])
            for arm in ARM_NAMES:
                assert scenario["arms"][arm]["records"] == expected, (name, arm)


class TestWorkerDeterminism:
    def test_records_byte_identical_across_worker_counts(
        self, scenario_report
    ):
        for name, scenario in scenario_report["scenarios"].items():
            assert scenario["byte_identical"], name


class TestScenarioShape:
    def test_band_scenario_plans_nonequi_joins(self, scenario_report):
        band = scenario_report["scenarios"]["snowflake-band"]
        for arm in ARM_NAMES:
            assert any(
                "NonEquiJoin" in plan for plan in band["arms"][arm]["plans"]
            ), arm

    def test_fk_scenarios_never_plan_nonequi_joins(self, scenario_report):
        for name in ("star", "snowflake-chain", "snowflake-markup"):
            scenario = scenario_report["scenarios"][name]
            for arm in ARM_NAMES:
                for plan in scenario["arms"][arm]["plans"]:
                    assert "NonEquiJoin" not in plan, (name, arm, plan)

    def test_true_selectivities_are_meaningful(self, scenario_report):
        for name, scenario in scenario_report["scenarios"].items():
            for sel in scenario["true_selectivities"]:
                assert sel >= 0.0, name
            # at least one parameter selects something
            assert any(s > 0 for s in scenario["true_selectivities"]), name
