"""Penalty-aware selection vs fixed thresholds (BENCH_parqo).

The PARQO-arm ablation: a tail q-error workload of correlated
shipdate/receiptdate windows over the TPC-H-shaped benchmark database,
where the 500-row sample usually sees 0–2 joint hits and the posterior
straddles the index/scan crossover. Every *fixed* threshold then fails
somewhere — aggressive quantiles pick index plans that blow up when
the truth lands high, conservative ones pay the scan premium on every
tiny-truth query — and the histogram baseline's independence
assumption under-estimates every correlated window.

The penalty arms keep the posterior: ``expected`` minimizes mean
regret across deterministic posterior samples, ``cvar`` the worst-α
tail average. Per query the *regret* of an arm is its simulated
execution time minus the best time any arm (an exact-cardinality
oracle included) achieved on that query. Pooled over three statistics
seeds, both penalty arms must beat the **best** fixed arm and the
histogram arm on p90 and p99 regret — the tails are where robustness
lives; mean regret rides along as a sanity bound.

Results land in ``benchmarks/results/BENCH_parqo.json``. Set
``REPRO_PARQO_SMOKE=1`` to run a reduced grid (CI): the report and its
schema are still produced, the win assertions are skipped.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os

import numpy as np
import pytest

from benchmarks.conftest import RESULTS_DIR
from repro.catalog import date_ordinal
from repro.experiments import ExperimentRunner, penalty_configs
from repro.expressions import col
from repro.optimizer import SPJQuery
from repro.selection import resolve_policy
from repro.service import Session
from repro.workloads.templates import ShippingDatesTemplate

pytestmark = pytest.mark.perf

SMOKE = os.environ.get("REPRO_PARQO_SMOKE") == "1"

SAMPLE_SIZE = 500
SEEDS = (11,) if SMOKE else (5, 11, 23)
MONTHS = (1, 4, 7, 10) if SMOKE else tuple(range(1, 13))
DAYS = (1,) if SMOKE else (1, 15)
WINDOWS = ((2, 5), (10, 20), (30, 45), (60, 90))

#: arm name → Session keyword overrides. The penalty arms: mean regret
#: over 64 posterior samples, and the worst-35% tail average over 128.
ARMS = {
    "fixed-0.05": {"policy": 0.05},
    "fixed-0.50": {"policy": 0.50},
    "fixed-0.80": {"policy": 0.80},
    "fixed-0.95": {"policy": 0.95},
    "histogram": {"policy": "histogram"},
    "expected": {"policy": "expected:64"},
    "cvar": {"policy": "cvar:0.35:128"},
    "oracle": {"policy": "exact"},
}
FIXED_ARMS = tuple(name for name in ARMS if name.startswith("fixed-"))
PENALTY_ARMS = ("expected", "cvar")


def _window_query(day_lo: str, ship_days: int, receipt_days: int) -> SPJQuery:
    low = datetime.date.fromordinal(date_ordinal(day_lo))
    ship_hi = (low + datetime.timedelta(days=ship_days)).isoformat()
    receipt_hi = (low + datetime.timedelta(days=receipt_days)).isoformat()
    predicate = col("lineitem.l_shipdate").between(day_lo, ship_hi) & col(
        "lineitem.l_receiptdate"
    ).between(day_lo, receipt_hi)
    return SPJQuery(["lineitem"], predicate)


def _workload() -> list[SPJQuery]:
    return [
        _window_query(f"1997-{month:02d}-{day:02d}", ship, receipt)
        for month in MONTHS
        for day in DAYS
        for (ship, receipt) in WINDOWS
    ]


def _quantiles(regrets_ms: np.ndarray) -> dict:
    return {
        "mean_ms": float(regrets_ms.mean()),
        "p50_ms": float(np.percentile(regrets_ms, 50)),
        "p90_ms": float(np.percentile(regrets_ms, 90)),
        "p99_ms": float(np.percentile(regrets_ms, 99)),
        "max_ms": float(regrets_ms.max()),
    }


@pytest.fixture(scope="session")
def parqo_report(bench_tpch_db) -> dict:
    workload = _workload()
    pooled: dict[str, list[float]] = {name: [] for name in ARMS}
    zero_regret: dict[str, int] = {name: 0 for name in ARMS}

    for seed in SEEDS:
        times: dict[str, list[float]] = {}
        for name, overrides in ARMS.items():
            session = Session(
                bench_tpch_db,
                sample_size=SAMPLE_SIZE,
                statistics_seed=seed,
                **overrides,
            )
            times[name] = [
                session.prepare(query).execute().simulated_seconds
                for query in workload
            ]
            session.close()
        matrix = np.array([times[name] for name in ARMS])
        best = matrix.min(axis=0)
        for row, name in enumerate(ARMS):
            regrets = matrix[row] - best
            pooled[name].extend(regrets.tolist())
            zero_regret[name] += int(np.sum(regrets <= 1e-12))

    arms_report = {}
    for name, overrides in ARMS.items():
        regrets_ms = np.array(pooled[name]) * 1000.0
        arms_report[name] = {
            # The oracle keeps the label BENCH_parqo.json has always had.
            "policy": (
                "exact-oracle"
                if name == "oracle"
                else resolve_policy(overrides["policy"]).spec()
            ),
            "oracle_matches": zero_regret[name],
            **_quantiles(regrets_ms),
        }

    # Worker determinism: penalty selection must plan byte-identically
    # no matter how seeds fan out over processes.
    template = ShippingDatesTemplate()
    params = template.params_for_targets(
        bench_tpch_db, [0.0, 0.004], step=8
    )
    digests = {}
    for workers in (1, 2):
        runner = ExperimentRunner(
            bench_tpch_db,
            template,
            sample_size=SAMPLE_SIZE,
            seeds=(0, 1),
            workers=workers,
        )
        result = runner.run(params, penalty_configs(samples=16))
        digests[workers] = hashlib.sha256(
            "\n".join(repr(record) for record in result.records).encode()
        ).hexdigest()

    report = {
        "workload": {
            "queries": len(workload),
            "seeds": list(SEEDS),
            "sample_size": SAMPLE_SIZE,
            "fact_rows": bench_tpch_db.table("lineitem").num_rows,
            "smoke": SMOKE,
        },
        "arms": arms_report,
        "baselines": {
            "best_fixed_p90": min(
                arms_report[name]["p90_ms"] for name in FIXED_ARMS
            ),
            "best_fixed_p99": min(
                arms_report[name]["p99_ms"] for name in FIXED_ARMS
            ),
            "best_fixed_mean": min(
                arms_report[name]["mean_ms"] for name in FIXED_ARMS
            ),
        },
        "determinism": {
            "sha256_workers_1": digests[1],
            "sha256_workers_2": digests[2],
            "byte_identical": digests[1] == digests[2],
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_parqo.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(report, indent=2, sort_keys=True))
    return report


class TestReportSchema:
    def test_every_arm_reported(self, parqo_report):
        assert set(parqo_report["arms"]) == set(ARMS)
        for name, slot in parqo_report["arms"].items():
            assert slot["mean_ms"] >= 0.0, name
            assert (
                slot["p50_ms"] <= slot["p90_ms"] <= slot["p99_ms"]
                <= slot["max_ms"]
            ), name

    def test_penalty_specs_recorded(self, parqo_report):
        assert parqo_report["arms"]["expected"]["policy"] == "expected:64"
        assert parqo_report["arms"]["cvar"]["policy"] == "cvar:0.35:128"
        assert parqo_report["arms"]["oracle"]["policy"] == "exact-oracle"

    def test_oracle_anchors_the_regret(self, parqo_report):
        # The exact-cardinality oracle should match the per-query best
        # almost always; the regret scale is anchored near zero.
        oracle = parqo_report["arms"]["oracle"]
        assert oracle["p90_ms"] == 0.0


@pytest.mark.skipif(SMOKE, reason="win margins need the full grid")
class TestPenaltyBeatsBaselines:
    def test_tails_beat_best_fixed_arm(self, parqo_report):
        best_p90 = parqo_report["baselines"]["best_fixed_p90"]
        best_p99 = parqo_report["baselines"]["best_fixed_p99"]
        for name in PENALTY_ARMS:
            arm = parqo_report["arms"][name]
            assert arm["p90_ms"] < best_p90, (
                f"{name} p90 {arm['p90_ms']:.1f}ms should beat the best "
                f"fixed arm's {best_p90:.1f}ms"
            )
            assert arm["p99_ms"] < best_p99, (
                f"{name} p99 {arm['p99_ms']:.1f}ms should beat the best "
                f"fixed arm's {best_p99:.1f}ms"
            )

    def test_tails_beat_histogram_arm(self, parqo_report):
        histogram = parqo_report["arms"]["histogram"]
        for name in PENALTY_ARMS:
            arm = parqo_report["arms"][name]
            assert arm["p90_ms"] < histogram["p90_ms"]
            assert arm["p99_ms"] < histogram["p99_ms"]

    def test_mean_regret_rides_along(self, parqo_report):
        best_mean = parqo_report["baselines"]["best_fixed_mean"]
        for name in PENALTY_ARMS:
            assert parqo_report["arms"][name]["mean_ms"] < best_mean, name


class TestWorkerDeterminism:
    def test_plan_choices_bit_identical_across_workers(self, parqo_report):
        determinism = parqo_report["determinism"]
        assert determinism["byte_identical"]
        assert (
            determinism["sha256_workers_1"]
            == determinism["sha256_workers_2"]
        )
