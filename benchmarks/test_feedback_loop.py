"""The feedback fold vs. every fixed threshold, on cost (BENCH_feedback).

A skewed two-class workload over the TPC-H-shaped benchmark database:

* a **hard** class — ultra-selective correlated shipdate/receiptdate
  windows on ``lineitem`` whose truth is 1–2 rows, so the 500-row
  sample sees zero hits and every fixed-threshold estimate is pure
  prior quantile (q-errors 9–150x depending on T);
* an **easy** class — ``part.p_size`` ranges the sample nails (q ≈ 1).

Each distinct query repeats for several rounds, under each of five
statistics seeds. Fixed arms cache their plan and repeat the same
mistake every round; the fold arm plans at the session default and
folds each observed cardinality back into the posterior, so hard-class
estimates collapse toward the truth after the first encounter. The
``exact`` arm plans with true cardinalities and is the reference every
arm's regret is measured against.

The paper optimizes cost, so the gate is cost: the fold's mean
simulated seconds and mean regret are no worse than any fixed
threshold's. Its geometric-mean q-error must also beat every fixed
arm. The benchmark further asserts that a statistics hot-swap mid-run
serves zero stale feedback, and that harvesting the same traces with 1
or 2 workers yields byte-identical store contents. Results land in
``benchmarks/results/BENCH_feedback.json``.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import math

import numpy as np
import pytest

from benchmarks.conftest import RESULTS_DIR
from repro import FeedbackConfig, Session
from repro.catalog import date_ordinal
from repro.expressions import col
from repro.feedback import FeedbackStore, harvest_traces
from repro.obs import q_error
from repro.optimizer import SPJQuery
from repro.workloads.templates import ShippingDatesTemplate

pytestmark = pytest.mark.perf

SAMPLE_SIZE = 500
STATISTICS_SEEDS = (11, 13, 17, 19, 23)
HOT_SWAP_SEED = 29
ROUNDS = 5
#: An observed exact cardinality is worth far more than sample rows, so
#: the fold weight is sized to dominate the 500-row sample once a query
#: has repeated — timid weights leave the posterior quantile (and its
#: low-selectivity inflation) in charge.
FOLD_WEIGHT = 10_000.0

FIXED_ARMS = {"fixed-0.50": 0.50, "fixed-0.80": 0.80, "fixed-0.95": 0.95}


def _hard_query(day_lo: str, ship_days: int, receipt_days: int) -> SPJQuery:
    low = datetime.date.fromordinal(date_ordinal(day_lo))
    ship_hi = (low + datetime.timedelta(days=ship_days)).isoformat()
    receipt_hi = (low + datetime.timedelta(days=receipt_days)).isoformat()
    predicate = col("lineitem.l_shipdate").between(day_lo, ship_hi) & col(
        "lineitem.l_receiptdate"
    ).between(day_lo, receipt_hi)
    return SPJQuery(["lineitem"], predicate)


def _easy_query(low: int, high: int) -> SPJQuery:
    return SPJQuery(["part"], col("part.p_size").between(low, high))


#: (label, query) — three hard correlated windows, two easy ranges.
WORKLOAD = [
    ("hard-mar", _hard_query("1997-03-01", 2, 5)),
    ("easy-small", _easy_query(5, 20)),
    ("hard-jun", _hard_query("1997-06-01", 2, 5)),
    ("easy-large", _easy_query(20, 40)),
    ("hard-sep", _hard_query("1997-09-01", 2, 5)),
]


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _run_workload(session: Session, rounds: int = ROUNDS) -> list[tuple]:
    """``(label, q-error, simulated seconds)`` per execution, in order."""
    runs = []
    for _ in range(rounds):
        for label, query in WORKLOAD:
            result = session.prepare(query).execute()
            err = q_error(result.prepared.estimated_rows, result.num_rows)
            runs.append((label, err, result.simulated_seconds))
    return runs


def _summarize(runs: list[tuple], exact_runs: list[tuple]) -> dict:
    """Cost distribution, regret against the exact arm execution by
    execution, and q-error of one arm's pooled runs."""
    costs = [cost for _, _, cost in runs]
    regrets = [
        cost - reference
        for (_, _, cost), (_, _, reference) in zip(runs, exact_runs)
    ]
    per_label: dict[str, list[float]] = {}
    for label, err, _ in runs:
        per_label.setdefault(label, []).append(err)
    return {
        "executions": len(runs),
        "mean_sim_seconds": math.fsum(costs) / len(costs),
        "std_sim_seconds": float(np.std(costs)),
        "p95_sim_seconds": float(np.percentile(costs, 95)),
        "mean_regret_seconds": math.fsum(regrets) / len(regrets),
        "geomean_q_error": _geomean([err for _, err, _ in runs]),
        "max_q_error": max(err for _, err, _ in runs),
        "per_query_geomean_q": {
            label: _geomean(errors) for label, errors in per_label.items()
        },
    }


def _build_session(db, seed: int, policy=None) -> Session:
    return Session(
        db, policy=policy, sample_size=SAMPLE_SIZE, statistics_seed=seed
    )


@pytest.fixture(scope="session")
def feedback_report(bench_tpch_db) -> dict:
    report: dict = {
        "workload": {
            "queries": [label for label, _ in WORKLOAD],
            "rounds": ROUNDS,
            "sample_size": SAMPLE_SIZE,
            "statistics_seeds": list(STATISTICS_SEEDS),
            "fold_weight": FOLD_WEIGHT,
        },
        "arms": {},
    }
    planned_arms = {"exact": "exact", **FIXED_ARMS}
    runs: dict[str, list] = {name: [] for name in (*planned_arms, "fold")}
    folds = observations = 0
    for seed in STATISTICS_SEEDS:
        for name, policy in planned_arms.items():
            with _build_session(bench_tpch_db, seed, policy) as session:
                runs[name] += _run_workload(session)
        # The fold: session-default policy, observed cardinalities
        # folded into the posterior.
        session = _build_session(bench_tpch_db, seed)
        feedback = session.enable_feedback(
            config=FeedbackConfig(weight=FOLD_WEIGHT)
        )
        runs["fold"] += _run_workload(session)
        folds += sum(
            counters["folds"]
            for counters in feedback.provider_counters().values()
        )
        observations += feedback.observations
        if seed == STATISTICS_SEEDS[0]:
            swap_session = session
        else:
            session.close()
    for name, arm_runs in runs.items():
        report["arms"][name] = _summarize(arm_runs, runs["exact"])
    report["arms"]["fold"].update(folds=folds, observations=observations)

    # Statistics hot-swap mid-run on the first seed's fold session: the
    # namespace fence must keep every fold inside the new epoch — zero
    # stale feedback served.
    feedback = swap_session.feedback
    old_version = swap_session.statistics_version()
    new_version = swap_session.refresh_statistics(seed=HOT_SWAP_SEED)
    post_swap = _run_workload(swap_session, rounds=2)
    report["hot_swap"] = {
        "old_version": old_version,
        "new_version": new_version,
        "post_swap_geomean_q_error": _geomean(
            [err for _, err, _ in post_swap]
        ),
        "stale_hits": feedback.stale_hits(),
        "stale_refused": sum(
            counters["stale_refused"]
            for counters in feedback.provider_counters().values()
        ),
        "namespaces": feedback.store.namespaces(),
        "drift_events": len(feedback.ledger.events),
    }
    swap_session.close()

    # Worker determinism: harvesting the same experiment's traces from
    # 1 or 2 workers must produce byte-identical store contents.
    template = ShippingDatesTemplate()
    params = template.params_for_targets(
        bench_tpch_db, [0.002, 0.008], step=16
    )
    digests = {}
    for workers in (1, 2):
        session = _build_session(bench_tpch_db, STATISTICS_SEEDS[0], 0.80)
        result = session.run_experiment(
            template, params, seeds=(0,), workers=workers, trace=True
        )
        store = FeedbackStore()
        harvest_traces(
            store,
            result.traces,
            query_for=lambda record: template.instantiate(record["param"]),
        )
        digests[workers] = hashlib.sha256(store.to_bytes()).hexdigest()
        session.close()
    report["determinism"] = {
        "params": [param for param, _ in params],
        "sha256_workers_1": digests[1],
        "sha256_workers_2": digests[2],
        "byte_identical": digests[1] == digests[2],
    }

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_feedback.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(report, indent=2, sort_keys=True))
    return report


class TestFoldOnCost:
    @pytest.mark.parametrize(
        "metric", ["mean_sim_seconds", "mean_regret_seconds"]
    )
    def test_fold_costs_no_more_than_any_fixed_threshold(
        self, feedback_report, metric
    ):
        arms = feedback_report["arms"]
        fold = arms["fold"][metric]
        for name in FIXED_ARMS:
            assert fold <= arms[name][metric], (
                f"fold {metric} {fold:.4f} above {name} "
                f"{arms[name][metric]:.4f}"
            )

    def test_fold_q_error_beats_every_fixed_threshold(self, feedback_report):
        arms = feedback_report["arms"]
        fold = arms["fold"]["geomean_q_error"]
        for name in FIXED_ARMS:
            assert fold < arms[name]["geomean_q_error"], (
                f"fold ({fold:.2f}) should beat {name} "
                f"({arms[name]['geomean_q_error']:.2f})"
            )

    def test_loop_actually_closed(self, feedback_report):
        fold = feedback_report["arms"]["fold"]
        assert fold["folds"] > 0
        assert fold["observations"] >= (
            len(WORKLOAD) * ROUNDS * len(STATISTICS_SEEDS)
        )

    def test_hard_class_collapses_but_easy_stays_flat(self, feedback_report):
        arms = feedback_report["arms"]
        for label in ("hard-mar", "hard-jun", "hard-sep"):
            fold_q = arms["fold"]["per_query_geomean_q"][label]
            for name in FIXED_ARMS:
                assert fold_q < arms[name]["per_query_geomean_q"][label]
        for label in ("easy-small", "easy-large"):
            assert arms["fold"]["per_query_geomean_q"][label] < 2.0


class TestHotSwapFence:
    def test_zero_stale_feedback_across_swap(self, feedback_report):
        swap = feedback_report["hot_swap"]
        assert swap["stale_hits"] == 0
        assert swap["new_version"] != swap["old_version"]
        assert len(swap["namespaces"]) == 2

    def test_fresh_epoch_still_learns(self, feedback_report):
        # Two post-swap rounds: the first re-pays the cold-start
        # q-error, the second folds — still better than repeating the
        # worst fixed arm's mistake every round.
        swap = feedback_report["hot_swap"]
        worst = max(
            feedback_report["arms"][name]["geomean_q_error"]
            for name in FIXED_ARMS
        )
        assert swap["post_swap_geomean_q_error"] < worst


class TestWorkerDeterminism:
    def test_store_bytes_identical_across_worker_counts(
        self, feedback_report
    ):
        assert feedback_report["determinism"]["byte_identical"]
