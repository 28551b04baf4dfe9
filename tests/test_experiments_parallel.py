"""Determinism and caching regression tests for the parallel harness.

The contract: ``workers=N`` fans seeds out over processes but the
merged :class:`ExperimentResult` is identical to the serial path, and
the seed session's execution memo never changes a recorded time — it
only skips re-executing plans the grid already ran, so the records
equal those of ``tests/reference_runner.py``, which executes every plan
afresh.
"""

import pickle

import pytest

from repro.core import (
    HistogramCardinalityEstimator,
    RobustCardinalityEstimator,
)
from repro.engine import SeqScan
from repro.experiments import (
    ExperimentRunner,
    default_configs,
)
from repro.service import Session
from repro.stats import StatisticsManager
from repro.workloads import ShippingDatesTemplate

from tests.conftest import as_planned
from tests.reference_runner import reference_run


@pytest.fixture(scope="module")
def grid(tpch_db):
    template = ShippingDatesTemplate()
    params = template.params_for_targets(tpch_db, [0.0, 0.003, 0.006], step=4)
    configs = default_configs(thresholds=(0.05, 0.5, 0.95))
    return template, params, configs


def _run(tpch_db, grid, **kwargs):
    template, params, configs = grid
    runner = ExperimentRunner(
        tpch_db, template, sample_size=300, seeds=(0, 1, 2), **kwargs
    )
    return runner.run(params, configs)


class TestDeterminism:
    def test_workers_do_not_change_records(self, tpch_db, grid):
        serial = _run(tpch_db, grid, workers=1)
        parallel = _run(tpch_db, grid, workers=4)
        assert serial.records == parallel.records
        assert serial == parallel  # perf timers excluded from equality
        assert parallel.perf.workers > 1

    def test_execution_cache_does_not_change_records(self, tpch_db, grid):
        template, params, configs = grid
        cached = _run(tpch_db, grid, workers=1)
        uncached = reference_run(
            tpch_db, template, params, configs, seeds=(0, 1, 2), sample_size=300
        )
        assert cached.records == uncached.records
        assert cached.perf.exec_cache_hits > 0
        assert (
            cached.perf.exec_cache_hits + cached.perf.exec_cache_misses
            == len(cached.records)
        )
        assert cached.perf.exec_cache_misses < len(cached.records)

    def test_star_plans_cache_safe(self, star_db, star_config):
        """Join/star operator trees must also key the cache correctly."""
        from repro.workloads import StarJoinTemplate

        template = StarJoinTemplate(star_config.num_dim)
        params = [
            (s, template.true_selectivity(star_db, s)) for s in (100, 50, 0)
        ]
        configs = default_configs(thresholds=(0.05, 0.95))
        cached = ExperimentRunner(
            star_db, template, sample_size=300, seeds=(0, 1), workers=1
        ).run(params, configs)
        uncached = reference_run(
            star_db, template, params, configs, seeds=(0, 1), sample_size=300
        )
        assert cached.records == uncached.records
        assert cached.perf.exec_cache_hits > 0

    def test_default_configs_pickle(self):
        """Builders must survive the trip into worker processes."""
        configs = default_configs()
        rebuilt = pickle.loads(pickle.dumps(configs))
        assert [c.name for c in rebuilt] == [c.name for c in configs]

    def test_lambda_configs_fall_back_to_serial(self, tpch_db, grid):
        class LocalTemplate(ShippingDatesTemplate):
            """Defined in a function body, so pickle cannot find it."""

        _, params, _ = grid
        configs = default_configs(thresholds=(0.5,), include_histogram=False)
        runner = ExperimentRunner(
            tpch_db, LocalTemplate(), sample_size=300, seeds=(0, 1), workers=4
        )
        with pytest.warns(RuntimeWarning, match="not picklable"):
            result = runner.run(params, configs)
        assert result.perf.workers == 1
        assert len(result.records) == len(params) * 2


class TestPerfInstrumentation:
    def test_phase_timers_populated(self, tpch_db, grid):
        result = _run(tpch_db, grid, workers=1)
        assert result.perf.stats_build_seconds > 0
        assert result.perf.optimize_seconds > 0
        assert result.perf.execute_seconds > 0
        assert result.perf.wall_seconds > 0

    def test_estimate_cache_counters_surface(self, tpch_db, grid):
        result = _run(tpch_db, grid, workers=1)
        assert result.perf.estimate_cache_misses > 0
        assert result.perf.estimate_cache_hits > 0

    def test_as_dict_roundtrips_to_json(self, tpch_db, grid):
        import json

        result = _run(tpch_db, grid, workers=1)
        payload = json.loads(json.dumps(result.perf.as_dict()))
        assert payload["workers"] == 1
        assert 0.0 <= payload["exec_cache_hit_rate"] <= 1.0


class TestResultIndex:
    def test_index_refreshes_on_append(self, tpch_db, grid):
        from repro.experiments import ExperimentResult, RunRecord

        result = ExperimentResult(template="t")
        result.append(
            RunRecord("a", 1, 0.1, 0, 1.0, "SeqScan", 10)
        )
        assert result.config_names == ["a"]
        assert result.mean_time("a", 0.1) == 1.0
        result.append(
            RunRecord("a", 1, 0.1, 1, 3.0, "SeqScan", 10)
        )
        assert result.mean_time("a", 0.1) == 2.0

    def test_params_grouped_by_integer_param(self, tpch_db, grid):
        """Two params sharing a selectivity stay distinct curve points."""
        from repro.experiments import ExperimentResult, RunRecord

        result = ExperimentResult(template="t")
        result.append(RunRecord("a", 1, 0.5, 0, 1.0, "SeqScan", 10))
        result.append(RunRecord("a", 2, 0.5, 0, 3.0, "SeqScan", 10))
        assert result.params == [1, 2]
        # float-keyed mean_time pools both params at that selectivity
        assert result.mean_time("a", 0.5) == 2.0


class TestEstimateMemoization:
    def test_robust_hit_counts(self, tpch_stats):
        estimator = RobustCardinalityEstimator(tpch_stats, policy=0.5)
        estimator.estimate({"lineitem"}, None)  # a first sight keeps nothing
        kept = estimator.estimate({"lineitem"}, None)
        again = estimator.estimate({"lineitem"}, None)
        assert estimator.estimate_cache_misses == 2
        assert estimator.estimate_cache_hits == 1
        assert again is kept
        # A different threshold is a different cache entry.
        estimator.estimate({"lineitem"}, None, hint=0.95)
        assert estimator.estimate_cache_misses == 3

    def test_histogram_hit_counts(self, tpch_stats):
        estimator = HistogramCardinalityEstimator(tpch_stats)
        estimator.estimate({"lineitem"}, None)  # a first sight keeps nothing
        kept = estimator.estimate({"lineitem"}, None)
        again = estimator.estimate({"lineitem"}, None)
        assert estimator.estimate_cache_misses == 2
        assert estimator.estimate_cache_hits == 1
        assert again is kept

    def test_rebuild_invalidates_cache(self, tpch_db):
        statistics = StatisticsManager(tpch_db)
        statistics.update_statistics(sample_size=200, seed=0)
        estimator = RobustCardinalityEstimator(statistics, policy=0.5)
        template = ShippingDatesTemplate()
        query = template.instantiate(100)
        estimator.estimate(set(query.tables), query.predicate)
        before = estimator.estimate(set(query.tables), query.predicate)  # kept
        statistics.update_statistics(sample_size=200, seed=99)
        after = estimator.estimate(set(query.tables), query.predicate)
        # The rebuild forces a recompute (a miss, not a stale hit) ...
        assert estimator.estimate_cache_hits == 0
        assert estimator.estimate_cache_misses == 3
        # ... against the new sample, so the estimate can move.
        assert before.tables == after.tables

    def test_drop_invalidates_cache(self, tpch_db):
        statistics = StatisticsManager(tpch_db)
        statistics.update_statistics(sample_size=200, seed=0)
        estimator = RobustCardinalityEstimator(statistics, policy=0.5)
        template = ShippingDatesTemplate()
        query = template.instantiate(100)
        estimator.estimate(set(query.tables), query.predicate)
        synopsis_based = estimator.estimate(set(query.tables), query.predicate)
        assert synopsis_based.source == "synopsis"  # and kept
        for name in tpch_db.table_names:
            statistics.drop_synopsis(name)
        fallback = estimator.estimate(set(query.tables), query.predicate)
        assert fallback.source != "synopsis"


class TestExecutionReuse:
    def test_signature_ignores_cost_annotations(self):
        a = SeqScan("lineitem")
        b = SeqScan("lineitem")
        b.est_rows, b.est_cost = 123.0, 4.5
        assert a.signature() == b.signature()
        assert a.explain() != b.explain()

    def test_cache_reuses_identical_plans(self, tpch_db):
        session = Session(tpch_db)

        def run(key):
            planned = as_planned(None, SeqScan("part"))
            return session._run(key, planned, served=False)

        first, again, other_key = run("1"), run("1"), run("2")
        assert first[0] == again[0] == other_key[0]
        # hits and misses
        assert [r[2] for r in (first, again, other_key)] == [False, True, False]
