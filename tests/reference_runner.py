"""The experiment grid as a plain loop — the comparand for the runner.

``ExperimentRunner`` plans the threshold arms of a grid with one
``optimize_many`` per param, reuses an execution across arms that chose
the same plan, shares base-table scans between executions and fans
seeds out over worker processes. None of that may change a record.
This is the grid with all of it left out, as the runner ran with every
cache and vectorization switch off before those switches were removed:
per seed, per arm, per param, plan the query as a scalar with
``EstimatorConfig.plan`` and execute the plan in a fresh
``ExecutionContext`` with no caches. ``tests/test_reference_runner.py``
holds the runner to it record for record.
"""

from __future__ import annotations

import time

from repro.cost import CostModel
from repro.engine import ExecutionContext
from repro.experiments import ExperimentResult, RunRecord
from repro.obs import plan_shape
from repro.optimizer import Optimizer
from repro.stats import StatisticsManager


def reference_run(
    database,
    template,
    params,
    configs,
    *,
    seeds,
    sample_size: int = 500,
    histogram_buckets: int = 250,
    cost_model: CostModel | None = None,
) -> ExperimentResult:
    """The records ``ExperimentRunner(...).run(params, configs)`` must
    produce. ``perf`` carries the per-phase and wall time only: the
    reference keeps no caches, so it has no counters to report."""
    model = cost_model or CostModel()
    result = ExperimentResult(template=template.name)
    wall_started = time.perf_counter()
    for seed in seeds:
        started = time.perf_counter()
        statistics = StatisticsManager(database)
        statistics.update_statistics(
            sample_size=sample_size,
            histogram_buckets=histogram_buckets,
            seed=seed,
        )
        result.perf.stats_build_seconds += time.perf_counter() - started
        for config in configs:
            optimizer = Optimizer(database, config.estimator(statistics), model)
            for param, selectivity in params:
                query = template.instantiate(param)
                started = time.perf_counter()
                planned = config.plan(optimizer, query, statistics)
                result.perf.optimize_seconds += time.perf_counter() - started
                started = time.perf_counter()
                ctx = ExecutionContext(database)
                rows = planned.plan.execute(ctx).num_rows
                result.perf.execute_seconds += time.perf_counter() - started
                result.append(
                    RunRecord(
                        config=config.name,
                        param=param,
                        selectivity=selectivity,
                        seed=seed,
                        time=model.time_from_counters(ctx.counters),
                        plan=plan_shape(planned.plan),
                        actual_rows=rows,
                    )
                )
    result.perf.wall_seconds = time.perf_counter() - wall_started
    return result
