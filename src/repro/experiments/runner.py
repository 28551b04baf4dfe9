"""Experiment execution: optimize and run query grids.

The measurement protocol mirrors Section 6.2: for each random sample
seed, rebuild the precomputed statistics; for each estimator
configuration, optimize every query of the selectivity grid with that
configuration and execute the chosen plan; record the simulated
execution time. Results are averaged over seeds, because "cardinality
estimation performance can vary depending on the particular random
choice of tuples for the samples".

Seeds are independent by construction — each rebuilds its own
:class:`~repro.stats.StatisticsManager` — so the grid fans out over a
process pool (``workers=``), with results merged in seed order so the
:class:`ExperimentResult` is identical regardless of worker count.
Within one seed, simulated time is a pure function of (database, plan,
parameter), so each distinct ``(param, plan signature)`` pair is
executed once and reused across configurations via
:class:`~repro.experiments.perf.PlanExecutionCache`.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.analysis.tradeoff import TradeoffPoint, tradeoff_from_times
from repro.catalog import Database
from repro.core import (
    CardinalityEstimator,
    FixedSelectivityEstimator,
    estimator_for,
)
from repro.cost import CostModel
from repro.errors import ReproError
from repro.experiments.perf import PerfStats, PlanExecutionCache
from repro.obs.execution import execution_span
from repro.obs.trace import QueryTrace, plan_shape
from repro.obs.tracer import Tracer
from repro.optimizer import Optimizer, PlannedQuery, SPJQuery
from repro.selection import (
    PenaltyPolicy,
    SelectionPolicy,
    ThresholdPolicy,
    resolve_policy,
)
from repro.service.fingerprint import query_fingerprint
from repro.stats import StatisticsManager
from repro.workloads.templates import QueryTemplate

#: The thresholds used throughout the paper's experiments.
PAPER_THRESHOLDS = (0.05, 0.20, 0.50, 0.80, 0.95)


@dataclass(frozen=True)
class EstimatorConfig:
    """One experiment arm: a name and how it picks a plan.

    ``policy`` is the :class:`~repro.selection.SelectionPolicy` that
    plans every query. With ``build`` left ``None`` the arm's estimator
    is the family the policy names: a threshold arm prices at its
    ``q``, a penalty arm at the median (its reference lane; the policy,
    not the estimator default, decides the plan).

    ``build`` maps fresh statistics to an estimator no policy names —
    a different prior, the fixed-selectivity strawman. A build-only arm
    plans with a plain ``optimize``. An arm needs at least one of the
    two.
    """

    name: str
    build: Callable[[StatisticsManager], CardinalityEstimator] | None = None
    policy: SelectionPolicy | None = None

    def __post_init__(self) -> None:
        if self.build is None and self.policy is None:
            raise ReproError(
                f"arm {self.name!r} needs a policy or a build function"
            )

    def estimator(self, statistics: StatisticsManager) -> CardinalityEstimator:
        """A fresh estimator for this arm over ``statistics``."""
        if self.build is not None:
            return self.build(statistics)
        return estimator_for(
            self.policy, statistics.database, statistics, default_threshold=0.5
        )

    def plan(
        self,
        optimizer: Optimizer,
        query: SPJQuery,
        statistics: StatisticsManager,
    ) -> PlannedQuery:
        """Plan ``query`` the way this arm selects: through its policy,
        or a plain ``optimize`` for a build-only arm.

        A penalty policy's draws are seeded by the query fingerprint
        and the statistics build, so bit-identical across worker
        counts. Every other policy plans one scalar pass at its hint,
        which reads neither seed, so the query is not hashed for it.
        """
        if self.policy is None:
            return optimizer.optimize(query)
        if not isinstance(self.policy, PenaltyPolicy):
            return optimizer.optimize(self.policy.hinted(query))
        return self.policy.plan(
            optimizer,
            query,
            query_key=query_fingerprint(query),
            statistics_token=statistics.sampling_token(),
        )


def _build_fixed(
    statistics: StatisticsManager, default: float
) -> CardinalityEstimator:
    return FixedSelectivityEstimator(statistics.database, default=default)


def default_configs(
    thresholds: Sequence[float] = PAPER_THRESHOLDS,
    include_histogram: bool = True,
) -> list[EstimatorConfig]:
    """Robust estimators at the paper's thresholds + histogram baseline."""
    configs = [policy_arm(threshold) for threshold in thresholds]
    if include_histogram:
        configs.append(policy_arm("histogram"))
    return configs


def scenario_configs(
    threshold: float = 0.8, fixed_default: float = 0.1
) -> list[EstimatorConfig]:
    """The four-arm estimator grid of the scenario-diversity benchmark.

    One arm per estimation philosophy: the paper's robust posterior
    quantile, the AVI histogram product, the Chow-Liu Bayesian network,
    and the fixed-selectivity strawman. Run over the star, snowflake,
    and inequality-join workloads this grid separates *within-table*
    correlation (bayes beats histogram), *cross-table* correlation
    (only robust sees it), and estimation-free planning (fixed).
    """
    return [
        policy_arm(threshold),
        policy_arm("histogram"),
        policy_arm("bayes"),
        EstimatorConfig(
            name="Fixed",
            build=functools.partial(_build_fixed, default=fixed_default),
        ),
    ]


def penalty_configs(
    samples: int = 24, cvar_alpha: float = 0.9
) -> list[EstimatorConfig]:
    """The PARQO-style penalty-selection arms.

    One expected-penalty arm and one CVaR-α arm, both drawing
    ``samples`` deterministic posterior samples per query.
    """
    return [
        policy_arm(PenaltyPolicy(samples=samples)),
        policy_arm(
            PenaltyPolicy(samples=samples, risk="cvar", alpha=cvar_alpha)
        ),
    ]


#: Arm names of the point-estimate policies (threshold and penalty
#: arms are named by the policy's ``describe()``).
_POINT_ARM_NAMES = {
    "histogram": "Histograms",
    "bayes": "BayesNet",
    "exact": "Exact",
}


def policy_arm(policy) -> EstimatorConfig:
    """One experiment arm for an arbitrary selection policy.

    Accepts anything :func:`~repro.selection.resolve_policy` does — a
    :class:`~repro.selection.SelectionPolicy`, a bare threshold, or a
    spec string like ``"cvar:0.9:24"``. The arm carries no builder, so
    it pickles cleanly into worker processes.
    """
    policy = resolve_policy(policy)
    name = _POINT_ARM_NAMES.get(policy.estimator_kind, policy.describe())
    return EstimatorConfig(name=name, policy=policy)


@dataclass(frozen=True)
class RunRecord:
    """One optimized-and-executed query."""

    config: str
    param: int
    selectivity: float
    seed: int
    time: float
    plan: str
    actual_rows: int


@dataclass
class ExperimentResult:
    """All records of one experiment, with the paper's summaries.

    Summary lookups go through a lazily-built ``(config, param) →
    times`` index instead of rescanning the record list per curve
    point; the index is rebuilt whenever records were appended since it
    was last built. Curve points are grouped on the integer ``param``
    (two parameters that happen to round to the same printed
    selectivity stay distinct points).
    """

    template: str
    records: list[RunRecord] = field(default_factory=list)
    #: Instrumentation for the run that produced the records. Excluded
    #: from equality: results are compared by their records, which are
    #: bit-identical across worker counts; timers never are.
    perf: PerfStats = field(default_factory=PerfStats, compare=False)
    #: JSON-ready :class:`~repro.obs.QueryTrace` records (one per
    #: executed query) when the runner was built with ``trace=True``;
    #: merged in seed order, so deterministic (modulo the wall-clock
    #: ``timing`` subtrees) for any worker count. Excluded from
    #: equality for the same reason as ``perf``.
    traces: list[dict] = field(default_factory=list, compare=False)

    def __post_init__(self) -> None:
        self._indexed = -1
        self._times: dict[tuple[str, int], list[float]] = {}
        self._plans: dict[str, dict[str, int]] = {}
        self._param_selectivity: dict[int, float] = {}
        self._config_order: dict[str, None] = {}

    def append(self, record: RunRecord) -> None:
        """Add one record (the index refreshes on next lookup)."""
        self.records.append(record)

    def _ensure_index(self) -> None:
        if self._indexed == len(self.records):
            return
        times: dict[tuple[str, int], list[float]] = {}
        plans: dict[str, dict[str, int]] = {}
        param_selectivity: dict[int, float] = {}
        config_order: dict[str, None] = {}
        for record in self.records:
            times.setdefault((record.config, record.param), []).append(
                record.time
            )
            per_config = plans.setdefault(record.config, {})
            per_config[record.plan] = per_config.get(record.plan, 0) + 1
            param_selectivity.setdefault(record.param, record.selectivity)
            config_order.setdefault(record.config, None)
        self._times = times
        self._plans = plans
        self._param_selectivity = param_selectivity
        self._config_order = config_order
        self._indexed = len(self.records)

    @property
    def config_names(self) -> list[str]:
        self._ensure_index()
        return list(self._config_order)

    @property
    def params(self) -> list[int]:
        """Grid parameters, ordered by their true selectivity."""
        self._ensure_index()
        return sorted(
            self._param_selectivity,
            key=lambda p: (self._param_selectivity[p], p),
        )

    @property
    def selectivities(self) -> list[float]:
        self._ensure_index()
        return sorted(set(self._param_selectivity.values()))

    def mean_time(self, config: str, selectivity: float) -> float:
        """Mean simulated time over seeds for one curve point."""
        self._ensure_index()
        times: list[float] = []
        for param, value in self._param_selectivity.items():
            if value == selectivity:
                times.extend(self._times.get((config, param), ()))
        if not times:
            raise ReproError(f"no records for {config!r} at {selectivity}")
        return float(np.mean(times))

    def tradeoff_point(self, config: str) -> TradeoffPoint:
        """Mean/std of time across all runs of one configuration."""
        self._ensure_index()
        times: list[float] = []
        for param in self.params:
            times.extend(self._times.get((config, param), ()))
        if not times:
            raise ReproError(f"no records for {config!r}")
        return tradeoff_from_times(config, times)

    def tradeoff_points(self) -> list[TradeoffPoint]:
        """One tradeoff point per configuration, in config order."""
        return [self.tradeoff_point(name) for name in self.config_names]

    def plan_counts(self, config: str) -> dict[str, int]:
        """How often each plan shape was chosen by a configuration."""
        self._ensure_index()
        return dict(self._plans.get(config, {}))


def _vector_arms(configs: Sequence[EstimatorConfig]) -> list[EstimatorConfig]:
    """The threshold arms on the stock estimator, planned together.

    One ``optimize_many`` over their thresholds replaces one
    ``optimize`` per arm, lane for lane the same plans. Fewer than two
    such arms gain nothing: a width-1 vector pass is slower than the
    scalar one.
    """
    arms = [
        config
        for config in configs
        if config.build is None and isinstance(config.policy, ThresholdPolicy)
    ]
    return arms if len(arms) >= 2 else []


def _run_seed(
    database: Database,
    template: QueryTemplate,
    cost_model: CostModel,
    sample_size: int,
    histogram_buckets: int,
    params: Sequence[tuple[int, float]],
    configs: Sequence[EstimatorConfig],
    seed: int,
    trace: bool = False,
) -> tuple[list[RunRecord], PerfStats, list[dict]]:
    """One seed's slice of the grid — the unit of parallelism.

    Records come out in config order, then param order. Every arm's
    plans come from :meth:`EstimatorConfig.plan`, except that the
    threshold arms :func:`_vector_arms` picks share one
    ``optimize_many`` per param, run when the first of them reaches
    that param. Every execution goes through one
    :class:`~repro.experiments.perf.PlanExecutionCache`.

    With ``trace=True`` a per-seed :class:`~repro.obs.Tracer` collects
    estimation, optimizer, and execution spans, and the JSON-ready
    trace records ride back to the coordinator alongside the run
    records (sinks never enter worker processes). Tracing does not
    change the records or execute anything more: the execution span is
    read off the per-operator record the plan-execution cache keeps
    beside each ``(time, rows)``, hits included.
    """
    perf = PerfStats()
    tracer = Tracer() if trace else None
    drain = tracer.drain_estimations if tracer is not None else lambda: None
    traces: list[dict] = []
    started = time.perf_counter()
    statistics = StatisticsManager(database)
    statistics.update_statistics(
        sample_size=sample_size,
        histogram_buckets=histogram_buckets,
        seed=seed,
    )
    perf.stats_build_seconds += time.perf_counter() - started

    estimators: list[CardinalityEstimator] = []

    def optimizer_for(config: EstimatorConfig) -> Optimizer:
        estimator = config.estimator(statistics)
        if tracer is not None:
            estimator.tracer = tracer
        estimators.append(estimator)
        return Optimizer(database, estimator, cost_model, tracer=tracer)

    vector = _vector_arms(configs)
    vector_optimizer = optimizer_for(vector[0]) if vector else None
    grid = tuple(config.policy.q for config in vector)
    # (lane, position in params) → (planned, optimize seconds,
    # estimation spans) for the vector lanes not yet consumed. Keyed by
    # position, so each entry of ``params`` costs one pass even when
    # two targets resolved to the same param.
    lanes: dict[tuple[int, int], tuple] = {}

    cache = PlanExecutionCache()
    records: list[RunRecord] = []
    for config in configs:
        lane = next((i for i, arm in enumerate(vector) if arm is config), None)
        optimizer = (
            vector_optimizer if lane is not None else optimizer_for(config)
        )
        for index, (param, selectivity) in enumerate(params):
            if lane is not None and (lane, index) not in lanes:
                query = template.instantiate(param)
                started = time.perf_counter()
                planned_grid = optimizer.optimize_many(query, grid)
                elapsed = time.perf_counter() - started
                perf.optimize_seconds += elapsed
                perf.vector_passes += 1
                # One pass gathered the evidence for every lane: each
                # lane's trace links the same estimation spans plus its
                # own optimizer span.
                spans = drain()
                for other, planned in enumerate(planned_grid):
                    lanes[(other, index)] = (planned, elapsed, spans)
            if lane is not None:
                planned, elapsed, spans = lanes.pop((lane, index))
            else:
                query = template.instantiate(param)
                started = time.perf_counter()
                planned = config.plan(optimizer, query, statistics)
                elapsed = time.perf_counter() - started
                perf.optimize_seconds += elapsed
                spans = drain()

            hits_before = cache.hits
            started = time.perf_counter()
            simulated, actual_rows, operator_record = cache.execute(
                database, cost_model, param, planned.plan
            )
            exec_elapsed = time.perf_counter() - started
            perf.execute_seconds += exec_elapsed
            records.append(
                RunRecord(
                    config=config.name,
                    param=param,
                    selectivity=selectivity,
                    seed=seed,
                    time=simulated,
                    plan=plan_shape(planned.plan),
                    actual_rows=actual_rows,
                )
            )
            if tracer is not None:
                traces.append(
                    QueryTrace(
                        template=template.name,
                        config=config.name,
                        seed=seed,
                        param=param,
                        selectivity=selectivity,
                        estimation=spans,
                        optimizer=planned.trace,
                        execution=execution_span(
                            planned.plan,
                            operator_record,
                            cost_model,
                            estimated_rows=planned.estimated_rows,
                            estimated_cost=planned.estimated_cost,
                            cache_hit=cache.hits > hits_before,
                        ),
                        timing={
                            "optimize_seconds": elapsed,
                            "execute_wall_seconds": exec_elapsed,
                        },
                    ).as_dict()
                )
    for estimator in estimators:
        perf.lut_hits += getattr(estimator, "lut_hits", 0)
        perf.estimate_cache_hits += getattr(estimator, "estimate_cache_hits", 0)
        perf.estimate_cache_misses += getattr(
            estimator, "estimate_cache_misses", 0
        )
    perf.exec_cache_hits = cache.hits
    perf.exec_cache_misses = cache.misses
    perf.scan_cache_hits, perf.scan_cache_misses = cache.scan_stats()
    return records, perf, traces


#: Per-worker payload installed once by the pool initializer, so the
#: database and configs are pickled per worker instead of per seed.
_WORKER_PAYLOAD: dict | None = None


def _init_worker(payload: dict) -> None:
    global _WORKER_PAYLOAD
    _WORKER_PAYLOAD = payload


def _run_seed_in_worker(
    seed: int,
) -> tuple[list[RunRecord], PerfStats, list[dict]]:
    return _run_seed(seed=seed, **_WORKER_PAYLOAD)


class ExperimentRunner:
    """Drives one experiment scenario end to end.

    Parameters
    ----------
    workers:
        Process count for fanning seeds out; ``None`` (the default)
        uses ``os.cpu_count()``. ``workers=1`` is the exact serial
        path; any N produces an identical :class:`ExperimentResult`,
        merged in seed order.
    trace:
        Collect end-to-end query traces (estimation, optimizer, and
        execution spans) on ``ExperimentResult.traces``, JSON-ready
        for :func:`repro.obs.write_traces`. Off by default: disabled
        tracing is a handful of ``is None`` checks, so the measured
        run is unchanged.
    """

    def __init__(
        self,
        database: Database,
        template: QueryTemplate,
        cost_model: CostModel | None = None,
        sample_size: int = 500,
        histogram_buckets: int = 250,
        seeds: Sequence[int] = tuple(range(12)),
        workers: int | None = None,
        trace: bool = False,
    ) -> None:
        self.database = database
        self.template = template
        self.cost_model = cost_model or CostModel()
        self.sample_size = sample_size
        self.histogram_buckets = histogram_buckets
        self.seeds = list(seeds)
        self.workers = workers
        self.trace = trace

    def run(
        self,
        params: Sequence[tuple[int, float]],
        configs: Sequence[EstimatorConfig] | None = None,
    ) -> ExperimentResult:
        """Execute the full grid.

        ``params`` holds ``(parameter, true selectivity)`` pairs, e.g.
        from :meth:`QueryTemplate.params_for_targets`.
        """
        configs = list(configs) if configs is not None else default_configs()
        payload = {
            "database": self.database,
            "template": self.template,
            "cost_model": self.cost_model,
            "sample_size": self.sample_size,
            "histogram_buckets": self.histogram_buckets,
            "params": list(params),
            "configs": configs,
            "trace": self.trace,
        }
        workers = self._resolve_workers(payload)

        started = time.perf_counter()
        if workers > 1:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(payload,),
            ) as pool:
                # map() yields in submission order: the merge below is
                # deterministic in seed order regardless of which
                # worker finishes first.
                seed_outputs = list(pool.map(_run_seed_in_worker, self.seeds))
        else:
            seed_outputs = [
                _run_seed(seed=seed, **payload) for seed in self.seeds
            ]

        result = ExperimentResult(template=self.template.name)
        result.perf.workers = workers
        for records, perf, traces in seed_outputs:
            result.records.extend(records)
            result.perf.merge(perf)
            result.traces.extend(traces)
        result.perf.wall_seconds = time.perf_counter() - started
        return result

    def _resolve_workers(self, payload: dict) -> int:
        """Clamp the worker count and verify the grid can fan out."""
        workers = self.workers if self.workers is not None else os.cpu_count() or 1
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        workers = min(workers, len(self.seeds))
        if workers > 1:
            try:
                pickle.dumps(payload)
            except Exception as exc:  # lambda configs, unpicklable models
                warnings.warn(
                    "experiment payload is not picklable "
                    f"({exc}); falling back to workers=1",
                    RuntimeWarning,
                    stacklevel=3,
                )
                workers = 1
        return workers


