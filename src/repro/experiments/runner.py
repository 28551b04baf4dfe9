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
    BayesNetCardinalityEstimator,
    CardinalityEstimator,
    ExactCardinalityEstimator,
    FixedSelectivityEstimator,
    HistogramCardinalityEstimator,
    RobustCardinalityEstimator,
)
from repro.cost import CostModel
from repro.errors import ReproError
from repro.experiments.perf import PerfStats, PlanExecutionCache
from repro.obs.execution import execution_span
from repro.obs.trace import QueryTrace, plan_shape
from repro.obs.tracer import Tracer
from repro.optimizer import Optimizer
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
    """A named way to build an estimator from fresh statistics.

    ``threshold``/``group`` mark configurations that differ only in
    their confidence threshold: configs sharing a ``group`` (with
    ``threshold`` set) are planned together by one threshold-vectorized
    ``optimize_many`` pass instead of one ``optimize`` per config.
    Either field left ``None`` keeps the scalar per-config path.

    ``policy`` switches the config to policy-driven selection: a
    :class:`~repro.selection.PenaltyPolicy` plans every query through
    ``optimize_penalty`` with its deterministic posterior samples
    (seeded per query from the statistics build, so records are
    bit-identical across worker counts). Penalty configs are never
    threshold-grouped — the penalty pass is already vectorized over its
    own sample grid.
    """

    name: str
    build: Callable[[StatisticsManager], CardinalityEstimator]
    threshold: float | None = None
    group: str | None = None
    policy: SelectionPolicy | None = None


def _build_robust(
    statistics: StatisticsManager, threshold: float
) -> CardinalityEstimator:
    return RobustCardinalityEstimator(statistics, policy=threshold)


def _build_histogram(statistics: StatisticsManager) -> CardinalityEstimator:
    return HistogramCardinalityEstimator(statistics)


def _build_bayes(statistics: StatisticsManager) -> CardinalityEstimator:
    return BayesNetCardinalityEstimator(statistics)


def _build_exact(statistics: StatisticsManager) -> CardinalityEstimator:
    return ExactCardinalityEstimator(statistics.database)


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
    ``samples`` deterministic posterior samples per query. The robust
    estimator is built at the median (the reference lane's quantile);
    the policy, not the estimator default, decides the plan.
    """
    return [
        policy_arm(PenaltyPolicy(samples=samples)),
        policy_arm(
            PenaltyPolicy(samples=samples, risk="cvar", alpha=cvar_alpha)
        ),
    ]


def policy_arm(policy) -> EstimatorConfig:
    """One experiment arm for an arbitrary selection policy.

    Accepts anything :func:`~repro.selection.resolve_policy` does — a
    :class:`~repro.selection.SelectionPolicy`, a bare threshold, or a
    spec string like ``"cvar:0.9:24"``. Threshold arms join the
    ``"robust"`` group so they ride the vectorized multi-threshold
    pass together. Builders are module-level functions (or partials of
    them, not lambdas) so the arms pickle cleanly into worker
    processes.
    """
    policy = resolve_policy(policy)
    if isinstance(policy, PenaltyPolicy):
        return EstimatorConfig(
            name=policy.describe(),
            build=functools.partial(_build_robust, threshold=0.5),
            policy=policy,
        )
    if isinstance(policy, ThresholdPolicy):
        return EstimatorConfig(
            name=f"T={policy.q:.0%}",
            build=functools.partial(_build_robust, threshold=policy.q),
            threshold=policy.q,
            group="robust",
        )
    name, build = {
        "histogram": ("Histograms", _build_histogram),
        "bayes": ("BayesNet", _build_bayes),
        "exact": ("Exact", _build_exact),
    }[policy.estimator_kind]
    return EstimatorConfig(name=name, build=build)


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

    def mean_time_for_param(self, config: str, param: int) -> float:
        """Mean simulated time over seeds for one grid parameter."""
        self._ensure_index()
        times = self._times.get((config, param))
        if not times:
            raise ReproError(f"no records for {config!r} at param {param}")
        return float(np.mean(times))

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

    def curve(self, config: str) -> list[tuple[float, float]]:
        """The (selectivity, mean time) series for one configuration."""
        self._ensure_index()
        return [
            (
                self._param_selectivity[param],
                self.mean_time_for_param(config, param),
            )
            for param in self.params
        ]

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


def _threshold_groups(
    configs: Sequence[EstimatorConfig],
) -> dict[str, list[EstimatorConfig]]:
    """Config groups eligible for one vectorized planning pass each.

    A group qualifies when at least two configs share its name and all
    carry an explicit threshold — a single-member "group" gains nothing
    over the scalar path.
    """
    groups: dict[str, list[EstimatorConfig]] = {}
    for config in configs:
        if config.group is not None and config.threshold is not None:
            groups.setdefault(config.group, []).append(config)
    return {
        name: members for name, members in groups.items() if len(members) >= 2
    }


def _run_seed(
    database: Database,
    template: QueryTemplate,
    cost_model: CostModel,
    sample_size: int,
    histogram_buckets: int,
    params: Sequence[tuple[int, float]],
    configs: Sequence[EstimatorConfig],
    execution_cache: bool,
    seed: int,
    vectorize_thresholds: bool = True,
    trace: bool = False,
    scan_cache: bool = True,
) -> tuple[list[RunRecord], PerfStats, list[dict]]:
    """One seed's slice of the grid — the unit of parallelism.

    With ``trace=True`` a per-seed :class:`~repro.obs.Tracer` collects
    estimation, optimizer, and execution spans, and the JSON-ready
    trace records ride back to the coordinator alongside the run
    records (sinks never enter worker processes). Tracing does not
    change the records or execute anything more: the execution span is
    read off the per-operator record the plan-execution cache keeps
    beside each ``(time, rows)``, hits included.
    """
    perf = PerfStats(execution_cache=execution_cache, scan_cache=scan_cache)
    tracer = Tracer() if trace else None
    traces: list[dict] = []
    started = time.perf_counter()
    statistics = StatisticsManager(database)
    statistics.update_statistics(
        sample_size=sample_size,
        histogram_buckets=histogram_buckets,
        seed=seed,
    )
    perf.stats_build_seconds += time.perf_counter() - started

    # Threshold-vectorized planning: configs that differ only in their
    # threshold are planned together — one optimize_many per (group,
    # param) replaces |group| optimize passes. The plans are stashed by
    # (config, param) and the execution loop below consumes them in the
    # original order, so the records are identical to the scalar path.
    groups = _threshold_groups(configs) if vectorize_thresholds else {}
    grouped_names = {
        config.name for members in groups.values() for config in members
    }
    group_plans: dict[tuple[str, int], object] = {}
    group_traces: dict[tuple[str, int], dict] = {}
    for members in groups.values():
        grid = tuple(config.threshold for config in members)
        estimator = members[0].build(statistics)
        if tracer is not None:
            estimator.tracer = tracer
        optimizer = Optimizer(database, estimator, cost_model, tracer=tracer)
        for param, _selectivity in params:
            query = template.instantiate(param)
            started = time.perf_counter()
            planned_grid = optimizer.optimize_many(query, grid)
            elapsed = time.perf_counter() - started
            perf.optimize_seconds += elapsed
            perf.vector_passes += 1
            shared_spans = (
                tracer.drain_estimations() if tracer is not None else None
            )
            for config, planned in zip(members, planned_grid):
                group_plans[(config.name, param)] = planned.plan
                if tracer is not None:
                    # One vectorized pass gathered the evidence for the
                    # whole threshold group: each lane's trace links the
                    # same estimation spans plus its own optimizer span.
                    group_traces[(config.name, param)] = {
                        "estimation": shared_spans,
                        "optimizer": planned.trace,
                        "estimated_rows": planned.estimated_rows,
                        "estimated_cost": planned.estimated_cost,
                        "optimize_seconds": elapsed,
                    }
        perf.lut_hits += getattr(estimator, "lut_hits", 0)
        perf.estimate_cache_hits += getattr(estimator, "estimate_cache_hits", 0)
        perf.estimate_cache_misses += getattr(
            estimator, "estimate_cache_misses", 0
        )

    cache = PlanExecutionCache(enabled=execution_cache, scan_cache=scan_cache)
    records: list[RunRecord] = []
    for config in configs:
        if config.name in grouped_names:
            estimator = None
            optimizer = None
        else:
            estimator = config.build(statistics)
            if tracer is not None:
                estimator.tracer = tracer
            optimizer = Optimizer(database, estimator, cost_model, tracer=tracer)
        for param, selectivity in params:
            pending = None
            if config.name in grouped_names:
                plan = group_plans[(config.name, param)]
                if tracer is not None:
                    pending = group_traces[(config.name, param)]
            else:
                query = template.instantiate(param)
                started = time.perf_counter()
                if config.policy is None:
                    planned = optimizer.optimize(query)
                else:
                    planned = config.policy.plan(
                        optimizer,
                        query,
                        query_key=query_fingerprint(query),
                        statistics_token=statistics.sampling_token(),
                    )
                elapsed = time.perf_counter() - started
                perf.optimize_seconds += elapsed
                plan = planned.plan
                if tracer is not None:
                    pending = {
                        "estimation": tracer.drain_estimations(),
                        "optimizer": planned.trace,
                        "estimated_rows": planned.estimated_rows,
                        "estimated_cost": planned.estimated_cost,
                        "optimize_seconds": elapsed,
                    }

            hits_before = cache.hits
            started = time.perf_counter()
            simulated, actual_rows, operator_record = cache.execute(
                database, cost_model, param, plan
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
                    plan=plan_shape(plan),
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
                        estimation=pending["estimation"],
                        optimizer=pending["optimizer"],
                        execution=execution_span(
                            plan,
                            operator_record,
                            cost_model,
                            estimated_rows=pending["estimated_rows"],
                            estimated_cost=pending["estimated_cost"],
                            cache_hit=cache.hits > hits_before,
                        ),
                        timing={
                            "optimize_seconds": pending["optimize_seconds"],
                            "execute_wall_seconds": exec_elapsed,
                        },
                    ).as_dict()
                )
        if estimator is not None:
            perf.lut_hits += getattr(estimator, "lut_hits", 0)
            perf.estimate_cache_hits += getattr(
                estimator, "estimate_cache_hits", 0
            )
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
    execution_cache:
        Reuse plan executions within a seed across estimator
        configurations that chose the same plan (on by default; the
        records are identical either way).
    scan_cache:
        Share base-table scan results across plan executions within a
        seed, so two different plans over the same parameter reuse
        their common leaves (on by default; counters are replayed on
        hits, so the records are identical either way).
    vectorize_thresholds:
        Plan threshold-grouped configs with one multi-threshold
        ``optimize_many`` pass per (group, param) instead of one
        ``optimize`` per config (on by default; the records are
        identical either way).
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
        execution_cache: bool = True,
        vectorize_thresholds: bool = True,
        trace: bool = False,
        scan_cache: bool = True,
    ) -> None:
        self.database = database
        self.template = template
        self.cost_model = cost_model or CostModel()
        self.sample_size = sample_size
        self.histogram_buckets = histogram_buckets
        self.seeds = list(seeds)
        self.workers = workers
        self.execution_cache = execution_cache
        self.vectorize_thresholds = vectorize_thresholds
        self.trace = trace
        self.scan_cache = scan_cache

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
            "execution_cache": self.execution_cache,
            "vectorize_thresholds": self.vectorize_thresholds,
            "trace": self.trace,
            "scan_cache": self.scan_cache,
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
        result.perf.execution_cache = self.execution_cache
        result.perf.vectorize_thresholds = self.vectorize_thresholds
        result.perf.scan_cache = self.scan_cache
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


