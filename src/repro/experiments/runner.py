"""Experiment execution: optimize and run query grids.

The measurement protocol mirrors Section 6.2: for each random sample
seed, rebuild the precomputed statistics; for each estimator
configuration, optimize every query of the selectivity grid with that
configuration and execute the chosen plan; record the simulated
execution time. Results are averaged over seeds, because "cardinality
estimation performance can vary depending on the particular random
choice of tuples for the samples". Each arm is a name and a selection
policy, and plans through a :class:`~repro.service.Session` under that
policy — the planning path every served statement takes.

Seeds are independent by construction — each rebuilds its own
:class:`~repro.stats.StatisticsManager` — so the grid fans out over a
process pool (``workers=``), with results merged in seed order so the
:class:`ExperimentResult` is identical regardless of worker count.
Every arm's plans for a seed execute through one session, the path
every served statement takes: its execution memo runs each distinct
``(query, plan tree)`` once and answers every later arm that chose the
same tree from that run's record.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.analysis.tradeoff import TradeoffPoint, tradeoff_from_times
from repro.catalog import Database
from repro.core import JEFFREYS, Prior
from repro.cost import CostModel
from repro.errors import ReproError
from repro.experiments.perf import PerfStats
from repro.obs.execution import execution_span
from repro.obs.trace import QueryTrace, plan_shape
from repro.optimizer import SPJQuery
from repro.selection import (
    PenaltyPolicy,
    SelectionPolicy,
    resolve_policy,
)
from repro.service import Session, SessionConfig
from repro.stats import StatisticsManager
from repro.workloads.templates import QueryTemplate

#: The thresholds used throughout the paper's experiments.
PAPER_THRESHOLDS = (0.05, 0.20, 0.50, 0.80, 0.95)


@dataclass(frozen=True)
class EstimatorConfig:
    """One experiment arm: a name and the
    :class:`~repro.selection.SelectionPolicy` that plans every query.

    The runner plans the arm through a :class:`~repro.service.Session`
    under ``policy``, so an arm picks exactly the plan a session serving
    that policy would.
    """

    name: str
    policy: SelectionPolicy


def default_configs(
    thresholds: Sequence[float] = PAPER_THRESHOLDS,
    include_histogram: bool = True,
) -> list[EstimatorConfig]:
    """Robust estimators at the paper's thresholds + histogram baseline."""
    configs = [policy_arm(threshold) for threshold in thresholds]
    if include_histogram:
        configs.append(policy_arm("histogram"))
    return configs


def scenario_configs(threshold: float = 0.8) -> list[EstimatorConfig]:
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
        policy_arm("fixed"),
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
    "fixed": "Fixed",
}


def policy_arm(policy) -> EstimatorConfig:
    """One experiment arm for an arbitrary selection policy.

    Accepts anything :func:`~repro.selection.resolve_policy` does — a
    :class:`~repro.selection.SelectionPolicy`, a bare threshold, or a
    spec string like ``"cvar:0.9:24"``. Policies are plain values, so
    the arm pickles cleanly into worker processes.
    """
    policy = resolve_policy(policy)
    name = _POINT_ARM_NAMES.get(policy.estimator_kind, policy.describe())
    return EstimatorConfig(name=name, policy=policy)


@dataclass(frozen=True)
class _QueryList(QueryTemplate):
    """A fixed list of queries as a template: parameter ``i`` is
    ``queries[i]``, so ``calibrate`` grids every query with its true
    selectivity."""

    queries: Sequence[SPJQuery]

    def instantiate(self, param: int) -> SPJQuery:
        return self.queries[param]

    def param_range(self) -> tuple[int, int]:
        return (0, len(self.queries) - 1)


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

    def records_for(self, config: str) -> list[RunRecord]:
        """One configuration's records in run order: seed, then param."""
        return [record for record in self.records if record.config == config]


def _run_seed(
    database: Database,
    template: QueryTemplate,
    cost_model: CostModel,
    prior: Prior,
    sample_size: int,
    histogram_buckets: int,
    params: Sequence[tuple[int, float]],
    configs: Sequence[EstimatorConfig],
    seed: int,
    trace: bool = False,
) -> tuple[list[RunRecord], PerfStats, list[dict]]:
    """One seed's slice of the grid — the unit of parallelism.

    Records come out in config order, then param order. Every arm plans
    through a :class:`~repro.service.Session` over the seed's one
    statistics build, by the session's uncached planning pass (no plan
    cache, no metrics, no degraded fallback: an estimator failure
    propagates). The robust arms share one session (one estimator),
    every other arm gets its own. With two or more threshold arms, the
    first plans each query over all their thresholds in one vectorized
    pass and the rest take their lanes of it. A query's own confidence
    hint is dropped: the arm's policy decides. Every arm's plans
    execute through the shared session (execution reads no estimator),
    whose execution memo and scan cache the perf counters report.

    With ``trace=True`` every pass is a traced one, and the JSON-ready
    trace records ride back alongside the run records (sinks never
    enter worker processes). Tracing changes no record and executes
    nothing more: the execution span is read off the record the memo
    keeps for the plan's tree, hits included.
    """
    perf = PerfStats()
    traces: list[dict] = []
    started = time.perf_counter()
    statistics = StatisticsManager(database)
    statistics.update_statistics(
        sample_size=sample_size,
        histogram_buckets=histogram_buckets,
        seed=seed,
    )
    perf.stats_build_seconds += time.perf_counter() - started

    base = SessionConfig(
        prior=prior, sample_size=sample_size, histogram_buckets=histogram_buckets
    )

    def session_for(policy: SelectionPolicy, **overrides) -> Session:
        return Session(
            database,
            statistics=statistics,
            config=base,
            cost_model=cost_model,
            policy=policy,
            **overrides,
        )

    # Every robust arm passes its own policy, so the shared session's
    # is the default one. Its memo, one stripe, holds every (query,
    # tree) the grid can produce, so no run is evicted before its reuse.
    shared = session_for(
        base.policy,
        plan_cache_size=max(len(params) * len(configs), 1),
        cache_stripes=1,
    )
    # Every estimator a pass read, for the perf counters.
    estimators: dict = {}

    def plan(session: Session, query, policy, grid=None):
        planning = session._plan_pass(query, policy, grid=grid, traced=trace)
        estimators[id(planning.estimator)] = planning.estimator
        return planning

    # A width-1 vectorized pass is slower than the scalar one.
    vector = [c for c in configs if c.policy.kind == "threshold"]
    vector = vector if len(vector) >= 2 else []
    grid = tuple(c.policy.q for c in vector)
    # One entry per position in ``params``: the pass its lanes came from.
    lanes: list = [None] * len(params)

    # One query object per param, so a session fingerprints it once.
    queries = [replace(template.instantiate(p), hint=None) for p, _ in params]
    records: list[RunRecord] = []
    for config in configs:
        policy = config.policy
        lane = next((i for i, arm in enumerate(vector) if arm is config), None)
        robust_arm = policy.estimator_kind == "robust"
        session = shared if robust_arm else session_for(policy)
        for index, (query, (param, selectivity)) in enumerate(
            zip(queries, params)
        ):
            started = time.perf_counter()
            if lane is None:
                planning = plan(session, query, policy)
                planned = planning.planned
            else:
                if lane == 0:
                    # One pass gathers the evidence for every lane: each
                    # lane's trace links the same estimation spans.
                    lanes[index] = plan(session, query, None, grid)
                    perf.vector_passes += 1
                planning = lanes[index]
                planned = planning.planned[lane]
            elapsed = time.perf_counter() - started
            perf.optimize_seconds += elapsed

            started = time.perf_counter()
            record, _, simulated, reused = shared._run(
                planning.request.fingerprint, planned, served=False
            )
            exec_elapsed = time.perf_counter() - started
            perf.execute_seconds += exec_elapsed
            perf.exec_cache_hits += reused
            perf.exec_cache_misses += not reused
            records.append(
                RunRecord(
                    config=config.name,
                    param=param,
                    selectivity=selectivity,
                    seed=seed,
                    time=simulated,
                    plan=plan_shape(planned.plan),
                    actual_rows=record.num_rows,
                )
            )
            if trace:
                traces.append(
                    QueryTrace(
                        template=template.name,
                        config=config.name,
                        seed=seed,
                        param=param,
                        selectivity=selectivity,
                        estimation=planning.spans,
                        optimizer=planned.trace,
                        execution=execution_span(
                            planned.plan,
                            record.operators,
                            cost_model,
                            estimated_rows=planned.estimated_rows,
                            estimated_cost=planned.estimated_cost,
                            cache_hit=reused,
                        ),
                        timing={
                            "optimize_seconds": elapsed,
                            "execute_wall_seconds": exec_elapsed,
                        },
                    ).as_dict()
                )
    for estimator in estimators.values():
        perf.lut_hits += getattr(estimator, "lut_hits", 0)
        perf.estimate_cache_hits += getattr(estimator, "estimate_cache_hits", 0)
        perf.estimate_cache_misses += getattr(
            estimator, "estimate_cache_misses", 0
        )
    scans = shared._scan_cache
    perf.scan_cache_hits, perf.scan_cache_misses = scans.hits, scans.misses
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
    prior:
        The Beta prior every robust arm's posterior starts from, as
        :attr:`~repro.service.SessionConfig.prior`.
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
        prior: Prior = JEFFREYS,
        seeds: Sequence[int] = tuple(range(12)),
        workers: int | None = None,
        trace: bool = False,
    ) -> None:
        self.database = database
        self.template = template
        self.cost_model = cost_model or CostModel()
        self.sample_size = sample_size
        self.histogram_buckets = histogram_buckets
        self.prior = prior
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
        from :meth:`QueryTemplate.params_for_targets`. Records are
        grouped by arm name, so two arms may not share one.
        """
        configs = list(configs) if configs is not None else default_configs()
        names = [config.name for config in configs]
        for name in names:
            if names.count(name) > 1:
                raise ReproError(f"two experiment arms are named {name!r}")
        payload = {
            "database": self.database,
            "template": self.template,
            "cost_model": self.cost_model,
            "prior": self.prior,
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
            except Exception as exc:  # e.g. a template holding a lambda
                warnings.warn(
                    "experiment payload is not picklable "
                    f"({exc}); falling back to workers=1",
                    RuntimeWarning,
                    stacklevel=3,
                )
                workers = 1
        return workers


