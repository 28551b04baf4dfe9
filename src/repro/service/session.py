"""The query session service: SQL in, plan/result/trace out.

This is the repository's one public entry point — the fixed "above"
that the paper's architecture implies (§3.1: only the cardinality
estimation module changes; the optimizer and everything on top stay
put). A :class:`Session` owns a database, its statistics, one
estimator configuration, and a bounded plan cache; callers speak SQL
(or :class:`~repro.optimizer.SPJQuery`) and get back
:class:`PreparedQuery` handles they can execute, explain, or inspect,
without ever hand-wiring ``StatisticsManager`` + estimator +
``Optimizer`` + engine.

One request, one key: every call resolves its statement once into an
immutable :class:`_Request` — the parsed query, its fingerprint, the
selection policy (the query hint, else the per-call policy, else the
session default), one :class:`_StatsState` snapshot, and the token
``(statistics version, feedback generation or None)`` (the estimate
memo's own, :func:`repro.core.memo.cache_token`) — and plans it
through :meth:`Session._plan`, the one planning path. The plan-cache key
is ``(fingerprint, policy.cache_key(), token)`` and nothing else: the
cache is private to the session, and its configuration cannot change
without a new statistics version.

So rebuilding statistics (new sample seed, different sample size,
dropped synopsis) silently invalidates every cached plan, and a feedback
harvest invalidates the plans whose posteriors it would now fold into.
Prepared handles notice a statistics change at execution time and
transparently re-plan under the policy they already resolved — the
PARQO-style contract: plans follow the statistics, callers never see a
stale plan. The feedback loop (:meth:`Session.enable_feedback`) never
changes the policy; it only folds observed cardinalities into the
posterior.

Thread safety: the plan cache is lock-striped with per-key
singleflight (two threads preparing the same query plan it exactly
once), statistics builds are serialized by a session lock, and metrics
go through the session's :class:`~repro.obs.MetricsRegistry`.

Statistics hot-swap under load: the session's (manager, estimator)
pair lives in one immutable-slot :class:`_StatsState` that swaps are a
*single* attribute assignment of. A request holds one snapshot of that
state, and both its token and its estimator come from it, so a swap
landing mid-prepare can never mix old statistics with a new version (or
vice versa) — the racing prepare plans entirely against the old
snapshot, whose key embeds the old version and is structurally
unreachable after the swap. ``refresh_statistics`` is copy-on-refresh
for the same reason: it builds a *fresh* manager and swaps it in rather
than mutating the one in-flight readers hold.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple, Sequence

from repro.catalog import Database
from repro.core import (
    CardinalityEstimator,
    JEFFREYS,
    MODERATE,
    Prior,
    RobustCardinalityEstimator,
    estimator_for,
)
from repro.core.factory import hintless_threshold
from repro.core.memo import EstimateCacheMixin, cache_token
from repro.cost import CostModel
from repro.engine import ExecutionContext, ScanCache, scancache
from repro.errors import EstimationError, ReproError, StatisticsError
from repro.expressions import Frame
from repro.feedback import FeedbackConfig, FeedbackStore, SessionFeedback
from repro.obs import (
    DegradationEvent,
    MetricsRegistry,
    QueryTrace,
    Tracer,
    execution_span,
)
from repro.obs.summarize import explain_trace
from repro.optimizer import Optimizer, PlannedQuery, SPJQuery
from repro.optimizer.shape import LatticeShape
from repro.selection import (
    SelectionPolicy,
    ThresholdPolicy,
    resolve_policy,
)
from repro.service.cache import PlanCache
from repro.service.fingerprint import canonical_sql, query_fingerprint
from repro.sql import parse_query
from repro.stats import StatisticsManager, load_statistics


class SessionError(ReproError):
    """The session was configured or used inconsistently."""


#: Session health states (the degraded-mode state machine).
HEALTHY = "healthy"
DEGRADED = "degraded"


class _Record(NamedTuple):
    """What the first run of a (fingerprint, plan signature) recorded,
    kept in the session's execution memo (see :meth:`Session._run`)."""

    #: ``(output rows, subtree WorkCounters)`` per operator, in
    #: ``plan.walk()`` order: the run's
    #: :meth:`~repro.engine.ExecutionContext.operator_record`, so it
    #: describes any plan with the same signature.
    operators: tuple
    simulated_seconds: float
    num_rows: int

    def operator_rows(self, plan) -> dict:
        """``{operator: output rows}`` over ``plan``'s operators."""
        return {op: rows for op, (rows, _) in zip(plan.walk(), self.operators)}


class _Execution(NamedTuple):
    """A key's record and the result its next served run left."""

    record: _Record
    #: The result with its columns copied (read-only), so it pins only
    #: its own rows; ``None`` when it was over the bound.
    frame: Frame | None


#: The ``PlannedQuery`` attribute caching its entry in the session's
#: execution memo: absent until the plan first runs, then its key's
#: :class:`_Record`, then its :class:`_Execution`.
_MEMO = "_session_execution"

#: What the shape store holds for a fingerprint planned once: its
#: second plan stores the :class:`LatticeShape` its later ones price.
_PLANNED_ONCE = "planned once"


@dataclass(frozen=True)
class SessionConfig:
    """Everything that makes two sessions plan identically.

    Fixed for a session's statistics: the one field that can change
    (``sample_size``, through ``refresh_statistics``) changes only
    together with a new statistics version.
    """

    prior: Prior = JEFFREYS
    sample_size: int = 500
    histogram_buckets: int = 250
    statistics_seed: int | None = 0
    plan_cache_size: int = 256
    cache_stripes: int = 8
    #: The default selection policy: a
    #: :class:`~repro.selection.SelectionPolicy`, a bare threshold, or a
    #: spec string (``"95"``, ``"cvar:0.9:32"``, ``"histogram"``,
    #: ``"exact"``); ``None`` is the paper's moderate
    #: threshold. Resolved at construction, so it always reads back as a
    #: :class:`~repro.selection.SelectionPolicy`.
    policy: SelectionPolicy | float | str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "policy",
            resolve_policy(MODERATE if self.policy is None else self.policy),
        )

    @property
    def estimator(self) -> str:
        """The estimator family the policy plans through."""
        return self.policy.estimator_kind


@dataclass
class QueryResult:
    """One executed query: rows plus provenance."""

    frame: Frame
    simulated_seconds: float
    prepared: "PreparedQuery"
    #: Whether the plan came from the session cache (vs. a fresh
    #: planning pass, including transparent re-plans after a
    #: statistics bump).
    plan_cached: bool

    @property
    def num_rows(self) -> int:
        return self.frame.num_rows

    def column(self, name: str):
        return self.frame.column(name)

    @property
    def column_names(self) -> list[str]:
        return list(self.frame.column_names)


class _Request(NamedTuple):
    """One statement resolved once: everything a plan is keyed on.

    Built by :meth:`Session._request` only. A grid lane or a stale
    re-plan is ``request._replace(…)`` of one, never a re-resolution.
    """

    query: SPJQuery
    fingerprint: str
    #: The policy the plan is selected under; resolved, never re-read
    #: from the query hint.
    policy: SelectionPolicy
    #: The statistics snapshot the plan's estimator reads.
    state: _StatsState
    #: ``(statistics version, feedback generation or None)``, read once.
    token: tuple

    @property
    def key(self) -> tuple:
        """The plan-cache key — the only place one is built."""
        return (self.fingerprint, self.policy.cache_key(), self.token)


class _Pass(NamedTuple):
    """One uncached planning pass (:meth:`Session._plan_pass`)."""

    request: _Request
    #: The plan, or one per lane of the grid.
    planned: PlannedQuery | list
    #: The estimator it read: a fresh traced one, else the snapshot's.
    estimator: CardinalityEstimator
    #: The estimation spans it recorded (``None`` untraced).
    spans: list | None
    seconds: float


class PreparedQuery:
    """A planned statement bound to one session.

    Cheap to re-execute: the plan is reused until the session's
    statistics change, at which point :meth:`execute` transparently
    re-plans under the same policy (and re-binds this handle to the
    fresh plan).
    """

    def __init__(
        self,
        session: "Session",
        request: _Request,
        planned: PlannedQuery,
        from_cache: bool,
        degraded_reason: str | None = None,
    ) -> None:
        self.session = session
        self.request = request
        self.planned = planned
        #: Whether this handle was served from the session plan cache.
        self.from_cache = from_cache
        #: Set when the plan came from the degraded (§3.5 magic-only)
        #: path after the configured estimator failed; such plans are
        #: never cached.
        self.degraded_reason = degraded_reason

    # ------------------------------------------------------------------
    @property
    def query(self) -> SPJQuery:
        return self.request.query

    @property
    def policy(self) -> SelectionPolicy:
        """Effective :class:`~repro.selection.SelectionPolicy` the plan
        was selected under."""
        return self.request.policy

    @property
    def fingerprint(self) -> str:
        """``query_fingerprint(query)``."""
        return self.request.fingerprint

    @property
    def statistics_version(self) -> int:
        """``StatisticsManager.version`` the plan was produced against."""
        return self.request.token[0]

    @property
    def sql(self) -> str:
        """Canonical (hint-free) SQL of the prepared statement."""
        return canonical_sql(self.query)

    @property
    def threshold(self) -> float | None:
        """``policy.q`` when the plan was selected at a confidence
        threshold, ``None`` under every other policy."""
        policy = self.policy
        return policy.q if isinstance(policy, ThresholdPolicy) else None

    @property
    def plan(self):
        return self.planned.plan

    @property
    def estimated_cost(self) -> float:
        return self.planned.estimated_cost

    @property
    def estimated_rows(self) -> float:
        return self.planned.estimated_rows

    @property
    def selection(self) -> dict | None:
        """Penalty-selection provenance (``None`` unless the plan was
        chosen by a :class:`~repro.selection.PenaltyPolicy`)."""
        return self.planned.selection

    def is_stale(self) -> bool:
        """True when statistics moved past the plan's version."""
        return self.session.statistics_version() != self.statistics_version

    def explain(self) -> str:
        """The plan tree with cost/row annotations."""
        return self.planned.explain()

    def execute(self) -> QueryResult:
        """Run the plan (re-planning first if statistics moved)."""
        return self.session._execute_prepared(self)

    def __repr__(self) -> str:
        return (
            f"PreparedQuery({self.sql!r}, policy={self.policy.spec()}, "
            f"stats_v{self.statistics_version})"
        )


class _StatsState:
    """One atomically-swapped statistics binding.

    Bundles a statistics manager with the estimator lazily built over
    it, so readers that grab one ``session._state`` reference see a
    *consistent* pair: the estimator in a state always answers from
    that state's manager. Swaps (attach, refresh, decorator changes)
    install a whole new state object in one attribute assignment —
    atomic under the interpreter — instead of mutating fields that a
    concurrent prepare might read half-updated.

    ``estimator`` memoization is a benign race: two threads may both
    build, last write wins, and either instance answers identically
    (estimators are pure functions of statistics + config).
    """

    __slots__ = ("manager", "estimator", "ready")

    def __init__(
        self,
        manager: StatisticsManager | None = None,
        *,
        ready: bool = False,
    ) -> None:
        self.manager = manager
        self.estimator: CardinalityEstimator | None = None
        #: Whether the manager is fully built and safe for lock-free
        #: reads. Unready states funnel every reader through the
        #: session statistics lock until the build completes.
        self.ready = ready

    @property
    def version(self) -> int:
        return self.manager.version if self.manager is not None else 0

    @property
    def sampling_token(self) -> int:
        """What seeds a sampling policy's draws (0 with no manager,
        i.e. on exact sessions, whose policy never samples)."""
        manager = self.manager
        return manager.sampling_token() if manager is not None else 0


class Session:
    """The public facade: parse, plan, cache, execute, explain.

    Parameters
    ----------
    database:
        The catalog and data to serve queries against.
    statistics:
        An existing :class:`~repro.stats.StatisticsManager` to share
        (e.g. with another session over the same database). By default
        the session builds its own, lazily, on first use.
    config / keyword overrides:
        Default selection policy, prior, sample size, plan-cache bound
        — see :class:`SessionConfig`. Keyword arguments override the
        corresponding ``config`` field.
    metrics:
        A :class:`~repro.obs.MetricsRegistry` to report into; the
        session creates a private one by default (``session.metrics``).

    >>> session = Session(database, policy="conservative")
    >>> result = session.execute("SELECT COUNT(*) FROM lineitem")
    """

    def __init__(
        self,
        database: Database,
        *,
        statistics: StatisticsManager | None = None,
        config: SessionConfig | None = None,
        cost_model: CostModel | None = None,
        metrics: MetricsRegistry | None = None,
        **overrides,
    ) -> None:
        base = config or SessionConfig()
        if overrides:
            base = replace(base, **overrides)
        self.database = database
        self.config = base
        self.cost_model = cost_model or CostModel()
        self.metrics = metrics or MetricsRegistry()
        self.plan_cache = PlanCache(
            capacity=base.plan_cache_size, stripes=base.cache_stripes
        )
        # Parsed-statement cache (SQL text -> (SPJQuery, fingerprint)).
        # Parsing is deterministic and the parse tree is treated as
        # immutable, so repeat prepares of the same text skip the
        # parser and the canonical-SQL hash entirely. Follows the plan
        # cache's capacity policy: size 0 disables it.
        self._parse_cache = PlanCache(
            capacity=base.plan_cache_size, stripes=base.cache_stripes
        )
        # The same memo for SPJQuery objects passed in directly
        # (identity-keyed: SPJQuery compares by identity).
        self._fingerprints: weakref.WeakKeyDictionary = (
            weakref.WeakKeyDictionary()
        )
        # Per-request metric handles, bound once: a registry lookup
        # takes the registry lock.
        self._prepares = self.metrics.counter(
            "repro_session_prepares_total",
            "Statements prepared, by plan-cache outcome.",
        )
        self._executes = self.metrics.counter(
            "repro_session_executes_total", "Statements executed."
        )
        # What runs of a (fingerprint, plan signature) left (see _run);
        # sized like the parse cache.
        self._execution_memo = PlanCache(
            capacity=base.plan_cache_size, stripes=base.cache_stripes
        )
        self._executions_reused = self.metrics.counter(
            "repro_session_executions_reused_total",
            "Executes answered from the session's execution memo (also "
            "counted in repro_session_executes_total).",
        )
        # Each statement's lattice shape, by fingerprint: what planning
        # derives before any estimate, shared by every policy, lane,
        # statistics version and feedback generation (see _shape).
        self._shapes = PlanCache(
            capacity=base.plan_cache_size, stripes=base.cache_stripes
        )
        self._shapes_reused = self.metrics.counter(
            "repro_session_plan_shapes_reused_total",
            "Planning passes that priced a stored lattice shape instead "
            "of deriving the statement's plan space again.",
        )
        self._simulated_seconds = self.metrics.histogram(
            "repro_session_simulated_seconds",
            "Simulated execution time of session statements.",
        )
        self._last_execute_wall = self.metrics.gauge(
            "repro_session_last_execute_wall_seconds",
            "Wall time of the most recent plan execution.",
        )
        self._state = _StatsState(
            statistics,
            ready=statistics is not None and statistics.version > 0,
        )
        self._statistics_lock = threading.Lock()
        # Shared scan cache for this session's executions. The session
        # is bound to one immutable Database object for its lifetime
        # (statistics refreshes rebuild statistics, not table data), so
        # base-scan results stay valid across statements. The cache is
        # internally locked with singleflight misses, so concurrent
        # executors share leaf materializations safely.
        self._scan_cache = ScanCache()
        self._closed = False
        # Degraded-mode state machine: HEALTHY until a degradation is
        # recorded, back to HEALTHY on a successful attach/refresh.
        self._health = HEALTHY
        self._degradations: list[DegradationEvent] = []
        self._estimator_decorator = None
        # The estimation-feedback loop (off until enable_feedback()).
        self._feedback: SessionFeedback | None = None

    @property
    def estimator_decorator(self):
        """Optional estimator middleware ``decorator(estimator) ->
        estimator`` applied to every non-traced estimator build; the
        fault-injection harness uses it to make estimators fail or
        stall deterministically. Assigning (or clearing) it rebinds
        the session's estimator on next use."""
        return self._estimator_decorator

    @estimator_decorator.setter
    def estimator_decorator(self, value) -> None:
        self._estimator_decorator = value
        with self._statistics_lock:
            # Swap in a fresh state sharing the manager so the memoized
            # estimator is rebuilt (with the new decorator) on next use.
            state = self._state
            fresh = _StatsState(state.manager, ready=state.ready)
            self._state = fresh

    # ------------------------------------------------------------------
    # Statistics lifecycle
    # ------------------------------------------------------------------
    @property
    def statistics(self) -> StatisticsManager | None:
        """The session's statistics (``None`` until first build for
        statistics-backed estimators; always ``None``-safe to read)."""
        return self._state.manager

    def statistics_version(self) -> int:
        """The current statistics version (0 before any build)."""
        return self._state.version

    def _build_statistics(self, manager: StatisticsManager, seed) -> None:
        started = time.perf_counter()
        manager.update_statistics(
            sample_size=self.config.sample_size,
            histogram_buckets=self.config.histogram_buckets,
            seed=seed,
        )
        self.metrics.gauge(
            "repro_session_statistics_build_seconds",
            "Wall time of the last statistics build.",
        ).set(time.perf_counter() - started)

    def _ensure_state(self) -> _StatsState:
        """The current statistics state, built if need be.

        Read by :meth:`_request` alone, which holds the snapshot for the
        whole call, so the version in its token and the estimator it
        plans with always come from the same statistics. Ready states
        are returned lock-free; unbuilt ones funnel through the session
        lock until exactly one thread finishes the build.
        """
        state = self._state
        if state.ready or self.config.estimator == "exact":
            return state
        with self._statistics_lock:
            state = self._state
            if state.ready:
                return state
            manager = state.manager
            if manager is None:
                manager = StatisticsManager(self.database)
            if manager.version == 0:
                self._build_statistics(manager, self.config.statistics_seed)
            state = _StatsState(manager, ready=True)
            self._state = state
            return state

    def refresh_statistics(
        self, seed=None, sample_size: int | None = None
    ) -> int:
        """Rebuild statistics, invalidating every cached plan.

        Returns the new statistics version. The plan cache needs no
        explicit flush: every key's token embeds the version, so old
        entries can never be served again and age out of the LRU. The rebuild
        re-draws samples and join synopses; the tables are immutable,
        so it reuses the histograms already built over them.

        The rebuild is copy-on-refresh: it builds a *new* manager and
        swaps it in atomically, so a prepare racing the refresh plans
        against a consistent old snapshot instead of half-rebuilt
        statistics. Callers sharing the previous manager object keep
        their (now frozen) copy.
        """
        if self.config.estimator == "exact":
            raise SessionError("exact sessions have no statistics to refresh")
        if sample_size is not None:
            self.config = replace(self.config, sample_size=sample_size)
        with self._statistics_lock:
            fresh = StatisticsManager(self.database)
            self._build_statistics(
                fresh, self.config.statistics_seed if seed is None else seed
            )
            self.metrics.counter(
                "repro_session_statistics_refreshes_total",
                "Statistics rebuilds requested on the session.",
            ).inc()
            self._state = _StatsState(fresh, ready=True)
            self._set_health(HEALTHY)
            return fresh.version

    def attach_statistics(
        self,
        source: StatisticsManager | str,
        *,
        strict: bool = False,
    ) -> int:
        """Swap in statistics (a manager, or a saved-archive path).

        The attach runs a health check
        (:meth:`~repro.stats.StatisticsManager.health_issues`). A clean
        bill restores :data:`HEALTHY`; load failures and health issues
        record attributed :class:`~repro.obs.DegradationEvent`\\ s and
        put the session in :data:`DEGRADED` mode — the session keeps
        serving queries through the §3.5 fallbacks rather than failing
        (``strict=True`` raises on a load failure instead).

        Loaded managers carry a process-unique statistics version, so
        every cached plan from the previous statistics is structurally
        invalidated — attaching can never serve a plan planned under
        different statistics. Returns the statistics version in force
        after the attach.
        """
        self._check_open()
        if self.config.estimator == "exact":
            raise SessionError("exact sessions have no statistics to attach")
        if isinstance(source, StatisticsManager):
            manager = source
        else:
            try:
                manager = load_statistics(self.database, source)
            except StatisticsError as exc:
                if strict:
                    raise
                self._record_degradation(self._degradation(
                    "statistics-load-failed", str(exc), component="statistics"
                ))
                return self.statistics_version()
        issues = manager.health_issues()
        with self._statistics_lock:
            # One assignment swaps manager + estimator together: racing
            # prepares keep their old snapshot or get this one, never a
            # mix (the estimator rebinds lazily *on the new state*).
            # An unbuilt manager stays unready so the next prepare
            # builds it under the session lock, as on first use.
            self._state = _StatsState(manager, ready=manager.version > 0)
        if issues:
            self._record_degradation(self._degradation(
                "statistics-health", "; ".join(issues), component="statistics"
            ))
        else:
            self._set_health(HEALTHY)
        self.metrics.counter(
            "repro_session_statistics_attaches_total",
            "Statistics managers attached to the session.",
        ).inc(result="degraded" if issues else "healthy")
        return manager.version

    # ------------------------------------------------------------------
    # Degraded-mode state machine
    # ------------------------------------------------------------------
    @property
    def health(self) -> str:
        """:data:`HEALTHY` or :data:`DEGRADED`."""
        return self._health

    def degradations(self) -> list[DegradationEvent]:
        """Every degradation recorded on this session, in order."""
        return list(self._degradations)

    def _set_health(self, state: str) -> None:
        self._health = state
        self.metrics.gauge(
            "repro_session_degraded",
            "1 while the session is in degraded mode, else 0.",
        ).set(1.0 if state == DEGRADED else 0.0)

    def _degradation(
        self, reason: str, detail: str, component: str
    ) -> DegradationEvent:
        """An event for a degradation seen under the statistics in force."""
        return DegradationEvent(
            reason=reason,
            detail=detail,
            component=component,
            statistics_version=self.statistics_version(),
        )

    def _record_degradation(self, event: DegradationEvent) -> None:
        """Attribute one degradation — the session's own, or drift the
        feedback ledger raised: event list + metrics + state."""
        self._degradations.append(event)
        self.metrics.counter(
            "repro_session_degradations_total",
            "Graceful degradations, by attributed reason.",
        ).inc(reason=event.reason)
        self._set_health(DEGRADED)

    # ------------------------------------------------------------------
    # Estimation feedback loop
    # ------------------------------------------------------------------
    @property
    def feedback(self) -> SessionFeedback | None:
        """The session's feedback controller (``None`` until enabled)."""
        return self._feedback

    def enable_feedback(
        self,
        store: FeedbackStore | None = None,
        config: FeedbackConfig | None = None,
    ) -> SessionFeedback:
        """Turn on the estimation observatory for this session.

        From this point every execution harvests its plan's observed
        cardinalities into the session's :class:`FeedbackStore`
        (namespaced by the statistics epoch the plan ran under) and
        feeds the plan-level q-error to the accuracy ledger. The next
        prepare folds matching observations into the Beta posterior as
        extra pseudo-counts; the selection policy that turns the
        posterior into an estimate is unchanged. Drift events surface
        through the session degradation log (reason
        ``"estimation-drift"``) without changing serving behaviour.

        Pass a ``store`` to share (or persist) feedback across
        sessions; by default the controller owns a private in-memory
        store. Idempotent: a second call returns the existing
        controller (arguments must then be omitted).
        """
        self._check_open()
        if self.config.estimator != "robust":
            raise SessionError(
                "the feedback loop needs a robust session (posterior "
                f"folding has no target on {self.config.estimator!r})"
            )
        if self._feedback is not None:
            if store is not None or config is not None:
                raise SessionError(
                    "feedback is already enabled on this session"
                )
            return self._feedback
        self._feedback = SessionFeedback(
            store=store,
            config=config,
            registry=self.metrics,
            on_degradation=self._record_degradation,
        )
        with self._statistics_lock:
            # Fresh state (sharing the manager) so the memoized
            # estimator is rebuilt with the feedback provider bound.
            state = self._state
            self._state = _StatsState(state.manager, ready=state.ready)
        return self._feedback

    # ------------------------------------------------------------------
    # Requests and the one planning path
    # ------------------------------------------------------------------
    def _estimator(
        self, state: _StatsState, tracer: Tracer | None = None
    ) -> CardinalityEstimator:
        """The estimator a plan against ``state`` reads: with a
        ``tracer`` a fresh traced one, else the snapshot's shared one,
        built and decorated on first use.

        Benign race: two threads may both build the shared estimator;
        last write wins and either instance answers identically
        (estimators are pure functions of statistics + config). The memo
        lives on the state, so a statistics swap can never pair an old
        estimator with a new version.
        """
        if tracer is None and state.estimator is not None:
            return state.estimator
        estimator = estimator_for(
            self.config.policy,
            self.database,
            state.manager,
            prior=self.config.prior,
        )
        if isinstance(estimator, RobustCardinalityEstimator):
            estimator.fallback_listener = self._note_fallback_estimate
            if self._feedback is not None:
                # Fenced to this snapshot's epoch: the provider refuses
                # observations harvested under any other statistics
                # version.
                estimator.feedback = self._feedback.provider_for(
                    state.version
                )
        if tracer is not None:
            estimator.tracer = tracer
            return estimator
        if self.estimator_decorator is not None:
            estimator = self.estimator_decorator(estimator)
        state.estimator = estimator
        return estimator

    def _note_fallback_estimate(self, tables, source: str) -> None:
        """§3.5 fallback attribution hook wired into robust estimators."""
        self.metrics.counter(
            "repro_session_fallback_estimates_total",
            "Estimation passes routed through the §3.5 fallbacks, "
            "by fallback source.",
        ).inc(source=source)

    def _request(
        self,
        query: str | SPJQuery,
        policy: SelectionPolicy | float | str | None = None,
    ) -> _Request:
        """Resolve one call: parse the statement, resolve its policy,
        and read the statistics snapshot and feedback generation — each
        exactly once, here and nowhere else."""
        parsed, fingerprint = self._coerce_query(query)
        effective = self._effective_policy(parsed, policy)
        state = self._ensure_state()
        return _Request(
            parsed, fingerprint, effective, state,
            cache_token(state, self._feedback),
        )

    def _plan(
        self,
        request: _Request,
        *,
        estimator: CardinalityEstimator | None = None,
        tracer: Tracer | None = None,
        grid: tuple[float, ...] | None = None,
        fallback: bool = False,
    ):
        """Plan ``request`` under its policy against its snapshot — the
        session's one planning path, uncached.

        ``estimator`` replaces the snapshot's shared one (a traced
        build, with its ``tracer``). ``grid`` plans those thresholds in
        one vectorized pass and returns a plan per lane. ``fallback``
        plans through the §3.5 magic-only estimator at the policy's
        scalar hint: built over an *empty* statistics manager, it always
        answers — base-table cardinalities stay exact, predicates price
        at magic-distribution percentiles — and a penalty policy has no
        posterior left to sample.
        """
        if fallback:
            estimator = RobustCardinalityEstimator(
                StatisticsManager(self.database),
                prior=self.config.prior,
                policy=hintless_threshold(self.config.policy),
            )
            estimator.fallback_listener = self._note_fallback_estimate
        elif estimator is None:
            estimator = self._estimator(request.state)
        optimizer = Optimizer(
            self.database, estimator, self.cost_model, tracer=tracer
        )
        optimizer._shapes = partial(self._shape, request.fingerprint)
        if fallback:
            return optimizer.optimize(request.policy.hinted(request.query))
        if grid is not None:
            return optimizer.optimize_many(
                replace(request.query, hint=None), grid
            )
        return request.policy.plan(
            optimizer,
            request.query,
            query_key=request.fingerprint,
            statistics_token=request.state.sampling_token,
        )

    def _shape(self, fingerprint: str, query: SPJQuery) -> LatticeShape:
        """``query``'s lattice shape: the one stored under its
        fingerprint, else built. ``_coerce_query`` validated ``query``
        when it came in, so a query that fails reaches no shape and
        stores nothing. A fingerprint's first plan leaves
        ``_PLANNED_ONCE`` and its second stores the shape, so
        never-repeated statements hold no shape. A shape holds only
        what the session's fixed catalog and the hint-free statement
        decide, so its key needs no policy, statistics version or
        feedback generation. Two threads on one fingerprint may both
        build, and either shape is the same."""
        stored = self._shapes.get(fingerprint)
        if stored is not None and stored is not _PLANNED_ONCE:
            self._shapes_reused.inc()
            return stored
        shape = LatticeShape(self.database, query, validated=True)
        self._shapes.put(fingerprint, _PLANNED_ONCE if stored is None else shape)
        return shape

    # ------------------------------------------------------------------
    # Prepare
    # ------------------------------------------------------------------
    def _coerce_query(self, query: str | SPJQuery) -> tuple[SPJQuery, str]:
        """The parsed statement and its fingerprint, each computed once
        per distinct statement, and the statement validated against the
        session's database (``parse_query`` validates what it parses)."""
        if isinstance(query, str):
            entry = self._parse_cache.get(query)
            if entry is None:
                parsed = parse_query(query, self.database)
                entry = (parsed, query_fingerprint(parsed))
                self._parse_cache.put(query, entry)
            return entry
        if isinstance(query, SPJQuery):
            fingerprint = self._fingerprints.get(query)
            if fingerprint is None:
                query.validate(self.database)
                fingerprint = query_fingerprint(query)
                self._fingerprints[query] = fingerprint
            return query, fingerprint
        raise SessionError(
            f"expected SQL text or SPJQuery, got {type(query).__name__}"
        )

    def _effective_policy(
        self,
        query: SPJQuery,
        policy: SelectionPolicy | float | str | None = None,
    ) -> SelectionPolicy:
        """Hint > per-call override > session default.

        A per-call ``policy`` must match the session's estimator family
        — the estimator is session state, not per-statement state.
        Confidence hints only mean something to the robust estimator.
        """
        if policy is not None:
            policy = resolve_policy(policy)
            if policy.estimator_kind != self.config.estimator:
                raise SessionError(
                    f"policy {policy.spec()!r} needs a "
                    f"{policy.estimator_kind!r} session, this one is "
                    f"{self.config.estimator!r}"
                )
        if query.hint is not None and self.config.estimator == "robust":
            return ThresholdPolicy(query.hint)
        return self.config.policy if policy is None else policy

    def prepare(
        self,
        query: str | SPJQuery,
        *,
        policy: SelectionPolicy | float | str | None = None,
    ) -> PreparedQuery:
        """Parse (if needed), plan, and cache one statement.

        Preparing the same statement twice is a cache hit — the
        returned handle carries the *same* plan object. A per-call
        ``policy`` (or an ``OPTION (CONFIDENCE …)`` hint in the SQL)
        plans that statement under a different selection policy with
        its own cache entry.
        """
        self._check_open()
        return self._prepare(self._request(query, policy))

    def _prepare(self, request: _Request) -> PreparedQuery:
        """``request``'s plan from the cache, planned on a miss; an
        estimator failure degrades to an uncached §3.5 plan."""

        def plan() -> PlannedQuery:
            started = time.perf_counter()
            planned = self._plan(request)
            self.metrics.gauge(
                "repro_session_last_plan_seconds",
                "Wall time of the most recent planning pass.",
            ).set(time.perf_counter() - started)
            return planned

        try:
            planned, was_cached = self.plan_cache.get_or_create(
                request.key, plan
            )
        except (EstimationError, StatisticsError) as exc:
            return self._prepare_degraded(request, exc)
        self._count_prepare(was_cached)
        return PreparedQuery(self, request, planned, was_cached)

    def _prepare_degraded(
        self, request: _Request, exc: ReproError
    ) -> PreparedQuery:
        """Plan through the §3.5 magic-only path after an estimator failure.

        The degradation is attributed (event + metrics), and the
        resulting plan is handed back **uncached** — the plan cache
        only ever holds plans produced by the configured estimator, so
        a transient estimator fault can't poison it.
        """
        event = self._degradation(
            "estimator-failure", f"{type(exc).__name__}: {exc}", component="planner"
        )
        self._record_degradation(event)
        planned = self._plan(request, fallback=True)
        self._count_prepare(False)
        return PreparedQuery(
            self, request, planned, False, degraded_reason=event.reason
        )

    def prepare_many(
        self, query: str | SPJQuery, thresholds: Sequence[float | str]
    ) -> list[PreparedQuery]:
        """Prepare one statement across a whole confidence grid.

        Each threshold is a lane: the statement's request under that
        :class:`~repro.selection.ThresholdPolicy`. Missing lanes are
        planned together by one vectorized
        :meth:`~repro.optimizer.Optimizer.optimize_many` pass (per-lane
        plans are bit-identical to scalar ``optimize`` at the same
        threshold), then cached individually — so a later
        ``prepare(query, policy=t)`` hits any lane planted here.
        """
        self._check_open()
        if self.config.estimator != "robust":
            raise SessionError(
                "prepare_many needs a threshold-aware (robust) session"
            )
        if not thresholds:
            raise SessionError("prepare_many needs at least one threshold")
        request = self._request(query)
        lanes = [request._replace(policy=ThresholdPolicy(t)) for t in thresholds]
        keys = [lane.key for lane in lanes]
        plans = [self.plan_cache.get(key) for key in keys]
        hits = [planned is not None for planned in plans]
        missing = [i for i, hit in enumerate(hits) if not hit]
        if missing:
            try:
                fresh = self._plan(
                    request, grid=tuple(lanes[i].policy.q for i in missing)
                )
            except (EstimationError, StatisticsError):
                # Degrade lane by lane through the scalar path (which
                # attributes the failure and plans uncached via §3.5).
                return [self._prepare(lane) for lane in lanes]
            for i, planned in zip(missing, fresh):
                self.plan_cache.put(keys[i], planned)
                plans[i] = planned
        for hit in hits:
            self._count_prepare(hit)
        return [
            PreparedQuery(self, lane, planned, hit)
            for lane, planned, hit in zip(lanes, plans, hits)
        ]

    def _count_prepare(self, was_cached: bool) -> None:
        self._prepares.inc(result="hit" if was_cached else "miss")

    # ------------------------------------------------------------------
    # Execute
    # ------------------------------------------------------------------
    def execute(
        self, query: str | SPJQuery | PreparedQuery,
        *,
        policy: SelectionPolicy | float | str | None = None,
    ) -> QueryResult:
        """Plan (through the cache) and run one statement."""
        if isinstance(query, PreparedQuery):
            return self._execute_prepared(query)
        return self._execute_prepared(self.prepare(query, policy=policy))

    def _execute_prepared(self, prepared: PreparedQuery) -> QueryResult:
        """Run a handle's plan through :meth:`_run`, re-planning it
        first if statistics moved, and harvest what it observed."""
        self._check_open()
        if prepared.is_stale():
            # Statistics moved: re-plan the handle's own query under the
            # policy it already resolved (never the hint again) against
            # a fresh snapshot — a cache miss under the new version —
            # and re-bind the handle.
            fresh = self._prepare(
                self._request(prepared.query)._replace(policy=prepared.policy)
            )
            prepared.request = fresh.request
            prepared.planned = fresh.planned
            prepared.from_cache = fresh.from_cache
            prepared.degraded_reason = fresh.degraded_reason
            self.metrics.counter(
                "repro_session_replans_total",
                "Transparent re-plans after a statistics version bump.",
            ).inc()
        planned = prepared.planned
        record, frame, reused = self._run(
            prepared.fingerprint, planned, served=True
        )
        if reused:
            self._executions_reused.inc()
        # Degraded (magic-only) plans are not harvested: their estimates
        # say nothing about the configured estimator's accuracy.
        if self._feedback is not None and prepared.degraded_reason is None:
            # Record the cardinalities the plan's tree produced into the
            # epoch the plan was produced under and ledger its
            # plan-level q-error.
            self._feedback.observe(
                prepared.query,
                planned.plan,
                estimated_rows=planned.estimated_rows,
                actual_rows=record.num_rows,
                statistics_version=prepared.statistics_version,
                operator_rows=record.operator_rows(planned.plan),
            )
        self._executes.inc()
        self._simulated_seconds.observe(record.simulated_seconds)
        return QueryResult(
            frame=frame,
            simulated_seconds=record.simulated_seconds,
            prepared=prepared,
            plan_cached=prepared.from_cache,
        )

    def _run(
        self, fingerprint: str, planned: PlannedQuery, *, served: bool
    ) -> tuple[_Record, Frame | None, bool]:
        """Run ``planned``'s tree, or answer from what its earlier runs
        left: the session's one execution path. Returns the key's
        :class:`_Record`, the result (``None`` when the record answered
        a caller that needs no frame) and whether the memo answered, so
        that nothing executed. The simulated seconds are the record's:
        a re-execution charges the same work.

        The execution memo is keyed ``(fingerprint,
        plan.signature())``: within one statement equal signatures
        charge identical work, and table data is fixed for the
        session's lifetime, so the key needs no statistics version,
        feedback generation or estimator, and any plan object with the
        key's tree is answered from it. A key's first run records each
        operator's rows and work and keeps that :class:`_Record`; a
        caller that needs no frame (``served=False``: traces, EXPLAIN
        ANALYZE, audits, the experiment runner) reads it from then on.
        The next ``served`` run keeps the compacted result beside it
        (:meth:`_kept`), and every later served run returns that. The
        ``PlannedQuery`` caches its :class:`_Execution`, so a plan
        holding one is served by one attribute read, with no lock and
        no ``signature()`` call; publishing an entry is one store of an
        immutable tuple. Two threads on one run may both execute, and
        either entry is the same.
        """
        self._check_open()
        entry = getattr(planned, _MEMO, None)
        if type(entry) is not _Execution:
            key = (fingerprint, planned.plan.signature())
            entry = self._execution_memo.get(key)
            if type(entry) is _Execution:
                setattr(planned, _MEMO, entry)
        record, frame = entry if type(entry) is _Execution else (entry, None)
        if record is not None and (frame is not None or not served):
            return record, frame, True
        ctx = ExecutionContext(
            self.database,
            scan_cache=self._scan_cache,
            operator_rows={} if record is None else None,
            operator_work={} if record is None else None,
        )
        started = time.perf_counter()
        frame = planned.plan.execute(ctx)
        self._last_execute_wall.set(time.perf_counter() - started)
        # A re-execution is priced too, though its price is the record's:
        # bench/traced.py reads each execution's work from this call.
        simulated = self.cost_model.time_from_counters(ctx.counters)
        if record is None:
            entry = record = _Record(
                tuple(ctx.operator_record(planned.plan)),
                simulated,
                frame.num_rows,
            )
        elif entry is record:
            entry = _Execution(record, self._kept(frame))
        else:  # its result is over the bound: nothing more to keep
            return record, frame, False
        self._execution_memo.put(key, entry)
        setattr(planned, _MEMO, entry)
        return record, frame, False

    def _kept(self, frame: Frame) -> Frame | None:
        """``frame`` with its columns copied and made read-only, or
        ``None`` when it is over one plan-cache slot's share of the
        scan-cache budget (so a full plan cache holds at most one
        scan-cache budget of results)."""
        names = frame.column_names
        columns = [frame.column(name) for name in names]
        bound = scancache.SCAN_CACHE_BYTES // max(self.config.plan_cache_size, 1)
        if sum(column.nbytes for column in columns) > bound:
            return None
        copies = {}
        for name, column in zip(names, columns):
            copy = column.copy()
            copy.flags.writeable = False
            copies[name] = copy
        return Frame(copies)

    # ------------------------------------------------------------------
    # Explain / trace
    # ------------------------------------------------------------------
    def trace_query(
        self,
        query: str | SPJQuery,
        *,
        execute: bool = False,
        label: str | None = None,
        policy: SelectionPolicy | float | str | None = None,
    ) -> dict:
        """Plan (and optionally run) with full tracing, returning the
        JSON-ready :class:`~repro.obs.QueryTrace` record.

        Traced planning bypasses the plan cache — the point is fresh
        estimation-evidence spans — and never pollutes it. Under a
        penalty policy the optimizer span carries the per-plan penalty
        distributions (``optimizer.selection``). With ``execute`` the
        plan runs once, and the execution span is read off that run.
        """
        return self._traced(query, execute, label, policy)[1]

    def _plan_pass(
        self,
        query: str | SPJQuery,
        policy: SelectionPolicy | float | str | None = None,
        *,
        grid: tuple[float, ...] | None = None,
        traced: bool = False,
    ) -> _Pass:
        """One planning pass, uncached: ``query`` under ``policy`` (as
        :meth:`prepare` resolves it), or under every threshold of
        ``grid`` in one vectorized pass. ``traced`` plans with a fresh
        traced estimator and keeps the estimation spans it recorded.
        Nothing degrades: an estimator failure propagates. The
        experiment runner, the chaos harness's fresh re-plan and
        :meth:`trace_query` / :meth:`explain` plan through here."""
        self._check_open()
        request = self._request(query, policy)
        tracer = Tracer() if traced else None
        estimator = self._estimator(request.state, tracer)
        started = time.perf_counter()
        planned = self._plan(
            request, estimator=estimator, tracer=tracer, grid=grid
        )
        seconds = time.perf_counter() - started
        spans = tracer.drain_estimations() if traced else None
        return _Pass(request, planned, estimator, spans, seconds)

    def _traced(
        self, query, execute, label, policy
    ) -> tuple[PlannedQuery, dict]:
        """One traced planning pass (and execution): the plan and its
        trace record. The execution span is read off the record of the
        plan's tree in the execution memo, so a tree the session already
        ran executes nothing here."""
        traced = self._plan_pass(query, policy, traced=True)
        planned = traced.planned
        execution = None
        if execute:
            record, _, reused = self._run(
                traced.request.fingerprint, planned, served=False
            )
            execution = execution_span(
                planned.plan,
                record.operators,
                self.cost_model,
                estimated_rows=planned.estimated_rows,
                estimated_cost=planned.estimated_cost,
                cache_hit=reused,
            )
        record = QueryTrace(
            template=label or "session",
            config=traced.estimator.describe(),
            seed=self.config.statistics_seed
            if isinstance(self.config.statistics_seed, int)
            else None,
            estimation=traced.spans,
            optimizer=planned.trace,
            execution=execution,
            timing={"optimize_seconds": traced.seconds},
        ).as_dict()
        return planned, record

    def explain(
        self,
        query: str | SPJQuery,
        *,
        analyze: bool = False,
        policy: SelectionPolicy | float | str | None = None,
    ) -> str:
        """The "why this plan" explanation for one statement.

        Combines the plan tree with the traced provenance (estimation
        evidence, DP statistics, winner vs. runner-up) of one traced
        planning pass, which like :meth:`trace_query` leaves the plan
        cache alone; ``analyze=True`` also executes the plan and appends
        the per-operator work breakdown, EXPLAIN-ANALYZE style.
        """
        planned, record = self._traced(query, analyze, None, policy)
        provenance = explain_trace([record], record["trace_id"])
        return f"{planned.explain()}\n\n{provenance}"

    # ------------------------------------------------------------------
    # Experiments
    # ------------------------------------------------------------------
    def run_experiment(
        self,
        template,
        params,
        configs=None,
        seeds: Sequence[int] = tuple(range(4)),
        workers: int | None = None,
        trace: bool = False,
    ):
        """Run a Section-6 style experiment grid against this database.

        Delegates to :class:`~repro.experiments.ExperimentRunner` with
        the session's database, cost model, prior, sample size and
        histogram buckets, then publishes the harness's perf counters
        into ``session.metrics``.
        Experiment statistics are rebuilt per seed inside the runner
        (the paper's protocol) — the session's own statistics and plan
        cache are untouched.
        """
        self._check_open()
        from repro.experiments import ExperimentRunner

        runner = ExperimentRunner(
            self.database,
            template,
            self.cost_model,
            prior=self.config.prior,
            sample_size=self.config.sample_size,
            histogram_buckets=self.config.histogram_buckets,
            seeds=seeds,
            workers=workers,
            trace=trace,
        )
        result = runner.run(params, configs)
        result.perf.publish(self.metrics)
        return result

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict:
        """Plan-cache counters; mirrors them, the scan cache's, the
        execution memo's and the shared estimator's estimate memo's
        into ``metrics``."""
        stats = self.plan_cache.stats()
        gauge = self.metrics.gauge(
            "repro_session_plan_cache",
            "Plan-cache occupancy and counters.",
        )
        for name in ("size", "hits", "misses", "evictions"):
            gauge.set(float(stats[name]), stat=name)
        gauge.set(stats["hit_rate"], stat="hit_rate")
        gauge.set(
            float(sum(
                shape is not _PLANNED_ONCE for shape in self._shapes.values()
            )),
            stat="shapes",
        )
        scan_gauge = self.metrics.gauge(
            "repro_session_scan_cache",
            "Scan-cache occupancy (entries, bytes held) and counters.",
        )
        for name, value in self._scan_cache.stats().items():
            scan_gauge.set(float(value), stat=name)
        memo_gauge = self.metrics.gauge(
            "repro_session_execution_memo",
            "Execution-memo occupancy (entries, bytes of results held).",
        )
        held = self._execution_memo.values()
        frames = [
            entry.frame for entry in held
            if type(entry) is _Execution and entry.frame is not None
        ]
        memo_gauge.set(float(len(held)), stat="entries")
        memo_gauge.set(float(sum(
            frame.column(name).nbytes
            for frame in frames for name in frame.column_names
        )), stat="bytes")
        estimate_gauge = self.metrics.gauge(
            "repro_session_estimate_memo",
            "Estimate-memo occupancy (values kept, keys seen once) and "
            "counters of the shared estimator.",
        )
        estimator = self._state.estimator
        estimate_stats = (
            estimator.estimate_memo_stats()
            if isinstance(estimator, EstimateCacheMixin)
            else dict.fromkeys(("entries", "seen_once", "hits", "misses"), 0)
        )
        for name, value in estimate_stats.items():
            estimate_gauge.set(float(value), stat=name)
        return stats

    def describe(self) -> str:
        """One-line session summary for logs and reports."""
        knob = (
            f", {self.config.policy.describe()}"
            if self.config.estimator == "robust"
            else ""
        )
        if self._feedback is not None:
            knob += ", feedback"
        flag = ", DEGRADED" if self._health == DEGRADED else ""
        return (
            f"Session({self.config.estimator}{knob}, "
            f"n={self.config.sample_size}, "
            f"cache={self.config.plan_cache_size}, "
            f"stats_v{self.statistics_version()}{flag})"
        )

    def _check_open(self) -> None:
        if self._closed:
            raise SessionError("session is closed")

    def close(self) -> None:
        """Release cached plans and scans; further use raises
        ``SessionError``."""
        self.cache_stats()  # final metrics snapshot
        self.plan_cache.clear()
        self._parse_cache.clear()
        self._execution_memo.clear()
        self._shapes.clear()
        self._scan_cache.clear()
        self._closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return self.describe()
