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

Plan caching is *statistics-versioned*: cache keys include
``StatisticsManager.version``, so rebuilding statistics (new sample
seed, different sample size, dropped synopsis) silently invalidates
every cached plan — the next prepare or execute re-plans against the
new Beta posteriors. Prepared handles notice staleness at execution
time and transparently re-plan, which is the PARQO-style contract:
plans follow the statistics, callers never see a stale plan.

Thread safety: the plan cache is lock-striped with per-key
singleflight (two threads preparing the same query plan it exactly
once), statistics builds are serialized by a session lock, and metrics
go through the session's :class:`~repro.obs.MetricsRegistry`.

Statistics hot-swap under load: the session's (manager, estimator)
pair lives in one immutable-slot :class:`_StatsState` that swaps are a
*single* attribute assignment of. A prepare takes one snapshot of that
state and derives both its cache-key version and its estimator from
it, so a swap landing mid-prepare can never mix old statistics with a
new version (or vice versa) — the racing prepare plans entirely
against the old snapshot, whose cache key embeds the old version and
is structurally unreachable after the swap. ``refresh_statistics`` is
copy-on-refresh for the same reason: it builds a *fresh* manager and
swaps it in rather than mutating the one in-flight readers hold.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass, replace
from typing import Sequence

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
from repro.cost import CostModel
from repro.engine import ExecutionContext, ScanCache
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


@dataclass(frozen=True)
class SessionConfig:
    """Everything that makes two sessions plan identically.

    The estimator configuration half of the plan-cache key: two
    sessions over the same database, statistics version, and config
    would produce byte-identical plans, so their entries are
    interchangeable.
    """

    prior: Prior = JEFFREYS
    sample_size: int = 500
    histogram_buckets: int = 250
    statistics_seed: int | None = 0
    plan_cache_size: int = 256
    cache_stripes: int = 8
    enable_star_plans: bool = True
    #: The default selection policy: a
    #: :class:`~repro.selection.SelectionPolicy`, a bare threshold, or a
    #: spec string (``"95"``, ``"cvar:0.9:32"``, ``"histogram"``,
    #: ``"bayes"``, ``"exact"``); ``None`` is the paper's moderate
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

    def cache_key(self) -> tuple:
        """The config component of every plan-cache key."""
        return (
            self.estimator,
            self.prior.alpha,
            self.prior.beta,
            self.sample_size,
            self.histogram_buckets,
            self.enable_star_plans,
        )


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


class PreparedQuery:
    """A planned statement bound to one session.

    Cheap to re-execute: the plan is reused until the session's
    statistics change, at which point :meth:`execute` transparently
    re-plans (and re-binds this handle to the fresh plan).
    """

    def __init__(
        self,
        session: "Session",
        query: SPJQuery,
        planned: PlannedQuery,
        policy: SelectionPolicy,
        statistics_version: int,
        from_cache: bool,
        degraded_reason: str | None = None,
        *,
        fingerprint: str | None = None,
    ) -> None:
        self.session = session
        self.query = query
        self.planned = planned
        #: Effective :class:`~repro.selection.SelectionPolicy` the plan
        #: was selected under.
        self.policy = policy
        #: ``StatisticsManager.version`` the plan was produced against.
        self.statistics_version = statistics_version
        #: Whether this handle was served from the session plan cache.
        self.from_cache = from_cache
        #: Set when the plan came from the degraded (§3.5 magic-only)
        #: path after the configured estimator failed; such plans are
        #: never cached.
        self.degraded_reason = degraded_reason
        #: ``query_fingerprint(query)``; the session passes the one it
        #: computed when it parsed the statement.
        self.fingerprint = (
            fingerprint if fingerprint is not None
            else query_fingerprint(query)
        )

    # ------------------------------------------------------------------
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
        self._prepares = self.metrics.counter(
            "repro_session_prepares_total",
            "Statements prepared, by plan-cache outcome.",
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

    def _ensure_state(self) -> _StatsState:
        """The current statistics state, built if need be.

        This is the one read point every planning path goes through:
        callers hold the returned snapshot for the whole prepare, so
        the version they key the cache with and the estimator they plan
        with always come from the same statistics. Ready states are
        returned lock-free; unbuilt ones funnel through the session
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
                started = time.perf_counter()
                manager.update_statistics(
                    sample_size=self.config.sample_size,
                    histogram_buckets=self.config.histogram_buckets,
                    seed=self.config.statistics_seed,
                )
                self.metrics.gauge(
                    "repro_session_statistics_build_seconds",
                    "Wall time of the last statistics build.",
                ).set(time.perf_counter() - started)
            state = _StatsState(manager, ready=True)
            self._state = state
            return state

    def refresh_statistics(
        self, seed=None, sample_size: int | None = None
    ) -> int:
        """Rebuild statistics, invalidating every cached plan.

        Returns the new statistics version. The plan cache needs no
        explicit flush: keys embed the version, so old entries can
        never be served again and age out of the LRU. The rebuild
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
            started = time.perf_counter()
            fresh.update_statistics(
                sample_size=self.config.sample_size,
                histogram_buckets=self.config.histogram_buckets,
                seed=self.config.statistics_seed if seed is None else seed,
            )
            self.metrics.gauge(
                "repro_session_statistics_build_seconds",
                "Wall time of the last statistics build.",
            ).set(time.perf_counter() - started)
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
        extra pseudo-counts, and — when neither a hint nor a per-call
        policy was given — routes the selection policy by the query
        class's observed q-error severity. Drift events surface
        through the session degradation log (reason
        ``"estimation-drift"``) without changing serving behaviour
        beyond the routed threshold.

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
    # Estimator / optimizer wiring
    # ------------------------------------------------------------------
    def _build_estimator(
        self, state: _StatsState, tracer: Tracer | None = None
    ):
        """A fresh estimator honoring the session config, bound to the
        statistics snapshot in ``state``."""
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
        elif self.estimator_decorator is not None:
            estimator = self.estimator_decorator(estimator)
        return estimator

    def _note_fallback_estimate(self, tables, source: str) -> None:
        """§3.5 fallback attribution hook wired into robust estimators."""
        self.metrics.counter(
            "repro_session_fallback_estimates_total",
            "Estimation passes routed through the §3.5 fallbacks, "
            "by fallback source.",
        ).inc(source=source)

    def _fallback_estimator(self) -> RobustCardinalityEstimator:
        """The last-resort planner estimator: §3.5 magic-only routing.

        Built over an *empty* statistics manager, so every estimate
        takes the fallback path — base-table cardinalities stay exact,
        predicates price at magic-distribution percentiles. It always
        answers, which is what keeps the planner total under injected
        estimator faults.
        """
        estimator = RobustCardinalityEstimator(
            StatisticsManager(self.database),
            prior=self.config.prior,
            policy=hintless_threshold(self.config.policy),
        )
        estimator.fallback_listener = self._note_fallback_estimate
        return estimator

    def _shared_estimator(self, state: _StatsState) -> CardinalityEstimator:
        # Benign race: two threads may both build; last write wins and
        # either instance answers identically (estimators are pure
        # functions of statistics + config). The memo lives on the
        # state, so a statistics swap can never pair an old estimator
        # with a new version.
        if state.estimator is None:
            state.estimator = self._build_estimator(state)
        return state.estimator

    def _optimizer(
        self, state: _StatsState, tracer: Tracer | None = None
    ) -> Optimizer:
        estimator = (
            self._build_estimator(state, tracer)
            if tracer is not None
            else self._shared_estimator(state)
        )
        return Optimizer(
            self.database,
            estimator,
            self.cost_model,
            enable_star_plans=self.config.enable_star_plans,
            tracer=tracer,
        )

    # ------------------------------------------------------------------
    # Prepare
    # ------------------------------------------------------------------
    def _coerce_query(self, query: str | SPJQuery) -> tuple[SPJQuery, str]:
        """The parsed statement and its fingerprint, each computed once
        per distinct statement."""
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
        """Hint > per-call override > routed > session default.

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
        if policy is not None:
            return policy
        # Only robust sessions can enable feedback.
        if self._feedback is not None:
            routed = self._feedback.route(query)
            if routed is not None:
                return routed
        return self.config.policy

    def _cache_key(
        self, fingerprint: str, policy: SelectionPolicy, version: int
    ) -> tuple:
        # The feedback generation keys the cache alongside the
        # statistics version: a new observation invalidates exactly the
        # plans whose posteriors it would now fold into.
        generation = (
            self._feedback.generation if self._feedback is not None else None
        )
        return (
            fingerprint,
            self.config.cache_key(),
            policy.cache_key(),
            version,
            generation,
        )

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
        parsed, fingerprint = self._coerce_query(query)
        effective = self._effective_policy(parsed, policy)
        # One snapshot serves the whole prepare: the cache-key version
        # and the planning estimator both come from it, so a hot-swap
        # landing mid-prepare can't mix statistics generations.
        state = self._ensure_state()
        version = state.version
        key = self._cache_key(fingerprint, effective, version)

        def plan() -> PlannedQuery:
            started = time.perf_counter()
            planned = effective.plan(
                self._optimizer(state),
                parsed,
                query_key=fingerprint,
                statistics_token=state.sampling_token,
            )
            self.metrics.gauge(
                "repro_session_last_plan_seconds",
                "Wall time of the most recent planning pass.",
            ).set(time.perf_counter() - started)
            return planned

        try:
            planned, was_cached = self.plan_cache.get_or_create(key, plan)
        except (EstimationError, StatisticsError) as exc:
            return self._prepare_degraded(
                parsed, fingerprint, effective, version, exc
            )
        self._count_prepare(was_cached)
        return PreparedQuery(
            self, parsed, planned, effective, version, was_cached,
            fingerprint=fingerprint,
        )

    def _prepare_degraded(
        self,
        parsed: SPJQuery,
        fingerprint: str,
        effective: SelectionPolicy,
        version: int,
        exc: ReproError,
    ) -> PreparedQuery:
        """Plan through the §3.5 magic-only path after an estimator failure.

        The degradation is attributed (event + metrics), and the
        resulting plan is handed back **uncached** — the plan cache
        only ever holds plans produced by the configured estimator, so
        a transient estimator fault can't poison it. Penalty policies
        degrade to the scalar magic-only plan too: without a working
        posterior there is nothing to sample.
        """
        event = self._degradation(
            "estimator-failure", f"{type(exc).__name__}: {exc}", component="planner"
        )
        self._record_degradation(event)
        optimizer = Optimizer(
            self.database,
            self._fallback_estimator(),
            self.cost_model,
            enable_star_plans=self.config.enable_star_plans,
        )
        planned = optimizer.optimize(effective.hinted(parsed))
        self._count_prepare(False)
        return PreparedQuery(
            self, parsed, planned, effective, version, False,
            degraded_reason=event.reason, fingerprint=fingerprint,
        )

    def prepare_many(
        self, query: str | SPJQuery, thresholds: Sequence[float | str]
    ) -> list[PreparedQuery]:
        """Prepare one statement across a whole confidence grid.

        Missing grid points are planned together by one vectorized
        :meth:`~repro.optimizer.Optimizer.optimize_many` pass (per-lane
        plans are bit-identical to scalar ``optimize`` at the same
        threshold, see PR 2), then cached individually — so a later
        ``prepare(query, policy=t)`` hits any lane planted here.
        """
        self._check_open()
        if self.config.estimator != "robust":
            raise SessionError(
                "prepare_many needs a threshold-aware (robust) session"
            )
        if not thresholds:
            raise SessionError("prepare_many needs at least one threshold")
        parsed, fingerprint = self._coerce_query(query)
        grid = [ThresholdPolicy(t) for t in thresholds]
        state = self._ensure_state()
        version = state.version

        keyed = [
            (p, self._cache_key(fingerprint, p, version)) for p in grid
        ]
        found: dict[ThresholdPolicy, PlannedQuery] = {}
        hits: set[ThresholdPolicy] = set()
        for lane_policy, key in keyed:
            cached = self.plan_cache.get(key)
            if cached is not None:
                found[lane_policy] = cached
                hits.add(lane_policy)
        missing = [p for p in grid if p not in found]
        if missing:
            hintless = replace(parsed, hint=None)
            try:
                planned_grid = self._optimizer(state).optimize_many(
                    hintless, tuple(p.q for p in missing)
                )
            except (EstimationError, StatisticsError):
                # Degrade lane by lane through the scalar path (which
                # attributes the failure and plans uncached via §3.5).
                return [self.prepare(hintless, policy=p) for p in grid]
            for lane_policy, planned in zip(missing, planned_grid):
                key = self._cache_key(fingerprint, lane_policy, version)
                self.plan_cache.put(key, planned)
                found[lane_policy] = planned

        prepared = []
        for lane_policy in grid:
            was_cached = lane_policy in hits
            self._count_prepare(was_cached)
            prepared.append(
                PreparedQuery(
                    self, parsed, found[lane_policy], lane_policy, version,
                    was_cached, fingerprint=fingerprint,
                )
            )
        return prepared

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
        self._check_open()
        if prepared.is_stale():
            # Statistics moved: transparently re-plan (a cache miss
            # under the new version) and re-bind the handle.
            fresh = self.prepare(prepared.query, policy=prepared.policy)
            prepared.planned = fresh.planned
            prepared.statistics_version = fresh.statistics_version
            prepared.from_cache = fresh.from_cache
            self.metrics.counter(
                "repro_session_replans_total",
                "Transparent re-plans after a statistics version bump.",
            ).inc()
        # Degraded (magic-only) plans are not harvested: their estimates
        # say nothing about the configured estimator's accuracy.
        harvest = self._feedback is not None and prepared.degraded_reason is None
        ctx = ExecutionContext(
            self.database,
            scan_cache=self._scan_cache,
            operator_rows={} if harvest else None,
        )
        started = time.perf_counter()
        frame = prepared.plan.execute(ctx)
        wall = time.perf_counter() - started
        simulated = self.cost_model.time_from_counters(ctx.counters)
        if harvest:
            # Record the cardinalities this execution observed into the
            # epoch the plan was produced under and ledger its
            # plan-level q-error.
            self._feedback.observe(
                prepared.query,
                prepared.plan,
                self.database,
                estimated_rows=prepared.estimated_rows,
                actual_rows=frame.num_rows,
                statistics_version=prepared.statistics_version,
                operator_rows=ctx.operator_rows,
            )
        self.metrics.counter(
            "repro_session_executes_total", "Statements executed."
        ).inc()
        self.metrics.histogram(
            "repro_session_simulated_seconds",
            "Simulated execution time of session statements.",
        ).observe(simulated)
        self.metrics.gauge(
            "repro_session_last_execute_wall_seconds",
            "Wall time of the most recent plan execution.",
        ).set(wall)
        return QueryResult(
            frame=frame,
            simulated_seconds=simulated,
            prepared=prepared,
            plan_cached=prepared.from_cache,
        )

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

    def _traced(
        self, query, execute, label, policy
    ) -> tuple[PlannedQuery, dict]:
        """One traced planning pass (and execution): the plan and its
        trace record."""
        self._check_open()
        parsed, fingerprint = self._coerce_query(query)
        effective = self._effective_policy(parsed, policy)
        state = self._ensure_state()
        tracer = Tracer()
        optimizer = self._optimizer(state, tracer)
        started = time.perf_counter()
        planned = effective.plan(
            optimizer,
            parsed,
            query_key=fingerprint,
            statistics_token=state.sampling_token,
        )
        optimize_seconds = time.perf_counter() - started
        execution = None
        if execute:
            ctx = ExecutionContext(
                self.database, operator_rows={}, operator_work={}
            )
            planned.plan.execute(ctx)
            execution = execution_span(
                planned.plan,
                ctx.operator_record(planned.plan),
                self.cost_model,
                estimated_rows=planned.estimated_rows,
                estimated_cost=planned.estimated_cost,
            )
        record = QueryTrace(
            template=label or "session",
            config=optimizer.estimator.describe(),
            seed=self.config.statistics_seed
            if isinstance(self.config.statistics_seed, int)
            else None,
            estimation=tracer.drain_estimations(),
            optimizer=planned.trace,
            execution=execution,
            timing={"optimize_seconds": optimize_seconds},
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
        the session's database, cost model, and sample size, then
        publishes the harness's perf counters into ``session.metrics``.
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
        """Plan-cache counters; mirrors them and the scan cache's into
        ``metrics``."""
        stats = self.plan_cache.stats()
        gauge = self.metrics.gauge(
            "repro_session_plan_cache",
            "Plan-cache occupancy and counters.",
        )
        for name in ("size", "hits", "misses", "evictions"):
            gauge.set(float(stats[name]), stat=name)
        gauge.set(stats["hit_rate"], stat="hit_rate")
        scan_gauge = self.metrics.gauge(
            "repro_session_scan_cache",
            "Scan-cache occupancy (entries, bytes held) and counters.",
        )
        for name, value in self._scan_cache.stats().items():
            scan_gauge.set(float(value), stat=name)
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
        self._scan_cache.clear()
        self._closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return self.describe()
