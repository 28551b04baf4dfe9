"""A thread-safe multi-tenant query server over the Session facade.

One :class:`QueryServer` fronts N tenants. Each tenant owns an
isolated :class:`~repro.service.Session` — its own database binding,
statistics, plan cache, and metrics registry — so nothing planned for
one tenant can ever be served to another: plan-cache keys embed the
tenant session's statistics version, and statistics versions are
allocated from a process-wide epoch, which makes the version sets of
two tenants provably disjoint. The server *verifies* that invariant at
runtime anyway: it records every statistics version it serves per
tenant, and :meth:`QueryServer.isolation_report` cross-intersects
them (the intersection must be empty).

Request flow: :meth:`QueryServer.serve` passes an operation through
admission control (:class:`~repro.serving.admission.AdmissionController`
— bounded per-tenant queue + global limit), takes one of
``worker_threads`` execution slots, and drives prepare/execute through
the tenant session's lock-striped plan cache, all on the calling
thread: a blocking caller already owns one, and handing its work to a
pool worker cost about three context switches per request (172 µs
around a 78 µs cached prepare) for nothing. A shed request backs off
deterministically and retries; the last shed raises
:class:`ServerOverloaded`.

Statistics hot-swap: :meth:`QueryServer.swap_statistics` attaches a
new archive to a tenant's session *while that tenant is serving
traffic*. The session's atomic ``_StatsState`` swap guarantees no
in-flight prepare mixes statistics generations; the server additionally
tracks a per-tenant version floor at admission and counts any
operation served below its floor in
``repro_serving_stale_served_total`` (which must stay 0 — the
swap-under-load test asserts exactly that).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass

from repro.catalog import Database
from repro.errors import ReproError
from repro.feedback import FeedbackConfig
from repro.obs import MetricsRegistry
from repro.selection import SelectionPolicy
from repro.service import Session, SessionConfig
from repro.serving.admission import (
    AdmissionConfig,
    AdmissionController,
)
from repro.stats import StatisticsManager

#: Buckets tuned for serving latency (sub-millisecond plan-cache hits
#: up to multi-second cold plans under load).
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class ServingError(ReproError):
    """The server was configured or used inconsistently."""


class ServerOverloaded(ServingError):
    """Admission control shed the request; retry with backoff."""

    def __init__(self, tenant: str, reason: str) -> None:
        super().__init__(
            f"request for tenant {tenant!r} shed by admission control "
            f"({reason})"
        )
        self.tenant = tenant
        self.reason = reason


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's serving configuration.

    ``statistics`` may be a prebuilt manager or a saved-archive path;
    when omitted the tenant's session builds statistics lazily on its
    first prepare (under the session statistics lock).

    ``feedback`` turns on the estimation-feedback loop for this tenant
    (``True`` for the default fold weight, or a
    :class:`~repro.feedback.FeedbackConfig` naming one). It folds
    observations into the tenant's posteriors and leaves the tenant's
    policy alone. Each tenant gets its own
    private :class:`~repro.feedback.FeedbackStore` through its own
    session, so one tenant's observed cardinalities can never fold
    into another tenant's posteriors — the same isolation contract the
    plan cache gets from disjoint statistics versions.

    The tenant session's default selection policy is ``config.policy``.
    """

    name: str
    database: Database
    config: SessionConfig | None = None
    statistics: StatisticsManager | str | None = None
    feedback: bool | FeedbackConfig = False


@dataclass
class ServedQuery:
    """One completed operation: result provenance + serving metadata."""

    tenant: str
    #: Admission-to-completion wall time (waiting for an execution
    #: slot + planning + execution), i.e. what a client of the server
    #: would observe.
    latency_seconds: float
    plan_cached: bool
    statistics_version: int
    degraded_reason: str | None
    #: ``None`` for prepare-only operations.
    rows: int | None
    simulated_seconds: float
    #: True when the operation was served below its tenant's statistics
    #: version floor at admission. Must never happen; counted in
    #: ``repro_serving_stale_served_total``.
    stale: bool = False


class _Tenant:
    """Server-side per-tenant state (session + isolation ledger)."""

    __slots__ = (
        "name", "session", "lock", "current_version", "served_versions",
    )

    def __init__(self, name: str, session: Session) -> None:
        self.name = name
        self.session = session
        self.lock = threading.Lock()
        #: The statistics version in force (the stale floor for newly
        #: admitted operations). 0 until the first build/attach.
        self.current_version = session.statistics_version()
        #: Every statistics version this tenant has *served* a query
        #: under — the isolation ledger cross-checked across tenants.
        self.served_versions: set[int] = set()


@dataclass
class _Operation:
    """One admitted unit of work, waiting for an execution slot."""

    tenant: _Tenant
    query: str
    policy: SelectionPolicy | float | str | None
    execute: bool
    admitted_at: float
    version_floor: int


class QueryServer:
    """Admission-controlled serving over N tenants.

    Parameters
    ----------
    tenants:
        :class:`TenantSpec` per tenant (at least one; names unique).
    worker_threads:
        Maximum number of operations running at once, each on the
        thread that called :meth:`serve`. Admission bounds waiting
        *plus* running.
    admission:
        An :class:`AdmissionConfig` (a controller is built over the
        server registry) or a prebuilt :class:`AdmissionController`.
    metrics:
        Server-level registry (admission decisions, latency, staleness).
        Tenant *sessions* keep private registries — server metrics are
        about serving, session metrics are about planning.
    """

    def __init__(
        self,
        tenants,
        *,
        worker_threads: int = 4,
        admission: AdmissionConfig | AdmissionController | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        specs = list(tenants)
        if not specs:
            raise ServingError("a QueryServer needs at least one tenant")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ServingError(f"duplicate tenant names in {names}")
        if worker_threads < 1:
            raise ServingError(
                f"worker_threads must be >= 1, got {worker_threads}"
            )
        self.metrics = metrics or MetricsRegistry()
        if isinstance(admission, AdmissionController):
            self.admission = admission
        else:
            self.admission = AdmissionController(
                admission or AdmissionConfig(), self.metrics
            )
        self.worker_threads = worker_threads
        # Per-request metric handles, bound once: a registry lookup
        # takes the registry lock.
        self._retries = self.metrics.counter(
            "repro_serving_retries_total",
            "Resubmissions after an admission shed, by tenant.",
        )
        self._stale_served = self.metrics.counter(
            "repro_serving_stale_served_total",
            "Operations served below their tenant's statistics "
            "version floor (must stay 0).",
        )
        self._latency = self.metrics.histogram(
            "repro_serving_latency_seconds",
            "Admission-to-completion latency of served operations.",
            buckets=LATENCY_BUCKETS,
        )
        self._completed = self.metrics.counter(
            "repro_serving_completed_total",
            "Operations completed, by tenant and plan-cache outcome.",
        )
        self._errors = self.metrics.counter(
            "repro_serving_errors_total",
            "Operations that raised inside the worker, by tenant.",
        )
        self._swaps = self.metrics.counter(
            "repro_serving_statistics_swaps_total",
            "Statistics archives hot-swapped, by tenant.",
        )
        self._tenants: dict[str, _Tenant] = {}
        for spec in specs:
            session = Session(spec.database, config=spec.config)
            if spec.feedback:
                session.enable_feedback(
                    config=spec.feedback
                    if isinstance(spec.feedback, FeedbackConfig)
                    else None
                )
            tenant = _Tenant(spec.name, session)
            if spec.statistics is not None:
                version = session.attach_statistics(spec.statistics)
                tenant.current_version = version
            self._tenants[spec.name] = tenant
        # The bound on running operations: a caller holds a slot token
        # for the length of ``_run``.
        self._slots = queue.SimpleQueue()
        for _ in range(worker_threads):
            self._slots.put(None)
        self._closed = False
        self._drained = False

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _tenant(self, name: str) -> _Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            raise ServingError(
                f"unknown tenant {name!r}; serving "
                f"{sorted(self._tenants)}"
            )
        return tenant

    def _admit(
        self,
        tenant: str,
        query: str,
        policy: SelectionPolicy | float | str | None,
        execute: bool,
    ) -> _Operation:
        """Pass admission control or raise; the caller owes a ``_run``."""
        if self._closed:
            raise ServingError("server is closed")
        state = self._tenant(tenant)
        reason = self.admission.try_admit(tenant)
        if reason is not None:
            raise ServerOverloaded(tenant, reason)
        return _Operation(
            tenant=state,
            query=query,
            policy=policy,
            execute=execute,
            admitted_at=time.perf_counter(),
            version_floor=state.current_version,
        )

    def serve(
        self,
        tenant: str,
        query: str,
        *,
        policy: SelectionPolicy | float | str | None = None,
        execute: bool = True,
        max_retries: int = 50,
        backoff_seconds: float = 0.001,
        backoff_cap: float = 0.05,
    ) -> ServedQuery:
        """Admit and run one operation on the calling thread.

        A per-operation ``policy`` overrides the tenant session's
        default selection policy for this statement only. When admission
        control sheds the request (per-tenant queue full or global limit
        reached), backs off deterministically (exponential, capped at
        ``backoff_cap``) and tries again, up to ``max_retries`` times;
        the final :class:`ServerOverloaded` propagates. Retries are
        counted in ``repro_serving_retries_total``.
        """
        attempt = 0
        while True:
            try:
                op = self._admit(tenant, query, policy, execute)
            except ServerOverloaded:
                if attempt >= max_retries:
                    raise
                self._retries.inc(tenant=tenant)
                time.sleep(min(backoff_seconds * (2 ** attempt), backoff_cap))
                attempt += 1
                continue
            return self._run(op)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run(self, op: _Operation) -> ServedQuery:
        """Run one admitted operation on this thread, inside a slot."""
        tenant = op.tenant
        try:
            self._slots.get()
            try:
                if self._drained:
                    # Admitted before close(), reached a slot after it.
                    raise ServingError("server is closed")
                prepared = tenant.session.prepare(op.query, policy=op.policy)
                if op.execute:
                    result = prepared.execute()
                    rows = result.num_rows
                    simulated = result.simulated_seconds
                else:
                    rows = None
                    simulated = 0.0
                served_version = prepared.statistics_version
                stale = served_version < op.version_floor
                if served_version not in tenant.served_versions:
                    with tenant.lock:
                        tenant.served_versions.add(served_version)
                if stale:
                    self._stale_served.inc(tenant=tenant.name)
                latency = time.perf_counter() - op.admitted_at
                self._latency.observe(latency, tenant=tenant.name)
                self._completed.inc(
                    tenant=tenant.name,
                    cache="hit" if prepared.from_cache else "miss",
                )
                return ServedQuery(
                    tenant=tenant.name,
                    latency_seconds=latency,
                    plan_cached=prepared.from_cache,
                    statistics_version=served_version,
                    degraded_reason=prepared.degraded_reason,
                    rows=rows,
                    simulated_seconds=simulated,
                    stale=stale,
                )
            finally:
                self._slots.put(None)
        except BaseException:
            self._errors.inc(tenant=tenant.name)
            raise
        finally:
            self.admission.release(tenant.name)

    # ------------------------------------------------------------------
    # Statistics lifecycle
    # ------------------------------------------------------------------
    def swap_statistics(
        self, tenant: str, source: StatisticsManager | str
    ) -> int:
        """Hot-swap one tenant's statistics while it serves traffic.

        Delegates to the session's atomic attach, then raises the
        tenant's version floor: operations admitted *after* the swap
        must be served at (at least) the new version, and ``_run``
        counts any violation in ``repro_serving_stale_served_total``.
        Operations already in flight legitimately finish under the old
        snapshot — their floor was captured at admission.
        """
        state = self._tenant(tenant)
        with state.lock:
            version = state.session.attach_statistics(source)
            state.current_version = version
        self._swaps.inc(tenant=tenant)
        return version

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def tenant_names(self) -> list[str]:
        return sorted(self._tenants)

    def session(self, tenant: str) -> Session:
        """The tenant's underlying session (tests and diagnostics)."""
        return self._tenant(tenant).session

    def feedback_isolation_report(self) -> dict:
        """Cross-tenant feedback isolation evidence, JSON-ready.

        Two invariants, both load-bearing for the hot-swap story:
        every tenant's ``stale_hits`` must be 0 (no fold was ever
        served from a foreign statistics epoch), and no two tenants
        may share a feedback store object (which would let one
        tenant's observations reach another's posteriors).
        """
        stale: dict[str, int] = {}
        stores: dict[int, list[str]] = {}
        for name, tenant in self._tenants.items():
            feedback = tenant.session.feedback
            if feedback is None:
                continue
            stale[name] = feedback.stale_hits()
            stores.setdefault(id(feedback.store), []).append(name)
        shared = [sorted(names) for names in stores.values() if len(names) > 1]
        return {
            "stale_hits": stale,
            "shared_stores": shared,
            "isolated": not shared and not any(stale.values()),
        }

    def isolation_report(self) -> dict:
        """Cross-tenant isolation evidence, JSON-ready.

        ``violations`` lists every statistics version served under more
        than one tenant. Because versions come from a process-wide
        epoch, any overlap means a plan crossed a tenant boundary — the
        report must always come back empty.
        """
        served: dict[str, set[int]] = {}
        for name, tenant in self._tenants.items():
            with tenant.lock:
                served[name] = set(tenant.served_versions)
        owners: dict[int, list[str]] = {}
        for name, versions in served.items():
            for version in versions:
                owners.setdefault(version, []).append(name)
        violations = {
            version: sorted(names)
            for version, names in owners.items()
            if len(names) > 1
        }
        return {
            "tenants": {
                name: sorted(versions) for name, versions in served.items()
            },
            "violations": violations,
            "isolated": not violations,
        }

    def stats(self) -> dict:
        """Serving + per-tenant planning counters, JSON-ready."""
        tenants = {}
        for name, tenant in self._tenants.items():
            feedback = tenant.session.feedback
            tenants[name] = {
                "statistics_version": tenant.session.statistics_version(),
                "plan_cache": tenant.session.cache_stats(),
                "health": tenant.session.health,
                "feedback": {
                    "observations": feedback.observations,
                    "store_keys": feedback.store.size(),
                    "stale_hits": feedback.stale_hits(),
                }
                if feedback is not None
                else None,
            }
        return {
            "worker_threads": self.worker_threads,
            "admission": self.admission.snapshot(),
            "stale_served": sum(
                self._stale_served.value(tenant=name)
                for name in self._tenants
            ),
            "isolation": self.isolation_report(),
            "feedback_isolation": self.feedback_isolation_report(),
            "tenants": tenants,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Refuse new operations, wait for the ones in flight, and
        close every tenant session."""
        if self._closed:
            return
        self._closed = True
        # Every running operation holds a slot: owning all of them means
        # none is left inside a session, and one admitted earlier that
        # gets a slot later sees ``_drained``.
        for _ in range(self.worker_threads):
            self._slots.get()
        self._drained = True
        try:
            for tenant in self._tenants.values():
                tenant.session.close()
        finally:
            for _ in range(self.worker_threads):
                self._slots.put(None)

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
