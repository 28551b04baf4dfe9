"""Admission control: bounded per-tenant queues + a global limit.

A serving front that accepts every request melts down the moment
offered load exceeds capacity — queues grow without bound, every
request's latency goes to infinity, and no tenant gets anything. The
standard fix (and the one real optimizers' serving tiers use) is to
*shed* early: bound the work admitted per tenant and in total, reject
the overflow immediately, and let callers retry with backoff. Shedding
a request costs microseconds; queueing it behind an unbounded backlog
costs everyone's p99.

Two limits compose here, checked atomically together:

* **Global concurrency limit** — outstanding (queued + running)
  operations across all tenants, bounding what waits for and holds
  the server's ``worker_threads`` slots.
* **Per-tenant queue depth** — outstanding operations per tenant, so
  one tenant's burst can't starve the others even while the global
  limit still has room (the noisy-neighbour bound).

Every decision is surfaced in metrics: ``repro_serving_admitted_total``
(by tenant) and ``repro_serving_shed_total`` (by tenant and reason),
so a test can assert exactly how much work was shed and why;
:meth:`AdmissionController.snapshot` reports the current occupancy.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import ReproError
from repro.obs import MetricsRegistry

#: Shed reasons (the ``reason`` label on ``repro_serving_shed_total``).
SHED_GLOBAL = "global-limit"
SHED_TENANT = "tenant-queue"


class AdmissionError(ReproError):
    """Admission control was configured inconsistently."""


@dataclass(frozen=True)
class AdmissionConfig:
    """Limits for one :class:`AdmissionController`.

    ``global_limit`` bounds outstanding operations across all tenants;
    ``tenant_queue_depth`` bounds them per tenant. Both count
    operations from admission until release (waiting for a slot *and*
    executing), so they cap the total backlog, not just concurrency.
    """

    global_limit: int = 64
    tenant_queue_depth: int = 16

    def __post_init__(self) -> None:
        if self.global_limit < 1:
            raise AdmissionError(
                f"global_limit must be >= 1, got {self.global_limit}"
            )
        if self.tenant_queue_depth < 1:
            raise AdmissionError(
                f"tenant_queue_depth must be >= 1, "
                f"got {self.tenant_queue_depth}"
            )


class AdmissionController:
    """Atomic admit-or-shed decisions over the two-level limits.

    One small mutex guards both occupancy maps; an admission decision
    is a handful of integer compares, so the critical section is a few
    hundred nanoseconds — it never holds while queries plan or run.
    """

    def __init__(
        self,
        config: AdmissionConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or AdmissionConfig()
        self.metrics = metrics or MetricsRegistry()
        self._admitted = self.metrics.counter(
            "repro_serving_admitted_total",
            "Operations admitted past admission control, by tenant.",
        )
        self._shed = self.metrics.counter(
            "repro_serving_shed_total",
            "Operations shed by admission control, "
            "by tenant and binding limit.",
        )
        self._lock = threading.Lock()
        self._global_outstanding = 0
        self._tenant_outstanding: dict[str, int] = {}
        self._tenants_seen: set[str] = set()

    # ------------------------------------------------------------------
    def try_admit(self, tenant: str) -> str | None:
        """Admit one operation for ``tenant``.

        Returns ``None`` when admitted (the caller MUST pair it with
        :meth:`release`), or the shed reason — :data:`SHED_GLOBAL` /
        :data:`SHED_TENANT` — when the operation must be rejected.
        The per-tenant bound is checked first: a tenant over its own
        queue is shed as a noisy neighbour even if the global pool has
        room, so the shed reason attributes the *binding* limit.
        """
        with self._lock:
            self._tenants_seen.add(tenant)
            tenant_outstanding = self._tenant_outstanding.get(tenant, 0)
            if tenant_outstanding >= self.config.tenant_queue_depth:
                reason = SHED_TENANT
            elif self._global_outstanding >= self.config.global_limit:
                reason = SHED_GLOBAL
            else:
                self._global_outstanding += 1
                self._tenant_outstanding[tenant] = tenant_outstanding + 1
                reason = None
        if reason is None:
            self._admitted.inc(tenant=tenant)
        else:
            self._shed.inc(tenant=tenant, reason=reason)
        return reason

    def release(self, tenant: str) -> None:
        """Return one admitted operation's slot (always in a finally)."""
        with self._lock:
            outstanding = self._tenant_outstanding.get(tenant, 0)
            if outstanding <= 0 or self._global_outstanding <= 0:
                raise AdmissionError(
                    f"release without matching admit for tenant {tenant!r}"
                )
            self._global_outstanding -= 1
            self._tenant_outstanding[tenant] = outstanding - 1

    # ------------------------------------------------------------------
    def occupancy(self) -> dict:
        """Current outstanding counts (global and per tenant)."""
        with self._lock:
            return {
                "global": self._global_outstanding,
                "tenants": dict(self._tenant_outstanding),
            }

    def snapshot(self) -> dict:
        """Occupancy + decision counters, JSON-ready."""
        admitted, shed = self._admitted, self._shed
        with self._lock:
            tenants = sorted(self._tenants_seen)
        occupancy = self.occupancy()
        per_tenant = {}
        total_admitted = 0.0
        total_shed = 0.0
        for tenant in tenants:
            t_admitted = admitted.value(tenant=tenant)
            t_shed = sum(
                shed.value(tenant=tenant, reason=reason)
                for reason in (SHED_GLOBAL, SHED_TENANT)
            )
            total_admitted += t_admitted
            total_shed += t_shed
            per_tenant[tenant] = {
                "admitted": t_admitted,
                "shed": t_shed,
                "outstanding": occupancy["tenants"].get(tenant, 0),
            }
        return {
            "global_limit": self.config.global_limit,
            "tenant_queue_depth": self.config.tenant_queue_depth,
            "outstanding": occupancy["global"],
            "admitted": total_admitted,
            "shed": total_shed,
            "shed_by_reason": {
                reason: sum(
                    shed.value(tenant=t, reason=reason) for t in tenants
                )
                for reason in (SHED_GLOBAL, SHED_TENANT)
            },
            "tenants": per_tenant,
        }
