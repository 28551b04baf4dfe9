"""Concurrent multi-tenant serving over the session facade.

The serving layer is what turns the repository's single-session query
service into something shaped like a deployment: N tenants, each with
an isolated :class:`~repro.service.Session` bound to its own
statistics, fronted by admission control (bounded per-tenant queues +
a global concurrency limit with shed-and-retry semantics) and a bound
on running operations, each run by ``QueryServer.serve`` on its
caller's thread. Statistics archives hot-swap into live tenants without
serving a single stale or cross-tenant plan — the server tracks the
evidence (per-tenant served-version ledgers, a stale-serving counter)
so the claim is checked at runtime, not just argued in comments.
``examples/multi_tenant_serving.py`` runs two tenants through it.
"""

from repro.serving.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionError,
    SHED_GLOBAL,
    SHED_TENANT,
)
from repro.serving.server import (
    QueryServer,
    ServedQuery,
    ServerOverloaded,
    ServingError,
    TenantSpec,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionError",
    "QueryServer",
    "SHED_GLOBAL",
    "SHED_TENANT",
    "ServedQuery",
    "ServerOverloaded",
    "ServingError",
    "TenantSpec",
]
