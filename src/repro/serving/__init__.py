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

`loadgen` drives the whole stack with a seeded, skewed multi-tenant
workload and reports tail latency (p50/p95/p99), throughput scaling
across worker counts, cache hit rates, and shed counts — the
``repro serve-bench`` CLI subcommand and the serving benchmark both
run through it.
"""

from repro.serving.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionError,
    SHED_GLOBAL,
    SHED_TENANT,
)
from repro.serving.loadgen import (
    LoadConfig,
    LoadResult,
    build_schedule,
    build_tenants,
    cached_prepare_scaling,
    run_load,
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
    "LoadConfig",
    "LoadResult",
    "QueryServer",
    "SHED_GLOBAL",
    "SHED_TENANT",
    "ServedQuery",
    "ServerOverloaded",
    "ServingError",
    "TenantSpec",
    "build_schedule",
    "build_tenants",
    "cached_prepare_scaling",
    "run_load",
]
