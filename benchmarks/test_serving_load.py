"""Serving worker-scaling floor: warm-cache prepare throughput.

Four tenants (4 000-row TPC-H, sample 96, seeds 7 + i) behind one
``QueryServer``. Every (tenant, query) plan is warmed first; then a
seeded Zipf-1.1 stream of 6 000 prepare-only operations over
``QUERY_BATTERY`` is replayed as a closed loop of ``serve`` calls — each
client issues its next operation when the previous one returns — at
1/2/4/8 clients = workers, best of 3 replays per point.

A cached prepare is microseconds of pure Python under the GIL, so the
curve cannot rise with workers; what it must not do is *fall*: no
worker count may serve the stream slower than 0.8x the single worker
(the pool hand-off ``serve`` used to pay halved it from 1 to 2), and
every replayed operation must be a plan-cache hit. This is wall-clock
evidence, which tier-1 cannot hold; every other serving invariant is a
tier-1 test in ``tests/test_serving.py``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.service import SessionConfig
from repro.serving import AdmissionConfig, QueryServer, TenantSpec
from repro.stats import StatisticsManager
from repro.workloads import QUERY_BATTERY, TpchConfig, build_tpch_database

pytestmark = pytest.mark.perf

TENANTS = 4
SEED = 7
OPERATIONS = 6000
SKEW = 1.1
WORKER_COUNTS = (1, 2, 4, 8)
REPLAYS = 3
MIN_FLOOR_RATIO = 0.8


def build_tenant_specs() -> list[TenantSpec]:
    """One database and its own prebuilt statistics per tenant, so every
    server in the sweep starts from the same statistics."""
    specs = []
    for i in range(TENANTS):
        database = build_tpch_database(
            TpchConfig(num_lineitem=4000, seed=SEED + i)
        )
        statistics = StatisticsManager(database)
        statistics.update_statistics(sample_size=96, seed=SEED + i)
        specs.append(
            TenantSpec(
                name=f"tenant-{i}",
                database=database,
                config=SessionConfig(sample_size=96, statistics_seed=SEED + i),
                statistics=statistics,
            )
        )
    return specs


def zipf_stream(tenant_names) -> list[tuple[str, str]]:
    """The seeded ``(tenant, sql)`` stream: Zipf-skewed over tenants and
    over the query battery."""
    rng = np.random.default_rng(SEED)
    queries = list(QUERY_BATTERY.values())

    def zipf(n: int) -> np.ndarray:
        weights = 1.0 / np.arange(1, n + 1, dtype=float) ** SKEW
        return weights / weights.sum()

    n_tenants, n_queries = len(tenant_names), len(queries)
    tenants = rng.choice(n_tenants, size=OPERATIONS, p=zipf(n_tenants))
    picks = rng.choice(n_queries, size=OPERATIONS, p=zipf(n_queries))
    return [(tenant_names[t], queries[q]) for t, q in zip(tenants, picks)]


def replay(server: QueryServer, stream, clients: int) -> tuple[float, int]:
    """One closed-loop pass over ``stream`` split across ``clients``
    threads: wall seconds and plan-cache hits."""
    hits = [0] * clients
    barrier = threading.Barrier(clients + 1)

    def client(number: int) -> None:
        barrier.wait()
        for tenant, sql in stream[number::clients]:
            hits[number] += server.serve(tenant, sql, execute=False).plan_cached

    threads = [
        threading.Thread(target=client, args=(n,), daemon=True)
        for n in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started, sum(hits)


def test_cached_prepare_worker_scaling_floor():
    specs = build_tenant_specs()
    stream = zipf_stream([spec.name for spec in specs])
    rates = {}
    for workers in WORKER_COUNTS:
        server = QueryServer(
            specs,
            worker_threads=workers,
            # Roomy enough that no replayed operation is ever shed.
            admission=AdmissionConfig(global_limit=128, tenant_queue_depth=64),
        )
        with server:
            for tenant in server.tenant_names:
                for sql in QUERY_BATTERY.values():
                    server.serve(tenant, sql, execute=False)
            replays = [replay(server, stream, workers) for _ in range(REPLAYS)]
        for _, hits in replays:
            assert hits == len(stream), f"{workers} workers: a replayed op missed"
        rates[workers] = len(stream) / min(seconds for seconds, _ in replays)
        print(f"{workers} workers: {rates[workers]:.0f} ops/s")

    floor_ratio = min(rates.values()) / rates[1]
    print(f"floor_ratio {floor_ratio:.2f}")
    assert floor_ratio >= MIN_FLOOR_RATIO
