"""A seeded multi-tenant load generator with tail-latency reporting.

Drives a :class:`~repro.serving.server.QueryServer` the way a fleet of
clients would: a fixed, seed-reproducible schedule of operations —
skewed across tenants (one hot tenant, Zipf-style) and across the
TPC-H query battery — submitted from many client threads through the
blocking shed-and-retry path, optionally with statistics archives
hot-swapped into tenants mid-run. Everything the run observed comes
back in one JSON-ready :class:`LoadResult`: p50/p95/p99 latency,
throughput, per-tenant plan-cache hit rates, admission shed/retry
counts, the cross-tenant isolation report, and the stale-serving
counter (which must be 0).

The schedule is generated up front from one ``numpy`` generator, so
two runs with the same :class:`LoadConfig` issue byte-identical
operation streams — the only nondeterminism left is thread scheduling,
which is exactly what the benchmark is probing.

:func:`cached_prepare_scaling` is the companion microbenchmark: it
replays a fully-warmed prepare-only stream as a closed loop of
``serve`` calls at several client = worker counts and reports
throughput per count. A cached prepare is microseconds of pure Python
under the GIL, so the curve cannot rise with workers; what it must not
do is *fall* (the pool hand-off this layer used to pay halved it from
one worker to two).
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.selection import resolve_policy
from repro.serving.admission import AdmissionConfig
from repro.serving.server import (
    QueryServer,
    ServedQuery,
    ServerOverloaded,
    TenantSpec,
)
from repro.service import SessionConfig
from repro.stats import StatisticsManager
from repro.workloads import QUERY_BATTERY, TpchConfig, build_tpch_database


@dataclass(frozen=True)
class LoadConfig:
    """One reproducible load-test scenario."""

    #: Number of tenants (each gets its own database + session).
    tenants: int = 4
    #: Total operations across all tenants.
    operations: int = 1000
    #: Client threads submitting through ``serve``.
    load_threads: int = 8
    #: Operations the server runs at once.
    worker_threads: int = 4
    #: Seed for databases, statistics, and the operation schedule.
    seed: int = 7
    #: Rows in each tenant's lineitem table.
    num_lineitem: int = 4000
    #: Statistics sample size per tenant.
    sample_size: int = 96
    #: Fraction of operations that execute (the rest prepare only).
    execute_fraction: float = 0.5
    #: Zipf-style skew exponent over the query battery and tenants
    #: (0 = uniform; higher = hotter head).
    skew: float = 1.1
    #: Statistics hot-swaps spread across the run (0 disables).
    swaps: int = 0
    #: Admission limits.
    global_limit: int = 64
    tenant_queue_depth: int = 16
    #: Default selection policy for every tenant session (a
    #: :class:`~repro.selection.SelectionPolicy` or spec string like
    #: ``"cvar:0.9"``; ``None`` keeps the session default).
    policy: object = None

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ValueError(f"tenants must be >= 1, got {self.tenants}")
        if self.operations < 1:
            raise ValueError(
                f"operations must be >= 1, got {self.operations}"
            )
        if self.load_threads < 1:
            raise ValueError(
                f"load_threads must be >= 1, got {self.load_threads}"
            )
        if self.policy is not None:
            # Normalize to the round-trippable spec string so the
            # config stays hashable and ``asdict`` stays JSON-ready.
            object.__setattr__(
                self, "policy", resolve_policy(self.policy).spec()
            )


@dataclass
class LoadResult:
    """Everything one load run observed, JSON-ready via :meth:`to_dict`."""

    config: LoadConfig
    completed: list[ServedQuery]
    #: Operations that exhausted their shed-and-retry budget.
    shed_exhausted: int
    #: Operations that raised inside the worker.
    failed: int
    wall_seconds: float
    swaps_performed: int
    server_stats: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def latencies(self) -> np.ndarray:
        return np.array(
            [op.latency_seconds for op in self.completed], dtype=float
        )

    def percentiles(self) -> dict:
        """p50/p95/p99 (plus mean and max) latency in milliseconds."""
        if not self.completed:
            return {k: 0.0 for k in ("p50_ms", "p95_ms", "p99_ms",
                                     "mean_ms", "max_ms")}
        lat = self.latencies * 1000.0
        p50, p95, p99 = np.percentile(lat, [50, 95, 99])
        return {
            "p50_ms": float(p50),
            "p95_ms": float(p95),
            "p99_ms": float(p99),
            "mean_ms": float(lat.mean()),
            "max_ms": float(lat.max()),
        }

    @property
    def throughput(self) -> float:
        """Completed operations per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.completed) / self.wall_seconds

    @property
    def stale_served(self) -> int:
        return sum(1 for op in self.completed if op.stale)

    def per_tenant(self) -> dict:
        out: dict[str, dict] = {}
        for op in self.completed:
            slot = out.setdefault(
                op.tenant,
                {"completed": 0, "cache_hits": 0, "degraded": 0,
                 "latencies": []},
            )
            slot["completed"] += 1
            slot["cache_hits"] += int(op.plan_cached)
            slot["degraded"] += int(op.degraded_reason is not None)
            slot["latencies"].append(op.latency_seconds)
        report = {}
        for tenant, slot in sorted(out.items()):
            lat = np.array(slot["latencies"]) * 1000.0
            report[tenant] = {
                "completed": slot["completed"],
                "cache_hit_rate": slot["cache_hits"] / slot["completed"],
                "degraded": slot["degraded"],
                "p50_ms": float(np.percentile(lat, 50)),
                "p99_ms": float(np.percentile(lat, 99)),
            }
        return report

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "operations": {
                "requested": self.config.operations,
                "completed": len(self.completed),
                "shed_exhausted": self.shed_exhausted,
                "failed": self.failed,
            },
            "latency": self.percentiles(),
            "throughput_ops_per_s": self.throughput,
            "wall_seconds": self.wall_seconds,
            "stale_served": self.stale_served,
            "swaps_performed": self.swaps_performed,
            "per_tenant": self.per_tenant(),
            "server": self.server_stats,
        }


# ----------------------------------------------------------------------
# Schedule generation
# ----------------------------------------------------------------------
def _zipf_weights(n: int, skew: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=float) ** skew
    return weights / weights.sum()


def build_schedule(config: LoadConfig, tenant_names) -> list[tuple]:
    """The full seeded op stream: ``(tenant, sql, execute)`` triples."""
    rng = np.random.default_rng(config.seed)
    queries = list(QUERY_BATTERY.values())
    tenant_weights = _zipf_weights(len(tenant_names), config.skew)
    query_weights = _zipf_weights(len(queries), config.skew)
    tenant_picks = rng.choice(
        len(tenant_names), size=config.operations, p=tenant_weights
    )
    query_picks = rng.choice(
        len(queries), size=config.operations, p=query_weights
    )
    executes = rng.random(config.operations) < config.execute_fraction
    return [
        (tenant_names[t], queries[q], bool(e))
        for t, q, e in zip(tenant_picks, query_picks, executes)
    ]


def build_tenants(
    config: LoadConfig, prebuild_statistics: bool = False
) -> list[TenantSpec]:
    """One database + session config per tenant, seeds all distinct.

    ``prebuild_statistics`` builds each tenant's statistics manager up
    front (every tenant gets its *own* manager — sharing one would
    collapse the per-tenant version sets the isolation proof rests
    on); useful when the same specs seed several servers in a row.
    """
    specs = []
    for i in range(config.tenants):
        database = build_tpch_database(
            TpchConfig(
                num_lineitem=config.num_lineitem, seed=config.seed + i
            )
        )
        statistics = None
        if prebuild_statistics:
            statistics = StatisticsManager(database)
            statistics.update_statistics(
                sample_size=config.sample_size, seed=config.seed + i
            )
        specs.append(
            TenantSpec(
                name=f"tenant-{i}",
                database=database,
                config=SessionConfig(
                    sample_size=config.sample_size,
                    statistics_seed=config.seed + i,
                    policy=config.policy,
                ),
                statistics=statistics,
            )
        )
    return specs


# ----------------------------------------------------------------------
# The load driver
# ----------------------------------------------------------------------
def run_load(
    config: LoadConfig, server: QueryServer | None = None
) -> LoadResult:
    """Run one seeded load scenario; returns the full observation set.

    Builds the tenants and server from ``config`` unless an existing
    ``server`` is passed (the swap-under-load test injects its own).
    Client threads split the schedule round-robin and submit through
    the blocking retry path; when ``config.swaps > 0`` a swapper thread
    hot-attaches fresh statistics managers to rotating tenants, spread
    across the run.
    """
    own_server = server is None
    if own_server:
        server = QueryServer(
            build_tenants(config),
            worker_threads=config.worker_threads,
            admission=AdmissionConfig(
                global_limit=config.global_limit,
                tenant_queue_depth=config.tenant_queue_depth,
            ),
        )
    schedule = build_schedule(config, server.tenant_names)

    completed: list[ServedQuery] = []
    shed_exhausted = 0
    failed = 0
    progress = 0
    # Guards the ledger; the swapper waits on it for progress.
    ledger_lock = threading.Condition()

    def client(offset: int) -> None:
        nonlocal shed_exhausted, failed, progress
        for index in range(offset, len(schedule), config.load_threads):
            tenant, sql, execute = schedule[index]
            try:
                served = server.serve(tenant, sql, execute=execute)
            except ServerOverloaded:
                with ledger_lock:
                    shed_exhausted += 1
                    progress += 1
                    ledger_lock.notify_all()
                continue
            except Exception:
                with ledger_lock:
                    failed += 1
                    progress += 1
                    ledger_lock.notify_all()
                continue
            with ledger_lock:
                completed.append(served)
                progress += 1
                ledger_lock.notify_all()

    swaps_performed = 0
    clients_done = False

    def swapper() -> None:
        """Hot-swap fresh statistics into rotating tenants, paced by
        overall progress so swaps land mid-traffic at any run speed."""
        nonlocal swaps_performed
        names = server.tenant_names
        swap_rng = np.random.default_rng(config.seed + 1000)
        for swap_index in range(config.swaps):
            target_ops = (
                (swap_index + 1) * len(schedule) // (config.swaps + 1)
            )
            with ledger_lock:
                # If the run ended early the swap is still performed, so
                # swaps_performed is deterministic per config.
                ledger_lock.wait_for(
                    lambda: progress >= target_ops or clients_done
                )
            tenant = names[swap_index % len(names)]
            fresh = StatisticsManager(server.session(tenant).database)
            fresh.update_statistics(
                sample_size=config.sample_size,
                seed=int(swap_rng.integers(1, 1_000_000)),
            )
            server.swap_statistics(tenant, fresh)
            swaps_performed += 1

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(config.load_threads)
    ]
    swap_thread = None
    if config.swaps > 0:
        swap_thread = threading.Thread(target=swapper, daemon=True)

    started = time.perf_counter()
    for thread in threads:
        thread.start()
    if swap_thread is not None:
        swap_thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    with ledger_lock:
        clients_done = True
        ledger_lock.notify_all()
    if swap_thread is not None:
        swap_thread.join()

    result = LoadResult(
        config=config,
        completed=completed,
        shed_exhausted=shed_exhausted,
        failed=failed,
        wall_seconds=wall,
        swaps_performed=swaps_performed,
        server_stats=server.stats(),
    )
    if own_server:
        server.close()
    return result


# ----------------------------------------------------------------------
# Throughput scaling with workers
# ----------------------------------------------------------------------
_REPLAYS = 3


def _replay(server: QueryServer, stream, clients: int) -> tuple[float, int]:
    """One closed-loop prepare-only pass over ``stream`` split across
    ``clients`` threads: wall seconds and plan-cache hits."""
    hits = [0] * clients
    barrier = threading.Barrier(clients + 1)

    def client(number: int) -> None:
        barrier.wait()
        for tenant, sql in stream[number::clients]:
            served = server.serve(tenant, sql, execute=False)
            hits[number] += served.plan_cached

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


def cached_prepare_scaling(
    config: LoadConfig,
    worker_counts=(1, 2, 4, 8),
    operations: int | None = None,
) -> dict:
    """Warm-cache prepare throughput at several client = worker counts.

    For each count: build a fresh server over the same seeded tenants,
    warm every (tenant, query) plan once, then have that many client
    threads replay a prepare-only stream through ``serve`` — a closed
    loop, each client issuing its next operation when the previous one
    returns — and record completed ops per second, best of
    ``_REPLAYS`` replays. ``floor_ratio`` is the slowest point over the first: a
    serving stack that serializes or hands off shows up as a drop.
    """
    ops = operations or config.operations
    tenants = build_tenants(config, prebuild_statistics=True)
    raw: dict = {}
    for workers in worker_counts:
        server = QueryServer(
            tenants,
            worker_threads=workers,
            admission=AdmissionConfig(
                global_limit=max(config.global_limit, workers),
                tenant_queue_depth=max(config.tenant_queue_depth, workers),
            ),
        )
        with server:
            stream = [
                (tenant, sql)
                for tenant, sql, _ in build_schedule(
                    config, server.tenant_names
                )[:ops]
            ]
            # Warm every plan so the replay is all cache hits.
            for tenant in server.tenant_names:
                for sql in QUERY_BATTERY.values():
                    server.serve(tenant, sql, execute=False)
            replays = [_replay(server, stream, workers) for _ in range(_REPLAYS)]
        elapsed = min(seconds for seconds, _ in replays)
        raw[str(workers)] = {
            "ops_per_s": len(stream) / elapsed,
            "wall_seconds": elapsed,
            "cache_hit_rate": min(hits for _, hits in replays) / len(stream),
        }
    rates = [slot["ops_per_s"] for slot in raw.values()]
    return {
        "worker_counts": list(worker_counts),
        "operations": ops,
        "raw": raw,
        "raw_speedup": rates[-1] / rates[0],
        "floor_ratio": min(rates) / rates[0],
    }
