"""Multi-tenant serving load benchmark: tail latency under contention.

Three measurements, one JSON artifact
(``benchmarks/results/BENCH_serving.json``):

1. **Load run** — the seeded generator drives ≥1000 concurrent
   prepare/execute operations across 4 tenants with a Zipf-skewed
   query/tenant mix through admission control and the execution slots,
   hot-swapping statistics archives into tenants mid-run. Records
   p50/p95/p99 latency, throughput, per-tenant cache hit rates, shed
   and retry counts — and asserts the two serving invariants: zero
   stale-epoch servings and zero cross-tenant plan servings.

2. **Overload pressure** — 8 clients into 2 slots behind tight limits,
   with the hot tenant's operations held at a gate until admission
   control has shed once: shed requests must retry to completion.

3. **Worker scaling** — warm-cache prepare-only throughput, closed-loop
   ``serve`` at 1/2/4/8 clients = workers, best of 3 per point. A
   cached prepare is pure Python under the GIL, so the curve is flat at
   best; it is asserted not to *drop* below 0.8x the 1-worker number
   (the pool hand-off ``serve`` used to pay halved it from 1 to 2).
"""

from __future__ import annotations

import json

import pytest

from benchmarks.conftest import RESULTS_DIR
from repro.serving import (
    AdmissionConfig,
    LoadConfig,
    QueryServer,
    build_tenants,
    cached_prepare_scaling,
    run_load,
)
from tests.test_serving import gate_prepares

pytestmark = pytest.mark.perf

MIN_OPERATIONS = 1000
MIN_TENANTS = 4
MIN_FLOOR_RATIO = 0.8

LOAD = LoadConfig(
    tenants=4,
    operations=1200,
    load_threads=8,
    worker_threads=4,
    seed=7,
    num_lineitem=4000,
    sample_size=96,
    execute_fraction=0.5,
    skew=1.1,
    swaps=4,
    global_limit=64,
    tenant_queue_depth=16,
)

#: Deliberately under-provisioned: 8 client threads into 2 slots
#: behind tight limits, so admission control has to shed.
PRESSURE = LoadConfig(
    tenants=4,
    operations=300,
    load_threads=8,
    worker_threads=2,
    seed=11,
    num_lineitem=4000,
    sample_size=96,
    execute_fraction=0.0,
    skew=1.3,
    global_limit=8,
    tenant_queue_depth=2,
)

SCALING = LoadConfig(
    tenants=4,
    operations=6000,
    seed=7,
    num_lineitem=4000,
    sample_size=96,
    global_limit=128,
    tenant_queue_depth=64,
)


def run_pressure() -> dict:
    """``PRESSURE`` with the hot tenant's prepares — and the execution
    slots they occupy — held at a gate until the first shed."""
    server = QueryServer(
        build_tenants(PRESSURE),
        worker_threads=PRESSURE.worker_threads,
        admission=AdmissionConfig(
            global_limit=PRESSURE.global_limit,
            tenant_queue_depth=PRESSURE.tenant_queue_depth,
        ),
    )
    with server:
        gate_prepares(server, server.tenant_names[0], until_shed=True)
        return run_load(PRESSURE, server=server).to_dict()


# ----------------------------------------------------------------------
# The benchmark
# ----------------------------------------------------------------------
def test_serving_load_benchmark():
    load = run_load(LOAD)
    report = load.to_dict()

    pressure = run_pressure()

    scaling = cached_prepare_scaling(SCALING, worker_counts=(1, 2, 4, 8))

    payload = {
        "benchmark": "serving_load",
        "load": report,
        "overload_pressure": pressure,
        "worker_scaling": scaling,
        "floors": {
            "min_operations": MIN_OPERATIONS,
            "min_tenants": MIN_TENANTS,
            "min_floor_ratio": MIN_FLOOR_RATIO,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_serving.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print(json.dumps(payload, indent=2))

    # Scale floors: ≥1000 concurrent ops across ≥4 tenants.
    ops = report["operations"]
    assert ops["requested"] >= MIN_OPERATIONS
    assert ops["completed"] + ops["shed_exhausted"] == ops["requested"]
    assert ops["failed"] == 0
    assert report["config"]["tenants"] >= MIN_TENANTS
    assert len(report["per_tenant"]) >= MIN_TENANTS

    # Tail latency is recorded and ordered.
    latency = report["latency"]
    assert 0 < latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]
    assert report["throughput_ops_per_s"] > 0

    # The serving invariants under archive hot-swap.
    assert report["swaps_performed"] == LOAD.swaps
    assert report["stale_served"] == 0
    assert report["server"]["stale_served"] == 0
    assert report["server"]["isolation"]["isolated"]
    assert report["server"]["isolation"]["violations"] == {}

    # Under deliberate overload, admission control actually shed (and
    # the retry path still landed most of the work).
    p_ops = pressure["operations"]
    assert p_ops["completed"] + p_ops["shed_exhausted"] == p_ops["requested"]
    assert pressure["server"]["admission"]["shed"] > 0
    assert p_ops["completed"] > 0

    # Worker scaling: no worker count serves cached prepares slower than
    # 0.8x the single worker, and every replayed op was a cache hit.
    assert "paced" not in scaling
    assert list(scaling["raw"]) == ["1", "2", "4", "8"]
    assert scaling["floor_ratio"] >= MIN_FLOOR_RATIO
    for slot in scaling["raw"].values():
        assert slot["cache_hit_rate"] == 1.0
