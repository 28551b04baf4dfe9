"""Tests for the multi-tenant serving layer.

Covers admission control (both limits, shed reasons, release pairing),
the server (``serve`` on the caller's thread, the execution-slot bound,
sheds, errors, metrics, retry backoff, close), the seeded load generator
(deterministic schedules, percentile accounting), and the headline
concurrency claim: archives hot-swapped into tenants *under live load*
never produce a stale serving or a cross-tenant plan — asserted from
the server's own runtime evidence (version ledgers + stale counter),
not from code inspection.
"""

import sys
import threading
import time

import pytest

from repro.service import SessionConfig, SessionError
from repro.serving import (
    AdmissionConfig,
    AdmissionController,
    AdmissionError,
    LoadConfig,
    QueryServer,
    SHED_GLOBAL,
    SHED_TENANT,
    ServerOverloaded,
    ServingError,
    TenantSpec,
    build_schedule,
    run_load,
)
from repro.stats import StatisticsManager
from repro.workloads import QUERY_BATTERY, TpchConfig, build_tpch_database

QUERY = "SELECT COUNT(*) FROM lineitem WHERE lineitem.l_quantity > 45"


@pytest.fixture(scope="module")
def tenant_dbs():
    return [
        build_tpch_database(TpchConfig(num_lineitem=1500, seed=20 + i))
        for i in range(2)
    ]


@pytest.fixture(scope="module")
def tenant_specs(tenant_dbs):
    return [
        TenantSpec(
            name=f"tenant-{i}",
            database=db,
            config=SessionConfig(sample_size=48, statistics_seed=20 + i),
        )
        for i, db in enumerate(tenant_dbs)
    ]


def make_server(tenant_specs, **kwargs):
    kwargs.setdefault("worker_threads", 2)
    return QueryServer(tenant_specs, **kwargs)


def admitted(server, tenant, count):
    """Wait until ``count`` operations of ``tenant`` hold admission."""
    deadline = time.monotonic() + 10
    while server.admission.occupancy()["tenants"].get(tenant, 0) < count:
        assert time.monotonic() < deadline, "operations never admitted"
        time.sleep(0.001)


def serve_in_thread(server, *args, **kwargs):
    """Start ``server.serve(*args, **kwargs)`` on a client thread; the
    returned thread's ``outcome`` list gets the reply or the exception."""
    outcome = []

    def client():
        try:
            outcome.append(server.serve(*args, **kwargs))
        except Exception as exc:
            outcome.append(exc)

    thread = threading.Thread(target=client)
    thread.outcome = outcome
    thread.start()
    return thread


def gate_prepares(server, tenant, until_shed=False):
    """Hold every prepare of ``tenant`` — and with it an execution slot
    — at the returned event. ``until_shed`` opens it at the first shed.
    """
    gate = threading.Event()
    session = server.session(tenant)
    prepare = session.prepare

    def gated_prepare(*args, **kwargs):
        assert gate.wait(timeout=10), "gate never opened"
        return prepare(*args, **kwargs)

    session.prepare = gated_prepare
    if until_shed:
        try_admit = server.admission.try_admit

        def observed_admit(name):
            reason = try_admit(name)
            if reason is not None:
                gate.set()
            return reason

        server.admission.try_admit = observed_admit
    return gate


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_config_validated(self):
        with pytest.raises(AdmissionError, match="global_limit"):
            AdmissionConfig(global_limit=0)
        with pytest.raises(AdmissionError, match="tenant_queue_depth"):
            AdmissionConfig(tenant_queue_depth=-1)

    def test_tenant_queue_binds_first(self):
        ctl = AdmissionController(
            AdmissionConfig(global_limit=10, tenant_queue_depth=2)
        )
        assert ctl.try_admit("a") is None
        assert ctl.try_admit("a") is None
        assert ctl.try_admit("a") == SHED_TENANT
        # Another tenant still has room: the bound is per tenant.
        assert ctl.try_admit("b") is None

    def test_global_limit_binds_across_tenants(self):
        ctl = AdmissionController(
            AdmissionConfig(global_limit=3, tenant_queue_depth=10)
        )
        assert ctl.try_admit("a") is None
        assert ctl.try_admit("b") is None
        assert ctl.try_admit("c") is None
        assert ctl.try_admit("d") == SHED_GLOBAL

    def test_release_reopens_capacity(self):
        ctl = AdmissionController(
            AdmissionConfig(global_limit=1, tenant_queue_depth=1)
        )
        assert ctl.try_admit("a") is None
        assert ctl.try_admit("a") == SHED_TENANT
        ctl.release("a")
        assert ctl.try_admit("a") is None

    def test_unpaired_release_raises(self):
        ctl = AdmissionController()
        with pytest.raises(AdmissionError, match="without matching admit"):
            ctl.release("ghost")

    def test_metrics_and_snapshot(self):
        ctl = AdmissionController(
            AdmissionConfig(global_limit=4, tenant_queue_depth=1)
        )
        assert ctl.try_admit("a") is None
        assert ctl.try_admit("a") == SHED_TENANT
        assert ctl.try_admit("b") is None
        snap = ctl.snapshot()
        assert snap["admitted"] == 2
        assert snap["shed"] == 1
        assert snap["shed_by_reason"][SHED_TENANT] == 1
        assert snap["shed_by_reason"][SHED_GLOBAL] == 0
        assert snap["tenants"]["a"] == {
            "admitted": 1, "shed": 1, "outstanding": 1,
        }
        assert snap["outstanding"] == 2

    def test_decisions_atomic_under_contention(self):
        """Concurrent admits never exceed either limit."""
        ctl = AdmissionController(
            AdmissionConfig(global_limit=8, tenant_queue_depth=3)
        )
        peak = []
        peak_lock = threading.Lock()

        def worker(tenant):
            for _ in range(300):
                if ctl.try_admit(tenant) is None:
                    occ = ctl.occupancy()
                    with peak_lock:
                        peak.append(
                            (occ["global"], occ["tenants"][tenant])
                        )
                    ctl.release(tenant)

        threads = [
            threading.Thread(target=worker, args=(f"t{i % 3}",))
            for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert peak
        assert max(g for g, _ in peak) <= 8
        assert max(t for _, t in peak) <= 3
        assert ctl.occupancy()["global"] == 0


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------
class TestQueryServer:
    def test_rejects_bad_config(self, tenant_specs):
        with pytest.raises(ServingError, match="at least one tenant"):
            QueryServer([])
        with pytest.raises(ServingError, match="duplicate"):
            QueryServer([tenant_specs[0], tenant_specs[0]])
        with pytest.raises(ServingError, match="worker_threads"):
            QueryServer(tenant_specs, worker_threads=0)

    def test_unknown_tenant(self, tenant_specs):
        with make_server(tenant_specs) as server:
            with pytest.raises(ServingError, match="unknown tenant"):
                server.serve("nobody", QUERY)
            assert server.admission.occupancy()["global"] == 0

    def test_execute_round_trip(self, tenant_specs):
        with make_server(tenant_specs) as server:
            session = server.session("tenant-0")
            prepare = session.prepare
            ran_on = []

            def recording_prepare(*args, **kwargs):
                ran_on.append(threading.current_thread())
                return prepare(*args, **kwargs)

            session.prepare = recording_prepare
            served = server.serve("tenant-0", QUERY)
            assert ran_on == [threading.current_thread()]
            assert served.tenant == "tenant-0"
            assert served.rows == 1
            assert served.statistics_version > 0
            assert not served.stale
            assert served.latency_seconds > 0
            # Second serving of the same statement is a plan-cache hit.
            again = server.serve("tenant-0", QUERY)
            assert again.plan_cached

    def test_exact_tenant_serves_under_its_policy(self, tenant_dbs):
        spec = TenantSpec(
            "oracle", tenant_dbs[0], config=SessionConfig(policy="exact")
        )
        with make_server([spec]) as server:
            served = server.serve("oracle", QUERY, policy="exact")
            assert served.rows == 1
            assert served.statistics_version == 0
            assert not served.stale
            assert server.serve("oracle", QUERY).plan_cached
            # A mismatched per-call policy is an error here as anywhere.
            with pytest.raises(SessionError, match="robust"):
                server.serve("oracle", QUERY, policy="threshold:0.9")
            assert server.admission.occupancy()["global"] == 0

    def test_prepare_only(self, tenant_specs):
        with make_server(tenant_specs) as server:
            served = server.serve("tenant-0", QUERY, execute=False)
            assert served.rows is None
            assert served.simulated_seconds == 0.0

    def test_per_tenant_sessions_are_isolated_objects(self, tenant_specs):
        with make_server(tenant_specs) as server:
            s0 = server.session("tenant-0")
            s1 = server.session("tenant-1")
            assert s0 is not s1
            assert s0.plan_cache is not s1.plan_cache
            assert s0.metrics is not s1.metrics

    def test_serve_sheds_when_saturated(self, tenant_specs):
        server = make_server(
            tenant_specs,
            worker_threads=1,
            admission=AdmissionConfig(global_limit=2, tenant_queue_depth=2),
        )
        with server:
            # Two clients fill the tenant's queue: one holds the only
            # slot at the gate, the other waits for it.
            gate = gate_prepares(server, "tenant-0")
            clients = [
                serve_in_thread(server, "tenant-0", QUERY, execute=False)
                for _ in range(2)
            ]
            admitted(server, "tenant-0", 2)
            with pytest.raises(ServerOverloaded) as excinfo:
                server.serve("tenant-0", QUERY, execute=False, max_retries=0)
            assert excinfo.value.tenant == "tenant-0"
            assert excinfo.value.reason == SHED_TENANT
            shed = server.metrics.counter(
                "repro_serving_shed_total",
                "Operations shed by admission control, "
                "by tenant and binding limit.",
            )
            assert shed.value(tenant="tenant-0", reason=SHED_TENANT) == 1
            gate.set()
            for client in clients:
                client.join(timeout=10)
                assert not client.is_alive()
                assert [reply.tenant for reply in client.outcome] == ["tenant-0"]

    def test_serve_retries_through_sheds(self, tenant_specs):
        server = make_server(
            tenant_specs,
            worker_threads=1,
            admission=AdmissionConfig(global_limit=1, tenant_queue_depth=1),
        )
        with server:
            # The first client in holds the only slot until another
            # has been shed.
            gate_prepares(server, "tenant-0", until_shed=True)
            results = []
            errors = []

            def client():
                try:
                    results.append(
                        server.serve("tenant-0", QUERY, execute=False)
                    )
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [threading.Thread(target=client) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert len(results) == 6
            retries = server.metrics.counter(
                "repro_serving_retries_total",
                "Resubmissions after an admission shed, by tenant.",
            )
            # With limit 1 and 6 concurrent clients, some must have
            # been shed and retried rather than failed.
            assert retries.value(tenant="tenant-0") > 0

    def test_worker_errors_propagate_and_release(self, tenant_specs):
        with make_server(tenant_specs) as server:
            client = serve_in_thread(server, "tenant-0", "SELECT nope FROM nowhere")
            client.join(timeout=10)
            assert not client.is_alive()
            [error] = client.outcome
            assert isinstance(error, Exception) and "nowhere" in str(error)
            errors = server.metrics.counter(
                "repro_serving_errors_total",
                "Operations that raised inside the worker, by tenant.",
            )
            assert errors.value(tenant="tenant-0") == 1
            # The slot was released: the server still serves.
            assert server.admission.occupancy()["global"] == 0
            assert server.serve("tenant-0", QUERY).rows == 1

    def test_closed_server_refuses(self, tenant_specs):
        server = make_server(tenant_specs)
        server.close()
        with pytest.raises(ServingError, match="closed"):
            server.serve("tenant-0", QUERY)
        assert server.admission.occupancy()["global"] == 0

    def test_stats_schema(self, tenant_specs):
        with make_server(tenant_specs) as server:
            server.serve("tenant-0", QUERY)
            stats = server.stats()
            assert stats["stale_served"] == 0
            assert stats["isolation"]["isolated"]
            assert stats["admission"]["admitted"] == 1
            assert set(stats["tenants"]) == {"tenant-0", "tenant-1"}
            tenant = stats["tenants"]["tenant-0"]
            assert tenant["statistics_version"] > 0
            assert tenant["health"] == "healthy"
            assert "hit_rate" in tenant["plan_cache"]


# ----------------------------------------------------------------------
# Caller-thread serving and the execution-slot bound
# ----------------------------------------------------------------------
class TestCallerThreadServing:
    def test_at_most_worker_threads_operations_run_at_once(
        self, tenant_specs
    ):
        """6 client threads on ``serve`` into 2 slots."""
        running = peak = 0
        counter = threading.Lock()
        errors = []

        def instrument(session):
            prepare = session.prepare

            def counted_prepare(*args, **kwargs):
                nonlocal running, peak
                with counter:
                    running += 1
                    peak = max(peak, running)
                try:
                    time.sleep(0.001)  # widen the overlap window
                    return prepare(*args, **kwargs)
                finally:
                    with counter:
                        running -= 1

            session.prepare = counted_prepare

        def client(server, index):
            tenant = f"tenant-{index % 2}"
            try:
                for _ in range(15):
                    server.serve(tenant, QUERY, execute=False)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with make_server(tenant_specs, worker_threads=2) as server:
                for name in server.tenant_names:
                    instrument(server.session(name))
                threads = [
                    threading.Thread(target=client, args=(server, i))
                    for i in range(6)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert server.admission.occupancy()["global"] == 0
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert peak == 2  # reached the bound, never passed it

    def test_caller_thread_error_releases_admission_and_slot(
        self, tenant_specs
    ):
        with make_server(tenant_specs, worker_threads=1) as server:
            with pytest.raises(Exception, match="nowhere"):
                server.serve("tenant-0", "SELECT nope FROM nowhere")
            errors = server.metrics.counter(
                "repro_serving_errors_total",
                "Operations that raised inside the worker, by tenant.",
            )
            assert errors.value(tenant="tenant-0") == 1
            assert server.admission.occupancy() == {
                "global": 0, "tenants": {"tenant-0": 0},
            }
            # A leaked slot (there is only one) would hang this client.
            client = serve_in_thread(server, "tenant-0", QUERY)
            client.join(timeout=10)
            assert not client.is_alive()
            assert [reply.rows for reply in client.outcome] == [1]

    def test_close_waits_for_caller_thread_operations(self, tenant_specs):
        server = make_server(tenant_specs)
        session = server.session("tenant-0")
        prepare = session.prepare
        entered = threading.Event()
        gate = threading.Event()

        def gated_prepare(*args, **kwargs):
            entered.set()
            assert gate.wait(timeout=10), "gate never opened"
            return prepare(*args, **kwargs)

        session.prepare = gated_prepare
        replies = []
        client = threading.Thread(
            target=lambda: replies.append(server.serve("tenant-0", QUERY))
        )
        client.start()
        assert entered.wait(timeout=5)
        closer = threading.Thread(target=server.close)
        closer.start()
        closer.join(timeout=0.2)
        assert closer.is_alive()  # an operation is still in flight
        gate.set()
        client.join(timeout=10)
        closer.join(timeout=10)
        assert not client.is_alive() and not closer.is_alive()
        # The session was still open while the operation ran.
        assert [reply.rows for reply in replies] == [1]
        with pytest.raises(ServingError, match="closed"):
            server.serve("tenant-0", QUERY)

    def test_admitted_before_close_is_refused_after_it(self, tenant_specs):
        server = make_server(tenant_specs)
        # Admitted, but close() wins the race to the execution slots.
        op = server._admit("tenant-0", QUERY, None, True)
        server.close()
        with pytest.raises(ServingError, match="closed"):
            server._run(op)
        assert server.admission.occupancy()["global"] == 0

    def test_warm_statement_is_fingerprinted_once(
        self, tenant_specs, monkeypatch
    ):
        import repro.service.session as session_module
        from repro.sql import parse_query

        calls = []
        fingerprint = session_module.query_fingerprint

        def counting(query):
            calls.append(query)
            return fingerprint(query)

        monkeypatch.setattr(session_module, "query_fingerprint", counting)
        statements = list(QUERY_BATTERY.values())[:3]
        with make_server(tenant_specs) as server:
            for _ in range(5):
                for sql in statements:
                    server.serve("tenant-0", sql, execute=False)
            assert len(calls) == len(statements)
            # An SPJQuery handed in directly is memoized the same way.
            session = server.session("tenant-0")
            query = parse_query(QUERY, session.database)
            handles = [session.prepare(query) for _ in range(4)]
            assert len(calls) == len(statements) + 1
            assert len({handle.fingerprint for handle in handles}) == 1
            assert handles[0].fingerprint == fingerprint(query)


# ----------------------------------------------------------------------
# Statistics hot-swap under load (the headline invariant)
# ----------------------------------------------------------------------
class TestSwapUnderLoad:
    def test_swap_bumps_floor_and_serves_fresh(self, tenant_dbs,
                                               tenant_specs):
        with make_server(tenant_specs) as server:
            before = server.serve("tenant-0", QUERY)
            fresh = StatisticsManager(tenant_dbs[0])
            fresh.update_statistics(sample_size=48, seed=999)
            version = server.swap_statistics("tenant-0", fresh)
            assert version > before.statistics_version
            after = server.serve("tenant-0", QUERY)
            assert after.statistics_version == version
            assert not after.plan_cached  # new version, structurally new key
            assert not after.stale

    def test_no_stale_or_cross_tenant_servings_under_swap_load(
        self, tenant_dbs, tenant_specs
    ):
        """Hot-swap archives into both tenants while 4 client threads
        hammer them: zero stale servings, zero cross-tenant versions.
        """
        server = make_server(
            tenant_specs,
            worker_threads=4,
            admission=AdmissionConfig(global_limit=32,
                                      tenant_queue_depth=16),
        )
        with server:
            stop = threading.Event()
            served = []
            errors = []
            ledger = threading.Lock()
            queries = list(QUERY_BATTERY.values())

            def client(index):
                tenant = f"tenant-{index % 2}"
                i = 0
                while not stop.is_set():
                    sql = queries[(index + i) % len(queries)]
                    try:
                        result = server.serve(
                            tenant, sql, execute=bool(i % 2)
                        )
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)
                        return
                    with ledger:
                        served.append(result)
                    i += 1

            threads = [
                threading.Thread(target=client, args=(i,), daemon=True)
                for i in range(4)
            ]
            for t in threads:
                t.start()
            swapped = {"tenant-0": [], "tenant-1": []}
            for round_index in range(3):
                for index, db in enumerate(tenant_dbs):
                    tenant = f"tenant-{index}"
                    fresh = StatisticsManager(db)
                    fresh.update_statistics(
                        sample_size=48, seed=1000 + 10 * round_index + index
                    )
                    swapped[tenant].append(
                        server.swap_statistics(tenant, fresh)
                    )
                    time.sleep(0.02)
            stop.set()
            for t in threads:
                t.join()
            assert not errors
            assert len(served) > 20

            # 1. Zero stale servings: no op completed below the version
            # floor in force when it was admitted.
            assert all(not op.stale for op in served)
            stale = server.metrics.counter(
                "repro_serving_stale_served_total",
                "Operations served below their tenant's statistics "
                "version floor (must stay 0).",
            )
            assert sum(
                stale.value(tenant=t) for t in server.tenant_names
            ) == 0

            # 2. Zero cross-tenant servings: the version sets are
            # disjoint, so no plan-cache entry crossed a tenant.
            report = server.isolation_report()
            assert report["isolated"], report["violations"]
            assert report["violations"] == {}

            # 3. Every swapped-in version actually went live, and the
            # final servings ran at each tenant's last version.
            for tenant, versions in swapped.items():
                tail = [
                    op.statistics_version
                    for op in served if op.tenant == tenant
                ]
                assert tail, f"no servings recorded for {tenant}"
                assert max(tail) == versions[-1]

            # 4. Swap traffic was really concurrent with serving: some
            # operations were served under pre-swap versions too.
            for tenant, versions in swapped.items():
                tenant_versions = {
                    op.statistics_version
                    for op in served if op.tenant == tenant
                }
                assert len(tenant_versions) >= 2


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------
class TestLoadGenerator:
    def test_schedule_is_deterministic(self):
        config = LoadConfig(tenants=3, operations=200)
        names = ["a", "b", "c"]
        first = build_schedule(config, names)
        second = build_schedule(config, names)
        assert first == second
        assert len(first) == 200
        assert {t for t, _, _ in first} == set(names)

    def test_schedule_is_skewed(self):
        config = LoadConfig(tenants=4, operations=2000, skew=1.2)
        names = ["a", "b", "c", "d"]
        schedule = build_schedule(config, names)
        counts = {n: 0 for n in names}
        for tenant, _, _ in schedule:
            counts[tenant] += 1
        assert counts["a"] > counts["d"] * 2  # hot tenant dominates

    def test_config_validated(self):
        with pytest.raises(ValueError, match="tenants"):
            LoadConfig(tenants=0)
        with pytest.raises(ValueError, match="operations"):
            LoadConfig(operations=0)

    def test_small_run_end_to_end(self):
        config = LoadConfig(
            tenants=2, operations=40, load_threads=4, worker_threads=2,
            num_lineitem=1200, sample_size=48, swaps=1,
        )
        result = run_load(config)
        report = result.to_dict()
        ops = report["operations"]
        assert ops["completed"] + ops["shed_exhausted"] == 40
        assert ops["failed"] == 0
        assert report["stale_served"] == 0
        assert report["swaps_performed"] == 1
        assert report["server"]["isolation"]["isolated"]
        latency = report["latency"]
        assert 0 < latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]
        assert report["throughput_ops_per_s"] > 0
        per_tenant = report["per_tenant"]
        assert per_tenant
        for slot in per_tenant.values():
            assert 0.0 <= slot["cache_hit_rate"] <= 1.0
