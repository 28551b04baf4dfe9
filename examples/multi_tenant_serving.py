"""Multi-tenant serving: isolated tenants, admission control, hot-swap.

Fronts two tenants' TPC-H-shaped databases with one ``QueryServer``:

1. serve one statement, then the same one again — a plan-cache hit;
2. save a fresh statistics archive for one tenant;
3. let a few client threads stream the query battery at both tenants,
   and hot-swap the archive into the first tenant mid-stream;
4. read the server's own evidence: no operation was served below its
   tenant's statistics version floor (``stale_served 0``), and no
   statistics version was ever served to two tenants (``isolated``).

Run with:  python examples/multi_tenant_serving.py
"""

import collections
import tempfile
import threading

from repro import AdmissionConfig, QueryServer, TenantSpec
from repro.stats import StatisticsManager, save_statistics
from repro.workloads import QUERY_BATTERY, TpchConfig, build_tpch_database

QUERY = "SELECT COUNT(*) FROM lineitem WHERE lineitem.l_quantity > 45"
CLIENTS = 4
#: Operations served before the swap, and by acme at the new version
#: after it, before the clients stop.
OPERATIONS_BEFORE_SWAP = 60
OPERATIONS_AFTER_SWAP = 30


def main():
    print("generating two tenants' TPC-H-shaped data (6k lineitem rows)...")
    acme_db = build_tpch_database(TpchConfig(num_lineitem=6_000, seed=1))
    globex_db = build_tpch_database(TpchConfig(num_lineitem=6_000, seed=2))

    server = QueryServer(
        [TenantSpec("acme", acme_db), TenantSpec("globex", globex_db)],
        worker_threads=2,
        admission=AdmissionConfig(global_limit=16, tenant_queue_depth=8),
    )
    with server, tempfile.TemporaryDirectory() as archive:
        # -- 1. serve, then serve again from the plan cache ----------
        print("\n== Serve ==")
        for _ in range(2):
            served = server.serve("acme", QUERY)
            print(f"acme: {served.rows} row, "
                  f"{served.latency_seconds * 1000:.2f} ms, "
                  f"plan cached {served.plan_cached}")

        # -- 2. fresh statistics for acme, saved as an archive -------
        fresh = StatisticsManager(acme_db)
        fresh.update_statistics(seed=99)
        save_statistics(fresh, archive)

        # -- 3. clients stream the battery; swap mid-stream ----------
        statements = list(QUERY_BATTERY.values())
        served_ops = []
        per_version = collections.Counter()
        progress = threading.Condition()
        stop = threading.Event()

        def client(index):
            tenant = ("acme", "globex")[index % 2]
            i = 0
            while not stop.is_set():
                sql = statements[(index + i) % len(statements)]
                reply = server.serve(tenant, sql, execute=bool(i % 2))
                with progress:
                    served_ops.append(reply)
                    per_version[reply.statistics_version] += 1
                    progress.notify_all()
                i += 1

        threads = [
            threading.Thread(target=client, args=(n,)) for n in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        with progress:
            progress.wait_for(
                lambda: len(served_ops) >= OPERATIONS_BEFORE_SWAP
            )
        version = server.swap_statistics("acme", archive)
        with progress:
            # Versions are process-unique: only acme serves at this one.
            progress.wait_for(
                lambda: per_version[version] >= OPERATIONS_AFTER_SWAP
            )
        stop.set()
        for thread in threads:
            thread.join()

        print(f"\n== {len(served_ops)} operations from {CLIENTS} clients, "
              f"acme swapped to statistics v{version} mid-stream ==")
        for tenant in server.tenant_names:
            ops = [op for op in served_ops if op.tenant == tenant]
            hits = sum(op.plan_cached for op in ops)
            versions = sorted({op.statistics_version for op in ops})
            print(f"  {tenant}: {len(ops)} ops, {hits} plan-cache hits, "
                  f"served at statistics versions {versions}")

        # -- 4. the server's own evidence ----------------------------
        stats = server.stats()
        admission = stats["admission"]
        print(f"\nadmitted {admission['admitted']:.0f}, "
              f"shed {admission['shed']:.0f}")
        print(f"stale_served {stats['stale_served']:.0f}")
        print(f"isolated {stats['isolation']['isolated']}")


if __name__ == "__main__":
    main()
