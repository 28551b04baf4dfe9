"""The session service: prepared statements and a versioned plan cache.

Walks the facade end to end against TPC-H-shaped data:

1. prepare a statement and execute it (plan cached on first prepare);
2. prepare the same statement again — a cache hit, same plan object;
3. prepare one statement across a whole confidence grid in a single
   vectorized planning pass (``prepare_many``);
4. rebuild statistics — the handle notices and transparently re-plans
   against the new posterior (the cache key embeds the statistics
   version, so stale plans can never be served);
5. ask "why this plan" (``session.explain``) and read the session's
   cache counters and metrics.

Run with:  python examples/session_service.py
"""

from repro import Session
from repro.workloads import TpchConfig, build_tpch_database

QUERY = (
    "SELECT SUM(lineitem.l_extendedprice) AS revenue FROM lineitem "
    "WHERE lineitem.l_shipdate BETWEEN '1997-07-01' AND '1997-09-30' "
    "AND lineitem.l_receiptdate BETWEEN '1997-08-01' AND '1997-10-31'"
)


def main():
    print("generating TPC-H-shaped data (30k lineitem rows)...")
    database = build_tpch_database(TpchConfig(num_lineitem=30_000, seed=13))

    with Session(database, policy="moderate", statistics_seed=0) as session:
        print(f"session: {session.describe()}\n")

        # -- 1. prepare once, execute --------------------------------
        prepared = session.prepare(QUERY)
        print("== Prepare and execute ==")
        print(f"fingerprint: {prepared.fingerprint}")
        print(f"planned under statistics v{prepared.statistics_version} "
              f"at T={prepared.threshold:.0%}")
        result = prepared.execute()
        print(f"revenue rows: {result.num_rows}, "
              f"simulated time {result.simulated_seconds:.4f}s")

        # -- 2. the second prepare is a plan cache hit ---------------
        again = session.prepare(QUERY)
        print(f"\nsecond prepare from cache: {again.from_cache} "
              f"(same plan object: {again.planned is prepared.planned})")

        # -- 3. a whole threshold grid in one planning pass ----------
        print("\n== prepare_many over a confidence grid ==")
        lanes = session.prepare_many(QUERY, ("05", "50", "80", "95"))
        for lane in lanes:
            print(f"  T={lane.threshold:>4.0%}  "
                  f"est rows={lane.estimated_rows:>10.1f}  "
                  f"est cost={lane.estimated_cost:>8.2f}")

        # -- 4. statistics move, plans follow ------------------------
        print("\n== Statistics refresh invalidates cached plans ==")
        version = session.refresh_statistics(seed=99)
        print(f"statistics rebuilt: v{version}; "
              f"prepared handle stale: {prepared.is_stale()}")
        result = prepared.execute()  # transparent re-plan
        print(f"re-executed after transparent re-plan: "
              f"now v{prepared.statistics_version}, "
              f"simulated time {result.simulated_seconds:.4f}s")

        # -- 5. provenance and counters ------------------------------
        print("\n== Why this plan ==")
        print(session.explain(QUERY))

        stats = session.cache_stats()
        print("\nplan cache: "
              f"{stats['hits']} hits / {stats['misses']} misses "
              f"(hit rate {stats['hit_rate']:.0%}), "
              f"{stats['size']}/{stats['capacity']} entries")
        prepares = session.metrics.counter("repro_session_prepares_total", "")
        print(f"metrics: prepares hit={prepares.value(result='hit'):g} "
              f"miss={prepares.value(result='miss'):g}")


if __name__ == "__main__":
    main()
