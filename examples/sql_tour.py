"""A tour of the SQL surface against generated TPC-H-shaped data.

Runs a sequence of statements — aggregates, joins, GROUP BY,
DISTINCT, ORDER BY/LIMIT, IN-lists, and the paper's per-query
confidence hint — through one :class:`repro.Session`, printing each
chosen plan and its simulated time.

Run with:  python examples/sql_tour.py
"""

from repro import Session
from repro.workloads import TpchConfig, build_tpch_database

STATEMENTS = [
    # the paper's Experiment 1 template, with a hint
    "SELECT SUM(lineitem.l_extendedprice) AS revenue "
    "FROM lineitem "
    "WHERE lineitem.l_shipdate BETWEEN '1997-07-01' AND '1997-09-30' "
    "AND lineitem.l_receiptdate BETWEEN '1997-08-01' AND '1997-10-31' "
    "OPTION (CONFIDENCE 80)",
    # a three-way join with a correlated part filter
    "SELECT COUNT(*) AS n FROM lineitem, orders, part "
    "WHERE part.p_c1 BETWEEN 4000 AND 4399 "
    "AND part.p_c2 BETWEEN 4100 AND 4499",
    # grouping
    "SELECT orders.o_custkey, COUNT(*) AS orders_n "
    "FROM orders GROUP BY orders.o_custkey "
    "ORDER BY orders.o_custkey LIMIT 5",
    # DISTINCT (implemented as group-by)
    "SELECT DISTINCT part.p_container FROM part",
    # IN-list with an index-union candidate, plus a LIKE residual
    "SELECT COUNT(*) AS n FROM part "
    "WHERE part.p_size IN (1, 2, 3) AND part.p_brand LIKE 'Brand#1%'",
    # top-k by price
    "SELECT * FROM lineitem WHERE lineitem.l_quantity >= 49 "
    "ORDER BY lineitem.l_extendedprice LIMIT 3",
]


def main():
    print("generating TPC-H-shaped data (30k lineitem rows)...")
    database = build_tpch_database(TpchConfig(num_lineitem=30_000, seed=13))
    session = Session(database, policy="80", statistics_seed=0)

    for sql in STATEMENTS:
        print("\n" + "=" * 72)
        print(sql)
        print("-" * 72)
        result = session.execute(sql)
        print(result.prepared.explain())
        print(f"-> {result.num_rows} row(s) in {result.simulated_seconds:.4f}s simulated")
        for name in result.column_names[:4]:
            values = result.column(name)[:3]
            print(f"   {name}: {list(values)}")


if __name__ == "__main__":
    main()
