"""A battery of TPC-H-flavoured SQL queries for the generated schema.

Adaptations of well-known TPC-H queries to this repository's SPJ
dialect and generated columns — a realistic mixed workload for demos,
tests, and the workload-mix harness. Each entry parses against
:func:`repro.workloads.build_tpch_database` output.
"""

from __future__ import annotations

#: name -> SQL text. Queries reference only generated columns.
QUERY_BATTERY: dict[str, str] = {
    # Q1-flavoured: big scan + aggregation over a date cutoff
    "pricing_summary": (
        "SELECT SUM(lineitem.l_quantity) AS sum_qty, "
        "SUM(lineitem.l_extendedprice) AS sum_price, "
        "AVG(lineitem.l_discount) AS avg_disc, COUNT(*) AS count_order "
        "FROM lineitem WHERE lineitem.l_shipdate <= '1998-08-01'"
    ),
    # Q6-flavoured: the classic forecast-revenue range conjunction
    "forecast_revenue": (
        "SELECT SUM(lineitem.l_extendedprice) AS revenue FROM lineitem "
        "WHERE lineitem.l_shipdate BETWEEN '1996-01-01' AND '1996-12-31' "
        "AND lineitem.l_discount BETWEEN 0.05 AND 0.07 "
        "AND lineitem.l_quantity < 24"
    ),
    # Q3-flavoured: customer/orders/lineitem chain with date filters
    "shipping_priority": (
        "SELECT COUNT(*) AS n, SUM(lineitem.l_extendedprice) AS revenue "
        "FROM lineitem, orders, customer "
        "WHERE orders.o_orderdate < '1995-03-15' "
        "AND customer.c_acctbal > 0"
    ),
    # star-of-two-dimensions join with a selective part filter
    "promo_parts": (
        "SELECT COUNT(*) AS n FROM lineitem, part "
        "WHERE part.p_size BETWEEN 1 AND 5 "
        "AND part.p_container IN ('SM CASE', 'SM BOX') "
        "AND lineitem.l_shipdate >= '1997-01-01'"
    ),
    # grouped revenue per customer, top few
    "top_customers": (
        "SELECT orders.o_custkey, SUM(orders.o_totalprice) AS spend "
        "FROM orders GROUP BY orders.o_custkey "
        "ORDER BY orders.o_custkey LIMIT 10"
    ),
    # brand scan with string matching and the paper's hint mechanism
    "brand_audit": (
        "SELECT COUNT(*) AS n FROM part "
        "WHERE part.p_brand LIKE 'Brand#2%' AND part.p_retailprice > 1500 "
        "OPTION (CONFIDENCE conservative)"
    ),
    # the paper's own Experiment 1 query
    "correlated_dates": (
        "SELECT SUM(lineitem.l_extendedprice) AS revenue FROM lineitem "
        "WHERE lineitem.l_shipdate BETWEEN '1997-07-01' AND '1997-09-30' "
        "AND lineitem.l_receiptdate BETWEEN '1997-08-01' AND '1997-10-31' "
        "OPTION (CONFIDENCE 80)"
    ),
}
