"""Workload generators and query templates for the paper's experiments.

Three scenarios (Section 6.2):

1. a TPC-H-shaped database whose ``lineitem`` ship/receipt dates are
   correlated (Experiment 1) and whose ``part`` table carries an
   injected correlated column pair (Experiment 2);
2. a synthetic star schema whose fact-table foreign keys are
   handcrafted so that the fraction of fact rows joining all three
   filtered dimensions is controlled by the query parameter while
   every marginal statistic stays fixed (Experiment 3);
3. a snowflake extension of the testbed (scenario diversity): a
   multi-level dimension chain carrying the correlation two FK hops
   deep, plus inequality-join templates — a markup comparison between
   FK-connected tables and a band join against an FK-unrelated
   promotion table.

Each experiment's query template has one free parameter controlling
the *correlation* between predicates — the marginal selectivities that
histograms track never change, which is exactly what defeats the AVI
baseline.
"""

from repro.workloads.tpch import TpchConfig, build_tpch_database
from repro.workloads.star import StarConfig, build_star_database
from repro.workloads.snowflake import (
    PriceMarkupTemplate,
    PromotionBandTemplate,
    SnowflakeChainTemplate,
    SnowflakeConfig,
    build_snowflake_database,
)
from repro.workloads.queries import QUERY_BATTERY
from repro.workloads.templates import (
    PartCorrelationTemplate,
    QueryTemplate,
    ShippingDatesTemplate,
    StarJoinTemplate,
)

__all__ = [
    "PartCorrelationTemplate",
    "PriceMarkupTemplate",
    "PromotionBandTemplate",
    "QUERY_BATTERY",
    "QueryTemplate",
    "ShippingDatesTemplate",
    "SnowflakeChainTemplate",
    "SnowflakeConfig",
    "StarConfig",
    "StarJoinTemplate",
    "TpchConfig",
    "build_snowflake_database",
    "build_tpch_database",
    "build_star_database",
]
