"""Metamorphic identities on a fixed battery.

Identities the estimator and the planner must satisfy whatever the data,
checked on a few hand-picked TPC-H statements (no query generator yet):

* *Complement.* At threshold ``T`` the robust estimate is the
  ``T``-quantile of ``Beta(k + a, n − k + b)``. ``NOT P`` holds on the
  other ``n − k`` sample tuples, and the Jeffreys and uniform priors are
  symmetric (``a = b``), so ``sel_T(P) + sel_{1−T}(NOT P) = 1``. This
  holds on the synopsis and single-table rungs, with feedback off; the
  fallback rungs are not expected to satisfy it.
* *Invariance.* How a statement is spelled is not what it means:
  permuting its FROM list and its WHERE conjuncts leaves the plan and
  every estimate unchanged.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core import JEFFREYS, UNIFORM, RobustCardinalityEstimator
from repro.experiments.runner import PAPER_THRESHOLDS
from repro.optimizer import Optimizer
from repro.sql import parse_query
from repro.stats import StatisticsManager

SINGLE_TABLE = [
    "SELECT COUNT(*) FROM lineitem WHERE lineitem.l_quantity > 30",
    "SELECT COUNT(*) FROM lineitem WHERE lineitem.l_shipdate >= '1997-01-01' "
    "AND lineitem.l_discount < 0.05",
]
JOIN = (
    "SELECT COUNT(*) FROM lineitem, orders "
    "WHERE orders.o_orderdate < '1995-03-15' AND lineitem.l_quantity > 20"
)


def _statistics(database, *, synopses: bool) -> StatisticsManager:
    statistics = StatisticsManager(database)
    statistics.update_statistics(sample_size=500, seed=5)
    if not synopses:
        for table in database.table_names:
            statistics.drop_synopsis(table)
    return statistics


@pytest.mark.parametrize("prior", [JEFFREYS, UNIFORM], ids=lambda p: p.name)
@pytest.mark.parametrize(
    "rung, statements",
    [
        ("synopsis", SINGLE_TABLE + [JOIN]),
        # Without synopses a single-table predicate reads its table's
        # own sample: one posterior, nothing combined.
        ("sample-avi", SINGLE_TABLE),
    ],
)
def test_complement(tpch_db, prior, rung, statements):
    estimator = RobustCardinalityEstimator(
        _statistics(tpch_db, synopses=rung == "synopsis"), prior=prior
    )
    for sql in statements:
        query = parse_query(sql, tpch_db)
        tables = frozenset(query.tables)
        for t in PAPER_THRESHOLDS:
            holds = estimator.estimate(tables, query.predicate, hint=t)
            fails = estimator.estimate(tables, ~query.predicate, hint=1 - t)
            assert holds.source == fails.source == rung
            gap = holds.selectivity + fails.selectivity - 1.0
            assert abs(gap) <= 1e-12, (sql, t, gap)


def test_spelling_changes_neither_plan_nor_estimates(tpch_db, tpch_stats):
    tables = ["lineitem", "orders", "customer"]
    conjuncts = [
        "orders.o_orderdate < '1995-03-15'",
        "customer.c_acctbal > 0",
        "lineitem.l_quantity > 20",
    ]
    outcomes = set()
    for order in itertools.permutations(tables):
        for where in itertools.permutations(conjuncts):
            query = parse_query(
                f"SELECT COUNT(*) FROM {', '.join(order)} "
                f"WHERE {' AND '.join(where)}",
                tpch_db,
            )
            # A fresh estimator per spelling: no memo carries one
            # spelling's answers over to the next.
            planned = Optimizer(
                tpch_db, RobustCardinalityEstimator(tpch_stats)
            ).optimize(query)
            estimates = frozenset(
                (key, e.selectivity, e.cardinality, e.source)
                for key, e in planned.estimates.items()
            )
            outcomes.add((planned.explain(), estimates))
    assert len(outcomes) == 1
