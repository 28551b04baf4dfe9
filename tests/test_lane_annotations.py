"""Every lane of a grid plan carries its own lane's estimates.

``optimize_many`` / ``prepare_many`` return one plan per threshold
lane. Lanes that chose plans sharing a subtree once shared its operator
nodes too, and each lane stamped its numbers onto them in turn, so
after planning every shared node carried the *last* lane's
``est_rows`` / ``est_cost``: the lane's ``explain()`` misreported, and
executing the lane fed another lane's estimate into the feedback
ledger (``plan_observations`` reads ``op.est_rows``). Each lane's tree
is now built for that lane. This module holds every lane to a scalar
``optimize`` at the lane's ``T``, node for node, on the ShippingDates
and PartCorrelation parameters x the five paper thresholds plus a star
and a snowflake statement; to ``explain()`` when a later ``prepare``
hits a lane ``prepare_many`` planted; and to the feedback ledger's
``est_sum`` / q-error when a lane runs.
"""

from dataclasses import replace

import pytest

from repro.core import RobustCardinalityEstimator
from repro.experiments.runner import PAPER_THRESHOLDS
from repro.optimizer import Optimizer
from repro.service import Session
from repro.workloads import (
    PartCorrelationTemplate,
    ShippingDatesTemplate,
    SnowflakeChainTemplate,
    StarJoinTemplate,
)

from tests.conftest import spread_params


def node_estimates(plan) -> list[tuple]:
    """``(operator, est_rows, est_cost)`` of every node, pre-order."""
    return [(op.label(), op.est_rows, op.est_cost) for op in plan.walk()]


@pytest.fixture(scope="module")
def statements(tpch_db, tpch_stats, star_db, star_stats, star_config,
               snowflake_db, snowflake_stats):
    """id -> (database, statistics, query)."""
    cases = {}
    for template in (ShippingDatesTemplate(), PartCorrelationTemplate()):
        for param in spread_params(template, 7):
            cases[f"{template.name}-{param}"] = (
                tpch_db, tpch_stats, template.instantiate(param)
            )
    cases["star-20"] = (
        star_db, star_stats,
        StarJoinTemplate(num_dim=star_config.num_dim).instantiate(20),
    )
    cases["snowflake-1"] = (
        snowflake_db, snowflake_stats, SnowflakeChainTemplate().instantiate(1)
    )
    return cases


def test_every_lane_is_annotated_like_its_scalar_plan(statements):
    lanes = differing = 0
    for case, (database, statistics, query) in statements.items():
        optimizer = Optimizer(database, RobustCardinalityEstimator(statistics))
        planned = optimizer.optimize_many(query, PAPER_THRESHOLDS)
        for t, lane in zip(PAPER_THRESHOLDS, planned):
            scalar = optimizer.optimize(replace(query, hint=t))
            assert lane.plan.signature() == scalar.plan.signature(), (case, t)
            assert node_estimates(lane.plan) == node_estimates(scalar.plan), (
                case, t,
            )
            assert lane.explain() == scalar.explain()
            lanes += 1
        # (the guard is vacuous unless the lanes disagree somewhere)
        differing += len({lane.explain() for lane in planned}) > 1
    assert lanes == 80 and differing > 0


@pytest.fixture
def session_for(tpch_db):
    def build():
        return Session(tpch_db, sample_size=300, statistics_seed=3)

    return build


def test_a_prepare_that_hits_a_planted_lane_explains_like_a_fresh_plan(
    session_for,
):
    query = ShippingDatesTemplate().instantiate(30)
    with session_for() as planted, session_for() as fresh:
        planted.prepare_many(query, PAPER_THRESHOLDS)
        for t in PAPER_THRESHOLDS:
            hit = planted.prepare(query, policy=t)
            assert hit.from_cache
            assert hit.plan.explain() == fresh.prepare(query, policy=t).plan.explain()


def test_an_executed_lane_feeds_the_ledger_its_own_estimates(session_for):
    """What a lane's execution records — observed rows, the estimate
    beside them, the q-error — is what the scalar plan at that ``T``
    records."""
    query = ShippingDatesTemplate().instantiate(30)
    for lane_index, t in enumerate(PAPER_THRESHOLDS):
        with session_for() as many, session_for() as scalar:
            many_feedback = many.enable_feedback()
            scalar_feedback = scalar.enable_feedback()
            many.prepare_many(query, PAPER_THRESHOLDS)[lane_index].execute()
            scalar.prepare(query, policy=t).execute()
            # (each session's statistics epoch names its namespace)
            (recorded,) = many_feedback.store.to_dict()["namespaces"].values()
            (expected,) = scalar_feedback.store.to_dict()["namespaces"].values()
            assert recorded and recorded == expected, t
