"""Harvest reads cardinalities off the execution that ran.

``plan_observations`` used to learn each observed cardinality by
executing the topmost operator of every table set again in a fresh
context. It now reads the ``{operator: output rows}`` mapping the one
real execution filled (``ExecutionContext(operator_rows={})``), which a
session keeps in the record of its execution memo. The old
procedure lives on here as ``reexecuted_observations`` — the reference
every captured result must equal, dict for dict — together with the
counting wrappers that show nothing runs twice.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ExactCardinalityEstimator, RobustCardinalityEstimator
from repro.engine import (
    ExecutionContext,
    HashAggregate,
    HashJoin,
    IndexedNLJoin,
    Limit,
    ScanCache,
    SeqScan,
    Sort,
)
from repro.expressions import col, expr_key
from repro.feedback import FeedbackStore, plan_observations
from repro.feedback.harvest import predicate_for_tables
from repro.obs.execution import operator_spans, operator_tables
from repro.optimizer import Optimizer, SPJQuery
from repro.service import Session
from repro.sql import parse_query
from repro.workloads import QUERY_BATTERY

from tests.conftest import EXTRA_TPCH, as_planned, execute_recorded

def reexecuted_observations(query, plan, database) -> list[dict]:
    """The procedure harvest replaced: one fresh execution per subtree."""
    observations = []
    seen = set()
    for op in plan.walk():
        if isinstance(op, (HashAggregate, Limit, Sort)):
            continue
        tables = operator_tables(op)
        if not tables or tables in seen:
            continue
        seen.add(tables)
        observed = op.execute(ExecutionContext(database)).num_rows
        estimated = op.est_rows
        if isinstance(estimated, np.ndarray):
            flat = estimated.reshape(-1)
            estimated = float(flat[0]) if flat.size == 1 else None
        elif estimated is not None:
            estimated = float(estimated)
        observations.append(
            {
                "tables": tuple(sorted(tables)),
                "predicate_key": expr_key(predicate_for_tables(query, tables)),
                "observed_rows": float(observed),
                "estimated_rows": estimated,
            }
        )
    return observations


class TestCapturedRowsEqualReexecutedRows:
    def test_batteries_reach_every_operator(self, planned_trees):
        reached = {
            type(op).__name__
            for entries in planned_trees.values()
            for _, plan in entries
            for op in plan.walk()
        }
        assert reached >= {
            "SeqScan", "IndexSeek", "IndexUnionSeek", "IndexIntersect",
            "HashJoin", "MergeJoin", "IndexedNLJoin", "NonEquiJoin",
            "StarSemiJoin", "HashAggregate", "Sort", "Limit",
        }

    @pytest.mark.parametrize("family", ["tpch", "star", "snowflake"])
    def test_capturing_execution(self, family, families, planned_trees):
        database = families[family][0]
        for query, plan in planned_trees[family]:
            rows = {}
            frame = plan.execute(ExecutionContext(database, operator_rows=rows))
            # one entry per node of the tree, no more (an INL join's
            # inner side and a star join's dimensions are not nodes)
            assert set(rows) == set(plan.walk())
            assert rows[plan] == frame.num_rows
            expected = reexecuted_observations(query, plan, database)
            assert plan_observations(query, plan, rows) == expected

    @pytest.mark.parametrize("family", ["tpch", "star", "snowflake"])
    def test_standalone_call_captures_for_itself(
        self, family, families, planned_trees
    ):
        # a standalone call reads the rows a session's record kept
        database = families[family][0]
        session = Session(database)
        for key, (query, plan) in enumerate(planned_trees[family][::4]):
            record = session._run(
                f"statement {key}", as_planned(query, plan), served=False
            )[0]
            assert plan_observations(
                query, plan, record.operator_rows(plan)
            ) == reexecuted_observations(query, plan, database)

    @pytest.mark.parametrize("family", ["tpch", "star", "snowflake"])
    def test_through_a_warm_scan_cache(self, family, families, planned_trees):
        database = families[family][0]
        cache = ScanCache()
        for query, plan in planned_trees[family]:
            plan.execute(ExecutionContext(database, scan_cache=cache))
            hits_before = cache.hits
            rows = {}
            plan.execute(
                ExecutionContext(database, scan_cache=cache, operator_rows=rows)
            )
            assert cache.hits > hits_before
            assert plan_observations(
                query, plan, rows
            ) == reexecuted_observations(query, plan, database)

    def test_context_that_did_not_ask_records_nothing(self, tpch_db, tpch_stats):
        optimizer = Optimizer(tpch_db, RobustCardinalityEstimator(tpch_stats))
        query = parse_query(QUERY_BATTERY["shipping_priority"], tpch_db)
        ctx = ExecutionContext(tpch_db)
        optimizer.optimize(query).plan.execute(ctx)
        assert ctx.operator_rows is None


class TestNothingRunsTwice:
    STATEMENTS = (
        QUERY_BATTERY["shipping_priority"],
        QUERY_BATTERY["promo_parts"],
        QUERY_BATTERY["top_customers"],
        EXTRA_TPCH[1],
    )

    def test_feedback_enabled_execute_runs_each_operator_once(
        self, tpch_db, execute_calls
    ):
        with Session(tpch_db, sample_size=300, statistics_seed=3) as session:
            feedback = session.enable_feedback()
            for sql in self.STATEMENTS:
                prepared = session.prepare(sql)
                execute_calls.clear()
                generation_before = feedback.store.generation
                prepared.execute()
                operators = list(prepared.plan.walk())
                assert len(operators) > 1
                assert execute_calls == {op: 1 for op in operators}
                # ... and the capture worked through the wrappers
                assert feedback.store.generation > generation_before

    @staticmethod
    def captures(contexts) -> list[tuple[bool, bool]]:
        """Per context: whether it recorded rows, and work."""
        return [
            (ctx.operator_rows is not None, ctx.operator_work is not None)
            for ctx in contexts
        ]

    def test_session_without_feedback_asks_for_no_capture(
        self, tpch_db, built_contexts
    ):
        # Only a tree's first run records (the memo keeps that record);
        # the run that keeps the result asks for nothing, and the third
        # execute runs nothing.
        with Session(tpch_db, sample_size=300, statistics_seed=3) as session:
            for _ in range(3):
                session.execute(self.STATEMENTS[0])
        assert self.captures(built_contexts) == [(True, True), (False, False)]

    def test_harvest_asks_for_rows_but_no_counter_snapshots(
        self, tpch_db, built_contexts
    ):
        # Harvest asks no run for anything: every execute reads the
        # rows the first run recorded.
        with Session(tpch_db, sample_size=300, statistics_seed=3) as session:
            feedback = session.enable_feedback()
            for _ in range(3):
                session.execute(self.STATEMENTS[0])
            assert feedback.observations == 3
        assert self.captures(built_contexts) == [(True, True), (False, False)]


class TestStoreBytes:
    HOT_SET = (
        QUERY_BATTERY["shipping_priority"],
        QUERY_BATTERY["promo_parts"],
        QUERY_BATTERY["forecast_revenue"],
        QUERY_BATTERY["correlated_dates"],
        QUERY_BATTERY["top_customers"],
        EXTRA_TPCH[0],
        EXTRA_TPCH[1],
    )

    def test_churn_replay_equals_standalone_harvest(self, tpch_db):
        """200 requests with a refresh every 50: the session's store and
        one fed by standalone ``plan_observations`` calls on the same
        plans hold the same bytes."""
        standalone = FeedbackStore()
        with Session(tpch_db, sample_size=300, statistics_seed=3) as session:
            feedback = session.enable_feedback()
            for request in range(200):
                if request and request % 50 == 0:
                    session.refresh_statistics(seed=request)
                prepared = session.prepare(
                    self.HOT_SET[request * 3 % len(self.HOT_SET)]
                )
                prepared.execute()
                namespace = feedback.namespace_for_version(
                    prepared.statistics_version
                )
                rows = execute_recorded(prepared.plan, tpch_db)[0].operator_rows
                for obs in plan_observations(
                    prepared.query, prepared.plan, rows
                ):
                    standalone.record(namespace, **obs)
            assert len(feedback.store.namespaces()) == 4
            assert feedback.store.to_bytes() == standalone.to_bytes()


class TestHarvestKeysNameTheTablesJoined:
    """An indexed nested-loop join's inner side is not an operator of
    the tree, so ``operator_tables`` must add it: otherwise the INL
    node's three-table row count is stored under its outer side's two
    tables, the real two-table observation is dropped as already seen,
    and the three-table key is never recorded."""

    @staticmethod
    def assert_observed_is_truth(query, plan, database):
        exact = ExactCardinalityEstimator(database)
        observations = plan_observations(
            query, plan, execute_recorded(plan, database)[0].operator_rows
        )
        for obs in observations:
            tables = frozenset(obs["tables"])
            truth = exact.estimate(
                tables, predicate_for_tables(query, tables)
            ).cardinality
            assert obs["observed_rows"] == truth, (obs["tables"], plan.label())
        return observations

    def test_inl_join_over_a_hash_join(self, tpch_db):
        query = SPJQuery(
            ("lineitem", "orders", "customer"),
            (col("orders.o_orderdate") < "1995-03-15")
            & (col("customer.c_acctbal") > 0),
        )
        plan = IndexedNLJoin(
            HashJoin(
                SeqScan("customer", col("customer.c_acctbal") > 0),
                SeqScan("orders", col("orders.o_orderdate") < "1995-03-15"),
                "customer.c_custkey",
                "orders.o_custkey",
            ),
            "lineitem",
            "orders.o_orderkey",
            "l_orderkey",
        )
        observations = self.assert_observed_is_truth(query, plan, tpch_db)
        assert [obs["tables"] for obs in observations] == [
            ("customer", "lineitem", "orders"),
            ("customer", "orders"),
            ("customer",),
            ("orders",),
        ]
        by_tables = {obs["tables"]: obs["observed_rows"] for obs in observations}
        assert (
            by_tables[("customer", "lineitem", "orders")]
            > by_tables[("customer", "orders")]
        )

    @pytest.mark.parametrize("family", ["tpch", "star"])
    def test_every_harvested_key_of_every_alternative(
        self, family, families, planned_trees
    ):
        # Not the snowflake family: its cross-table conditions are a
        # Filter only the finalized plan carries (an alternative's root
        # is the join below it), and its band joins are not FK trees
        # the exact estimator can count.
        database = families[family][0]
        reached_inl = False
        for query, plan in planned_trees[family]:
            self.assert_observed_is_truth(query, plan, database)
            reached_inl |= any(
                isinstance(op, IndexedNLJoin) for op in plan.walk()
            )
        assert reached_inl

    def test_trace_execution_spans_carry_the_inner_table(self, tpch_db):
        plan = IndexedNLJoin(
            SeqScan("orders"), "lineitem", "orders.o_orderkey", "l_orderkey"
        )
        spans = operator_spans(plan, execute_recorded(plan, tpch_db)[1])
        assert spans[0]["tables"] == ["lineitem", "orders"]
        assert spans[1]["tables"] == ["orders"]
