"""Direct unit tests for join-candidate generation."""

import pytest

from repro.core import ExactCardinalityEstimator
from repro.cost import CostModel
from repro.engine import HashJoin, IndexedNLJoin, MergeJoin, Sort
from repro.expressions import col
from repro.obs.execution import operator_tables
from repro.optimizer import joins
from repro.optimizer.access import access_paths
from repro.optimizer.candidates import prune
from repro.optimizer.optimizer import PlanningContext
from repro.optimizer.query import SPJQuery

from tests.conftest import built_candidates


@pytest.fixture
def ctx(tpch_db):
    query = SPJQuery(
        ["lineitem", "orders"], col("orders.o_totalprice") > 100_000
    )
    return PlanningContext(
        tpch_db, CostModel(), ExactCardinalityEstimator(tpch_db), query
    )


def best_paths(ctx, table):
    """``{slot: the survivor filed there}``, each a one-plan priced set."""
    singleton = frozenset([table])
    survivors = prune(
        access_paths(
            ctx.database, ctx.model, ctx.card, table, ctx.pred_for(singleton)
        )
    )
    return {slot: survivors.take([k]) for slot, k in survivors.slots.items()}


def priced_joins(ctx, left, right, edge, out_rows):
    """``joins.join_candidates`` over the partition's facts along ``edge``."""
    facts = joins.join_facts(ctx.shape, left.tables, right.tables, edge)
    return joins.join_candidates(ctx, left, right, facts, out_rows)


def join_candidates(*args):
    """Every join ``joins.join_candidates`` prices, built when read."""
    return built_candidates(priced_joins(*args))


@pytest.fixture
def edge(ctx):
    [edge] = ctx.query.join_edges(ctx.database)
    return edge


class TestJoinCandidates:
    def test_methods_generated(self, ctx, edge):
        left = best_paths(ctx, "lineitem")[None]
        right = best_paths(ctx, "orders")[None]
        out_rows = ctx.card(
            frozenset(["lineitem", "orders"]),
            ctx.pred_for(frozenset(["lineitem", "orders"])),
        ).cardinality
        candidates = join_candidates(ctx, left, right, edge, out_rows)
        kinds = {type(c.operator) for c in candidates}
        assert HashJoin in kinds
        assert MergeJoin in kinds  # direct or via explicit sorts
        assert IndexedNLJoin in kinds

    def test_hash_builds_on_smaller(self, ctx, edge):
        left = best_paths(ctx, "lineitem")[None]
        right = best_paths(ctx, "orders")[None]
        candidates = join_candidates(ctx, left, right, edge, 1000.0)
        hash_joins = [c for c in candidates if isinstance(c.operator, HashJoin)]
        for candidate in hash_joins:
            build_rows = candidate.operator.build.est_rows
            probe_rows = candidate.operator.probe.est_rows
            assert build_rows <= probe_rows

    def test_merge_without_sort_when_both_ordered(self, ctx, edge):
        # clustered scans carry the join-key order on both sides
        left = best_paths(ctx, "lineitem")["lineitem.l_orderkey"]
        right = best_paths(ctx, "orders")["orders.o_orderkey"]
        candidates = join_candidates(ctx, left, right, edge, 1000.0)
        merges = [c for c in candidates if isinstance(c.operator, MergeJoin)]
        assert merges
        for candidate in merges:
            shapes = {type(op) for op in candidate.operator.walk()}
            assert Sort not in shapes

    def test_merge_order_propagates(self, ctx, edge):
        left = best_paths(ctx, "lineitem")["lineitem.l_orderkey"]
        right = best_paths(ctx, "orders")["orders.o_orderkey"]
        candidates = join_candidates(ctx, left, right, edge, 1000.0)
        merge = next(c for c in candidates if isinstance(c.operator, MergeJoin))
        assert merge.order == "lineitem.l_orderkey"

    def test_inl_directions(self, ctx, edge):
        left = best_paths(ctx, "lineitem")[None]
        right = best_paths(ctx, "orders")[None]
        candidates = join_candidates(ctx, left, right, edge, 1000.0)
        inl = [c for c in candidates if isinstance(c.operator, IndexedNLJoin)]
        inner_tables = {c.operator.inner_table for c in inl}
        # orders has a PK index; lineitem has an FK index on l_orderkey:
        # both directions should be available
        assert inner_tables == {"orders", "lineitem"}

    def test_inl_preserves_outer_order(self, ctx, edge):
        left = best_paths(ctx, "lineitem")["lineitem.l_orderkey"]
        right = best_paths(ctx, "orders")[None]
        candidates = join_candidates(ctx, left, right, edge, 1000.0)
        inl = [
            c
            for c in candidates
            if isinstance(c.operator, IndexedNLJoin)
            and c.operator.inner_table == "orders"
        ]
        assert inl
        assert inl[0].order == "lineitem.l_orderkey"

    def test_all_candidates_cover_both_tables(self, ctx, edge):
        left = best_paths(ctx, "lineitem")[None]
        right = best_paths(ctx, "orders")[None]
        priced = priced_joins(ctx, left, right, edge, 1000.0)
        assert priced.tables == frozenset(["lineitem", "orders"])
        for candidate in built_candidates(priced):
            assert operator_tables(candidate.operator) == priced.tables

    def test_costs_include_children(self, ctx, edge):
        left = best_paths(ctx, "lineitem")[None]
        right = best_paths(ctx, "orders")[None]
        for candidate in join_candidates(ctx, left, right, edge, 1000.0):
            assert candidate.cost >= max(left.cost[0], right.cost[0])
