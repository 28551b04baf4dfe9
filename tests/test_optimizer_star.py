"""Tests for star detection and star-plan generation."""

import pytest

from repro.core import ExactCardinalityEstimator, HistogramCardinalityEstimator
from repro.engine import ExecutionContext, HashJoin, SeqScan, StarSemiJoin
from repro.cost import CostModel
from repro.expressions import col
from repro.optimizer import Optimizer, SPJQuery
from repro.optimizer.optimizer import PlanningContext
from repro.optimizer import star
from repro.optimizer.star import detect_star

from tests.conftest import built_candidates


def star_candidates(ctx, query, specs, out_rows):
    """Every plan ``star.star_candidates`` prices, built when read."""
    shape = star.star_shape(ctx, query, specs)
    return built_candidates(star.star_candidates(ctx, shape, out_rows))


def star_query(shift=0):
    m = 100
    predicate = (
        col("dim1.d_attr").between(0, m - 1)
        & col("dim2.d_attr").between(shift, shift + m - 1)
        & col("dim3.d_attr").between(0, m - 1)
    )
    return SPJQuery(["fact", "dim1", "dim2", "dim3"], predicate)


@pytest.fixture
def ctx(star_db):
    query = star_query()
    return PlanningContext(
        star_db, CostModel(), ExactCardinalityEstimator(star_db), query
    )


class TestDetection:
    def test_detects_star(self, ctx):
        specs = detect_star(ctx, star_query())
        assert specs is not None
        assert [s.dim_table for s in specs] == ["dim1", "dim2", "dim3"]
        assert {s.fact_fk_column for s in specs} == {
            "f_dim1key",
            "f_dim2key",
            "f_dim3key",
        }

    def test_two_tables_not_a_star(self, star_db):
        query = SPJQuery(["fact", "dim1"])
        ctx = PlanningContext(
            star_db, CostModel(), ExactCardinalityEstimator(star_db), query
        )
        assert detect_star(ctx, query) is None

    def test_chain_schema_not_a_star(self, tpch_db):
        query = SPJQuery(["lineitem", "orders", "customer"])
        ctx = PlanningContext(
            tpch_db, CostModel(), ExactCardinalityEstimator(tpch_db), query
        )
        # customer is a parent of orders, not of lineitem → snowflake
        assert detect_star(ctx, query) is None

    def test_tpch_two_parents_is_a_star(self, tpch_db):
        query = SPJQuery(["lineitem", "orders", "part"])
        ctx = PlanningContext(
            tpch_db, CostModel(), ExactCardinalityEstimator(tpch_db), query
        )
        # lineitem has direct FKs to both orders and part, but the
        # fact FK column l_orderkey... is indexed; l_partkey indexed too
        specs = detect_star(ctx, query)
        assert specs is not None


class TestStarCandidates:
    def test_all_splits_generated(self, ctx, star_db):
        query = star_query()
        specs = detect_star(ctx, query)
        out_rows = ctx.card(
            frozenset(query.tables), ctx.pred_for(frozenset(query.tables))
        ).cardinality
        candidates = star_candidates(ctx, query, specs, out_rows)
        # 3 dims → 2^3 − 1 = 7 nonempty semi subsets
        assert len(candidates) == 7
        assert all(isinstance(c.operator, StarSemiJoin) for c in candidates)

    def test_candidate_execution_matches_cascade(self, ctx, star_db):
        query = star_query(shift=20)
        specs = detect_star(ctx, query)
        out_rows = ctx.card(
            frozenset(query.tables), ctx.pred_for(frozenset(query.tables))
        ).cardinality
        candidates = star_candidates(ctx, query, specs, out_rows)
        sizes = set()
        for candidate in candidates:
            frame = candidate.operator.execute(ExecutionContext(star_db))
            sizes.add(frame.num_rows)
        assert len(sizes) == 1

    def test_cost_matches_execution(self, star_db):
        """Star-plan cost formulas mirror the engine counters exactly."""
        query = star_query(shift=50)
        ctx = PlanningContext(
            star_db, CostModel(), ExactCardinalityEstimator(star_db), query
        )
        specs = detect_star(ctx, query)
        out_rows = ctx.card(
            frozenset(query.tables), ctx.pred_for(frozenset(query.tables))
        ).cardinality
        model = CostModel()
        for candidate in star_candidates(ctx, query, specs, out_rows):
            run_ctx = ExecutionContext(star_db)
            candidate.operator.execute(run_ctx)
            simulated = model.time_from_counters(run_ctx.counters)
            assert candidate.cost == pytest.approx(simulated, rel=1e-6)


class TestOptimizerChoice:
    def test_semijoin_wins_at_zero_selectivity(self, star_db):
        optimizer = Optimizer(star_db, ExactCardinalityEstimator(star_db))
        planned = optimizer.optimize(star_query(shift=100))  # nothing joins
        assert isinstance(planned.plan, StarSemiJoin) or any(
            isinstance(op, StarSemiJoin) for op in planned.plan.walk()
        )

    def test_hash_cascade_wins_at_high_selectivity(self, star_db):
        optimizer = Optimizer(star_db, ExactCardinalityEstimator(star_db))
        planned = optimizer.optimize(star_query(shift=0))  # max joins
        kinds = {type(op) for op in planned.plan.walk()}
        assert StarSemiJoin not in kinds
        assert HashJoin in kinds

    def test_histogram_estimator_pinned(self, star_db, star_stats):
        """AVI: always ≈0.1 % of fact rows, whatever the shift."""
        estimator = HistogramCardinalityEstimator(star_stats)
        estimates = [
            estimator.estimate(
                set(star_query(shift).tables), star_query(shift).predicate
            ).selectivity
            for shift in (0, 50, 100)
        ]
        for estimate in estimates:
            assert estimate == pytest.approx(0.001, rel=0.25)
