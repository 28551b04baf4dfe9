"""Equivalence of the threshold-vectorized DP with per-threshold planning.

The tentpole guarantee: ``Optimizer.optimize_many(query, grid)`` must
pick the same plan and produce the same estimates at every grid point
as running ``optimize`` once per threshold with ``hint=t``. The fig-9
(single-table shipping dates) and fig-10 (three-table part
correlation) workloads exercise both the single-table access-path
choice and the join-order DP.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import JEFFREYS, RobustCardinalityEstimator
from repro.cost import CostModel
from repro.errors import OptimizationError
from repro.experiments import ExperimentRunner, default_configs
from repro.optimizer import Optimizer, keep_best, keep_best_vector
from repro.optimizer.candidates import PricedPlans
from repro.workloads import PartCorrelationTemplate, ShippingDatesTemplate

from tests.reference_runner import reference_run

PAPER_GRID = (0.05, 0.20, 0.50, 0.80, 0.95)


def scalar_plans(optimizer, query, grid):
    """The per-threshold reference: one fresh optimization per grid point."""
    return [optimizer.optimize(replace(query, hint=t)) for t in grid]


def assert_equivalent(vector_planned, scalar_planned):
    """Same chosen plan; same estimates up to float tolerance."""
    assert len(vector_planned) == len(scalar_planned)
    for vec, ref in zip(vector_planned, scalar_planned):
        assert vec.plan.signature() == ref.plan.signature()
        assert vec.estimated_cost == pytest.approx(ref.estimated_cost, rel=1e-9)
        assert vec.estimated_rows == pytest.approx(ref.estimated_rows, rel=1e-9)


class TestKeepBestVector:
    """Unit-level: vector pruning is the union of per-lane scalar pruning."""

    COSTS = np.array(
        [
            [3.0, 1.0, 2.0],
            [1.0, 2.0, 2.0],  # ties lane 2: first wins
            [2.0, 3.0, 4.0],
            [4.0, 4.0, 1.5],
        ]
    )
    ORDERS = [None, None, "t.a", "t.a"]

    def test_matches_scalar_keep_best_per_lane(self):
        vector_best = keep_best_vector(self.COSTS, self.ORDERS)
        for lane in range(3):
            scalar_best = keep_best(self.COSTS[:, lane].tolist(), self.ORDERS)
            for slot, winner in scalar_best.items():
                assert winner in vector_best[slot]

    def test_tie_takes_first_candidate(self):
        # lane 0 ties at 2.0: scalar keep_best's strict < keeps the
        # first candidate, and argmin's first-index rule must agree.
        best = keep_best_vector(np.array([[2.0, 2.0], [2.0, 3.0]]), [None, None])
        assert best[None] == [0]

    def test_scalar_costs_broadcast(self):
        # a threshold-independent (float) cost fills its row at every lane
        plans = PricedPlans.of(
            frozenset({"t"}), np.ones(2), [5.0, np.array([6.0, 4.0])],
            [None, None], [None, None],
        )
        assert plans.cost.tolist() == [[5.0, 5.0], [6.0, 4.0]]
        best = keep_best_vector(plans.cost, plans.orders)
        assert best[None] == [0, 1]  # each wins one lane

    def test_empty_pool(self):
        assert keep_best_vector(np.empty((0, 4)), []) == {}


class TestOptimizeManyEquivalence:
    @pytest.fixture(scope="class")
    def robust_optimizer(self, tpch_db, tpch_stats):
        estimator = RobustCardinalityEstimator(tpch_stats, policy=0.5)
        return Optimizer(tpch_db, estimator)

    def test_fig9_single_table_grid(self, robust_optimizer, tpch_db):
        template = ShippingDatesTemplate()
        for param, _ in template.params_for_targets(tpch_db, [0.0, 0.003, 0.02], step=8):
            query = template.instantiate(param)
            vector = robust_optimizer.optimize_many(query, PAPER_GRID)
            scalar = scalar_plans(robust_optimizer, query, PAPER_GRID)
            assert_equivalent(vector, scalar)

    def test_fig10_three_table_grid(self, robust_optimizer):
        template = PartCorrelationTemplate()
        lo, hi = template.param_range()
        for param in (lo, (lo + hi) // 2, hi):
            query = template.instantiate(param)
            vector = robust_optimizer.optimize_many(query, PAPER_GRID)
            scalar = scalar_plans(robust_optimizer, query, PAPER_GRID)
            assert_equivalent(vector, scalar)

    def test_alternatives_cover_scalar_alternatives(self, robust_optimizer):
        """The vector finalist pool is the union of per-lane winners, so
        per threshold it is a cost-sorted superset of the scalar pool."""
        query = PartCorrelationTemplate().instantiate(
            PartCorrelationTemplate().param_range()[0]
        )
        vector = robust_optimizer.optimize_many(query, PAPER_GRID)
        scalar = scalar_plans(robust_optimizer, query, PAPER_GRID)
        for vec, ref in zip(vector, scalar):
            vec_costs = [c.cost for c in vec.alternatives]
            assert vec_costs == sorted(vec_costs)
            vec_by_sig = {
                c.operator.signature(): c.cost for c in vec.alternatives
            }
            # the scalar winner is also the vector lane's cheapest
            best_sig = ref.alternatives[0].operator.signature()
            assert vec.alternatives[0].operator.signature() == best_sig
            for rc in ref.alternatives:
                sig = rc.operator.signature()
                if sig in vec_by_sig:
                    assert vec_by_sig[sig] == pytest.approx(rc.cost, rel=1e-9)

    def test_estimates_slice_matches_scalar(self, robust_optimizer):
        query = ShippingDatesTemplate().instantiate(30)
        vector = robust_optimizer.optimize_many(query, (0.2, 0.8))
        scalar = scalar_plans(robust_optimizer, query, (0.2, 0.8))
        for vec, ref in zip(vector, scalar):
            assert set(vec.estimates) == set(ref.estimates)
            for key, ref_est in ref.estimates.items():
                assert vec.estimates[key].cardinality == pytest.approx(
                    ref_est.cardinality, rel=1e-9
                )

    def test_explain_renders_scalar_annotations(self, robust_optimizer):
        """Vector planning must not leave array annotations behind."""
        query = ShippingDatesTemplate().instantiate(30)
        for planned in robust_optimizer.optimize_many(query, PAPER_GRID):
            text = planned.explain()
            assert "rows=" in text and "cost=" in text

    def test_single_point_grid_matches_optimize(self, robust_optimizer):
        query = ShippingDatesTemplate().instantiate(60)
        (vector,) = robust_optimizer.optimize_many(query, (0.8,))
        scalar = robust_optimizer.optimize(replace(query, hint=0.8))
        assert vector.plan.signature() == scalar.plan.signature()
        assert vector.estimated_cost == pytest.approx(scalar.estimated_cost)

    def test_empty_grid_raises(self, robust_optimizer):
        query = ShippingDatesTemplate().instantiate(60)
        with pytest.raises(OptimizationError):
            robust_optimizer.optimize_many(query, ())

    def test_lut_backs_the_vector_pass(self, tpch_db, tpch_stats):
        estimator = RobustCardinalityEstimator(tpch_stats, policy=0.5)
        optimizer = Optimizer(tpch_db, estimator)
        optimizer.optimize_many(ShippingDatesTemplate().instantiate(30), PAPER_GRID)
        assert estimator.lut_hits > 0


class TestHashBuildSideEligibility:
    """A hash join builds on the *smaller* input, whatever that costs.

    The vector lattice emits both build sides where the smaller one
    flips across the grid and keeps each eligible (``active``) only at
    the lanes the scalar rule would pick it — beside the cost, not in
    it. With the default coefficients building costs more per row than
    probing, so an unmasked argmin would find the rule by itself; invert
    them (cheaper != smaller) and only the mask keeps ``optimize_many``
    lane-for-lane what ``optimize(hint=t)`` returns.
    """

    GRID = tuple((np.arange(33) + 0.5) / 33)
    INVERTED = CostModel(hash_build_cost=2e-6, hash_probe_cost=8e-6)

    def test_pruning_reads_the_mask_and_leaves_the_cost(self):
        # row 0 is cheaper everywhere but active only at lane 0
        costs = np.array([[1.0, 1.0], [2.0, 2.0]])
        active = np.array([[True, False], [True, True]])
        best = keep_best_vector(costs, [None, None], active)
        assert best[None] == [0, 1]  # one lane each
        assert costs.tolist() == [[1.0, 1.0], [2.0, 2.0]]
        active[0] = False
        assert keep_best_vector(costs, [None, None], active)[None] == [1]

    def test_per_lane_selection_reads_the_mask(self):
        from repro.optimizer.optimizer import _select_per_lane

        finalists = PricedPlans(
            frozenset({"t"}),
            np.ones(2),
            np.array([[1.0, 1.0], [3.0, 3.0], [2.0, 2.0]]),
            [None, None, None],
            np.array([[False, True], [True, True], [True, True]]),
            None,
        )
        lanes = list(_select_per_lane(finalists, (0.2, 0.8)))
        # lane 0: the cheapest plan is one the scalar pass would not
        # have built there — it cannot win and ranks last.
        assert (lanes[0].winner, lanes[0].ranking) == (2, [2, 1, 0])
        assert (lanes[1].winner, lanes[1].ranking) == (0, [0, 2, 1])

    def test_lanes_match_scalar_under_inverted_coefficients(
        self, snowflake_db, snowflake_stats
    ):
        from repro.optimizer import PlanningContext
        from tests.conftest import battery_queries

        estimator = RobustCardinalityEstimator(snowflake_stats)
        optimizer = Optimizer(snowflake_db, estimator, self.INVERTED)
        flipping = 0
        for query in battery_queries("snowflake", snowflake_db):
            vector = optimizer.optimize_many(query, self.GRID)
            scalar = scalar_plans(optimizer, query, self.GRID)
            assert_equivalent(vector, scalar)
            assert all(
                np.isfinite(c.cost) for lane in vector for c in lane.alternatives
            )
            ctx = PlanningContext(
                snowflake_db, self.INVERTED, estimator, query, self.GRID
            )
            active = optimizer._finalists(ctx, query, None).active
            flipping += active is not None and not active.all()
        # (the guard is vacuous unless some finalist's build side flips)
        assert flipping > 0


class TestRunnerVectorization:
    """End-to-end: the harness's multi-threshold planning is
    record-identical to planning every arm as a scalar."""

    @pytest.fixture(scope="class")
    def arms(self, tpch_db):
        template = ShippingDatesTemplate()
        params = template.params_for_targets(tpch_db, [0.0, 0.003], step=8)
        configs = default_configs(
            thresholds=(0.05, 0.50, 0.95), include_histogram=False
        )
        vectorized = ExperimentRunner(
            tpch_db, template, sample_size=300, seeds=(0, 1)
        ).run(params, configs)
        scalar = reference_run(
            tpch_db, template, params, configs, seeds=(0, 1), sample_size=300
        )
        return {True: vectorized, False: scalar}

    def test_records_identical(self, arms):
        assert arms[True].records == arms[False].records

    def test_vector_arm_counts_passes_and_lut_hits(self, arms):
        assert arms[True].perf.vector_passes == 2 * 2  # seeds x params
        assert arms[True].perf.lut_hits > 0
        assert "vector_passes" in arms[True].perf.as_dict()

    def test_repeated_param_costs_one_pass_per_entry(self, tpch_db):
        # Nearby targets can resolve to the same param; each entry of
        # the grid still costs exactly one vector pass.
        template = ShippingDatesTemplate()
        first, second = template.params_for_targets(
            tpch_db, [0.0, 0.003], step=8
        )
        params = [first, first, second]
        configs = default_configs(
            thresholds=(0.05, 0.50, 0.95), include_histogram=False
        )
        result = ExperimentRunner(
            tpch_db, template, sample_size=300, seeds=(0,), workers=1
        ).run(params, configs)
        assert result.perf.vector_passes == len(params)
        assert result.records == reference_run(
            tpch_db, template, params, configs, seeds=(0,), sample_size=300
        ).records
