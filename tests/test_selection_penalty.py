"""Penalty math and the penalty-selection optimizer path.

The edge-case contract the PARQO arm pins down:

* one sample degenerates to the paper's threshold rule at that
  quantile (plain cost minimization);
* CVaR with ``alpha=1.0`` is exactly the expected penalty;
* score ties break to the lexicographically smallest plan signature,
  so selection is reproducible no matter how finalists are ordered.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.core import RobustCardinalityEstimator
from repro.errors import OptimizationError
from repro.optimizer import Optimizer
from repro.selection import (
    PenaltyPolicy,
    cvar_tail_count,
    penalty_matrix,
    penalty_summary,
    risk_scores,
    sample_quantiles,
    select_index,
)
from repro.workloads import ShippingDatesTemplate


class TestPenaltyMatrix:
    def test_regret_against_per_sample_optimum(self):
        costs = np.array([[1.0, 4.0], [2.0, 3.0]])
        penalties = penalty_matrix(costs)
        assert penalties.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_nonnegative_with_zero_per_column(self):
        rng = np.random.default_rng(3)
        penalties = penalty_matrix(rng.uniform(1, 10, size=(5, 7)))
        assert (penalties >= 0).all()
        assert np.allclose(penalties.min(axis=0), 0.0)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (4,)])
    def test_degenerate_shapes_rejected(self, shape):
        with pytest.raises(ValueError):
            penalty_matrix(np.zeros(shape))


class TestRiskScores:
    def test_expected_is_row_mean(self):
        penalties = np.array([[0.0, 2.0], [1.0, 1.0]])
        assert risk_scores(penalties).tolist() == [1.0, 1.0]

    def test_cvar_tail_counts(self):
        assert cvar_tail_count(10, 1.0) == 10
        assert cvar_tail_count(10, 0.25) == 3  # ceil(2.5)
        assert cvar_tail_count(1, 0.1) == 1  # never empty
        with pytest.raises(ValueError):
            cvar_tail_count(10, 0.0)

    def test_cvar_averages_the_worst_tail(self):
        penalties = np.array([[0.0, 1.0, 2.0, 3.0]])
        # ceil(0.5 * 4) = 2 worst samples: (2 + 3) / 2.
        assert risk_scores(penalties, "cvar", 0.5).tolist() == [2.5]

    def test_cvar_alpha_one_equals_expected(self):
        rng = np.random.default_rng(9)
        penalties = rng.uniform(0, 5, size=(6, 11))
        assert np.allclose(
            risk_scores(penalties, "cvar", 1.0), risk_scores(penalties)
        )

    def test_unknown_risk_rejected(self):
        with pytest.raises(ValueError):
            risk_scores(np.zeros((1, 1)), "variance")


class TestSelectIndex:
    def test_lowest_score_wins(self):
        assert select_index(np.array([3.0, 1.0, 2.0]), ["c", "b", "a"]) == 1

    def test_all_tie_takes_lowest_signature(self):
        scores = np.zeros(3)
        assert select_index(scores, ["zeta", "alpha", "mid"]) == 1

    def test_signature_tie_takes_lowest_index(self):
        scores = np.zeros(2)
        assert select_index(scores, ["same", "same"]) == 0

    def test_callable_signatures_only_render_tied_plans(self):
        rendered = []

        def signature(i):
            rendered.append(i)
            return f"plan-{i}"

        winner = select_index(np.array([0.0, 0.0, 5.0]), signature)
        assert winner == 0
        assert sorted(rendered) == [0, 1]  # index 2 never rendered

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_index(np.array([]), [])


class TestPenaltySummary:
    def test_shapes_and_fields(self):
        out = penalty_summary(np.array([[0.0, 4.0], [1.0, 1.0]]))
        assert [row["mean"] for row in out] == [2.0, 1.0]
        assert out[0]["max"] == 4.0
        assert set(out[1]) == {"mean", "p50", "p90", "max"}

    def test_matches_per_row_percentiles(self):
        rng = np.random.default_rng(3)
        penalties = penalty_matrix(rng.random((7, 32)))
        for row, summary in zip(penalties, penalty_summary(penalties)):
            assert summary == {
                "mean": float(row.mean()),
                "p50": float(np.percentile(row, 50)),
                "p90": float(np.percentile(row, 90)),
                "max": float(row.max()),
            }

    def test_infinite_penalties_stay_infinite_without_warnings(self):
        inf = np.inf
        penalties = np.array(
            [[inf, inf, inf, inf], [0.0, 0.0, 0.0, inf], [0.0, 1.0, 2.0, 3.0]]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            all_inf, mixed, finite = penalty_summary(penalties)
        assert all_inf == {"mean": inf, "p50": inf, "p90": inf, "max": inf}
        # The median sample is finite; the 90th percentile reaches inf.
        assert mixed == {"mean": inf, "p50": 0.0, "p90": inf, "max": inf}
        assert finite == {"mean": 1.5, "p50": 1.5, "p90": 2.7, "max": 3.0}


class TestOptimizePenalty:
    @pytest.fixture(scope="class")
    def optimizer(self, tpch_db, tpch_stats):
        estimator = RobustCardinalityEstimator(tpch_stats, policy=0.5)
        return Optimizer(tpch_db, estimator)

    @pytest.fixture(scope="class")
    def queries(self, tpch_db):
        template = ShippingDatesTemplate()
        params = template.params_for_targets(
            tpch_db, [0.0, 0.003, 0.02], step=8
        )
        return [template.instantiate(param) for param, _ in params]

    def test_single_sample_is_threshold_mode(self, optimizer, queries):
        # With one posterior sample there is no distribution to hedge
        # against: the winner is the cheapest plan at that quantile,
        # i.e. the paper's threshold rule.
        for query in queries:
            for quantile in (0.2, 0.8, 0.95):
                penalty = optimizer.optimize_penalty(query, (quantile,))
                threshold = optimizer.optimize(replace(query, hint=quantile))
                assert (
                    penalty.plan.signature() == threshold.plan.signature()
                ), quantile

    def test_cvar_alpha_one_matches_expected(self, optimizer, queries):
        quantiles = tuple(np.linspace(0.05, 0.95, 9))
        for query in queries:
            expected = optimizer.optimize_penalty(query, quantiles)
            cvar = optimizer.optimize_penalty(
                query, quantiles, risk="cvar", alpha=1.0
            )
            assert expected.plan.signature() == cvar.plan.signature()
            assert (
                expected.selection["winner_score"]
                == cvar.selection["winner_score"]
            )

    def test_selection_provenance(self, optimizer, queries):
        quantiles = (0.1, 0.5, 0.9)
        planned = optimizer.optimize_penalty(
            queries[1], quantiles, risk="cvar", alpha=0.9
        )
        selection = planned.selection
        assert selection["strategy"] == "penalty"
        assert selection["risk"] == "cvar"
        assert selection["samples"] == 3
        assert selection["quantiles"] == list(quantiles)
        # Plans are ranked best-first and carry penalty distributions.
        scores = [plan["score"] for plan in selection["plans"]]
        assert scores == sorted(scores)
        assert selection["winner_score"] == scores[0]
        assert all(plan["penalty"]["mean"] >= 0 for plan in selection["plans"])

    def test_reference_lane_supplies_estimates(self, optimizer, queries):
        planned = optimizer.optimize_penalty(queries[0], (0.05, 0.95))
        reference = optimizer.optimize(replace(queries[0], hint=0.5))
        if planned.plan.signature() == reference.plan.signature():
            assert planned.estimated_cost == pytest.approx(
                reference.estimated_cost, rel=1e-9
            )

    def test_empty_quantiles_rejected(self, optimizer, queries):
        with pytest.raises(OptimizationError):
            optimizer.optimize_penalty(queries[0], ())

    def test_deterministic_across_calls(self, optimizer, queries):
        policy = PenaltyPolicy(samples=12, risk="cvar", alpha=0.9)
        quantiles = sample_quantiles(
            policy, query_key="q-det", statistics_token=17
        )
        first = optimizer.optimize_penalty(
            queries[2], quantiles, risk="cvar", alpha=0.9
        )
        second = optimizer.optimize_penalty(
            queries[2], quantiles, risk="cvar", alpha=0.9
        )
        assert first.plan.signature() == second.plan.signature()
        assert first.selection == second.selection


class TestMaskIsNotACost:
    """Where the scalar pass would build a hash orientation travels
    beside the cost vector, never inside it as ``inf`` — so the risk
    selectors average what each plan costs at every sample."""

    POLICIES = ("cvar:0.9:32", "expected:24")

    @pytest.mark.parametrize("family", ["tpch", "star", "snowflake"])
    def test_everything_emitted_is_finite(self, families, family):
        import json

        from repro.obs import Tracer
        from repro.optimizer import PlanningContext
        from repro.selection import resolve_policy
        from tests.conftest import battery_queries

        database, statistics = families[family]
        estimator = RobustCardinalityEstimator(statistics)
        optimizer = Optimizer(database, estimator, tracer=Tracer())
        grid = (0.05, 0.2, 0.5, 0.8, 0.95)
        for number, query in enumerate(battery_queries(family, database)):
            planned = [
                resolve_policy(spec).plan(
                    optimizer, query, query_key=str(number), statistics_token=3
                )
                for spec in self.POLICIES
            ]
            for one in planned:
                json.dumps(one.selection, allow_nan=False)
            planned += optimizer.optimize_many(query, grid)
            for one in planned:
                json.dumps(one.trace, allow_nan=False)
                assert "inf" not in one.explain()
                assert all(np.isfinite(c.cost) for c in one.alternatives)
            ctx = PlanningContext(
                database, optimizer.cost_model, estimator, query, grid
            )
            finalists = optimizer._finalists(ctx, query, None)
            assert np.isfinite(finalists.cost).all()

    def test_flipping_build_side_can_win(self, snowflake_db, snowflake_stats):
        """Pinned from the differential against the multi-invocation
        recipe: across five quantiles the smaller input of this hash
        join flips, each orientation used to score ``inf`` wherever the
        other was the scalar pass's choice, and a merge join over a
        sort won at a score of 0.0286."""
        from repro.obs.trace import plan_shape
        from tests.conftest import battery_queries

        (query,) = [
            q
            for q in battery_queries("snowflake", snowflake_db)
            if "s_discount <= 0.03" in repr(q.predicate)
        ]
        optimizer = Optimizer(
            snowflake_db, RobustCardinalityEstimator(snowflake_stats)
        )
        planned = optimizer.optimize_penalty(query, (np.arange(5) + 0.5) / 5)
        winner = planned.alternatives[0].operator
        assert plan_shape(winner) == "HashJoin>SeqScan>SeqScan"
        score = planned.selection["winner_score"]
        assert np.isfinite(score) and score < 1e-3
        assert all(
            np.isfinite(plan["score"]) for plan in planned.selection["plans"]
        )
