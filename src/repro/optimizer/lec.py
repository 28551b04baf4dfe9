"""Least-expected-cost plan selection — the related-work baseline.

Chu, Halpern & Gehrke (PODS 2002) and Donjerkovic & Ramakrishnan
(VLDB 1999) advocate choosing the plan with the least *expected* cost
over the parameter distribution, rather than the least cost at a point
estimate. Because expected cost is not decomposable over subplans,
their practical recipe treats the existing optimizer "as a black box
that is invoked multiple times as a subroutine, using different
parameter values on each invocation" — which the paper criticizes for
"a blowup in optimization time by a factor equal to the number of
subroutine invocations" (Section 2.2).

:class:`LeastExpectedCostOptimizer` implements exactly that recipe on
top of our optimizer, so the trade can be measured:

1. invoke the DP optimizer once per posterior quantile (each invocation
   uses the robust estimator pinned to that quantile via the query
   hint), collecting every full-coverage candidate plan seen;
2. re-cost each distinct candidate at every quantile with
   :class:`~repro.optimizer.costing.PlanCoster`;
3. select the plan whose quantile-averaged cost is least.

With ``num_quantiles = q`` this performs ``q`` optimizer invocations —
the blowup the paper's single-inversion approach avoids.
"""

from __future__ import annotations

import numpy as np

from repro.catalog import Database
from repro.core import JEFFREYS, Prior, RobustCardinalityEstimator
from repro.cost import CostModel
from repro.errors import OptimizationError
from repro.expressions import expr_key
from repro.optimizer.candidates import PlanCandidate
from repro.optimizer.costing import PlanCoster
from repro.optimizer.optimizer import Optimizer, PlannedQuery, PlanningContext
from repro.optimizer.query import SPJQuery
from repro.stats import StatisticsManager


class LeastExpectedCostOptimizer:
    """Multi-invocation least-expected-cost plan selection.

    Parameters
    ----------
    database, statistics:
        Catalog and precomputed samples (the same inputs the robust
        estimator uses).
    cost_model:
        Shared cost coefficients.
    num_quantiles:
        How many posterior quantiles to optimize and average over; the
        optimization-time blowup factor.
    prior:
        Beta prior for the selectivity posteriors.
    """

    def __init__(
        self,
        database: Database,
        statistics: StatisticsManager,
        cost_model: CostModel | None = None,
        num_quantiles: int = 9,
        prior: Prior = JEFFREYS,
        enable_star_plans: bool = True,
    ) -> None:
        if num_quantiles < 1:
            raise OptimizationError("num_quantiles must be at least 1")
        self.database = database
        self.statistics = statistics
        self.cost_model = cost_model or CostModel()
        self.num_quantiles = num_quantiles
        self.prior = prior
        self.enable_star_plans = enable_star_plans

    def quantiles(self) -> np.ndarray:
        """Midpoint quantiles, e.g. 9 → 5.6 %, 16.7 %, …, 94.4 %."""
        q = self.num_quantiles
        return (np.arange(q) + 0.5) / q

    def optimize(self, query: SPJQuery) -> PlannedQuery:
        """Select the least-expected-cost plan for ``query``."""
        quantiles = self.quantiles()

        # Phase 1: one optimizer invocation per quantile.
        candidates: list[PlanCandidate] = []
        seen_shapes: set[str] = set()
        estimation_calls = 0
        for quantile in quantiles:
            estimator = RobustCardinalityEstimator(
                self.statistics, prior=self.prior, policy=float(quantile)
            )
            optimizer = Optimizer(
                self.database,
                estimator,
                self.cost_model,
                enable_star_plans=self.enable_star_plans,
            )
            planned = optimizer.optimize(query)
            estimation_calls += planned.estimation_calls
            for candidate in planned.alternatives:
                shape = candidate.operator.explain()
                if shape not in seen_shapes:
                    seen_shapes.add(shape)
                    candidates.append(candidate)
        if not candidates:
            raise OptimizationError(f"no candidate plans for {query}")

        # Phase 2: re-cost every candidate at every quantile.
        expected_costs = np.zeros(len(candidates))
        expected_rows = np.zeros(len(candidates))
        for quantile in quantiles:
            estimator = RobustCardinalityEstimator(
                self.statistics, prior=self.prior, policy=float(quantile)
            )
            cache: dict = {}

            def card(tables, predicate, _estimator=estimator, _cache=cache):
                key = (frozenset(tables), expr_key(predicate))
                if key not in _cache:
                    _cache[key] = _estimator.estimate(
                        tables, predicate
                    ).cardinality
                return _cache[key]

            coster = PlanCoster(self.database, self.cost_model, card)
            for i, candidate in enumerate(candidates):
                cost, rows = coster.cost(candidate.operator)
                expected_costs[i] += cost / len(quantiles)
                expected_rows[i] += rows / len(quantiles)

        # Phase 3: pick the least expected cost and finalize as usual.
        order = np.argsort(expected_costs)
        best_index = int(order[0])
        best = PlanCandidate(
            operator=candidates[best_index].operator,
            tables=candidates[best_index].tables,
            rows=float(expected_rows[best_index]),
            cost=float(expected_costs[best_index]),
            order=candidates[best_index].order,
        ).annotated()

        # Finalization (cross-table filters, aggregates, projection)
        # reuses the standard optimizer at the median quantile.
        median_estimator = RobustCardinalityEstimator(
            self.statistics, prior=self.prior, policy=0.5
        )
        final_optimizer = Optimizer(
            self.database, median_estimator, self.cost_model
        )
        ctx = PlanningContext(
            self.database, self.cost_model, median_estimator, query
        )
        plan, cost, rows = final_optimizer.finalize_candidate(ctx, query, best)

        ranked = [candidates[i] for i in order]
        return PlannedQuery(
            query=query,
            plan=plan,
            estimated_cost=cost,
            estimated_rows=rows,
            alternatives=ranked,
            estimation_calls=estimation_calls,
            estimates=ctx.estimates(),
        )
