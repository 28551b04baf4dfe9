"""Least expected cost by the black-box recipe — the comparand.

Chu, Halpern & Gehrke (PODS 2002) and Donjerkovic & Ramakrishnan
(VLDB 1999) choose the plan with the least *expected* cost over the
parameter distribution. Expected cost is not decomposable over
subplans, so their practical recipe treats the optimizer "as a black
box that is invoked multiple times as a subroutine, using different
parameter values on each invocation" — which the paper criticizes for
"a blowup in optimization time by a factor equal to the number of
subroutine invocations" (Section 2.2).

This is that recipe, as ``repro.optimizer.lec`` ran it in ``src/``
until ``Optimizer.optimize_penalty(query, midpoints(q))`` was shown to
be the same selector in one vectorized pass (mean regret is mean cost
minus a constant): optimize once per quantile, pool every physical plan
met, re-cost each at every quantile with the independent re-coster of
``tests/reference_costing.py``, take the least mean. It shares nothing
with the lattice's vector pass, which is what makes agreeing with it
worth asserting (``tests/test_optimizer_lec.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core import RobustCardinalityEstimator
from repro.cost import CostModel
from repro.optimizer import Optimizer

from tests.reference_costing import PlanCoster


def midpoints(q: int) -> np.ndarray:
    """Midpoint quantiles, e.g. 5 → 10 %, 30 %, …, 90 %."""
    return (np.arange(q) + 0.5) / q


@dataclass
class ReferenceLec:
    """What the recipe pooled and what it chose."""

    #: Signature of each distinct physical plan met over the
    #: invocations → its re-costed cost at each quantile.
    costs: dict[str, np.ndarray]
    #: Signature of the least-expected-cost plan (first met on ties).
    winner: str
    #: Estimator invocations summed over the ``q`` optimizer calls.
    estimation_calls: int

    def expected_cost(self, signature: str) -> float:
        return float(self.costs[signature].mean())


def recost(database, statistics, plan, quantiles) -> np.ndarray:
    """``plan``'s cost at each posterior quantile, by the re-coster."""
    estimator = RobustCardinalityEstimator(statistics)
    costs = []
    for quantile in quantiles:
        coster = PlanCoster(
            database,
            CostModel(),
            lambda tables, predicate, hint=float(quantile): estimator.estimate(
                tables, predicate, hint=hint
            ).cardinality,
            estimator.condition_selectivity,
        )
        costs.append(coster.cost(plan)[0])
    return np.array(costs)


def reference_lec(database, statistics, query, quantiles) -> ReferenceLec:
    """Run the multi-invocation recipe for ``query`` over ``quantiles``."""
    optimizer = Optimizer(database, RobustCardinalityEstimator(statistics))
    plans = {}
    estimation_calls = 0
    for quantile in quantiles:
        planned = optimizer.optimize(replace(query, hint=float(quantile)))
        estimation_calls += planned.estimation_calls
        for candidate in planned.alternatives:
            plans.setdefault(candidate.operator.signature(), candidate.operator)
    costs = {
        signature: recost(database, statistics, plan, quantiles)
        for signature, plan in plans.items()
    }
    winner = min(costs, key=lambda signature: costs[signature].mean())
    return ReferenceLec(costs, winner, estimation_calls)
