"""The query optimizer: System-R dynamic programming over SPJ queries.

The optimizer is deliberately conventional — bottom-up join
enumeration, access-path selection, cost-based pruning with interesting
orders — because the paper's thesis is that robustness can be added
*without* restructuring the optimizer: only the cardinality estimation
module changes. The estimator is a constructor argument, and every
planning question (rows, join conditions, GROUP BY groups) goes
through the :class:`~repro.core.CardinalityEstimator` protocol; swap
the histogram arm for the robust one and every other component stays
identical.
"""

from repro.optimizer.query import SPJQuery
from repro.optimizer.candidates import PlanCandidate, keep_best, keep_best_vector
from repro.optimizer.optimizer import Optimizer, PlannedQuery, PlanningContext

__all__ = [
    "Optimizer",
    "PlanCandidate",
    "PlannedQuery",
    "PlanningContext",
    "SPJQuery",
    "keep_best",
    "keep_best_vector",
]
