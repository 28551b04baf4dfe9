"""One map from a selection policy to the estimator it plans through.

Every selection policy names the family it plans through
(:attr:`~repro.selection.SelectionPolicy.estimator_kind`). The session
and the experiment arms both build that family here, so the
policy → (family, threshold) decision exists once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.catalog import Database
from repro.core.bayesnet import BayesNetCardinalityEstimator
from repro.core.confidence import MODERATE
from repro.core.estimator import CardinalityEstimator, ExactCardinalityEstimator
from repro.core.histogram_estimator import HistogramCardinalityEstimator
from repro.core.prior import JEFFREYS, Prior
from repro.core.robust import RobustCardinalityEstimator
from repro.errors import EstimationError
from repro.stats import StatisticsManager

if TYPE_CHECKING:  # repro.selection imports repro.core
    from repro.selection import SelectionPolicy


def hintless_threshold(
    policy: SelectionPolicy, default: float = MODERATE
) -> float:
    """What a robust estimator for ``policy`` prices an estimate without
    a confidence hint at: a threshold policy's ``q``, else ``default``
    (a penalty policy samples its own quantiles; ``default`` is its
    reference lane)."""
    return policy.q if policy.kind == "threshold" else default


def estimator_for(
    policy: SelectionPolicy,
    database: Database,
    statistics: StatisticsManager | None,
    *,
    prior: Prior = JEFFREYS,
    default_threshold: float = MODERATE,
) -> CardinalityEstimator:
    """A fresh estimator of the family ``policy`` plans through.

    A robust estimator prices at :func:`hintless_threshold` under
    ``prior``; ``"histogram"`` and ``"bayes"`` read ``statistics`` and
    ignore both; ``"exact"`` reads ``database`` alone, so its
    ``statistics`` may be ``None``.
    """
    kind = policy.estimator_kind
    if kind == "robust":
        return RobustCardinalityEstimator(
            statistics,
            prior=prior,
            policy=hintless_threshold(policy, default_threshold),
        )
    if kind == "histogram":
        return HistogramCardinalityEstimator(statistics)
    if kind == "bayes":
        return BayesNetCardinalityEstimator(statistics)
    if kind == "exact":
        return ExactCardinalityEstimator(database)
    raise EstimationError(f"unknown estimator family {kind!r}")
