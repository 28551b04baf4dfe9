"""The paper's contribution: robust Bayesian cardinality estimation.

The pipeline (paper Section 3.4):

1. pick the precomputed join synopsis whose root matches the query
   expression;
2. evaluate the predicate on the synopsis and apply Bayes's rule,
   giving a Beta posterior over the true selectivity;
3. invert the posterior cdf at the user's confidence threshold ``T%``;
4. hand the resulting single-value estimate to an unmodified optimizer.

Higher thresholds make the optimizer conservative (predictable plans);
lower thresholds make it aggressive.
"""

from repro.core.prior import JEFFREYS, UNIFORM, Prior
from repro.core.posterior import (
    BetaQuantileTable,
    SelectivityPosterior,
    quantile_table,
)
from repro.core.confidence import (
    AGGRESSIVE,
    CONSERVATIVE,
    MODERATE,
    resolve_threshold,
)
from repro.core.estimate import CardinalityEstimate, VectorCardinalityEstimate
from repro.core.estimator import CardinalityEstimator, ExactCardinalityEstimator
from repro.core.fixed import FixedSelectivityEstimator
from repro.core.magic import MagicDistribution, MagicNumbers
from repro.core.histogram_estimator import HistogramCardinalityEstimator
from repro.core.robust import RobustCardinalityEstimator
from repro.core.factory import estimator_for
from repro.core.sketch import pair_fraction

__all__ = [
    "AGGRESSIVE",
    "BetaQuantileTable",
    "CONSERVATIVE",
    "CardinalityEstimate",
    "CardinalityEstimator",
    "ExactCardinalityEstimator",
    "FixedSelectivityEstimator",
    "HistogramCardinalityEstimator",
    "JEFFREYS",
    "MODERATE",
    "MagicDistribution",
    "MagicNumbers",
    "Prior",
    "RobustCardinalityEstimator",
    "SelectivityPosterior",
    "UNIFORM",
    "VectorCardinalityEstimate",
    "estimator_for",
    "pair_fraction",
    "quantile_table",
    "resolve_threshold",
]
