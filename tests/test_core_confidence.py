"""Unit tests for the confidence-threshold policy."""

import pytest

from repro.core import (
    AGGRESSIVE,
    CONSERVATIVE,
    MODERATE,
    RobustCardinalityEstimator,
)
from repro.core.confidence import resolve_threshold
from repro.errors import EstimationError
from repro.expressions import col


class TestResolveThreshold:
    def test_named_levels(self):
        assert resolve_threshold("conservative") == CONSERVATIVE == 0.95
        assert resolve_threshold("Moderate") == MODERATE == 0.80
        assert resolve_threshold("AGGRESSIVE") == AGGRESSIVE == 0.50

    def test_fraction(self):
        assert resolve_threshold(0.65) == 0.65

    def test_percentage(self):
        assert resolve_threshold(80) == 0.80
        assert resolve_threshold(5) == 0.05

    def test_unknown_name_raises(self):
        with pytest.raises(EstimationError):
            resolve_threshold("yolo")

    def test_out_of_range_raises(self):
        with pytest.raises(EstimationError):
            resolve_threshold(0.0)
        with pytest.raises(EstimationError):
            resolve_threshold(101)


class TestConfidencePolicy:
    """The paper's policy: a system-wide default threshold, overridable
    per query by a hint. The robust estimator holds it as ``threshold``."""

    def test_default(self, two_table_stats):
        assert RobustCardinalityEstimator(two_table_stats).threshold == MODERATE

    def test_named_default(self, two_table_stats):
        estimator = RobustCardinalityEstimator(
            two_table_stats, policy="conservative"
        )
        assert estimator.threshold == 0.95

    def test_hint_overrides(self, two_table_stats):
        estimator = RobustCardinalityEstimator(two_table_stats, policy="moderate")
        predicate = col("lineitem.l_quantity") > 30
        assert estimator.estimate({"lineitem"}, predicate, hint=0.5).threshold == 0.5
        hinted = estimator.estimate({"lineitem"}, predicate, hint="conservative")
        assert hinted.threshold == 0.95
        assert estimator.estimate({"lineitem"}, predicate).threshold == 0.80
        assert estimator.threshold == 0.80  # default untouched

    def test_repr(self, two_table_stats):
        estimator = RobustCardinalityEstimator(two_table_stats, policy=0.8)
        assert "T=80%" in estimator.describe()
