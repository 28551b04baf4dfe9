"""CDF-sketch selectivity for inequality join conditions."""

import numpy as np
import pytest

from repro.core import (
    HistogramCardinalityEstimator,
    MagicNumbers,
    RobustCardinalityEstimator,
    memo,
    pair_fraction,
)
from repro.core.sketch import sample_pair_fraction
from repro.errors import EstimationError
from repro.expressions import col
from repro.expressions.analysis import as_join_condition
from repro.stats import StatisticsManager

from tests.conftest import make_two_table_db


class TestPairFraction:
    @pytest.fixture(scope="class")
    def values(self):
        rng = np.random.default_rng(17)
        return rng.integers(0, 30, 200), rng.integers(0, 30, 120)

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "="])
    def test_exact_against_pairwise_walk(self, values, op):
        left, right = values
        a, b = left[:, None], right[None, :]
        truth = {
            "<": a < b,
            "<=": a <= b,
            ">": a > b,
            ">=": a >= b,
            "=": a == b,
        }[op].mean()
        assert pair_fraction(left, op, right) == pytest.approx(float(truth))

    def test_float_values(self):
        rng = np.random.default_rng(3)
        left, right = rng.uniform(0, 1, 150), rng.uniform(0, 1, 150)
        fraction = pair_fraction(left, "<", right)
        assert fraction == pytest.approx(float((left[:, None] < right).mean()))

    def test_disjoint_ranges(self):
        assert pair_fraction([1, 2, 3], "<", [10, 20]) == 1.0
        assert pair_fraction([1, 2, 3], ">", [10, 20]) == 0.0

    def test_empty_inputs_rejected(self):
        with pytest.raises(EstimationError):
            pair_fraction([], "<", [1, 2])
        with pytest.raises(EstimationError):
            pair_fraction([1, 2], "<", [])

    def test_unsupported_operator_rejected(self):
        with pytest.raises(EstimationError):
            pair_fraction([1], "!=", [2])


MARKUP = as_join_condition(col("sales.s_price") < col("item.i_price"))

#: The statistics-backed arms that price a join condition by the sketch.
ARMS = (RobustCardinalityEstimator, HistogramCardinalityEstimator)


def sample_column(manager, table, column):
    return manager.sample_for(table).frame.column(f"{table}.{column}")


@pytest.fixture()
def sketch_calls(monkeypatch):
    """Every pair fraction the estimate memo computes (not serves)."""
    calls = []

    def counting(statistics, condition):
        calls.append(condition)
        return sample_pair_fraction(statistics, condition)

    monkeypatch.setattr(memo, "sample_pair_fraction", counting)
    return calls


class TestInequalitySketch:
    """The estimators' sketch path: a join condition's pair fraction
    over the two samples, kept in the estimate memo."""

    def test_matches_pair_fraction_over_samples(self, snowflake_stats):
        left = sample_column(snowflake_stats, "sales", "s_price")
        right = sample_column(snowflake_stats, "item", "i_price")
        for arm in ARMS:
            selectivity = arm(snowflake_stats).condition_selectivity(MARKUP)
            assert selectivity == pair_fraction(left, "<", right)
            assert 0.0 < selectivity < 1.0

    def test_cached_within_a_version(self, snowflake_stats, sketch_calls):
        estimator = RobustCardinalityEstimator(snowflake_stats)
        first = estimator.condition_selectivity(MARKUP)
        # Kept on its second sight, served from the memo after.
        assert estimator.condition_selectivity(MARKUP) == first
        assert estimator.condition_selectivity(MARKUP) == first
        assert sketch_calls == [MARKUP, MARKUP]
        # A pair fraction is not an estimate: the counters skip it.
        assert estimator.estimate_cache_hits == 0
        assert estimator.estimate_cache_misses == 0

    def test_missing_column_falls_back_to_magic(self, snowflake_stats):
        condition = as_join_condition(col("sales.s_nope") < col("item.i_price"))
        for arm in ARMS:
            assert arm(snowflake_stats).condition_selectivity(
                condition
            ) == MagicNumbers().for_predicate(condition.expr)

    def test_version_bump_invalidates(self, sketch_calls):
        condition = as_join_condition(
            col("lineitem.l_shipdate") < col("part.p_size")
        )
        for arm in ARMS:
            manager = StatisticsManager(make_two_table_db())
            manager.update_statistics(sample_size=200, seed=1)
            estimator = arm(manager)
            estimator.condition_selectivity(condition)
            estimator.condition_selectivity(condition)  # kept
            manager.update_statistics(sample_size=300, seed=2)
            refreshed = estimator.condition_selectivity(condition)
            left = sample_column(manager, "lineitem", "l_shipdate")
            right = sample_column(manager, "part", "p_size")
            assert refreshed == pair_fraction(left, "<", right)
        assert len(sketch_calls) == 3 * len(ARMS)

    def test_drop_sample_invalidates(self):
        condition = as_join_condition(
            col("lineitem.l_shipdate") < col("part.p_size")
        )
        for arm in ARMS:
            manager = StatisticsManager(make_two_table_db())
            manager.update_statistics(sample_size=200, seed=1)
            estimator = arm(manager)
            for _ in range(2):  # the second sight keeps the fraction
                assert estimator.condition_selectivity(
                    condition
                ) != MagicNumbers().for_predicate(condition.expr)
            manager.drop_sample("part")
            assert estimator.condition_selectivity(
                condition
            ) == MagicNumbers().for_predicate(condition.expr)
