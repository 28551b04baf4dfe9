"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.analysis import EstimationModel, selectivity_estimates
from repro.core import JEFFREYS, UNIFORM, Prior, SelectivityPosterior
from repro.engine import kernels
from repro.engine.kernels import match_keys
from repro.expressions import Frame, col
from repro.indexes import SortedIndex, intersect_rid_sets
from repro.stats import EquiDepthHistogram

int_arrays = npst.arrays(
    np.int64,
    st.integers(min_value=1, max_value=200),
    elements=st.integers(min_value=-50, max_value=50),
)


class TestPosteriorProperties:
    @given(
        n=st.integers(min_value=1, max_value=5000),
        k_fraction=st.floats(min_value=0, max_value=1),
        t=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_ppf_in_unit_interval(self, n, k_fraction, t):
        k = int(round(k_fraction * n))
        posterior = SelectivityPosterior(k, n)
        estimate = posterior.ppf(t)
        assert 0.0 <= estimate <= 1.0

    @given(
        n=st.integers(min_value=1, max_value=2000),
        k_fraction=st.floats(min_value=0, max_value=1),
    )
    def test_threshold_monotonicity(self, n, k_fraction):
        k = int(round(k_fraction * n))
        posterior = SelectivityPosterior(k, n)
        assert posterior.ppf(0.1) <= posterior.ppf(0.5) <= posterior.ppf(0.9)

    @given(
        n=st.integers(min_value=2, max_value=1000),
        k=st.integers(min_value=0, max_value=1000),
        t=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_k_monotonicity(self, n, k, t):
        """More satisfying tuples → higher estimate, at any threshold."""
        k = min(k, n - 1)
        lower = SelectivityPosterior(k, n).ppf(t)
        higher = SelectivityPosterior(k + 1, n).ppf(t)
        assert higher >= lower

    @given(
        n=st.integers(min_value=1, max_value=1000),
        k_fraction=st.floats(min_value=0, max_value=1),
    )
    def test_mean_between_prior_and_mle(self, n, k_fraction):
        k = int(round(k_fraction * n))
        posterior = SelectivityPosterior(k, n)
        low, high = sorted((posterior.mle, JEFFREYS.mean))
        assert low - 1e-12 <= posterior.mean <= high + 1e-12

    @given(
        n=st.integers(min_value=10, max_value=500),
        k_fraction=st.floats(min_value=0, max_value=1),
    )
    def test_more_data_tightens_posterior(self, n, k_fraction):
        k = int(round(k_fraction * n))
        small = SelectivityPosterior(k, n)
        large = SelectivityPosterior(k * 4, n * 4)
        assert large.variance <= small.variance + 1e-12


class TestSelectivityEstimateProperties:
    @given(
        n=st.integers(min_value=1, max_value=400),
        t=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_estimates_monotone_in_k(self, n, t):
        estimates = selectivity_estimates(EstimationModel(n, t))
        assert (np.diff(estimates) >= -1e-12).all()

    @given(n=st.integers(min_value=1, max_value=300))
    def test_prior_choice_bounded_effect(self, n):
        """Jeffreys vs uniform never move the median estimate by more
        than ~1/n (Figure 4's 'prior doesn't matter')."""
        k = n // 3
        jeffreys = SelectivityPosterior(k, n, JEFFREYS).ppf(0.5)
        uniform = SelectivityPosterior(k, n, UNIFORM).ppf(0.5)
        assert abs(jeffreys - uniform) <= 1.0 / n


class TestSortedIndexProperties:
    @given(values=int_arrays, low=st.integers(-60, 60), width=st.integers(0, 40))
    def test_range_lookup_matches_bruteforce(self, values, low, width):
        index = SortedIndex(values)
        high = low + width
        rids = index.lookup_range(low, high)
        expected = np.flatnonzero((values >= low) & (values <= high))
        assert sorted(rids) == sorted(expected)

    @given(values=int_arrays, key=st.integers(-60, 60))
    def test_eq_lookup_matches_bruteforce(self, values, key):
        index = SortedIndex(values)
        assert sorted(index.lookup_eq(key)) == sorted(
            np.flatnonzero(values == key)
        )

    @given(values=int_arrays)
    def test_lookup_many_eq_concatenates(self, values):
        index = SortedIndex(values)
        probes = np.unique(values)[:5]
        combined = index.lookup_many_eq(probes)
        manual = np.concatenate(
            [index.lookup_eq(p) for p in probes]
        ) if len(probes) else np.array([], dtype=np.int64)
        assert sorted(combined) == sorted(manual)


    @given(
        column=npst.arrays(
            np.int64, st.integers(0, 60), elements=st.integers(-8, 8)
        ),
        probes=npst.arrays(
            st.sampled_from([np.int64, np.int32]),
            st.integers(0, 40),
            elements=st.integers(-10, 10),
        ),
    )
    def test_match_many_is_match_keys_over_the_column(self, column, probes):
        """Duplicates on both sides, empty sides, misses, int32 probes."""
        probe_idx, rids = SortedIndex(column).match_many(probes)
        for reference in (kernels.match_keys, kernels.match_keys_numpy):
            expected_probe, expected_rids = reference(probes, column)
            assert probe_idx.tolist() == expected_probe.tolist()
            assert rids.tolist() == expected_rids.tolist()

    @given(
        column=st.lists(st.sampled_from(["a", "b", "bb", "c", ""]), max_size=30),
        probes=st.lists(st.sampled_from(["a", "bb", "c", "zz", ""]), max_size=20),
    )
    def test_match_many_string_keys(self, column, probes):
        column, probes = np.array(column, dtype="U2"), np.array(probes, dtype="U2")
        probe_idx, rids = SortedIndex(column).match_many(probes)
        expected_probe, expected_rids = kernels.match_keys(probes, column)
        assert probe_idx.tolist() == expected_probe.tolist()
        assert rids.tolist() == expected_rids.tolist()


class TestRidSetProperties:
    @given(sets=st.lists(int_arrays, min_size=1, max_size=4))
    def test_intersection_matches_python_sets(self, sets):
        expected = set(sets[0].tolist())
        for array in sets[1:]:
            expected &= set(array.tolist())
        result = intersect_rid_sets(sets)
        assert set(result.tolist()) == expected
        assert (np.diff(result) > 0).all()  # sorted unique


class TestMatchKeysProperties:
    @given(left=int_arrays, right=int_arrays)
    def test_matches_bruteforce_pairs(self, left, right):
        li, ri = match_keys(left, right)
        produced = sorted(zip(li.tolist(), ri.tolist()))
        expected = sorted(
            (i, j)
            for i in range(len(left))
            for j in range(len(right))
            if left[i] == right[j]
        )
        assert produced == expected


class TestHistogramProperties:
    @settings(deadline=None)
    @given(
        values=npst.arrays(
            np.int64,
            st.integers(min_value=1, max_value=500),
            elements=st.integers(min_value=0, max_value=1000),
        ),
        buckets=st.integers(min_value=1, max_value=50),
    )
    def test_counts_conserved(self, values, buckets):
        histogram = EquiDepthHistogram(values, buckets)
        assert histogram.counts.sum() == len(values)
        assert histogram.selectivity_range(None, None) == pytest.approx(1.0)

    @settings(deadline=None)
    @given(
        values=npst.arrays(
            np.int64,
            st.integers(min_value=1, max_value=500),
            elements=st.integers(min_value=0, max_value=1000),
        ),
        low=st.integers(0, 1000),
        width=st.integers(0, 500),
    )
    def test_range_selectivity_in_unit_interval(self, values, low, width):
        histogram = EquiDepthHistogram(values, 20)
        selectivity = histogram.selectivity_range(low, low + width)
        assert 0.0 <= selectivity <= 1.0

    @settings(deadline=None)
    @given(
        values=npst.arrays(
            np.int64,
            st.integers(min_value=1, max_value=300),
            elements=st.integers(min_value=0, max_value=100),
        ),
        split=st.integers(0, 100),
    )
    def test_range_additivity(self, values, split):
        """sel([min,split]) + sel((split,max]) ≈ 1."""
        histogram = EquiDepthHistogram(values, 20)
        left = histogram.selectivity_range(None, split)
        right = histogram.selectivity_range(split + 1, None)
        if values.min() <= split < values.max():
            assert left + right == pytest.approx(1.0, abs=0.25)

    @settings(deadline=None)
    @given(
        values=npst.arrays(
            np.int64,
            st.integers(min_value=1, max_value=300),
            elements=st.integers(min_value=0, max_value=50),
        )
    )
    def test_boundary_equality_exact(self, values):
        """Boundary values report their exact frequency."""
        histogram = EquiDepthHistogram(values, 10)
        for upper in histogram.uppers:
            expected = (values == upper).mean()
            assert histogram.selectivity_eq(upper) == pytest.approx(expected)


class TestFrameProperties:
    @given(data=int_arrays)
    def test_mask_then_count(self, data):
        frame = Frame({"t.x": data})
        mask = np.asarray(data > 0)
        assert frame.mask(mask).num_rows == int(mask.sum())

    @given(data=int_arrays, threshold=st.integers(-50, 50))
    def test_predicate_counts_match_numpy(self, data, threshold):
        frame = Frame({"t.x": data})
        predicate = col("t.x") <= threshold
        assert predicate.evaluate(frame).sum() == (data <= threshold).sum()


class TestPriorProperties:
    @given(
        mean=st.floats(min_value=0.01, max_value=0.99),
        concentration=st.floats(min_value=0.1, max_value=100),
    )
    def test_informative_prior_mean(self, mean, concentration):
        prior = Prior.informative(mean, concentration)
        assert prior.mean == pytest.approx(mean)
