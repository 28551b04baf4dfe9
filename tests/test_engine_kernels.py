"""Unit tests for repro.engine.kernels (size dispatch + bit-identity).

Every kernel has a pure-numpy reference; whichever formulation the
dispatch layer picks for an input must return bit-identical results.
"""

import numpy as np
import pytest

from repro.engine import kernels
from repro.engine.kernels import match_keys
from repro.errors import ReproError


def reference_match_keys(left, right):
    """O(n·m) brute-force matching, grouped by left row."""
    pairs = [
        (i, j)
        for i in range(len(left))
        for j in range(len(right))
        if left[i] == right[j]
    ]
    if not pairs:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    li, ri = zip(*pairs)
    return np.array(li, dtype=np.int64), np.array(ri, dtype=np.int64)


class TestBackendSelection:
    """One backend (numpy), dispatched by input size: ``describe``
    reports the threshold so benchmark records carry it."""

    def test_describe_is_json_ready(self):
        import json

        snapshot = json.loads(json.dumps(kernels.describe()))
        assert snapshot == {"semijoin_small_n": kernels.SEMIJOIN_SMALL_N}


class TestMatchKeys:
    @pytest.mark.parametrize(
        "left, right",
        [
            ([], []),
            ([], [1, 2]),
            ([1, 2], []),
            ([1, 2, 3], [4, 5, 6]),  # no matches
            ([10, 20, 20, 30], [20, 10, 40]),
            ([1, 1], [1, 1, 1]),  # all-duplicate keys
            ([5] * 7, [5] * 7),
        ],
    )
    def test_matches_brute_force(self, left, right):
        left = np.array(left, dtype=np.int64)
        right = np.array(right, dtype=np.int64)
        li, ri = match_keys(left, right)
        el, er = reference_match_keys(left, right)
        assert sorted(zip(li, ri)) == sorted(zip(el, er))

    def test_output_grouped_by_left_row(self):
        left = np.array([7, 3, 7])
        right = np.array([7, 9, 7, 3])
        li, ri = match_keys(left, right)
        # Left indices non-decreasing (grouped), right ascending within
        # each left row — the contract downstream take() order relies on.
        assert list(li) == sorted(li)
        for row in np.unique(li):
            rows = ri[li == row]
            assert list(rows) == sorted(rows)

    def test_random_large_agrees_with_numpy_reference(self):
        rng = np.random.default_rng(0)
        left = rng.integers(0, 500, 20_000)
        right = rng.integers(0, 500, 10_000)
        li, ri = match_keys(left, right)
        el, er = kernels.match_keys_numpy(left, right)
        np.testing.assert_array_equal(li, el)
        np.testing.assert_array_equal(ri, er)

    def test_table_path_bit_identical_to_reference(self):
        # Unique compact left keys over a large input trigger the
        # PK-FK lookup-table path; output must equal the sorted path.
        rng = np.random.default_rng(2)
        left = rng.permutation(6000)[:3000]  # unique, span 2x count
        right = rng.integers(-100, 6100, 20_000)  # some out of range
        li, ri = match_keys(left, right)
        el, er = kernels.match_keys_numpy(left, right)
        np.testing.assert_array_equal(li, el)
        np.testing.assert_array_equal(ri, er)

    def test_duplicate_left_keys_fall_back_identically(self):
        rng = np.random.default_rng(3)
        left = rng.integers(0, 3000, 5000)  # duplicates: cross products
        right = rng.integers(0, 3000, 5000)
        li, ri = match_keys(left, right)
        el, er = kernels.match_keys_numpy(left, right)
        np.testing.assert_array_equal(li, el)
        np.testing.assert_array_equal(ri, er)

    def test_million_row_input(self):
        rng = np.random.default_rng(1)
        left = rng.integers(0, 2_000_000, 1_200_000)
        right = rng.integers(0, 2_000_000, 1000)
        li, ri = match_keys(left, right)
        np.testing.assert_array_equal(left[li], right[ri])
        # Cross-check the match count with a membership count on the
        # (unique-keyed) right side.
        uniq, counts = np.unique(right, return_counts=True)
        expected = counts[np.searchsorted(uniq, left[np.isin(left, uniq)])].sum()
        assert len(li) == expected


class TestStableOrder:
    """The stable permutation is unique — radix must equal mergesort."""

    @pytest.mark.parametrize(
        "keys",
        [
            np.array([], dtype=np.int64),
            np.array([5], dtype=np.int64),
            np.array([3, 1, 3, 1, 3], dtype=np.int64),  # ties: stability
            np.array([-(2**62), 2**62, 0], dtype=np.int64),  # span fallback
            np.arange(-5, 5000, dtype=np.int64),  # strictly increasing
            np.repeat(np.arange(70_000, dtype=np.int32), 2),  # sorted, ties
            np.full(300, 7, dtype=np.int64),  # constant
            np.array([0, 2**63 + 5, 2**64 - 1], dtype=np.uint64),  # sorted unsigned
            np.append(np.arange(1000), 998),  # one descent, at the end
            np.insert(np.arange(1000), 0, 1),  # one descent, at the start
            np.array([2, 1], dtype=np.int64),
        ],
    )
    def test_edge_cases(self, keys):
        order = kernels.stable_order(keys)
        expected = np.argsort(keys, kind="stable")
        np.testing.assert_array_equal(order, expected)
        assert order.dtype == expected.dtype

    def test_sorted_integer_keys_skip_the_sort(self, monkeypatch):
        def no_sort(*args, **kwargs):
            raise AssertionError("sorted keys must not be sorted again")

        monkeypatch.setattr(np, "argsort", no_sort)
        keys = np.repeat(np.arange(100_000), 3)
        np.testing.assert_array_equal(
            kernels.stable_order(keys), np.arange(len(keys))
        )
        # ... and so does everything layered on it: a PK-FK match whose
        # probe side is clustered, and a group sort over sorted keys.
        left_idx, right_idx = kernels.match_keys(np.arange(100_000), keys)
        np.testing.assert_array_equal(left_idx, keys)
        np.testing.assert_array_equal(right_idx, np.arange(len(keys)))
        np.testing.assert_array_equal(
            kernels.lexsort_stable([keys]), np.arange(len(keys))
        )

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (0, 1000),  # single uint16 digit
            (-500, 200),  # negative lows still shift cleanly
            (0, 2**20),  # two-digit radix
            (10**9, 10**9 + 2**31),  # big offset, span just under 2**32
            (0, 2**40),  # beyond radix span: mergesort fallback
        ],
    )
    def test_random_integers_match_mergesort(self, lo, hi):
        rng = np.random.default_rng(hi % 1009)
        keys = rng.integers(lo, hi, 50_000)
        np.testing.assert_array_equal(
            kernels.stable_order(keys), np.argsort(keys, kind="stable")
        )

    def test_unsigned_and_float_and_string(self):
        rng = np.random.default_rng(9)
        for keys in (
            rng.integers(0, 100, 5000).astype(np.uint64),
            rng.uniform(-1, 1, 5000),
            np.array(["pear", "fig", "fig", "apple"] * 100),
        ):
            np.testing.assert_array_equal(
                kernels.stable_order(keys), np.argsort(keys, kind="stable")
            )

    def test_lexsort_matches_numpy(self):
        rng = np.random.default_rng(10)
        primary = rng.integers(0, 20, 4000)
        secondary = rng.integers(0, 9, 4000)
        tertiary = rng.choice(np.array(["a", "b", "c"]), 4000)
        for keys in (
            [primary],
            [secondary, primary],
            [tertiary, secondary, primary],
        ):
            np.testing.assert_array_equal(
                kernels.lexsort_stable(keys), np.lexsort(keys)
            )

    def test_lexsort_requires_keys(self):
        with pytest.raises(ReproError, match="at least one key"):
            kernels.lexsort_stable([])


class TestEvalBetween:
    @pytest.mark.parametrize(
        "values, low, high",
        [
            (np.arange(1000), 100, 500),
            (np.linspace(-5, 5, 777), -1.25, 3.5),
            (np.array([1.0, np.nan, 2.0]), 0.5, 1.5),
            (np.array([], dtype=np.int64), 0, 1),
        ],
    )
    def test_matches_naive(self, values, low, high):
        np.testing.assert_array_equal(
            kernels.eval_between(values, low, high),
            (values >= low) & (values <= high),
        )

    def test_string_arrays_supported(self):
        values = np.array(["apple", "cherry", "fig", "plum"])
        np.testing.assert_array_equal(
            kernels.eval_between(values, "b", "g"),
            (values >= "b") & (values <= "g"),
        )

    def test_does_not_mutate_input(self):
        values = np.arange(10)
        before = values.copy()
        kernels.eval_between(values, 2, 5)
        np.testing.assert_array_equal(values, before)


class TestGroupedAggregate:
    def _groups(self, values, group_sizes):
        ends = np.cumsum(group_sizes)
        starts = ends - np.asarray(group_sizes)
        return np.asarray(starts), np.asarray(ends)

    @pytest.mark.parametrize("func", ["count", "min", "max"])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_exact_fast_paths(self, func, dtype):
        rng = np.random.default_rng(6)
        values = rng.integers(-50, 50, 30).astype(dtype)
        starts, ends = self._groups(values, [3, 1, 10, 7, 9])
        out = kernels.grouped_aggregate(func, values, starts, ends)
        reference = {
            "count": lambda a: float(len(a)),
            "min": lambda a: float(a.min()),
            "max": lambda a: float(a.max()),
        }[func]
        expected = np.array([reference(values[s:e]) for s, e in zip(starts, ends)])
        np.testing.assert_array_equal(out, expected)
        assert out.dtype == expected.dtype

    def test_integer_sum_exact(self):
        rng = np.random.default_rng(7)
        values = rng.integers(-(2**40), 2**40, 64)
        starts, ends = self._groups(values, [16, 16, 16, 16])
        out = kernels.grouped_aggregate("sum", values, starts, ends)
        expected = np.array(
            [float(values[s:e].sum()) for s, e in zip(starts, ends)]
        )
        np.testing.assert_array_equal(out, expected)

    def test_integer_avg_declined(self):
        values = np.arange(20)
        starts, ends = self._groups(values, [10, 10])
        assert kernels.grouped_aggregate("avg", values, starts, ends) is None

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("magnitude", [1e-3, 1.0, 1e5])
    @pytest.mark.parametrize("func", ["sum", "avg"])
    def test_float_sum_and_avg_bit_identical_to_group_loop(
        self, func, magnitude, dtype
    ):
        """Batched by group length == one ``np.sum`` per group, to the bit.

        Lengths straddle numpy's pairwise-summation block sizes (8 and
        128) and its 8192-element buffer; 1000 is held by one group
        only and 129 by three, so the scalar arm runs too.
        """
        rng = np.random.default_rng(8)
        common = [1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 130, 257, 8193]
        sizes = rng.permutation(
            np.concatenate([np.repeat(common, 6), [1000, 131, 131, 131]])
        )
        values = (rng.standard_normal(sizes.sum()) * magnitude).astype(dtype)
        values[rng.integers(0, len(values), 50)] = -0.0
        starts, ends = self._groups(values, sizes)
        out = kernels.grouped_aggregate(func, values, starts, ends)
        reduce = np.mean if func == "avg" else np.sum
        expected = np.array(
            [float(reduce(values[s:e])) for s, e in zip(starts, ends)]
        )
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))
        assert out.dtype == expected.dtype

    def test_float_sum_all_lengths_distinct(self):
        rng = np.random.default_rng(9)
        sizes = rng.permutation(np.arange(1, 60))
        values = rng.uniform(-1, 1, sizes.sum())
        starts, ends = self._groups(values, sizes)
        out = kernels.grouped_aggregate("sum", values, starts, ends)
        expected = np.array([float(values[s:e].sum()) for s, e in zip(starts, ends)])
        assert np.array_equal(out, expected)

    def test_count_ignores_values(self):
        starts, ends = self._groups(None, [3, 1, 5])
        out = kernels.grouped_aggregate("count", None, starts, ends)
        np.testing.assert_array_equal(out, [3.0, 1.0, 5.0])

    def test_empty_input(self):
        empty = np.empty(0, dtype=np.int64)
        out = kernels.grouped_aggregate("count", empty, empty, empty)
        assert out is not None and len(out) == 0


class TestGroupedCountCompact:
    def _reference(self, keys):
        """Sorted-unique keys and run lengths, as the sort path yields."""
        uniq, counts = np.unique(keys, return_counts=True)
        return uniq, counts

    @pytest.mark.parametrize(
        "keys",
        [
            np.array([7, 3, 3, 7, 7, 1], dtype=np.int64),
            np.array([5], dtype=np.int64),
            np.array([-4, -4, -4], dtype=np.int64),  # negative lows
            np.arange(1000, dtype=np.int32)[::-1].copy(),
        ],
    )
    def test_matches_sorted_grouping(self, keys):
        result = kernels.grouped_count_compact(keys)
        assert result is not None
        group_keys, counts = result
        expected_keys, expected_counts = self._reference(keys)
        np.testing.assert_array_equal(group_keys, expected_keys)
        np.testing.assert_array_equal(counts, expected_counts)
        assert group_keys.dtype == keys.dtype

    def test_declines_non_compact_and_non_integer(self):
        assert kernels.grouped_count_compact(np.empty(0, dtype=np.int64)) is None
        assert kernels.grouped_count_compact(np.array([0.5, 1.5])) is None
        sparse = np.array([0, 2**40], dtype=np.int64)
        assert kernels.grouped_count_compact(sparse) is None

    def test_large_random(self):
        rng = np.random.default_rng(13)
        keys = rng.integers(100, 3000, 200_000)
        group_keys, counts = kernels.grouped_count_compact(keys)
        expected_keys, expected_counts = self._reference(keys)
        np.testing.assert_array_equal(group_keys, expected_keys)
        np.testing.assert_array_equal(counts, expected_counts)
        assert counts.sum() == len(keys)


class TestNarrowIntegerKeys:
    """The dense-table kernels shift keys by their minimum. In the keys'
    own dtype that wraps once the span passes the dtype's positive half
    (``int16`` keys spanning −30 000…30 000, ``int8`` keys spanning
    −100…100): ``match_keys`` and ``grouped_count_compact`` then handed
    ``bincount`` negative positions.
    """

    @pytest.fixture(
        params=[(np.int16, -30_000, 30_000), (np.int8, -100, 100)],
        ids=["int16", "int8"],
    )
    def keys(self, request):
        """``(unique, duplicated)`` over the whole ``[low, high]`` range,
        both long enough to leave the small-input paths."""
        dtype, low, high = request.param
        rng = np.random.default_rng(5)
        universe = np.arange(low, high + 1).astype(dtype)
        return rng.permutation(universe), rng.choice(universe, 20_000)

    @pytest.mark.parametrize("unique_side", ["left", "right"])
    def test_match_keys_equals_reference(self, keys, unique_side):
        pair = keys if unique_side == "left" else keys[::-1]
        for got, want in zip(
            kernels.match_keys(*pair), kernels.match_keys_numpy(*pair), strict=True
        ):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_grouped_count_equals_unique(self, keys):
        _, duplicated = keys
        group_keys, counts = kernels.grouped_count_compact(duplicated)
        expected_keys, expected_counts = np.unique(duplicated, return_counts=True)
        assert group_keys.dtype == expected_keys.dtype
        np.testing.assert_array_equal(group_keys, expected_keys)
        np.testing.assert_array_equal(counts, expected_counts)
