"""Unit tests for repro.indexes (sorted, RID algebra)."""

import numpy as np
import pytest

from repro.engine.kernels import match_keys
from repro.errors import IndexError_
from repro.indexes import (
    SortedIndex,
    intersect_rid_sets,
    union_rid_lists,
)


@pytest.fixture
def values():
    return np.array([5, 3, 8, 3, 1, 9, 3, 7])


class TestSortedIndex:
    def test_lookup_eq(self, values):
        index = SortedIndex(values)
        assert sorted(index.lookup_eq(3)) == [1, 3, 6]
        assert list(index.lookup_eq(42)) == []

    def test_lookup_range_inclusive(self, values):
        index = SortedIndex(values)
        rids = index.lookup_range(3, 7)
        assert sorted(values[rids]) == [3, 3, 3, 5, 7]

    def test_lookup_range_exclusive(self, values):
        index = SortedIndex(values)
        rids = index.lookup_range(3, 7, low_inclusive=False, high_inclusive=False)
        assert sorted(values[rids]) == [5]

    def test_lookup_range_open_ended(self, values):
        index = SortedIndex(values)
        assert len(index.lookup_range(None, None)) == len(values)
        assert sorted(values[index.lookup_range(8, None)]) == [8, 9]
        assert sorted(values[index.lookup_range(None, 1)]) == [1]

    def test_empty_range(self, values):
        index = SortedIndex(values)
        assert list(index.lookup_range(100, 200)) == []
        assert list(index.lookup_range(7, 3)) == []

    def test_count_range_matches_lookup(self, values):
        index = SortedIndex(values)
        for lo, hi in [(None, None), (3, 7), (0, 0), (8, None)]:
            assert index.count_range(lo, hi) == len(index.lookup_range(lo, hi))

    @pytest.mark.parametrize(
        "dtype",
        [np.int8, np.int16, np.int32, np.int64,
         np.uint8, np.uint16, np.uint32, np.uint64],
    )
    def test_bounds_past_the_dtype_range(self, dtype):
        """A Python-int bound outside the keys' dtype finds what numpy's
        comparison finds — ``searchsorted`` alone lands ``2**63`` before
        the largest ``int64`` key."""
        limits = np.iinfo(dtype)
        keys = np.array([limits.min, limits.min + 1, 0, limits.max - 1, limits.max],
                        dtype=dtype)
        index = SortedIndex(keys)
        outside = [int(limits.min) - 1, int(limits.max) + 1, 2**63, 2**64,
                   -(2**63) - 1, 2**70, -(2**70)]
        for bound in outside + [int(limits.min), int(limits.max), 0]:
            for inclusive in (True, False):
                above = keys >= bound if inclusive else keys > bound
                below = keys <= bound if inclusive else keys < bound
                for got, want in [
                    (index.lookup_range(bound, None, inclusive), above),
                    (index.lookup_range(None, bound, True, inclusive), below),
                ]:
                    assert sorted(got.tolist()) == np.flatnonzero(want).tolist()
                assert index.count_range(bound, None, inclusive) == above.sum()

    def test_lookup_many_eq(self, values):
        index = SortedIndex(values)
        rids = index.lookup_many_eq(np.array([3, 9]))
        assert sorted(values[rids]) == [3, 3, 3, 9]

    def test_lookup_many_eq_empty(self, values):
        index = SortedIndex(values)
        assert list(index.lookup_many_eq(np.array([], dtype=np.int64))) == []
        assert list(index.lookup_many_eq(np.array([1000]))) == []

    def test_match_many_pairs_grouped_by_probe(self, values):
        index = SortedIndex(values)
        probe_idx, rids = index.match_many(np.array([3, 42, 9, 3]))
        # probe 0 and probe 3 (both key 3) each get rows 1, 3, 6 in
        # ascending order; probe 1 matches nothing; probe 2 gets row 5.
        assert probe_idx.tolist() == [0, 0, 0, 2, 3, 3, 3]
        assert rids.tolist() == [1, 3, 6, 5, 1, 3, 6]
        assert probe_idx.dtype == rids.dtype == np.int64

    @pytest.mark.parametrize(
        "column, probes",
        [
            (np.array([5, 3, 8, 3]), np.array([], dtype=np.int64)),  # no probes
            (np.array([], dtype=np.int64), np.array([1, 2])),  # empty index
            (np.array([5, 3, 8, 3]), np.array([100, -1])),  # no matches
            (np.array([5, 3, 8, 3]), np.array([3, 8], dtype=np.int32)),
            (np.array(["pear", "fig", "fig"]), np.array(["fig", "kiwi", "pear"])),
        ],
    )
    def test_match_many_equals_match_keys(self, column, probes):
        probe_idx, rids = SortedIndex(column).match_many(probes)
        expected_probe, expected_rids = match_keys(probes, column)
        np.testing.assert_array_equal(probe_idx, expected_probe)
        np.testing.assert_array_equal(rids, expected_rids)
        np.testing.assert_array_equal(
            SortedIndex(column).lookup_many_eq(probes), expected_rids
        )

    def test_min_max(self, values):
        index = SortedIndex(values)
        assert index.min_key() == 1
        assert index.max_key() == 9

    def test_empty_index_min_raises(self):
        index = SortedIndex(np.array([], dtype=np.int64))
        with pytest.raises(IndexError_):
            index.min_key()

    def test_2d_input_raises(self):
        with pytest.raises(IndexError_):
            SortedIndex(np.zeros((2, 2)))

    def test_string_keys(self):
        index = SortedIndex(np.array(["pear", "apple", "fig"]))
        assert list(index.lookup_eq("fig")) == [2]

    def test_num_entries(self, values):
        assert SortedIndex(values).num_entries == 8


class TestRidAlgebra:
    def test_intersect_basic(self):
        out = intersect_rid_sets(
            [np.array([1, 2, 3, 4]), np.array([3, 4, 5]), np.array([4, 3, 9])]
        )
        assert list(out) == [3, 4]

    def test_intersect_empty_input(self):
        assert list(intersect_rid_sets([])) == []

    def test_intersect_with_empty_set(self):
        out = intersect_rid_sets([np.array([1, 2]), np.array([], dtype=np.int64)])
        assert list(out) == []

    def test_intersect_single(self):
        assert list(intersect_rid_sets([np.array([2, 1, 2])])) == [1, 2]

    def test_union(self):
        out = union_rid_lists([np.array([3, 1]), np.array([2, 3])])
        assert list(out) == [1, 2, 3]

    def test_union_empty(self):
        assert list(union_rid_lists([])) == []
        assert list(union_rid_lists([np.array([], dtype=np.int64)])) == []
