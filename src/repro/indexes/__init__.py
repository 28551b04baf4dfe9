"""Index structures: sorted (B-tree-equivalent) indexes and RID algebra.

The paper's experiments rely on nonclustered indexes for the "risky"
plans (index intersection, indexed nested-loop join, star semijoin).
A sorted array plus binary search is functionally equivalent to a
B-tree for the read-only workloads we run, so that is what we build.
"""

from repro.indexes.sorted_index import SortedIndex
from repro.indexes.rid import intersect_rid_sets, union_rid_lists

__all__ = ["SortedIndex", "intersect_rid_sets", "union_rid_lists"]
