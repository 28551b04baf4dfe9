"""RID-set algebra for index-intersection and semijoin plans.

An index-intersection plan (paper Section 2.1) resolves each predicate
to a RID set via a secondary index, intersects the sets, and fetches
only the surviving rows. The star-semijoin plan of Experiment 3 does
the same across foreign-key indexes.

Both operations sort (:func:`~repro.indexes.sorted_index.sorted_unique`,
``np.sort``) and never hash. Their output, sorted unique RIDs, is what
numpy's hash-based set routines return for the engine's int64 RIDs,
element for element, and holds for any integers, negatives included.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.indexes.sorted_index import sorted_unique

_EMPTY = np.empty(0, dtype=np.int64)


def intersect_rid_sets(rid_sets: Sequence[np.ndarray]) -> np.ndarray:
    """Intersect RID arrays, returning sorted unique RIDs.

    The smallest set, de-duplicated, is the candidate list; each other
    set, sorted, keeps the candidates a binary search finds in it. The
    candidates only shrink, so the searches are bounded by the most
    selective predicate, as a real executor's would be — but each other
    set is sorted whole, once.
    """
    if not rid_sets:
        return _EMPTY
    ordered = sorted(rid_sets, key=len)
    result = sorted_unique(ordered[0])
    for rids in ordered[1:]:
        if not len(result):
            return _EMPTY
        keys = np.sort(rids)
        found = keys.take(np.searchsorted(keys, result), mode="clip") == result
        result = result[found]
    return result


def union_rid_lists(rid_lists: Iterable[np.ndarray]) -> np.ndarray:
    """Union RID arrays, returning sorted unique RIDs."""
    chunks = [rids for rids in rid_lists if len(rids)]
    if not chunks:
        return _EMPTY
    return sorted_unique(np.concatenate(chunks))
