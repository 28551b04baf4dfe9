"""Sorted secondary index: the B-tree equivalent for a read-only store.

The index keeps the column values in sorted order together with the
row ids (RIDs) that produced them. Range and equality lookups are two
binary searches followed by a slice — the same leaf-scan behaviour a
B-tree gives, which is what the cost model charges for. A batch of
equality probes (:meth:`SortedIndex.match_many`) finds where each
probe's run of equal keys starts — through a dense position table when
the keys are compact integers, else by one binary search — and reads
the run's length from the index.

The dense key tables of this module and of :mod:`repro.engine.kernels`
are one kind of object: an array indexed by ``key - lo`` with one
trailing −1 slot. They share the shift (:func:`_table_offsets`), the
build (:func:`_key_table`), the probe (:func:`_probe_key_table`) and the
rule for when a table is worth its span (``TABLE_RANGE_FACTOR``), which
live here because the engine's kernels import this module.

Sort, don't hash: every uniqueness, intersection and index-order job of
the package sorts. :func:`stable_order` builds an index (and the
engine's group-by, ORDER BY and join-side orders), and
:func:`sorted_unique` answers what numpy's set routine ``unique`` would
— whose hash-based implementation (numpy 2.4) costs 20–80x a sort of
8 k–1 M int64 keys.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.errors import IndexError_

#: Use a dense key-indexed table while the key range is at most this
#: many times the rows it serves. 4× keeps the table well inside cache
#: for typical join-key universes while bounding worst-case memory.
TABLE_RANGE_FACTOR = 4


def _table_offsets(keys: np.ndarray, lo: int) -> np.ndarray:
    """``keys - lo`` as int64 positions into a dense table starting at ``lo``.

    The one place integer keys are shifted. The keys' own dtype would
    wrap (``int16`` keys spanning −30 000…30 000 shift to negatives), so
    narrow keys are widened first; 64-bit keys subtract modulo 2**64,
    which is exact for every key within ``2**63`` of ``lo`` — any key a
    table can hold — and sends no key outside the table into it.
    """
    if keys.dtype == np.uint64:
        return (keys - np.uint64(lo)).view(np.int64)
    return np.subtract(keys, lo, dtype=np.int64)


def _key_table(keys: np.ndarray, rows: np.ndarray, lo: int, span: int) -> np.ndarray:
    """A dense table over ``[lo, lo + span)`` holding ``rows[i]`` at
    ``keys[i] - lo`` and −1 elsewhere, plus one trailing −1 slot — where
    :func:`_probe_key_table` sends every key the table does not cover.
    """
    table = np.full(span + 1, -1, dtype=np.int64)
    table[_table_offsets(keys, lo)] = rows
    return table


def _probe_key_table(lo: int, table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The table row of each key, −1 where the table has none.

    Offsets below the table wrap to huge values when read as unsigned,
    so one ``minimum`` folds both out-of-range sides onto the trailing
    −1 slot: subtract, clamp in place, gather — no masks.
    """
    slots = _table_offsets(keys, lo)
    unsigned = slots.view(np.uint64)
    np.minimum(unsigned, np.uint64(len(table) - 1), out=unsigned)
    return table[slots]


def expand_runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions ``starts[i] .. starts[i] + counts[i] - 1`` for every
    ``i``, concatenated: each probe's run of sorted matches laid end to
    end. The one run expansion behind every searchsorted-based join.
    """
    run_begin = np.cumsum(counts) - counts
    return np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(
        starts - run_begin, counts
    )


def _same_key(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise key equality as the sort order sees it: NaNs, which
    sort (and ``searchsorted``) as one key past every number, are equal.
    """
    same = a == b
    if a.dtype.kind == "f":
        same |= (a != a) & (b != b)
    return same


#: Widest integer key span the radix path handles (two uint16 digits).
RADIX_MAX_SPAN = 2**32


def stable_order(keys: np.ndarray) -> np.ndarray:
    """Indices that stable-sort ``keys`` ascending.

    The stable permutation of an array is unique, so any stable
    algorithm returns bit-identical output. numpy applies its O(n)
    radix sort only to <=16-bit integers and falls back to mergesort
    for int64 — O(n log n), and the dominant cost of group-by at paper
    scale. Integer keys whose span fits two uint16 digits are LSD
    radix sorted here instead (measured ~3-6x faster at millions of
    rows); everything else uses ``np.argsort(kind="stable")``. Integer
    keys already non-decreasing — clustered columns and join inputs,
    group-bys over sorted keys — are their own stable order: one
    comparison pass finds that out and the sort is skipped.
    """
    if len(keys) > 1 and keys.dtype.kind in ("i", "u"):
        if not (keys[1:] < keys[:-1]).any():
            return np.arange(len(keys), dtype=np.intp)
        lo = keys.min()
        span = int(keys.max()) - int(lo)
        if span < 2**16:
            return np.argsort((keys - lo).astype(np.uint16), kind="stable")
        if span < RADIX_MAX_SPAN:
            shifted = (keys - lo).astype(np.uint64)
            order = np.argsort(
                (shifted & np.uint64(0xFFFF)).astype(np.uint16), kind="stable"
            )
            high = (shifted >> np.uint64(16)).astype(np.uint16)
            return order[np.argsort(high[order], kind="stable")]
    return np.argsort(keys, kind="stable")


def sorted_unique(values: np.ndarray, return_counts: bool = False):
    """numpy's ``unique(values[, return_counts=True])``, by sorting.

    The sorted values, one per run of equal keys as :func:`_same_key`
    sees them — so NaNs collapse to one, as ``unique`` collapses them —
    in ``values``' dtype (flattened), and with ``return_counts`` the run
    lengths as ``intp``. Values and counts equal ``unique``'s; a zero
    may keep either sign, which no comparison can tell apart.
    """
    keys = np.sort(values, axis=None)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = ~_same_key(keys[1:], keys[:-1])
    unique = keys[first]
    if not return_counts:
        return unique
    return unique, np.diff(np.flatnonzero(first), append=len(keys))


class SortedIndex:
    """Index over one column supporting equality and range lookup.

    The index holds the column's stable sort order — ``np.argsort(values,
    kind="stable")``, computed by :func:`stable_order`, so compact
    integer keys take the radix path and already-sorted (clustered)
    keys one comparison pass — and the keys in that order.

    Parameters
    ----------
    values:
        The column to index. Strings and numerics both work; the sort
        order is numpy's.
    """

    def __init__(self, values: np.ndarray) -> None:
        if values.ndim != 1:
            raise IndexError_("SortedIndex requires a 1-D column")
        order = stable_order(values)
        self._keys = values[order]
        self._rids = order.astype(np.int64, copy=False)

    @property
    def num_entries(self) -> int:
        """Number of indexed rows."""
        return len(self._keys)

    @cached_property
    def in_storage_order(self) -> bool:
        """Whether the column is stored in key order: its stable order
        is the identity, so a scan of the table reads the keys sorted —
        what a clustered index promises."""
        return bool(np.array_equal(self._rids, np.arange(len(self._rids))))

    def lookup_eq(self, value) -> np.ndarray:
        """RIDs of rows whose key equals ``value`` (sorted by key order)."""
        lo = np.searchsorted(self._keys, value, side="left")
        hi = np.searchsorted(self._keys, value, side="right")
        return self._rids[lo:hi]

    def _range_positions(
        self,
        low=None,
        high=None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> tuple[int, int]:
        """Sorted positions ``[lo, hi)``, ``lo <= hi``, of the keys in the
        given (optionally open) range: one binary search per bound.

        ``low=None`` / ``high=None`` leave that side unbounded. The one
        range descent behind :meth:`lookup_range`, :meth:`count_range`
        and a sequential scan narrowed by the index
        (:func:`repro.engine.scans.scan_table`).
        """
        lo = 0
        hi = len(self._keys)
        if low is not None:
            lo = self._search(low, "left" if low_inclusive else "right")
        if high is not None:
            hi = max(lo, self._search(high, "right" if high_inclusive else "left"))
        return lo, hi

    def _search(self, bound, side: str) -> int:
        """``searchsorted(keys, bound, side)``, exact for a Python int past
        integer keys' dtype range — which numpy compares exactly but
        searches wrongly (``2**63`` lands before the largest ``int64``
        key) — by answering such a bound from the range's edge."""
        keys = self._keys
        if isinstance(bound, int) and keys.dtype.kind in ("i", "u"):
            limits = np.iinfo(keys.dtype)
            if bound < limits.min:
                return 0
            if bound > limits.max:
                return len(keys)
        return int(np.searchsorted(keys, bound, side=side))

    def lookup_range(
        self,
        low=None,
        high=None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> np.ndarray:
        """RIDs of rows with key in the given (optionally open) range.

        ``low=None`` / ``high=None`` leave that side unbounded.
        """
        lo, hi = self._range_positions(low, high, low_inclusive, high_inclusive)
        return self._rids[lo:hi]

    def count_range(
        self,
        low=None,
        high=None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> int:
        """Number of rows in the range, without materializing RIDs."""
        lo, hi = self._range_positions(low, high, low_inclusive, high_inclusive)
        return hi - lo

    def rows_at(self, lo: int, hi: int) -> np.ndarray:
        """The RIDs at sorted positions ``[lo, hi)`` in ascending order —
        the rows of a key range as a sequential scan meets them."""
        return np.sort(self._rids[lo:hi])

    def match_many(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Equi-match probe ``values`` against the index (vectorized).

        Returns ``(probe_idx, rids)``, pairs grouped by probe position
        and each probe's RIDs ascending: element for element what
        :func:`repro.engine.kernels.match_keys` returns for ``values``
        against the indexed column, without sorting the column again.

        Each probe first finds the sorted position where its run of
        equal keys starts. Probes of the keys' own integer dtype read it
        from :attr:`_position_table` — one gather, no search — when the
        index has one; everything else (floats, strings, a sparse key
        span, a probe dtype of its own) descends the index once:
        ``searchsorted(side="left")`` lands on the first entry not below
        the probe, which is a hit exactly when that entry's key equals
        it. Over unique keys a hit is the whole match; otherwise the
        run's length is read from :attr:`_run_lengths` rather than found
        by a second search.
        """
        if not len(values) or not len(self._keys):
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        table = self._position_table if values.dtype == self._keys.dtype else None
        if table is not None:
            lo = _probe_key_table(*table, values)
            hit = lo >= 0
        else:
            lo = np.searchsorted(self._keys, values, side="left")
            # A probe past every key lands one beyond the end: clip it
            # onto the last entry, whose smaller key cannot equal it.
            hit = _same_key(self._keys.take(lo, mode="clip"), values)
        if self._run_lengths is None:
            probe_idx = np.flatnonzero(hit)
            return probe_idx, self._rids[lo[probe_idx]]
        counts = self._run_lengths.take(lo, mode="clip").astype(np.int64)
        counts *= hit
        probe_idx = np.repeat(np.arange(len(values), dtype=np.int64), counts)
        return probe_idx, self._rids[expand_runs(lo, counts)]

    @cached_property
    def _run_lengths(self) -> np.ndarray | None:
        """Per sorted position, the length of the run of equal keys that
        *starts* there (0 elsewhere) in the narrowest unsigned dtype that
        holds the longest run; ``None`` — nothing stored — when the keys
        are unique. Built on the first probe, not with the index, so an
        index that is only ever range-scanned never pays for it.
        """
        starts = np.flatnonzero(~_same_key(self._keys[1:], self._keys[:-1])) + 1
        if len(starts) + 1 == len(self._keys):
            return None
        starts = np.concatenate(([0], starts))
        lengths = np.diff(starts, append=len(self._keys))
        table = np.zeros(len(self._keys), dtype=np.min_scalar_type(lengths.max()))
        table[starts] = lengths
        return table

    @cached_property
    def _position_table(self) -> tuple[int, np.ndarray] | None:
        """``(lo, table)`` with ``table[key - lo]`` the sorted position
        where ``key``'s run starts, −1 where no key is — for integer keys
        spanning at most ``TABLE_RANGE_FACTOR`` x the entries; ``None``
        (floats, strings, a sparse span) otherwise. Built on the first
        probe, like :attr:`_run_lengths`, whose run starts it stores.
        """
        keys = self._keys
        if keys.dtype.kind not in ("i", "u"):
            return None
        lo = int(keys[0])
        span = int(keys[-1]) - lo + 1
        if span > TABLE_RANGE_FACTOR * len(keys):
            return None
        if self._run_lengths is None:
            return lo, _key_table(keys, np.arange(len(keys)), lo, span)
        starts = np.flatnonzero(self._run_lengths)
        return lo, _key_table(keys[starts], starts, lo, span)

    def lookup_many_eq(self, values: np.ndarray) -> np.ndarray:
        """Concatenated RIDs for every key in ``values`` (vectorized).

        Equivalent to concatenating :meth:`lookup_eq` over ``values``;
        used by semijoin plans that probe one index with many keys.
        """
        return self.match_many(values)[1]

    def min_key(self):
        """Smallest indexed key (raises on an empty index)."""
        if not len(self._keys):
            raise IndexError_("empty index has no min key")
        return self._keys[0]

    def max_key(self):
        """Largest indexed key (raises on an empty index)."""
        if not len(self._keys):
            raise IndexError_("empty index has no max key")
        return self._keys[-1]
