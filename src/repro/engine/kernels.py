"""Numpy kernels for the engine's hot paths.

The engine's inner loops — equi-join matching, predicate evaluation,
grouped aggregation — are all numpy already, but at paper scale
(millions of rows) the remaining overheads matter: extra temporaries,
sorts a key table can replace, per-group Python loops.
This module concentrates those hot paths behind one dispatch point.
Each kernel has a reference formulation and faster ones chosen from
the input (size, dtype, key range, which side's keys are unique) —
never from a setting.

The sort-free paths for integer keys — equi-join matching, grouping
by one compact key, and a sorted index's equality probes — all index a
dense table by ``key - min``. They share one rule for when the table is
worth building (its span against ``TABLE_RANGE_FACTOR`` x the rows it
serves), one shift, :func:`_table_offsets`, which cannot wrap in a
narrow dtype, and one clamped probe, :func:`_probe_key_table`; all three
live in :mod:`repro.indexes.sorted_index`, below this module, so
:class:`~repro.indexes.SortedIndex` builds its position table by the
same rule. :func:`stable_order`, the one stable sort, lives there too:
that module builds every index with it. An equi-join with a unique
side (every PK–FK join) sorts neither input: the table goes on the
unique side and the other side is gathered through it;
:func:`match_keys_numpy` remains the only sort-based matcher, for
everything else. (A join over a whole indexed base column does not
come here at all: the engine probes that column's index, see
:func:`repro.engine.joinutil.match_frames`.)

Exactness contract: every kernel pair is bit-identical on the dtypes
the engine produces. Where a faster formulation would change float
rounding (e.g. ``np.add.reduceat`` accumulates sequentially while
``np.sum`` uses pairwise summation), the fast path is restricted to
the exact cases (counts, min/max, integer sums; float sums batched by
group length, which keeps the pairwise order) and the rest falls back
to the reference implementation. The test suite asserts the
equivalence for every kernel.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.errors import ReproError
from repro.indexes.sorted_index import (
    TABLE_RANGE_FACTOR,
    _key_table,
    _probe_key_table,
    _table_offsets,
    expand_runs,
    stable_order,
)

#: Below this combined key count :func:`match_keys` gains nothing from a
#: key table, so small inputs stay on the reference sort
#: (:func:`match_keys_numpy`) — trivially "no slower".
SEMIJOIN_SMALL_N = 4096


# ----------------------------------------------------------------------
# Stable ordering (group-by, ORDER BY, and join-side sorts)
# ----------------------------------------------------------------------

def lexsort_stable(key_arrays) -> np.ndarray:
    """Drop-in for ``np.lexsort``: the *last* array is the primary key.

    Chains :func:`stable_order` passes from least- to most-significant
    key (LSD); stability makes the composition equal ``np.lexsort``
    bit for bit while integer keys get the radix path.
    """
    if not len(key_arrays):
        raise ReproError("lexsort_stable requires at least one key array")
    order = stable_order(np.asarray(key_arrays[0]))
    for keys in key_arrays[1:]:
        keys = np.asarray(keys)
        order = order[stable_order(keys[order])]
    return order


# ----------------------------------------------------------------------
# Equi-join matching
# ----------------------------------------------------------------------

def match_keys_numpy(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reference implementation: sort + searchsorted + offset gather.

    Handles duplicate keys on both sides (full cross product per key).
    Output order groups matches by left row; within one left row the
    matching right rows appear in ascending original position (the
    stable argsort preserves it).
    """
    if not len(left_keys) or not len(right_keys):
        empty = np.empty(0, dtype=np.int64)
        return empty, empty

    order = stable_order(right_keys)
    sorted_right = right_keys[order]
    lo = np.searchsorted(sorted_right, left_keys, side="left")
    counts = np.searchsorted(sorted_right, left_keys, side="right") - lo
    left_idx = np.repeat(np.arange(len(left_keys), dtype=np.int64), counts)
    return left_idx, order[expand_runs(lo, counts)]


def _unique_key_table(
    keys: np.ndarray, max_span: int
) -> tuple[int, np.ndarray] | None:
    """``(lo, table)`` with ``table[key - lo]`` the row holding ``key``,
    or ``None`` unless ``keys`` are unique over a span of at most
    ``max_span``.

    Rows are scattered into the table and the occupied slots counted: a
    duplicate key overwrites its earlier row, so exactly ``len(keys)``
    occupied slots proves uniqueness (more keys than slots disproves it
    before any pass).
    """
    lo = int(keys.min())
    span = int(keys.max()) - lo + 1
    if not len(keys) <= span <= max_span:
        return None
    table = _key_table(keys, np.arange(len(keys)), lo, span)
    if np.count_nonzero(table >= 0) != len(keys):
        return None
    return lo, table


def _match_keys_table(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """PK–FK matching through a dense key → row table, no sort of a side.

    Applies when either side's keys are *unique* integers whose span is
    at most ``TABLE_RANGE_FACTOR`` x the combined row count; the table
    is built on that side and the other side's keys are gathered
    through it in one streaming pass.

    Right side unique (a filtered FK side building against its PK side,
    every clustered merge join): each left row has at most one partner,
    so the matched left rows in their own order *are* the output order
    and nothing is sorted. Left side unique (a filtered PK build side
    probed by its FK side): only the *matched* pairs are ordered — by
    left row, stably, so right positions stay ascending within each left
    row. The stable permutation is unique, so either way the output is
    bit-identical to :func:`match_keys_numpy`. Returns ``None`` when
    neither side qualifies (duplicates on both sides, or a wide key
    range) and the caller should use the reference path.
    """
    max_span = TABLE_RANGE_FACTOR * (len(left_keys) + len(right_keys))
    right_table = _unique_key_table(right_keys, max_span)
    if right_table is not None:
        right_rows = _probe_key_table(*right_table, left_keys)
        left_idx = np.flatnonzero(right_rows >= 0)
        return left_idx, right_rows[left_idx]
    left_table = _unique_key_table(left_keys, max_span)
    if left_table is not None:
        left_rows = _probe_key_table(*left_table, right_keys)
        matched = np.flatnonzero(left_rows >= 0)
        left_rows = left_rows[matched]
        perm = stable_order(left_rows)
        return left_rows[perm], matched[perm]
    return None


def match_keys(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row-index pairs ``(left_idx, right_idx)`` where keys are equal.

    Pairs are grouped by left row, right positions ascending within one
    — :func:`match_keys_numpy`'s output, element for element. Large
    same-dtype integer inputs with a unique side over a compact range
    (every PK–FK join) go through :func:`_match_keys_table` and sort
    neither side; everything else — small, non-integer, wide-range,
    duplicates on both sides — is the reference itself.
    """
    if (
        len(left_keys) + len(right_keys) > SEMIJOIN_SMALL_N
        and left_keys.dtype.kind in ("i", "u")
        and right_keys.dtype.kind in ("i", "u")
        and left_keys.dtype == right_keys.dtype
        and len(left_keys)
        and len(right_keys)
    ):
        result = _match_keys_table(left_keys, right_keys)
        if result is not None:
            return result
    return match_keys_numpy(left_keys, right_keys)


# ----------------------------------------------------------------------
# Predicate evaluation
# ----------------------------------------------------------------------

def eval_between(values: np.ndarray, low, high) -> np.ndarray:
    """Fused inclusive-range predicate: ``(values >= low) & (values <= high)``.

    Numeric arrays reuse the first comparison's buffer for the AND,
    saving one temporary per evaluation.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in ("i", "u", "f"):
        out = values >= low
        out &= values <= high
        return out
    return (values >= low) & (values <= high)


# ----------------------------------------------------------------------
# Grouped aggregation
# ----------------------------------------------------------------------

def grouped_aggregate(
    func: str, values: np.ndarray | None, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray | None:
    """Vectorized per-group reduction over contiguous, covering groups.

    ``starts``/``ends`` describe adjacent non-empty slices partitioning
    ``values`` (the layout :class:`~repro.engine.aggregate.HashAggregate`
    produces after its group sort), so ``ufunc.reduceat(values, starts)``
    reduces exactly slice ``[starts[i], ends[i])``. ``count`` reads the
    extents only, so its ``values`` may be ``None``.

    Returns ``None`` when no exactness-preserving fast path exists:
    ``avg`` over integers, whose cast to float64 numpy sums in buffer-
    sized chunks, stays on the reference per-group loop.
    """
    n_groups = len(starts)
    if n_groups == 0:
        return np.empty(0, dtype=np.float64)
    if func == "count":
        return (ends - starts).astype(np.float64)
    if func == "min":
        return np.minimum.reduceat(values, starts).astype(np.float64)
    if func == "max":
        return np.maximum.reduceat(values, starts).astype(np.float64)
    if func == "sum" and values.dtype.kind in ("i", "u", "b"):
        # Integer addition is associative (modulo the same int64
        # wraparound on both paths), so reduceat is exact here.
        return np.add.reduceat(values, starts).astype(np.float64)
    if func in ("sum", "avg") and values.dtype.kind == "f":
        return _grouped_float_reduce(func == "avg", values, starts, ends)
    return None


#: Fewest groups of one length worth gathering into a block; rarer
#: lengths are reduced one slice at a time (same result either way).
_MIN_BLOCK_GROUPS = 4


def _grouped_float_reduce(
    mean: bool, values: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Per-group float ``sum``/``mean``, batched by group length.

    ``np.add.reduceat`` adds left to right where ``np.sum`` adds
    pairwise, so it would change the low bits. Reducing a C-contiguous
    ``(g, L)`` block along its rows runs ``np.sum``'s pairwise order
    over each row, so groups of equal length are gathered into one
    block and reduced in one call, bit-identical to the per-group loop.
    """
    reduce = np.ndarray.mean if mean else np.ndarray.sum
    lengths = ends - starts
    by_length = stable_order(lengths)
    sorted_lengths = lengths[by_length]
    cuts = np.flatnonzero(sorted_lengths[1:] != sorted_lengths[:-1]) + 1
    out = np.empty(len(starts), dtype=np.float64)
    for groups in np.split(by_length, cuts):
        if len(groups) < _MIN_BLOCK_GROUPS:
            for group in groups:
                out[group] = reduce(values[starts[group] : ends[group]])
        else:
            within = np.arange(lengths[groups[0]])
            out[groups] = reduce(values[starts[groups][:, None] + within], axis=1)
    return out


#: Hard cap on the bincount table for sort-free grouping
#: (2**24 buckets = 128 MiB of int64 counts at worst).
GROUP_TABLE_MAX_SPAN = 2**24


class CompactGroups(NamedTuple):
    """One integer key's groups, read off one ``np.bincount`` table."""

    #: Distinct keys, ascending, in the keys' own dtype.
    keys: np.ndarray
    #: Rows per group.
    counts: np.ndarray
    #: Each group's table slot (``key - lo``).
    slots: np.ndarray
    #: Each input row's table slot.
    offsets: np.ndarray


def compact_groups(keys: np.ndarray) -> CompactGroups | None:
    """Sort-free grouping over one integer key of compact span.

    The group keys and counts are exactly the sorted unique keys and
    run lengths the sort-based path produces (both exact integers), or
    ``None`` when the key is not a compact-range integer array. One
    ``np.bincount`` into a cache-resident table replaces the
    O(n log n) permutation; :func:`compact_group_rows` finds the rows
    of any subset of the groups from the same table offsets.
    """
    if not len(keys) or keys.dtype.kind not in ("i", "u"):
        return None
    lo = int(keys.min())
    span = int(keys.max()) - lo
    if span >= GROUP_TABLE_MAX_SPAN:
        return None
    if span + 1 > TABLE_RANGE_FACTOR * max(len(keys), 2**16):
        return None
    offsets = _table_offsets(keys, lo)
    counts = np.bincount(offsets, minlength=span + 1)
    slots = np.flatnonzero(counts)
    # In the keys' own dtype, where wrapping undoes the shift's widening.
    group_keys = slots.astype(keys.dtype, copy=False) + keys.dtype.type(lo)
    return CompactGroups(group_keys, counts[slots], slots, offsets)


def compact_group_rows(
    groups: CompactGroups, selected: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, starts, ends)`` for the ``selected`` groups (ascending
    group positions): their input rows laid out as the sort-based path
    lays them out — group after group, each group's rows in input order
    — and each group's slice ``[starts[i], ends[i])`` of that layout.

    Only the selected groups' rows are ordered, so reducing ``k`` of
    the groups costs one pass over the keys plus the ``k`` groups.
    """
    wanted = np.zeros(int(groups.slots[-1]) + 1, dtype=bool)
    wanted[groups.slots[selected]] = True
    rows = np.flatnonzero(wanted[groups.offsets])
    rows = rows[stable_order(groups.offsets[rows])]
    ends = np.cumsum(groups.counts[selected])
    return rows, ends - groups.counts[selected], ends
