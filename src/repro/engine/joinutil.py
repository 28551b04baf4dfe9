"""Vectorized equi-join matching shared by the join operators.

:func:`match_frames` computes the row-index pairs of an inner equi-join
between two frames with no per-row Python work. A right side that is a
whole indexed base column is matched through that column's index, which
already holds the column sorted; everything else goes to
:mod:`repro.engine.kernels`, which picks the fastest numpy formulation
for the input's size and key range. Every path returns output
bit-identical to the reference :func:`repro.engine.kernels.match_keys_numpy`.
"""

from __future__ import annotations

import numpy as np

from repro.catalog import Database
from repro.engine import kernels
from repro.expressions import Frame
from repro.indexes import SortedIndex


def match_frames(
    database: Database, left: Frame, left_key: str, right: Frame, right_key: str
) -> tuple[np.ndarray, np.ndarray]:
    """Row-index pairs ``(left_idx, right_idx)`` where ``left``'s
    ``left_key`` equals ``right``'s ``right_key``.

    Pairs are grouped by left row, right positions ascending within one
    — :func:`kernels.match_keys`'s output for the two key columns,
    element for element. When the right key column *is* an indexed base
    column (an unfiltered scan hands the table's own array out), its
    index answers the left keys directly
    (:meth:`~repro.indexes.SortedIndex.match_many` has that contract).
    Otherwise the kernels match the two arrays. Which path ran is
    invisible above this function: the operators charge their counters
    from the frames.
    """
    left_keys = left.column(left_key)
    right_keys = right.column(right_key)
    index = _base_column_index(database, right_key, right_keys)
    if index is not None:
        return index.match_many(left_keys)
    return kernels.match_keys(left_keys, right_keys)


def _base_column_index(
    database: Database, name: str, keys: np.ndarray
) -> SortedIndex | None:
    """The index on column ``name`` (``table.column``) if ``keys`` is that
    column's base array itself — row ``i`` of ``keys`` is row ``i`` of
    the table, the RID the index answers with — else ``None``."""
    table, _, column = name.partition(".")
    index = database.sorted_index(table, column)
    if index is None or database.table(table).column(column) is not keys:
        return None
    return index

