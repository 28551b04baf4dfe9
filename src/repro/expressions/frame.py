"""Frames: named numpy columns flowing between operators.

A frame maps *qualified* column names (``table.column``) to arrays of
equal length. Frames are produced by scans, joins, samples, and join
synopses; expressions evaluate against them.

A frame represents each column as a *source*: a base array plus an
optional selection vector of row positions. ``mask`` and ``take``
merely compose selection vectors — O(result rows) total, independent of
column count — and a column is gathered (``base[sel]``) only the first
time something actually reads it, after which the materialized array is
memoized. Projection pruning falls out for free: columns no operator
touches are never copied.

What a column reads back is exactly numpy's own gather:
``base[sel][rows]`` and ``base[sel[rows]]`` are the same elements, and
boolean masks are converted to position vectors with ``np.flatnonzero``
(``a[keep]`` and ``a[np.flatnonzero(keep)]`` agree element-for-element
and dtype-for-dtype). The test suite checks frames against that.

Frames are immutable by contract: no caller may write into an array
obtained from :meth:`column`. Frames share base arrays (and possibly
selection vectors) with their inputs, so the contract is what makes
sharing safe.

A memoized gather is memory the frame holds for as long as the frame
lives, and a frame a cache keeps lives long: the join and the aggregate
above a cached scan read their columns *from the cached frame*, after it
was stored. So exactly one party may observe a gather: whoever stored
the frame (:class:`repro.engine.scancache.ScanCache`, through
:meth:`Frame.watch_gathers`) is told the size of each array the frame
comes to retain, once, when it is first gathered through a selection
vector. Identity sources return the base array itself and report
nothing, and every frame derived by ``mask`` / ``take`` / ``select`` /
``merged_with`` is a new, unwatched object: arrays it shares with a
watched frame are that frame's. A frame nobody stored pays one
``is not None`` per first read.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.errors import ExpressionError


class _Source:
    """One column's backing store: a base array plus an optional
    selection vector of row positions into it (``None`` = identity)."""

    __slots__ = ("base", "sel")

    def __init__(self, base: np.ndarray, sel: np.ndarray | None) -> None:
        self.base = base
        self.sel = sel

    def gather(self) -> np.ndarray:
        """Materialize the column (identity sources return the base)."""
        return self.base if self.sel is None else self.base[self.sel]


class Frame:
    """An ordered mapping of qualified column names to numpy arrays."""

    #: Whoever stored this frame and answers for its memory; see
    #: :meth:`watch_gathers`. A class default, so building a frame
    #: costs nothing for it.
    _on_gather: Callable[[int], None] | None = None

    def __init__(self, columns: Mapping[str, np.ndarray]) -> None:
        sources: dict[str, _Source] = {}
        cache: dict[str, np.ndarray] = {}
        lengths = set()
        for name, array in dict(columns).items():
            sources[name] = _Source(array, None)
            cache[name] = array
            lengths.add(len(array))
        if len(lengths) > 1:
            raise ExpressionError(f"ragged frame (lengths {sorted(lengths)})")
        self._sources = sources
        self._cache = cache
        self._num_rows = lengths.pop() if lengths else 0

    @classmethod
    def _from_sources(
        cls,
        sources: dict[str, _Source],
        num_rows: int,
        cache: dict[str, np.ndarray] | None = None,
    ) -> "Frame":
        frame = cls.__new__(cls)
        frame._sources = sources
        frame._cache = cache if cache is not None else {}
        frame._num_rows = num_rows
        return frame

    @classmethod
    def from_table(cls, table) -> "Frame":
        """Build a frame over a whole table with qualified names.

        Never copies (columns reference the table's arrays).
        """
        sources = {
            table.qualified(name): _Source(table.column(name), None)
            for name in table.schema.column_names
        }
        return cls._from_sources(sources, table.num_rows)

    @classmethod
    def from_table_rows(cls, table, row_ids: np.ndarray) -> "Frame":
        """Build a frame over selected rows of a table.

        Wraps the table's arrays with ``row_ids`` as a shared selection
        vector, copying nothing until a column is read.
        """
        sel = np.asarray(row_ids, dtype=np.int64)
        sources = {
            table.qualified(name): _Source(table.column(name), sel)
            for name in table.schema.column_names
        }
        return cls._from_sources(sources, len(sel))

    @property
    def num_rows(self) -> int:
        """Number of rows."""
        return self._num_rows

    @property
    def column_names(self) -> list[str]:
        """Qualified column names in insertion order."""
        return list(self._sources)

    def _resolve(self, qualified_name: str) -> str:
        """Resolve a (possibly unqualified) name to a stored key."""
        if qualified_name in self._sources:
            return qualified_name
        suffix = f".{qualified_name}"
        matches = [name for name in self._sources if name.endswith(suffix)]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise ExpressionError(
                f"ambiguous column {qualified_name!r}: matches {matches}"
            )
        raise ExpressionError(
            f"no column {qualified_name!r} in frame with {self.column_names}"
        )

    def column(self, qualified_name: str) -> np.ndarray:
        """Return the array stored under ``qualified_name``.

        As a convenience, an unqualified name resolves when exactly one
        frame column has that suffix. The first read of a column
        gathers and memoizes it.
        """
        key = self._resolve(qualified_name)
        array = self._cache.get(key)
        if array is None:
            source = self._sources[key]
            gathered = source.gather()
            # Two readers may race here; the frame keeps one array, and
            # only the reader whose array it kept reports it.
            array = self._cache.setdefault(key, gathered)
            if (
                self._on_gather is not None
                and array is gathered
                and source.sel is not None
            ):
                self._on_gather(array.nbytes)
        return array

    def owned_nbytes(self) -> int:
        """Bytes of the arrays reachable only through this frame.

        Its distinct selection vectors (all columns of one scan share
        one) plus the gathers memoized through one. An identity source
        aliases its base array, which the table owns, and weighs
        nothing.
        """
        total = 0
        counted: set[int] = set()
        for name, source in self._sources.items():
            sel = source.sel
            if sel is None:
                continue
            if id(sel) not in counted:
                counted.add(id(sel))
                total += sel.nbytes
            gathered = self._cache.get(name)
            if gathered is not None:
                total += gathered.nbytes
        return total

    def watch_gathers(self, on_gather: Callable[[int], None] | None) -> None:
        """Report the size of each array this frame memoizes from now on
        to ``on_gather`` (``None`` stops it). For the one owner that
        stored the frame and budgets its memory; what the frame already
        holds is :meth:`owned_nbytes`.
        """
        self._on_gather = on_gather

    def __contains__(self, qualified_name: str) -> bool:
        try:
            self._resolve(qualified_name)
        except ExpressionError:
            return False
        return True

    def mask(self, keep: np.ndarray) -> "Frame":
        """Return a new frame with only the rows where ``keep`` is True."""
        if keep.dtype != np.bool_ or len(keep) != self._num_rows:
            raise ExpressionError("mask must be a boolean array of frame length")
        return self._compose(np.flatnonzero(keep))

    def take(self, row_ids: np.ndarray) -> "Frame":
        """Return a new frame with rows gathered by position."""
        rows = np.asarray(row_ids)
        if rows.dtype == np.bool_:
            raise ExpressionError("take() requires positions; use mask() for booleans")
        if rows.dtype.kind not in "iu" and len(rows):
            raise ExpressionError(
                f"take() requires integer positions, got dtype {rows.dtype}"
            )
        return self._compose(rows.astype(np.int64, copy=False))

    def _compose(self, row_ids: np.ndarray) -> "Frame":
        """Selection-vector composition: the zero-copy mask/take core.

        Columns sharing one selection vector (the common case: all
        columns of one scan) compose it once, so the cost is O(result
        rows) per *distinct* vector, not per column — and no data
        column is touched at all.
        """
        composed: dict[int, np.ndarray] = {}
        sources: dict[str, _Source] = {}
        for name, src in self._sources.items():
            sel_id = id(src.sel)
            sel = composed.get(sel_id)
            if sel is None:
                sel = row_ids if src.sel is None else src.sel[row_ids]
                composed[sel_id] = sel
            sources[name] = _Source(src.base, sel)
        return Frame._from_sources(sources, len(row_ids))

    def select(self, names: list[str]) -> "Frame":
        """Return a new frame with only the listed (qualified) columns.

        This also drops the pruned columns' source references, releasing
        their base arrays for garbage collection once no other frame
        shares them.
        """
        sources: dict[str, _Source] = {}
        cache: dict[str, np.ndarray] = {}
        for name in names:
            key = self._resolve(name)
            sources[name] = self._sources[key]
            if key in self._cache:
                cache[name] = self._cache[key]
        num_rows = self._num_rows if sources else 0
        return Frame._from_sources(sources, num_rows, cache)

    def merged_with(self, other: "Frame") -> "Frame":
        """Column-wise concatenation of two row-aligned frames."""
        if other.num_rows != self._num_rows:
            raise ExpressionError(
                f"cannot merge frames of {self._num_rows} and {other.num_rows} rows"
            )
        overlap = set(self._sources) & set(other._sources)
        if overlap:
            raise ExpressionError(f"duplicate columns when merging: {sorted(overlap)}")
        sources = dict(self._sources)
        sources.update(other._sources)
        cache = dict(self._cache)
        cache.update(other._cache)
        return Frame._from_sources(sources, self._num_rows, cache)

    def __repr__(self) -> str:
        return f"Frame(rows={self._num_rows}, columns={self.column_names})"
