"""Aggregation operators (SUM/COUNT/MIN/MAX/AVG, with optional GROUP BY)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.engine import kernels
from repro.engine.base import PhysicalOperator
from repro.engine.context import ExecutionContext
from repro.errors import ExecutionError
from repro.expressions import Frame
from repro.indexes.sorted_index import sorted_unique

_AGG_FUNCS: dict[str, Callable[[np.ndarray], float]] = {
    "sum": lambda a: float(a.sum()) if len(a) else 0.0,
    "count": lambda a: float(len(a)),
    "min": lambda a: float(a.min()),
    "max": lambda a: float(a.max()),
    "avg": lambda a: float(a.mean()),
}


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate: ``func(column) AS alias``.

    ``column`` is a qualified column name; for ``count`` it may be
    ``"*"``. ``alias`` names the output column.
    """

    func: str
    column: str
    alias: str

    def __post_init__(self) -> None:
        if self.func not in _AGG_FUNCS:
            raise ExecutionError(
                f"unknown aggregate {self.func!r}; choose from {sorted(_AGG_FUNCS)}"
            )


def _reduce(
    func: str, values: np.ndarray | None, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """``func`` over each contiguous group ``values[starts[i]:ends[i]]``.

    The kernel reduces every group in a few numpy calls wherever that is
    bit-identical to reducing each slice on its own, and returns None
    for the rest (``avg`` over integers), which keeps the reference
    per-group loop.
    """
    aggregated = kernels.grouped_aggregate(func, values, starts, ends)
    if aggregated is None:
        reduce = _AGG_FUNCS[func]
        aggregated = np.array([reduce(values[s:e]) for s, e in zip(starts, ends)])
    return aggregated


class HashAggregate(PhysicalOperator):
    """Group rows by the ``group_by`` columns and compute aggregates.

    With an empty ``group_by`` this is a scalar aggregate producing a
    single row (the shape of Experiment 1's ``SELECT SUM(...)``).

    Groups come out in ascending key order. When the plan reads only
    the first ``k`` of them (``ExecutionContext.prefix_reads``, entered
    by a :class:`~repro.engine.sort.Limit`) and the key is one compact
    integer column, each non-COUNT aggregate is a computed column that
    the reader reduces for the groups it reads.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        aggregates: Sequence[AggregateSpec],
        group_by: Sequence[str] = (),
    ) -> None:
        if not aggregates and not group_by:
            raise ExecutionError("aggregate requires aggregates or group-by keys")
        self.child = child
        self.aggregates = list(aggregates)
        self.group_by = list(group_by)

    def children(self) -> list[PhysicalOperator]:
        return [self.child]

    def execute(self, ctx: ExecutionContext) -> Frame:
        reads = ctx.prefix_reads.pop(self, None)
        frame = self.child.execute(ctx)
        ctx.counters.cpu_rows += frame.num_rows
        if not self.group_by:
            result = self._scalar(frame)
        else:
            ctx.counters.hash_build_rows += frame.num_rows
            result = self._grouped(frame, reads)
        ctx.counters.rows_output += result.num_rows
        return result

    def _scalar(self, frame: Frame) -> Frame:
        columns: dict[str, np.ndarray] = {}
        for spec in self.aggregates:
            if spec.func == "count":
                # The dialect has no NULL: COUNT(col) counts rows, like
                # COUNT(*), and reads no column.
                columns[spec.alias] = np.array([float(frame.num_rows)])
                continue
            values = self._agg_input(frame, spec)
            if spec.func in ("min", "max", "avg") and not len(values):
                columns[spec.alias] = np.array([np.nan])
            else:
                columns[spec.alias] = np.array([_AGG_FUNCS[spec.func](values)])
        return Frame(columns)

    def _grouped(self, frame: Frame, reads: int | None) -> Frame:
        """Group ``frame``; ``reads`` is how many leading groups the
        plan reads (``None``: all of them)."""
        key_arrays = [frame.column(name) for name in self.group_by]
        # Over one compact integer key, keys and counts come straight
        # from one bincount pass, bit-identical to the sorted path. Any
        # other aggregate is then reduced only for the groups read, so
        # this branch serves COUNT-only lists and plans that read fewer
        # groups than there are; the rest keep the group sort.
        counting = all(spec.func == "count" for spec in self.aggregates)
        if len(key_arrays) == 1 and (counting or reads is not None):
            groups = kernels.compact_groups(key_arrays[0])
            if groups is not None and (counting or reads < len(groups.keys)):
                return self._compact(frame, groups)
        # Group via lexicographic sort over the key columns. The
        # kernel's stable radix path returns the same (unique) stable
        # permutation np.lexsort would, in O(n) for integer keys.
        order = kernels.lexsort_stable(key_arrays[::-1])
        sorted_keys = [array[order] for array in key_arrays]
        if frame.num_rows == 0:
            boundaries = np.empty(0, dtype=np.int64)
        else:
            changed = np.zeros(frame.num_rows - 1, dtype=bool)
            for array in sorted_keys:
                changed |= array[1:] != array[:-1]
            boundaries = np.flatnonzero(changed) + 1
        starts = (
            np.concatenate(([0], boundaries)) if frame.num_rows else np.empty(0, int)
        )
        ends = (
            np.concatenate((boundaries, [frame.num_rows]))
            if frame.num_rows
            else np.empty(0, int)
        )

        columns: dict[str, np.ndarray] = {
            name: array[starts] for name, array in zip(self.group_by, sorted_keys)
        }
        for spec in self.aggregates:
            # ``count`` reads the group extents only: no input column,
            # no gather.
            values = (
                None if spec.func == "count" else self._agg_input(frame, spec)[order]
            )
            columns[spec.alias] = _reduce(spec.func, values, starts, ends)
        return Frame(columns)

    def _compact(self, frame: Frame, groups: kernels.CompactGroups) -> Frame:
        """The groups of one compact key, every non-COUNT aggregate a
        computed column: reading it at some rows reduces those groups
        only (:meth:`_reduce_groups`)."""
        columns: dict = {self.group_by[0]: groups.keys}
        for spec in self.aggregates:
            columns[spec.alias] = (
                groups.counts.astype(np.float64)
                if spec.func == "count"
                else partial(self._reduce_groups, frame, groups, spec)
            )
        return Frame.computed(columns, len(groups.keys))

    def _reduce_groups(
        self,
        frame: Frame,
        groups: kernels.CompactGroups,
        spec: AggregateSpec,
        sel: np.ndarray | None,
    ) -> np.ndarray:
        """``spec`` over the groups at positions ``sel`` (``None``: all),
        each group's rows in input order and reduced as the sorted path
        reduces them, so every value is bit-identical to it."""
        selected = np.arange(len(groups.keys)) if sel is None else sorted_unique(sel)
        rows, starts, ends = kernels.compact_group_rows(groups, selected)
        values = self._agg_input(frame.take(rows), spec)
        reduced = _reduce(spec.func, values, starts, ends)
        return reduced if sel is None else reduced[np.searchsorted(selected, sel)]

    def _agg_input(self, frame: Frame, spec: AggregateSpec) -> np.ndarray:
        if spec.column == "*":
            return np.ones(frame.num_rows)
        return frame.column(spec.column)

    def label(self) -> str:
        aggs = ", ".join(f"{s.func}({s.column})" for s in self.aggregates)
        by = f" BY {', '.join(self.group_by)}" if self.group_by else ""
        return f"HashAggregate({aggs}{by})"
