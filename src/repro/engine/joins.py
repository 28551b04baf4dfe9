"""Join operators: hash join, merge join, indexed nested-loop join.

These are the three join strategies whose crossovers drive Experiments
2 and 3: indexed nested loops win at very low selectivity (few random
probes), hash joins in the middle, and merge joins of clustered inputs
when almost everything joins.
"""

from __future__ import annotations

import numpy as np

from repro.engine import kernels
from repro.engine.base import PhysicalOperator
from repro.engine.context import ExecutionContext
from repro.engine.joinutil import match_frames
from repro.errors import ExecutionError
from repro.expressions import Expr, Frame
from repro.indexes.sorted_index import expand_runs


class HashJoin(PhysicalOperator):
    """Equi-join: build a hash table on the left child, probe with the right.

    By convention the *build* side should be the smaller input; the
    optimizer enforces this when costing.
    """

    def __init__(
        self,
        build: PhysicalOperator,
        probe: PhysicalOperator,
        build_key: str,
        probe_key: str,
    ) -> None:
        self.build = build
        self.probe = probe
        self.build_key = build_key
        self.probe_key = probe_key

    def children(self) -> list[PhysicalOperator]:
        return [self.build, self.probe]

    def execute(self, ctx: ExecutionContext) -> Frame:
        build_frame = self.build.execute(ctx)
        probe_frame = self.probe.execute(ctx)
        ctx.counters.hash_build_rows += build_frame.num_rows
        ctx.counters.hash_probe_rows += probe_frame.num_rows
        build_idx, probe_idx = match_frames(
            ctx.database, build_frame, self.build_key, probe_frame, self.probe_key
        )
        result = build_frame.take(build_idx).merged_with(probe_frame.take(probe_idx))
        ctx.counters.rows_output += result.num_rows
        return result

    def label(self) -> str:
        return f"HashJoin({self.build_key} = {self.probe_key})"


class MergeJoin(PhysicalOperator):
    """Equi-join of two inputs already ordered on the join keys.

    The engine does not re-sort: the optimizer only emits merge joins
    when both inputs are clustered on their keys, which is how the
    paper's Experiment 2 high-selectivity plan (lineitem ⨝ orders by
    merge) arises. Cost is linear in the two input sizes.
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_key: str,
        right_key: str,
    ) -> None:
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key

    def children(self) -> list[PhysicalOperator]:
        return [self.left, self.right]

    def execute(self, ctx: ExecutionContext) -> Frame:
        left_frame = self.left.execute(ctx)
        right_frame = self.right.execute(ctx)
        ctx.counters.merge_rows += left_frame.num_rows + right_frame.num_rows
        left_idx, right_idx = match_frames(
            ctx.database, left_frame, self.left_key, right_frame, self.right_key
        )
        result = left_frame.take(left_idx).merged_with(right_frame.take(right_idx))
        ctx.counters.rows_output += result.num_rows
        return result

    def label(self) -> str:
        return f"MergeJoin({self.left_key} = {self.right_key})"


#: searchsorted sides resolving each inequality operator into the
#: half-open interval of matching sorted positions. ``starts`` side of
#: None means the interval starts at 0; ``ends`` side of None means it
#: runs to the end of the sorted input.
_INTERVAL_SIDES = {
    "<": ("right", None),
    "<=": ("left", None),
    ">": (None, "left"),
    ">=": (None, "right"),
    "=": ("left", "right"),
}


class NonEquiJoin(PhysicalOperator):
    """Inequality join via sort + vectorized interval search.

    The right input is sorted once on its join column; each left row's
    matching right rows then form one contiguous run of the sorted
    order, located with a binary search (``searchsorted``) and expanded
    into candidate pairs. Band joins carry their remaining conditions
    in ``residual``, applied to the paired rows. Output order is
    deterministic: left rows in input order, each followed by its
    matches in ascending right-value order (ties in right input order,
    via the stable sort).
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_column: str,
        op: str,
        right_column: str,
        residual: Expr | None = None,
    ) -> None:
        if op not in _INTERVAL_SIDES:
            raise ExecutionError(f"unsupported non-equi join operator {op!r}")
        self.left = left
        self.right = right
        self.left_column = left_column
        self.op = op
        self.right_column = right_column
        self.residual = residual

    def children(self) -> list[PhysicalOperator]:
        return [self.left, self.right]

    def execute(self, ctx: ExecutionContext) -> Frame:
        left_frame = self.left.execute(ctx)
        right_frame = self.right.execute(ctx)
        left_values = left_frame.column(self.left_column)
        right_values = right_frame.column(self.right_column)
        n_left, n_right = left_frame.num_rows, right_frame.num_rows

        from repro.engine.sort import sort_work

        order = kernels.stable_order(right_values)
        sorted_right = right_values[order]
        ctx.counters.sort_comparisons += sort_work(n_right)
        ctx.counters.cpu_rows += n_left

        start_side, end_side = _INTERVAL_SIDES[self.op]
        starts = (
            np.zeros(n_left, dtype=np.int64)
            if start_side is None
            else np.searchsorted(sorted_right, left_values, side=start_side)
        )
        ends = (
            np.full(n_left, n_right, dtype=np.int64)
            if end_side is None
            else np.searchsorted(sorted_right, left_values, side=end_side)
        )
        counts = np.maximum(ends - starts, 0)
        left_idx = np.repeat(np.arange(n_left), counts)
        right_idx = order[expand_runs(starts, counts)]
        ctx.counters.interval_pairs += len(right_idx)

        result = left_frame.take(left_idx).merged_with(right_frame.take(right_idx))
        if self.residual is not None:
            ctx.counters.cpu_rows += result.num_rows
            result = result.mask(self.residual.evaluate(result))
        ctx.counters.rows_output += result.num_rows
        return result

    def label(self) -> str:
        extra = " + residual" if self.residual is not None else ""
        return f"NonEquiJoin({self.left_column} {self.op} {self.right_column}{extra})"


class IndexedNLJoin(PhysicalOperator):
    """For each outer row, probe a sorted index on the inner table.

    The risky join: one index lookup per outer row and one random I/O
    per matching inner row (the inner index is nonclustered). The
    probes go to the index ``create_index`` built — O(outer · log inner
    + matches), as costed. An optional residual predicate filters the
    joined rows.
    """

    def __init__(
        self,
        outer: PhysicalOperator,
        inner_table: str,
        outer_key: str,
        inner_column: str,
        residual: Expr | None = None,
    ) -> None:
        self.outer = outer
        self.inner_table = inner_table
        self.outer_key = outer_key
        self.inner_column = inner_column
        self.residual = residual

    def children(self) -> list[PhysicalOperator]:
        return [self.outer]

    def execute(self, ctx: ExecutionContext) -> Frame:
        outer_frame = self.outer.execute(ctx)
        inner = ctx.database.table(self.inner_table)
        index = ctx.database.sorted_index(self.inner_table, self.inner_column)
        if index is None:
            raise ExecutionError(
                f"no index on {self.inner_table}.{self.inner_column}"
            )
        outer_keys = outer_frame.column(self.outer_key)
        ctx.counters.index_lookups += len(outer_keys)

        outer_idx, inner_idx = index.match_many(outer_keys)
        ctx.counters.index_entries += len(inner_idx)

        clustered = ctx.database.clustering_column(self.inner_table) == self.inner_column
        if clustered:
            ctx.counters.seq_pages += -(-len(inner_idx) // inner.rows_per_page)
        else:
            ctx.counters.random_ios += len(inner_idx)

        inner_frame = Frame.from_table_rows(inner, inner_idx)
        result = outer_frame.take(outer_idx).merged_with(inner_frame)
        if self.residual is not None:
            ctx.counters.cpu_rows += result.num_rows
            result = result.mask(self.residual.evaluate(result))
        ctx.counters.rows_output += result.num_rows
        return result

    def label(self) -> str:
        return (
            f"IndexedNLJoin({self.outer_key} -> "
            f"{self.inner_table}.{self.inner_column})"
        )
