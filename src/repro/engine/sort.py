"""Sort and Limit operators.

Sort establishes an order (for merge joins and ORDER BY); work is
charged as ``n·log₂(n)`` comparisons into a dedicated counter, so the
cost model stays a linear function of the counters while the sort
itself is priced super-linearly in its input size. Limit truncates the
stream and is free under the cost model.

A Limit over a Sort on exactly an aggregate's group keys reads the
aggregate's groups in key order, so it tells the aggregate how many it
reads before it runs (``ExecutionContext.prefix_reads``). The
aggregate may then leave columns to be computed for the rows read, and
the Limit computes them in its own ``execute``: its output holds plain
arrays only.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.engine import kernels
from repro.engine.aggregate import HashAggregate
from repro.engine.base import PhysicalOperator
from repro.engine.context import ExecutionContext
from repro.errors import ExecutionError
from repro.expressions import Frame


def sort_work(n_rows: float) -> float:
    """Comparison count charged for sorting ``n_rows`` rows.

    Accepts a threshold-axis vector of row counts as well as a scalar;
    the vector path evaluates each lane with the same scalar formula so
    vectorized costing agrees bit for bit with per-threshold costing.
    """
    if isinstance(n_rows, np.ndarray):
        return np.array(
            [0.0 if v <= 1 else v * math.log2(v) for v in n_rows.tolist()]
        )
    if n_rows <= 1:
        return 0.0
    return n_rows * math.log2(n_rows)


class Sort(PhysicalOperator):
    """Sort the child's output ascending by one or more columns.

    ``keys`` may be a single qualified column name or a sequence of
    them (most significant first).
    """

    def __init__(self, child: PhysicalOperator, keys: str | Sequence[str]) -> None:
        self.child = child
        self.keys = [keys] if isinstance(keys, str) else list(keys)
        if not self.keys:
            raise ExecutionError("Sort requires at least one key column")

    def children(self) -> list[PhysicalOperator]:
        return [self.child]

    def execute(self, ctx: ExecutionContext) -> Frame:
        frame = self.child.execute(ctx)
        ctx.counters.sort_comparisons += sort_work(frame.num_rows)
        columns = [frame.column(key) for key in reversed(self.keys)]
        order = kernels.lexsort_stable(columns)
        return frame.take(order)

    def label(self) -> str:
        return f"Sort({', '.join(self.keys)})"


class Limit(PhysicalOperator):
    """Pass through at most ``count`` rows of the child's output."""

    def __init__(self, child: PhysicalOperator, count: int) -> None:
        if count < 0:
            raise ExecutionError(f"LIMIT must be non-negative, got {count}")
        self.child = child
        self.count = count

    def children(self) -> list[PhysicalOperator]:
        return [self.child]

    def execute(self, ctx: ExecutionContext) -> Frame:
        aggregate = _groups_in_key_order(self.child)
        if aggregate is not None:
            ctx.prefix_reads[aggregate] = self.count
        frame = self.child.execute(ctx)
        if frame.num_rows > self.count:
            frame = frame.take(np.arange(self.count))
        return frame.materialized()

    def label(self) -> str:
        return f"Limit({self.count})"


def _groups_in_key_order(child: PhysicalOperator) -> HashAggregate | None:
    """The aggregate under ``child`` when ``child`` is a Sort on exactly
    its group keys: its groups come out in key order, so the sort keeps
    them where they are."""
    if (
        isinstance(child, Sort)
        and isinstance(child.child, HashAggregate)
        and child.keys == child.child.group_by
    ):
        return child.child
    return None
