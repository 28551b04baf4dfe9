"""Access-path operators: sequential scan, index seek, index intersection.

These are the paper's canonical stable-vs-risky pair (Section 2.1):
a sequential scan costs the same at any selectivity, while an index
intersection costs one random I/O per qualifying row — blazingly fast
at low selectivity, agonizingly slow at high selectivity.

Three scale features live here:

* The operators build selection-vector frames — filtering composes
  row selections instead of gathering every column, so untouched
  columns are never copied.
* Results are memoized through ``ctx.scan_memo`` when the context
  carries a :class:`~repro.engine.scancache.ScanCache`. The counter
  arithmetic stays *outside* the memoized computation, replayed from
  small cached aux values on every hit, so :class:`WorkCounters` —
  the simulation's unit of account — are bit-identical with the cache
  on or off.
* A sequential scan whose predicate holds a narrow range over an
  indexed integer column finds its rows through that index instead of
  comparing every row; it still charges every page.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.catalog import Database, Table
from repro.engine.base import PhysicalOperator
from repro.engine.context import ExecutionContext
from repro.errors import ExecutionError, TypeMismatchError
from repro.expressions import Expr, Frame, conjunction, expr_key, split_conjuncts
from repro.expressions.analysis import as_range_condition
from repro.expressions.expr import Between, _coerce_against
from repro.indexes import SortedIndex, intersect_rid_sets, union_rid_lists


@dataclass(frozen=True)
class IndexCondition:
    """A sargable range condition resolvable by one sorted index.

    ``low``/``high`` of ``None`` leave that side unbounded; bounds are
    inclusive (SQL BETWEEN semantics). Values must already be in
    storage representation (dates as ordinals).
    """

    column: str
    low: object = None
    high: object = None
    low_inclusive: bool = True
    high_inclusive: bool = True

    def cache_key(self) -> tuple:
        return (
            self.column,
            self.low,
            self.high,
            self.low_inclusive,
            self.high_inclusive,
        )


#: A sequential scan reads its narrowest indexed integer range through
#: the index while the range holds at most 1/``_NARROW_SCAN_FACTOR`` of
#: the table. On a 600 k-row ``lineitem`` (DESIGN §13), sorting ``k``
#: RIDs beat comparing every row and compacting the mask up to about a
#: sixth of the table with a residual conjunct and a fifth without; 8
#: keeps the rule on the winning side of both.
_NARROW_SCAN_FACTOR = 8


def _index_range(
    database: Database, table: Table, conjunct: Expr
) -> tuple[SortedIndex, int, int] | None:
    """``(index, lo, hi)``: the sorted positions of the rows passing
    ``conjunct`` — a range over an indexed integer column of ``table``
    whose bounds coerce to Python ints as evaluation coerces them — or
    ``None`` for any other conjunct."""
    condition = as_range_condition(conjunct)
    if (
        condition is None
        or condition.table not in (None, table.name)
        or condition.column not in table
    ):
        return None
    index = database.sorted_index(table.name, condition.column)
    values = table.column(condition.column)
    if index is None or values.dtype.kind not in ("i", "u"):
        return None
    bounds = []
    for bound in (condition.low, condition.high):
        if bound is not None:
            try:
                bound = _coerce_against(bound, values)
            except TypeMismatchError:
                return None
            if type(bound) is not int:
                return None
        bounds.append(bound)
    # A NULL literal leaves a bound of None where the conjunct wrote
    # one; it matches no row and is no range.
    if bounds == [None, None] or (isinstance(conjunct, Between) and None in bounds):
        return None
    return (
        index,
        *index._range_positions(
            *bounds, condition.low_inclusive, condition.high_inclusive
        ),
    )


def _narrowed_scan(database: Database, table: Table, predicate: Expr) -> Frame | None:
    """The rows passing ``predicate``, read through the narrowest range
    of :func:`_index_range` when it holds at most 1/``_NARROW_SCAN_FACTOR``
    of the table: its RIDs in ascending order, then the other conjuncts,
    in their order, on those rows alone. ``None`` when no conjunct is
    such a range or the narrowest is too wide.
    """
    conjuncts = split_conjuncts(predicate)
    best = None  # (rows, conjunct position, index, first sorted position)
    for i, conjunct in enumerate(conjuncts):
        found = _index_range(database, table, conjunct)
        if found is None:
            continue
        index, lo, hi = found
        if best is None or hi - lo < best[0]:
            best = (hi - lo, i, index, lo)
    if best is None or best[0] * _NARROW_SCAN_FACTOR > table.num_rows:
        return None
    rows, i, index, lo = best
    frame = Frame.from_table_rows(table, index.rows_at(lo, lo + rows))
    rest = conjunction(conjuncts[:i] + conjuncts[i + 1 :])
    if rest is not None and frame.num_rows:
        frame = frame.mask(rest.evaluate(frame))
    return frame


def scan_table(
    ctx: ExecutionContext, table_name: str, predicate: Expr | None
) -> Frame:
    """One sequential read: charge every page, keep the rows passing
    ``predicate``. :class:`SeqScan` and ``StarSemiJoin``'s dimension
    scans both come here, so they share one scan-cache key space.

    How the rows are found is free — the counters are charged from the
    table, not from the evaluation — so a narrow indexed integer range
    is read through its index (:func:`_narrowed_scan`): the same
    positions, in the same order and dtype, as masking the whole table.
    """
    table = ctx.database.table(table_name)
    ctx.counters.seq_pages += table.num_pages
    ctx.counters.cpu_rows += table.num_rows

    def compute() -> Frame:
        if predicate is None:
            return Frame.from_table(table)
        narrowed = _narrowed_scan(ctx.database, table, predicate)
        if narrowed is not None:
            return narrowed
        frame = Frame.from_table(table)
        return frame.mask(predicate.evaluate(frame))

    return ctx.scan_memo(("seq-scan", table_name, expr_key(predicate)), compute)


class SeqScan(PhysicalOperator):
    """Scan a whole table, optionally filtering rows.

    Charges every page sequentially plus CPU per row; its cost does not
    depend on the predicate's selectivity.
    """

    def __init__(self, table_name: str, predicate: Expr | None = None) -> None:
        self.table_name = table_name
        self.predicate = predicate

    def execute(self, ctx: ExecutionContext) -> Frame:
        frame = scan_table(ctx, self.table_name, self.predicate)
        ctx.counters.rows_output += frame.num_rows
        return frame

    def label(self) -> str:
        pred = f" filter={self.predicate!r}" if self.predicate is not None else ""
        return f"SeqScan({self.table_name}{pred})"


class IndexSeek(PhysicalOperator):
    """Resolve one range condition through a sorted index, fetch rows.

    With a clustered index the qualifying rows are contiguous and read
    sequentially; with a nonclustered index every row is a random fetch.
    A residual predicate (the non-sargable remainder) is applied to the
    fetched rows.
    """

    def __init__(
        self,
        table_name: str,
        condition: IndexCondition,
        residual: Expr | None = None,
    ) -> None:
        self.table_name = table_name
        self.condition = condition
        self.residual = residual

    def execute(self, ctx: ExecutionContext) -> Frame:
        table = ctx.database.table(self.table_name)
        index = ctx.database.sorted_index(self.table_name, self.condition.column)
        if index is None:
            raise ExecutionError(
                f"no index on {self.table_name}.{self.condition.column}"
            )

        def compute() -> tuple[int, Frame]:
            rids = index.lookup_range(
                self.condition.low,
                self.condition.high,
                self.condition.low_inclusive,
                self.condition.high_inclusive,
            )
            frame = Frame.from_table_rows(table, rids)
            if self.residual is not None:
                frame = frame.mask(self.residual.evaluate(frame))
            return len(rids), frame

        n_rids, frame = ctx.scan_memo(
            (
                "index-seek",
                self.table_name,
                self.condition.cache_key(),
                expr_key(self.residual),
            ),
            compute,
        )
        ctx.counters.index_lookups += 1
        ctx.counters.index_entries += n_rids
        clustered = (
            ctx.database.clustering_column(self.table_name) == self.condition.column
        )
        if clustered:
            ctx.counters.seq_pages += -(-n_rids // table.rows_per_page)
        else:
            ctx.counters.random_ios += n_rids
        if self.residual is not None:
            ctx.counters.cpu_rows += n_rids
        ctx.counters.rows_output += frame.num_rows
        return frame

    def label(self) -> str:
        c = self.condition
        res = f" residual={self.residual!r}" if self.residual is not None else ""
        return (
            f"IndexSeek({self.table_name}.{c.column} in [{c.low}, {c.high}]{res})"
        )


class IndexUnionSeek(PhysicalOperator):
    """Resolve an IN-list through one index: seek per value, union RIDs.

    The index-OR strategy: one B-tree probe per list value, the
    resulting RID lists unioned (distinct values make them disjoint),
    and the survivors fetched — one random I/O each on a nonclustered
    index.
    """

    def __init__(
        self,
        table_name: str,
        column: str,
        values: Sequence,
        residual: Expr | None = None,
    ) -> None:
        if not len(values):
            raise ExecutionError("IndexUnionSeek needs at least one value")
        self.table_name = table_name
        self.column = column
        self.values = list(dict.fromkeys(values))  # dedupe, keep order
        self.residual = residual

    def execute(self, ctx: ExecutionContext) -> Frame:
        table = ctx.database.table(self.table_name)
        index = ctx.database.sorted_index(self.table_name, self.column)
        if index is None:
            raise ExecutionError(f"no index on {self.table_name}.{self.column}")

        def compute() -> tuple[int, int, Frame]:
            rid_lists = [index.lookup_eq(value) for value in self.values]
            entries = sum(len(rids) for rids in rid_lists)
            final = union_rid_lists(rid_lists)
            frame = Frame.from_table_rows(table, final)
            if self.residual is not None:
                frame = frame.mask(self.residual.evaluate(frame))
            return entries, len(final), frame

        entries, n_final, frame = ctx.scan_memo(
            (
                "index-union",
                self.table_name,
                self.column,
                tuple(self.values),
                expr_key(self.residual),
            ),
            compute,
        )
        ctx.counters.index_lookups += len(self.values)
        ctx.counters.index_entries += entries
        clustered = ctx.database.clustering_column(self.table_name) == self.column
        if clustered:
            ctx.counters.seq_pages += -(-n_final // table.rows_per_page)
        else:
            ctx.counters.random_ios += n_final
        if self.residual is not None:
            ctx.counters.cpu_rows += n_final
        ctx.counters.rows_output += frame.num_rows
        return frame

    def label(self) -> str:
        preview = ", ".join(repr(v) for v in self.values[:4])
        if len(self.values) > 4:
            preview += ", ..."
        return f"IndexUnionSeek({self.table_name}.{self.column} IN [{preview}])"


class IndexIntersect(PhysicalOperator):
    """Intersect RID sets from several nonclustered indexes, then fetch.

    The risky plan of Experiment 1: index leaf scans are cheap, but the
    final fetch is one random I/O per surviving RID.
    """

    def __init__(
        self,
        table_name: str,
        conditions: Sequence[IndexCondition],
        residual: Expr | None = None,
    ) -> None:
        if len(conditions) < 2:
            raise ExecutionError("IndexIntersect needs at least two conditions")
        self.table_name = table_name
        self.conditions = list(conditions)
        self.residual = residual

    def execute(self, ctx: ExecutionContext) -> Frame:
        table = ctx.database.table(self.table_name)
        indexes = []
        for condition in self.conditions:
            index = ctx.database.sorted_index(self.table_name, condition.column)
            if index is None:
                raise ExecutionError(
                    f"no index on {self.table_name}.{condition.column}"
                )
            indexes.append(index)

        def compute() -> tuple[int, int, Frame]:
            rid_sets: list[np.ndarray] = []
            entries = 0
            for index, condition in zip(indexes, self.conditions):
                rids = index.lookup_range(
                    condition.low,
                    condition.high,
                    condition.low_inclusive,
                    condition.high_inclusive,
                )
                entries += len(rids)
                rid_sets.append(rids)
            final = intersect_rid_sets(rid_sets)
            frame = Frame.from_table_rows(table, final)
            if self.residual is not None:
                frame = frame.mask(self.residual.evaluate(frame))
            return entries, len(final), frame

        entries, n_final, frame = ctx.scan_memo(
            (
                "index-intersect",
                self.table_name,
                tuple(c.cache_key() for c in self.conditions),
                expr_key(self.residual),
            ),
            compute,
        )
        ctx.counters.index_lookups += len(self.conditions)
        ctx.counters.index_entries += entries
        ctx.counters.random_ios += n_final
        if self.residual is not None:
            ctx.counters.cpu_rows += n_final
        ctx.counters.rows_output += frame.num_rows
        return frame

    def label(self) -> str:
        cols = ", ".join(c.column for c in self.conditions)
        return f"IndexIntersect({self.table_name}: {cols})"
