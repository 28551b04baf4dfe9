"""Access-path generation for single tables.

Produces every reasonable way to read one table under its predicate:
a sequential scan, an index seek per applicable sorted index, and
index intersections over subsets of the applicable indexes. The
seek/intersection candidates are the "risky" plans whose cost grows
with selectivity; the scan is the stable alternative.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from typing import Callable

from repro.catalog import Database
from repro.catalog.types import coerce_scalar
from repro.cost import CostModel
from repro.engine import IndexIntersect, IndexSeek, IndexUnionSeek, SeqScan
from repro.engine.scans import IndexCondition
from repro.errors import TypeMismatchError
from repro.expressions import Expr, col, conjunction
from repro.expressions.analysis import (
    RangeCondition,
    merge_range_conditions,
    split_sargable,
)
from repro.optimizer.candidates import PricedPlans

#: Estimator callback: (tables, predicate) -> CardinalityEstimate.
CardOracle = Callable[[frozenset, Expr | None], "object"]

#: Cap on how many indexes one intersection may combine.
MAX_INTERSECTION_WIDTH = 4


def range_to_expr(condition: RangeCondition) -> Expr:
    """Rebuild a predicate expression from a (merged) range condition."""
    qualified = (
        f"{condition.table}.{condition.column}"
        if condition.table is not None
        else condition.column
    )
    reference = col(qualified)
    low, high = condition.low, condition.high
    if low is not None and high is not None:
        if condition.low_inclusive and condition.high_inclusive:
            return reference.between(low, high)
        parts = []
        parts.append(reference >= low if condition.low_inclusive else reference > low)
        parts.append(
            reference <= high if condition.high_inclusive else reference < high
        )
        return conjunction(parts)
    if low is not None:
        return reference >= low if condition.low_inclusive else reference > low
    if high is not None:
        return reference <= high if condition.high_inclusive else reference < high
    raise ValueError("unbounded range condition has no predicate form")


def _index_condition(
    database: Database, condition: RangeCondition
) -> IndexCondition | None:
    """Coerce a range condition's bounds into storage representation;
    ``None`` when a bound does not coerce exactly (``100.5`` against an
    integer column) — the index path is then not offered, rather than
    rounded into a different predicate. The scan still answers it."""
    table = database.table(condition.table)
    column_type = table.schema.column_type(condition.column)
    try:
        low, high = (
            coerce_scalar(bound, column_type) if bound is not None else None
            for bound in (condition.low, condition.high)
        )
    except TypeMismatchError:
        return None
    return IndexCondition(
        condition.column,
        low,
        high,
        condition.low_inclusive,
        condition.high_inclusive,
    )


def _in_list_paths(
    database: Database,
    model: CostModel,
    card: CardOracle,
    table_name: str,
    predicate: Expr | None,
    out_rows: float,
    paths: tuple[list, list, list],
) -> None:
    """IndexUnionSeek paths, one per indexed IN-list conjunct, appended
    to ``paths``' (costs, orders, makers)."""
    from repro.expressions import split_conjuncts
    from repro.expressions.analysis import in_list_atoms

    table = database.table(table_name)
    tables = frozenset([table_name])
    clustering = database.clustering_column(table_name)
    conjuncts = split_conjuncts(predicate)
    costs, orders, makers = paths
    for i, conjunct in enumerate(conjuncts):
        atom = in_list_atoms(conjunct)
        if atom is None:
            continue
        reference, values = atom
        if reference.table not in (None, table_name):
            continue
        if not database.has_index(table_name, reference.name):
            continue
        column_type = table.schema.column_type(reference.name)
        try:
            coerced = [coerce_scalar(v, column_type) for v in values]
        except TypeMismatchError:
            continue  # a value the column cannot hold exactly: no seek
        entries = card(tables, conjunct).cardinality
        residual = conjunction(conjuncts[:i] + conjuncts[i + 1 :])
        clustered = clustering == reference.name
        cost = model.index_union(
            len(set(coerced)),
            entries,
            out_rows,
            clustered,
            table.rows_per_page,
            residual is not None,
        )
        costs.append(cost)
        orders.append(None)
        makers.append(
            partial(IndexUnionSeek, table_name, reference.name, coerced, residual)
        )


def access_paths(
    database: Database,
    model: CostModel,
    card: CardOracle,
    table_name: str,
    predicate: Expr | None,
) -> PricedPlans:
    """Every access path for ``table_name`` under ``predicate``, priced
    (each path's operator is built only if a plan using it is)."""
    table = database.table(table_name)
    tables = frozenset([table_name])
    out_rows = card(tables, predicate).cardinality
    clustering = database.clustering_column(table_name)

    # Sequential scan: the stable plan.
    scan_cost = model.seq_scan(table.num_rows, table.num_pages, out_rows)
    scan_order = f"{table_name}.{clustering}" if clustering else None
    costs, orders, makers = paths = (
        [scan_cost],
        [scan_order],
        [partial(SeqScan, table_name, predicate)],
    )

    # IN-lists over indexed columns: the index-OR (union) strategy.
    _in_list_paths(database, model, card, table_name, predicate, out_rows, paths)

    # Sargability analysis.
    ranges, residual = split_sargable(predicate)
    foreign = [range_to_expr(r) for r in ranges if r.table != table_name]
    if foreign:
        # Ranges we cannot attribute to this table (e.g. unqualified
        # columns) stay in the residual so no predicate is lost.
        residual = conjunction(foreign + ([residual] if residual is not None else []))
    unmergeable: list = []
    merged = merge_range_conditions(
        [r for r in ranges if r.table == table_name], unmergeable
    )
    if unmergeable:
        # Same-column ranges whose literals do not compare (mixed
        # types) could not be intersected — apply them as residual
        # filters so the plan still honors every conjunct.
        residual = conjunction(
            [range_to_expr(r) for r in unmergeable]
            + ([residual] if residual is not None else [])
        )
    # Index paths need bounds the column stores exactly; a range whose
    # bounds do not coerce is offered no path of its own and, like every
    # other range in ``merged``, is applied in each path's residual.
    seekable = {
        key: index_condition
        for key, condition in merged.items()
        if database.has_index(table_name, condition.column)
        and (index_condition := _index_condition(database, condition)) is not None
    }
    if not seekable:
        return PricedPlans.of(tables, out_rows, costs, orders, makers)

    keys = sorted(seekable, key=lambda key: key[1])
    # Sargable ranges without a usable index must still be applied —
    # fold them back into every path's residual alongside the
    # non-sargable remainder.

    # Single-index seeks: remaining ranges become residual predicate.
    for key in keys:
        condition = merged[key]
        entries = card(tables, range_to_expr(condition)).cardinality
        others = [range_to_expr(merged[k]) for k in merged if k != key]
        path_residual = conjunction(
            others + ([residual] if residual is not None else [])
        )
        clustered = clustering == condition.column
        cost = model.index_seek(
            entries,
            out_rows,
            clustered,
            table.rows_per_page,
            path_residual is not None,
        )
        costs.append(cost)
        orders.append(f"{table_name}.{condition.column}")
        makers.append(partial(IndexSeek, table_name, seekable[key], path_residual))

    # Index intersections over 2..MAX_INTERSECTION_WIDTH indexes.
    for width in range(2, min(len(keys), MAX_INTERSECTION_WIDTH) + 1):
        for subset in combinations(keys, width):
            conditions = [merged[key] for key in subset]
            entry_counts = [
                card(tables, range_to_expr(c)).cardinality for c in conditions
            ]
            fetched = card(
                tables, conjunction([range_to_expr(c) for c in conditions])
            ).cardinality
            others = [range_to_expr(merged[k]) for k in merged if k not in subset]
            path_residual = conjunction(
                others + ([residual] if residual is not None else [])
            )
            cost = model.index_intersect(
                entry_counts, fetched, out_rows, path_residual is not None
            )
            costs.append(cost)
            # RID intersection yields storage order.
            orders.append(f"{table_name}.{clustering}" if clustering else None)
            makers.append(
                partial(
                    IndexIntersect,
                    table_name,
                    [seekable[key] for key in subset],
                    path_residual,
                )
            )

    return PricedPlans.of(tables, out_rows, costs, orders, makers)
