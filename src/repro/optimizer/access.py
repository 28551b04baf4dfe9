"""Access-path generation for single tables.

Produces every reasonable way to read one table under its predicate:
a sequential scan, an index seek per applicable sorted index, and
index intersections over subsets of the applicable indexes. The
seek/intersection candidates are the "risky" plans whose cost grows
with selectivity; the scan is the stable alternative.
:func:`access_shape` derives a table's paths before any estimate (a
statement's lattice shape keeps them); :func:`access_paths` prices them.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from typing import Callable, NamedTuple

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


class AccessShape(NamedTuple):
    """One table's access paths before any estimate: the ``card``
    questions each path asks, its cost-model arguments, its order and
    its maker, in pricing order (the scan, the IN-list unions, the
    single-index seeks, the intersections).

    ``in_lists`` holds ``(conjunct, distinct values, clustered, has
    residual)``, ``seeks`` ``(range predicate, clustered, has
    residual)`` and ``intersections`` ``(range predicates, their
    conjunction, has residual)`` per path.
    """

    table: str
    tables: frozenset
    predicate: Expr | None
    num_rows: int
    num_pages: int
    rows_per_page: float
    in_lists: tuple
    seeks: tuple
    intersections: tuple
    orders: tuple
    makers: tuple


def _in_list_paths(
    database: Database, table_name: str, predicate: Expr | None, paths
) -> None:
    """IndexUnionSeek paths, one per indexed IN-list conjunct, appended
    to ``paths``' (specs, orders, makers)."""
    from repro.expressions import split_conjuncts
    from repro.expressions.analysis import in_list_atoms

    table = database.table(table_name)
    clustering = database.clustering_column(table_name)
    conjuncts = split_conjuncts(predicate)
    specs, orders, makers = paths
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
        residual = conjunction(conjuncts[:i] + conjuncts[i + 1 :])
        specs.append(
            (
                conjunct,
                len(set(coerced)),
                clustering == reference.name,
                residual is not None,
            )
        )
        orders.append(None)
        makers.append(
            partial(
                IndexUnionSeek, table_name, reference.name, tuple(coerced), residual
            )
        )


def access_shape(
    database: Database, table_name: str, predicate: Expr | None
) -> AccessShape:
    """Every access path for ``table_name`` under ``predicate``, unpriced."""
    table = database.table(table_name)
    clustering = database.clustering_column(table_name)

    # Sequential scan: the stable plan.
    orders = [f"{table_name}.{clustering}" if clustering else None]
    makers = [partial(SeqScan, table_name, predicate)]

    # IN-lists over indexed columns: the index-OR (union) strategy.
    in_lists: list = []
    _in_list_paths(database, table_name, predicate, (in_lists, orders, makers))

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
    # One predicate object per merged range, so each key renders once
    # (none without a seekable range: no path then reads them).
    exprs = {
        key: range_to_expr(condition) for key, condition in merged.items()
    } if seekable else {}
    rest = [residual] if residual is not None else []
    keys = sorted(seekable, key=lambda key: key[1])
    # Sargable ranges without a usable index must still be applied —
    # fold them back into every path's residual alongside the
    # non-sargable remainder.

    # Single-index seeks: remaining ranges become residual predicate.
    seeks: list = []
    for key in keys:
        condition = merged[key]
        others = [exprs[k] for k in merged if k != key]
        path_residual = conjunction(others + rest)
        seeks.append(
            (
                exprs[key],
                clustering == condition.column,
                path_residual is not None,
            )
        )
        orders.append(f"{table_name}.{condition.column}")
        makers.append(partial(IndexSeek, table_name, seekable[key], path_residual))

    # Index intersections over 2..MAX_INTERSECTION_WIDTH indexes.
    intersections: list = []
    for width in range(2, min(len(keys), MAX_INTERSECTION_WIDTH) + 1):
        for subset in combinations(keys, width):
            parts = tuple(exprs[key] for key in subset)
            others = [exprs[k] for k in merged if k not in subset]
            path_residual = conjunction(others + rest)
            intersections.append(
                (parts, conjunction(list(parts)), path_residual is not None)
            )
            # RID intersection yields storage order.
            orders.append(f"{table_name}.{clustering}" if clustering else None)
            makers.append(
                partial(
                    IndexIntersect,
                    table_name,
                    tuple(seekable[key] for key in subset),
                    path_residual,
                )
            )

    return AccessShape(
        table_name,
        frozenset([table_name]),
        predicate,
        table.num_rows,
        table.num_pages,
        table.rows_per_page,
        tuple(in_lists),
        tuple(seeks),
        tuple(intersections),
        tuple(orders),
        tuple(makers),
    )


def access_paths(
    database: Database,
    model: CostModel,
    card: CardOracle,
    table_name: str,
    predicate: Expr | None,
    shape: AccessShape | None = None,
) -> PricedPlans:
    """Every access path for ``table_name`` under ``predicate``, priced
    (each path's operator is built only if a plan using it is): every
    ``card`` question in the order the paths list them, then the cost
    arithmetic. ``shape`` is those paths as :func:`access_shape` derives
    them, when a statement's lattice shape already holds them."""
    if shape is None:
        shape = access_shape(database, table_name, predicate)
    tables = shape.tables
    out_rows = card(tables, shape.predicate).cardinality
    per_page = shape.rows_per_page
    costs = [model.seq_scan(shape.num_rows, shape.num_pages, out_rows)]
    for conjunct, values, clustered, has_residual in shape.in_lists:
        entries = card(tables, conjunct).cardinality
        costs.append(
            model.index_union(
                values, entries, out_rows, clustered, per_page, has_residual
            )
        )
    for predicate, clustered, has_residual in shape.seeks:
        entries = card(tables, predicate).cardinality
        costs.append(
            model.index_seek(entries, out_rows, clustered, per_page, has_residual)
        )
    for parts, both, has_residual in shape.intersections:
        entry_counts = [card(tables, part).cardinality for part in parts]
        fetched = card(tables, both).cardinality
        costs.append(
            model.index_intersect(entry_counts, fetched, out_rows, has_residual)
        )
    return PricedPlans.of(tables, out_rows, costs, shape.orders, shape.makers)
