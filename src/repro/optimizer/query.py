"""Logical SPJ query specification.

The paper's query model (Section 3.2): select-project-join expressions
whose joins are all foreign-key joins over an acyclic schema. A query
therefore needs only its table set (join edges are implied by the
schema), a selection predicate, and an optional projection/aggregation
on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.catalog import Database, ForeignKey
from repro.engine import AggregateSpec
from repro.errors import OptimizationError
from repro.expressions import Expr, classify_conjuncts, predicates_by_table


def fk_components(tables, edges) -> list[frozenset]:
    """Connected components of ``tables`` under the FK ``edges``.

    Deterministic: components are discovered by seeding from the
    tables in sorted order, so the returned list is ordered by each
    component's smallest member.
    """
    adjacency: dict[str, set[str]] = {name: set() for name in tables}
    for edge in edges:
        if edge.child in adjacency and edge.parent in adjacency:
            adjacency[edge.child].add(edge.parent)
            adjacency[edge.parent].add(edge.child)
    components: list[frozenset] = []
    seen: set[str] = set()
    for seed in sorted(adjacency):
        if seed in seen:
            continue
        component: set[str] = set()
        frontier = [seed]
        while frontier:
            name = frontier.pop()
            if name in component:
                continue
            component.add(name)
            frontier.extend(adjacency[name] - component)
        seen |= component
        components.append(frozenset(component))
    return components


@dataclass(frozen=True)
class JoinEdge:
    """A foreign-key join edge between two tables of a query."""

    child: str
    parent: str
    foreign_key: ForeignKey

    @property
    def child_column(self) -> str:
        """Qualified FK column on the child side."""
        return f"{self.child}.{self.foreign_key.column}"

    @property
    def parent_column(self) -> str:
        """Qualified PK column on the parent side."""
        return f"{self.parent}.{self.foreign_key.parent_column}"


@dataclass(frozen=True, eq=False)
class SPJQuery:
    """A select-project-join query over foreign-key joins.

    Parameters
    ----------
    tables:
        The relations involved; joins follow the schema's FK edges.
    predicate:
        Conjunction of selection predicates over qualified columns
        (``None`` selects everything).
    projection:
        Qualified output columns; ``None`` keeps all columns.
    aggregates:
        Aggregates computed over the join result (empty = none).
    group_by:
        Qualified grouping columns for the aggregates.
    order_by:
        Qualified columns to sort the result by (ascending).
    limit:
        Maximum number of result rows (``None`` = all).
    hint:
        Optional per-query confidence-threshold override — the paper's
        "query hint" (Section 6.2.5). Ignored by estimators that have
        no notion of thresholds.
    """

    tables: tuple[str, ...]
    predicate: Expr | None = None
    projection: tuple[str, ...] | None = None
    aggregates: tuple[AggregateSpec, ...] = ()
    group_by: tuple[str, ...] = ()
    order_by: tuple[str, ...] = ()
    limit: int | None = None
    hint: float | str | None = None

    def __init__(
        self,
        tables: Sequence[str],
        predicate: Expr | None = None,
        projection: Sequence[str] | None = None,
        aggregates: Sequence[AggregateSpec] = (),
        group_by: Sequence[str] = (),
        order_by: Sequence[str] = (),
        limit: int | None = None,
        hint: float | str | None = None,
    ) -> None:
        object.__setattr__(self, "tables", tuple(dict.fromkeys(tables)))
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(
            self, "projection", tuple(projection) if projection is not None else None
        )
        object.__setattr__(self, "aggregates", tuple(aggregates))
        object.__setattr__(self, "group_by", tuple(group_by))
        object.__setattr__(self, "order_by", tuple(order_by))
        object.__setattr__(self, "limit", limit)
        object.__setattr__(self, "hint", hint)
        if not self.tables:
            raise OptimizationError("a query needs at least one table")
        if limit is not None and limit < 0:
            raise OptimizationError(f"LIMIT must be non-negative, got {limit}")

    # ------------------------------------------------------------------
    def join_edges(self, database: Database) -> list[JoinEdge]:
        """FK join edges between the query's tables."""
        names = set(self.tables)
        edges = []
        for child in self.tables:
            for fk in database.foreign_keys_of(child):
                if fk.parent_table in names:
                    edges.append(JoinEdge(child, fk.parent_table, fk))
        return edges

    def validate(self, database: Database) -> None:
        """Check the query is well-formed against the schema.

        Every table must exist and every column the query reads must
        belong to one of its tables. The sort runs on the output, so an
        ORDER BY item must be a group column or aggregate alias under
        aggregation, and a selected column under a projection. Without
        join conditions in the predicate, the table set must form one
        connected, rooted FK tree (the classical shape). With join
        conditions (``t1.a <op> t2.b`` conjuncts), each FK component must
        be a rooted tree and the FK edges plus the conditions together
        must connect all tables — band joins between FK-unrelated tables
        are legal.
        """
        for name in self.tables:
            database.table(name)
        if len(self.tables) > 1:
            edges = self.join_edges(database)
            conditions = classify_conjuncts(self.predicate).join_conditions
            if not conditions:
                # raises if not a rooted tree
                database.root_relation(frozenset(self.tables))
                self._check_connected(edges)
            else:
                for component in fk_components(self.tables, edges):
                    if len(component) > 1:
                        database.root_relation(component)
                self._check_connected(edges, conditions)
        aliases = {spec.alias for spec in self.aggregates}
        columns = [] if self.predicate is None else list(self.predicate.columns())
        for name in (
            *(self.projection or ()),
            *(spec.column for spec in self.aggregates if spec.column != "*"),
            *self.group_by,
            *(name for name in self.order_by if name not in aliases),
        ):
            table, _, column = name.rpartition(".")
            columns.append((table or None, column))
        for table, column in columns:
            if table is None:
                raise OptimizationError(
                    f"unqualified column {column!r} in a query; use table.column"
                )
            if table not in self.tables:
                raise OptimizationError(f"{table}.{column}: table not in query")
            if column not in database.table(table):
                raise OptimizationError(f"no column {table}.{column}")
        if self.aggregates or self.group_by:
            allowed, what = set(self.group_by) | aliases, "a GROUP BY column or alias"
        elif self.projection is not None:
            allowed, what = set(self.projection), "a selected column"
        else:
            return
        for name in self.order_by:
            if name not in allowed:
                raise OptimizationError(f"ORDER BY {name} is not {what}")

    def _check_connected(self, edges: list[JoinEdge], conditions=()) -> None:
        names = set(self.tables)
        adjacency: dict[str, set[str]] = {name: set() for name in names}
        for edge in edges:
            adjacency[edge.child].add(edge.parent)
            adjacency[edge.parent].add(edge.child)
        for condition in conditions:
            # conditions naming unknown tables are reported by the
            # predicate column checks, not as a connectivity failure
            if condition.left_table in adjacency and condition.right_table in adjacency:
                adjacency[condition.left_table].add(condition.right_table)
                adjacency[condition.right_table].add(condition.left_table)
        seen: set[str] = set()
        frontier = [next(iter(names))]
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            frontier.extend(adjacency[name] - seen)
        if seen != names:
            kinds = "FK joins or join conditions" if conditions else "FK joins"
            raise OptimizationError(
                f"query tables are not connected by {kinds}: "
                f"{sorted(names - seen)} unreachable"
            )

    def predicates_per_table(self) -> dict[str, Expr]:
        """Selection conjuncts grouped by the table they reference.

        Conjuncts spanning multiple tables are returned under ``""``
        and are applied after the final join.
        """
        return predicates_by_table(self.predicate)

    def __str__(self) -> str:
        parts = [f"SPJ({' ⋈ '.join(self.tables)}"]
        if self.predicate is not None:
            parts.append(f" WHERE {self.predicate!r}")
        if self.aggregates:
            aggs = ", ".join(f"{a.func}({a.column})" for a in self.aggregates)
            parts.append(f" AGG {aggs}")
        if self.group_by:
            parts.append(f" GROUP BY {', '.join(self.group_by)}")
        parts.append(")")
        return "".join(parts)
