"""The database container: tables, foreign-key graph, and indexes."""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.catalog.schema import ForeignKey
from repro.catalog.table import Table
from repro.errors import CatalogError
from repro.indexes import SortedIndex


class Database:
    """A collection of tables connected by foreign keys.

    The foreign-key graph must be acyclic (paper Section 3.2 assumes
    acyclic join graphs so join synopses are well defined). Referential
    integrity — every foreign-key value exists in the parent's primary
    key — is checked by :meth:`validate`, because foreign-key joins
    preserving child cardinality is what lets a join-synopsis count be
    read as a selectivity of the root relation.
    """

    def __init__(self, tables: Iterable[Table] = ()) -> None:
        self._tables: dict[str, Table] = {}
        self._sorted_indexes: dict[tuple[str, str], SortedIndex] = {}
        self._clustered_on: dict[str, str] = {}
        #: ``root_relation`` answers by table set; tables are the FK
        #: graph's only mutable part, so ``add_table`` drops them.
        self._roots: dict[frozenset, str] = {}
        for table in tables:
            self.add_table(table)

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    def add_table(self, table: Table) -> None:
        """Register ``table``; raises if the name is taken."""
        if table.name in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[table.name] = table
        self._roots.clear()

    def table(self, name: str) -> Table:
        """Return the table named ``name``."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no such table: {name!r}") from None

    @property
    def table_names(self) -> list[str]:
        """All table names, in insertion order."""
        return list(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    # ------------------------------------------------------------------
    # Foreign-key graph
    # ------------------------------------------------------------------
    def foreign_keys_of(self, table_name: str) -> list[ForeignKey]:
        """Foreign keys declared on ``table_name``."""
        return list(self.table(table_name).schema.foreign_keys)

    def foreign_key_edge(self, child: str, parent: str) -> ForeignKey | None:
        """The FK on ``child`` referencing ``parent``, if one exists."""
        for fk in self.foreign_keys_of(child):
            if fk.parent_table == parent:
                return fk
        return None

    def reachable_from(self, root: str) -> set[str]:
        """Tables reachable from ``root`` by following foreign keys."""
        seen: set[str] = set()
        frontier = [root]
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            for fk in self.foreign_keys_of(name):
                if fk.parent_table in self._tables:
                    frontier.append(fk.parent_table)
        return seen

    def root_relation(self, tables: Iterable[str]) -> str:
        """The root of a foreign-key join over ``tables``.

        The root is the relation whose primary key is not referenced by
        any other relation in the set (paper Section 3.2). Raises if the
        set is not a single FK-connected tree with a unique root. A
        ``frozenset`` is answered from memory once its root is known.
        """
        if isinstance(tables, frozenset):
            root = self._roots.get(tables)
            if root is None:
                root = self._roots[tables] = self._find_root(tables)
            return root
        return self._find_root(tables)

    def _find_root(self, tables: Iterable[str]) -> str:
        names = list(dict.fromkeys(tables))
        if not names:
            raise CatalogError("root_relation requires at least one table")
        for name in names:
            self.table(name)  # existence check
        name_set = set(names)
        referenced = {
            fk.parent_table
            for name in names
            for fk in self.foreign_keys_of(name)
            if fk.parent_table in name_set
        }
        roots = [name for name in names if name not in referenced]
        if len(roots) != 1:
            raise CatalogError(
                f"tables {sorted(name_set)} do not form a rooted FK tree "
                f"(candidate roots: {sorted(roots)})"
            )
        root = roots[0]
        if not name_set <= self.reachable_from(root):
            raise CatalogError(
                f"tables {sorted(name_set)} are not all FK-reachable from {root!r}"
            )
        return root

    def validate(self) -> None:
        """Check FK targets exist, graph is acyclic, and integrity holds."""
        for table in self:
            for fk in table.schema.foreign_keys:
                if fk.parent_table not in self._tables:
                    raise CatalogError(
                        f"{table.name}: FK references unknown table {fk.parent_table!r}"
                    )
                parent = self.table(fk.parent_table)
                if parent.schema.primary_key != fk.parent_column:
                    raise CatalogError(
                        f"{table.name}: FK {fk} must reference the parent primary key"
                    )
                child_values = table.column(fk.column)
                parent_keys = parent.column(fk.parent_column)
                if child_values.size and not np.all(
                    np.isin(child_values, parent_keys)
                ):
                    raise CatalogError(
                        f"{table.name}.{fk.column} has values missing from "
                        f"{fk.parent_table}.{fk.parent_column}"
                    )
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        colors: dict[str, int] = {}  # 0=unseen implicit, 1=in stack, 2=done

        def visit(name: str, stack: list[str]) -> None:
            state = colors.get(name, 0)
            if state == 1:
                cycle = " -> ".join(stack + [name])
                raise CatalogError(f"foreign-key cycle detected: {cycle}")
            if state == 2:
                return
            colors[name] = 1
            for fk in self.foreign_keys_of(name):
                if fk.parent_table in self._tables:
                    visit(fk.parent_table, stack + [name])
            colors[name] = 2

        for name in self._tables:
            visit(name, [])

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------
    def create_index(self, table_name: str, column: str, clustered: bool = False) -> None:
        """Build a sorted (B-tree-equivalent) index on ``table.column``.

        A clustered index additionally records that the table is stored
        in ``column`` order, which the cost model rewards with
        sequential rather than random row fetches and the optimizer
        relies on to skip an ORDER BY's sort. That is checked, not
        trusted: the column must be stored non-decreasing (the index's
        stable order is the identity), or ``CatalogError`` is raised
        and nothing is recorded.
        """
        table = self.table(table_name)
        if column not in table:
            raise CatalogError(f"cannot index missing column {table_name}.{column}")
        if clustered:
            existing = self._clustered_on.get(table_name)
            if existing is not None and existing != column:
                raise CatalogError(
                    f"{table_name} is already clustered on {existing!r}"
                )
        index = SortedIndex(table.column(column))
        if clustered:
            if not index.in_storage_order:
                raise CatalogError(
                    f"{table_name} is not stored in {column!r} order, so it "
                    "cannot be clustered on it"
                )
            self._clustered_on[table_name] = column
        self._sorted_indexes[(table_name, column)] = index

    def sorted_index(self, table_name: str, column: str) -> SortedIndex | None:
        """The sorted index on ``table.column``, or ``None``."""
        return self._sorted_indexes.get((table_name, column))

    def has_index(self, table_name: str, column: str) -> bool:
        """Whether a sorted index exists on ``table.column``."""
        return (table_name, column) in self._sorted_indexes

    def indexed_columns(self, table_name: str) -> list[str]:
        """Columns of ``table_name`` that have sorted indexes."""
        return [c for (t, c) in self._sorted_indexes if t == table_name]

    def clustering_column(self, table_name: str) -> str | None:
        """Column the table is clustered on, if declared."""
        return self._clustered_on.get(table_name)

    def __repr__(self) -> str:
        return f"Database(tables={self.table_names})"
