"""Columnar in-memory tables."""

from __future__ import annotations

from typing import Any, Iterator, Mapping

import numpy as np

from repro.catalog.schema import Schema
from repro.catalog.types import coerce_array
from repro.errors import CatalogError
from repro.indexes.sorted_index import sorted_unique

#: Simulated disk page size in bytes; the cost model charges I/O in pages.
PAGE_BYTES = 8192


class Table:
    """A named columnar table: one numpy array per column.

    Tables are immutable once constructed, which keeps precomputed
    statistics (histograms, samples, join synopses) trivially valid.
    A declared primary key is checked for duplicates once, here, by
    sorting it (:func:`~repro.indexes.sorted_index.sorted_unique`).

    Parameters
    ----------
    name:
        Table name; must be a valid identifier without dots.
    schema:
        Column definitions and key constraints.
    data:
        Mapping from column name to array-like. All columns must have
        equal length; values are coerced to the declared column types.
    """

    def __init__(self, name: str, schema: Schema, data: Mapping[str, Any]) -> None:
        if not name or "." in name:
            raise CatalogError(f"invalid table name: {name!r}")
        missing = [c for c in schema.column_names if c not in data]
        if missing:
            raise CatalogError(f"table {name!r} is missing columns: {missing}")
        extra = [c for c in data if c not in schema]
        if extra:
            raise CatalogError(f"table {name!r} has undeclared columns: {extra}")

        self.name = name
        self.schema = schema
        self._columns: dict[str, np.ndarray] = {}
        lengths = set()
        for column in schema.columns:
            array = coerce_array(data[column.name], column.column_type)
            array.setflags(write=False)
            self._columns[column.name] = array
            lengths.add(len(array))
        if len(lengths) != 1:
            raise CatalogError(
                f"table {name!r} has ragged columns (lengths {sorted(lengths)})"
            )
        self._num_rows = lengths.pop()
        # The schema and the row count are fixed from here on, so the
        # page geometry the planner asks for per access path is too.
        self._rows_per_page = max(1, PAGE_BYTES // schema.row_byte_width)
        self._num_pages = max(1, -(-self._num_rows // self._rows_per_page))

        pk = schema.primary_key
        if pk is not None and self._num_rows > 0:
            keys = self._columns[pk]
            if len(sorted_unique(keys)) != self._num_rows:
                raise CatalogError(f"primary key {name}.{pk} contains duplicates")

    @property
    def num_rows(self) -> int:
        """Number of rows in the table."""
        return self._num_rows

    @property
    def num_pages(self) -> int:
        """Number of simulated disk pages occupied by the table."""
        return self._num_pages

    @property
    def rows_per_page(self) -> int:
        """Rows stored per simulated disk page."""
        return self._rows_per_page

    def column(self, name: str) -> np.ndarray:
        """Return the (read-only) array for column ``name``."""
        try:
            return self._columns[name]
        except KeyError:
            raise CatalogError(f"table {self.name!r} has no column {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def take(self, row_ids: np.ndarray) -> dict[str, np.ndarray]:
        """Materialize the given rows as ``{column: array}``."""
        return {name: array[row_ids] for name, array in self._columns.items()}

    def iter_rows(self) -> Iterator[dict[str, Any]]:
        """Yield rows as dicts; intended for tests and small tables only."""
        names = self.schema.column_names
        for i in range(self._num_rows):
            yield {name: self._columns[name][i] for name in names}

    def qualified(self, column: str) -> str:
        """Qualified name of a column: ``table.column``."""
        return f"{self.name}.{column}"

    def __repr__(self) -> str:
        return f"Table({self.name!r}, rows={self._num_rows}, {self.schema!r})"
