"""An independent numpy evaluator for the generated statement families.

Answers a :class:`bench.statements.Spec` straight from the base columns:
dimension columns are gathered onto the root table along foreign keys,
filters become boolean masks, a band join is a sort plus two
``searchsorted`` calls, and aggregates are plain reductions. It reads
the catalog (tables, columns, foreign keys) and nothing else — no engine
operator, no optimizer, no estimator — so a wrong answer from the
program cannot also be the reference's answer.
"""

from __future__ import annotations

import math
import operator

import numpy as np

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
}

#: Relative tolerance on float aggregates: plans sum the same rows in
#: different orders.
REL_TOL = 1e-9


class Reference:
    """Evaluates specs against one database, memoizing FK gathers."""

    def __init__(self, database) -> None:
        self.database = database
        self._positions: dict[tuple[str, str], np.ndarray | None] = {}

    # ------------------------------------------------------------------
    def _row_positions(self, root: str, table: str) -> np.ndarray | None:
        """For each root row, the row of ``table`` it joins to along
        foreign keys (``None`` when no FK path exists)."""
        key = (root, table)
        if key not in self._positions:
            self._positions[key] = self._walk(root, table)
        return self._positions[key]

    def _walk(self, root: str, table: str) -> np.ndarray | None:
        if table == root:
            return np.arange(self.database.table(root).num_rows)
        for fk in self.database.foreign_keys_of(root):
            below = self._walk(fk.parent_table, table)
            if below is None:
                continue
            parent_keys = self.database.table(fk.parent_table).column(
                fk.parent_column
            )
            order = np.argsort(parent_keys, kind="stable")
            child_keys = self.database.table(root).column(fk.column)
            hop = order[np.searchsorted(parent_keys[order], child_keys)]
            return below[hop]
        return None

    def _column(self, root: str, qualified: str) -> np.ndarray:
        table, _, name = qualified.partition(".")
        positions = self._row_positions(root, table)
        if positions is None:
            raise KeyError(f"{table} is not FK-reachable from {root}")
        return self.database.table(table).column(name)[positions]

    # ------------------------------------------------------------------
    def evaluate(self, spec) -> dict[str, list]:
        """Result columns (name -> list of values) for ``spec``."""
        root = spec.root
        band_table = spec.band[1].partition(".")[0] if spec.band else None
        mask = np.ones(self.database.table(root).num_rows, dtype=bool)
        band_mask = None
        for column, low, high in spec.between:
            values = self._column(root, column)
            mask &= (values >= low) & (values <= high)
        for column, op, other in spec.compare:
            if column.partition(".")[0] == band_table:
                table = self.database.table(band_table)
                hit = _OPS[op](table.column(column.partition(".")[2]), other)
                band_mask = hit if band_mask is None else band_mask & hit
                continue
            if isinstance(other, str):
                other = self._column(root, other)
            mask &= _OPS[op](self._column(root, column), other)

        if spec.band is not None:
            return self._band_aggregates(spec, mask, band_mask)
        if spec.group_by is not None:
            return self._grouped(spec, mask)
        return {
            alias: [_reduce(func, self._agg_input(root, column, mask))]
            for func, column, alias in spec.aggregates
        }

    def _agg_input(self, root: str, column: str, mask: np.ndarray):
        if column == "*":
            return np.ones(int(mask.sum()))
        return self._column(root, column)[mask]

    def _grouped(self, spec, mask: np.ndarray) -> dict[str, list]:
        keys = self._column(spec.root, spec.group_by)[mask]
        groups, inverse = np.unique(keys, return_inverse=True)
        keep = slice(0, spec.limit)
        out = {spec.group_by: groups[keep].tolist()}
        for func, column, alias in spec.aggregates:
            values = self._agg_input(spec.root, column, mask)
            sums = np.bincount(inverse, weights=values, minlength=len(groups))
            if func == "count":
                sums = np.bincount(inverse, minlength=len(groups)).astype(float)
            elif func != "sum":
                raise ValueError(f"grouped {func} is not generated")
            out[alias] = sums[keep].tolist()
        return out

    def _band_aggregates(self, spec, mask, band_mask) -> dict[str, list]:
        """Aggregates over pairs (root row, band row) with
        ``low <= value < high``: prefix sums over the sorted values."""
        value_column, low_column, high_column = spec.band
        band = self.database.table(low_column.partition(".")[0])
        lows = band.column(low_column.partition(".")[2])
        highs = band.column(high_column.partition(".")[2])
        if band_mask is not None:
            lows, highs = lows[band_mask], highs[band_mask]
        values = np.sort(self._column(spec.root, value_column)[mask])
        first = np.searchsorted(values, lows, side="left")
        last = np.searchsorted(values, highs, side="left")
        out = {}
        for func, column, alias in spec.aggregates:
            if func == "count":
                out[alias] = [float((last - first).sum())]
            elif func == "sum" and column == value_column:
                prefix = np.concatenate(([0.0], np.cumsum(values)))
                out[alias] = [float((prefix[last] - prefix[first]).sum())]
            else:
                raise ValueError(f"band {func}({column}) is not generated")
        return out


def _reduce(func: str, values: np.ndarray) -> float:
    if func == "count":
        return float(len(values))
    if func == "sum":
        return float(values.sum()) if len(values) else 0.0
    if func == "avg":
        return float(values.mean()) if len(values) else math.nan
    raise ValueError(f"aggregate {func} is not generated")


def same(expected: dict[str, list], actual: dict[str, list]) -> bool:
    """Column-by-column equality with :data:`REL_TOL` on floats
    (``nan`` equals ``nan``: AVG over no rows)."""
    if expected.keys() != actual.keys():
        return False
    for name, want in expected.items():
        got = actual[name]
        if len(want) != len(got):
            return False
        for a, b in zip(want, got):
            if isinstance(a, float) and math.isnan(a):
                if not (isinstance(b, float) and math.isnan(b)):
                    return False
            elif not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-6):
                return False
    return True
