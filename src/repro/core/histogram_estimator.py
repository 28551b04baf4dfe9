"""The histogram/AVI baseline estimator.

This is the conventional estimation pipeline the paper measures
against: per-column equi-depth histograms give marginal selectivities,
conjunctions multiply them (the attribute-value-independence
assumption), and foreign-key joins apply the containment assumption.
On correlated data the AVI product is badly wrong — which is precisely
the failure mode Experiments 1–3 are built around.
"""

from __future__ import annotations

from repro.catalog.types import ColumnType, coerce_scalar
from repro.core.estimator import PointEstimator
from repro.expressions import Expr, split_conjuncts
from repro.expressions.analysis import as_range_condition, in_list_atoms


class HistogramCardinalityEstimator(PointEstimator):
    """Point estimation from 1-D histograms + AVI + containment."""

    source = "histogram"

    def describe(self) -> str:
        return "histogram-avi"

    def _table_selectivity(self, table_name: str, predicate: Expr) -> float:
        """AVI product of per-conjunct histogram selectivities."""
        selectivity = 1.0
        for conjunct in split_conjuncts(predicate):
            selectivity *= self._conjunct_selectivity(table_name, conjunct)
        return selectivity

    def _conjunct_selectivity(self, table_name: str, conjunct: Expr) -> float:
        condition = as_range_condition(conjunct)
        if condition is not None:
            estimate = self._range_selectivity(table_name, condition)
            if estimate is not None:
                return estimate
        in_list = in_list_atoms(conjunct)
        if in_list is not None:
            ref, values = in_list
            histogram = self.statistics.histogram(table_name, ref.name)
            if histogram is not None:
                column_type = self._column_type(table_name, ref.name)
                if column_type is not None:
                    # A repeated value (``IN (10, 10.0)``) matches once.
                    distinct = dict.fromkeys(
                        coerce_scalar(v, column_type) for v in values
                    )
                    sel = sum(histogram.selectivity_eq(v) for v in distinct)
                    return min(1.0, sel)
        return self.magic.for_predicate(conjunct)

    def _range_selectivity(self, table_name: str, condition) -> float | None:
        histogram = self.statistics.histogram(table_name, condition.column)
        if histogram is None:
            return None
        column_type = self._column_type(table_name, condition.column)
        if column_type is None:
            return None
        low = (
            coerce_scalar(condition.low, column_type)
            if condition.low is not None
            else None
        )
        high = (
            coerce_scalar(condition.high, column_type)
            if condition.high is not None
            else None
        )
        if condition.is_equality:
            return histogram.selectivity_eq(low)
        return histogram.selectivity_range(
            low,
            high,
            low_inclusive=condition.low_inclusive,
            high_inclusive=condition.high_inclusive,
        )

    def _column_type(self, table_name: str, column: str) -> ColumnType | None:
        database = self.statistics.database
        if table_name not in database:
            return None
        table = database.table(table_name)
        if column not in table:
            return None
        return table.schema.column_type(column)
