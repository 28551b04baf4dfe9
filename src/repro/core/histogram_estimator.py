"""The histogram/AVI baseline estimator.

This is the conventional estimation pipeline the paper measures
against: per-column equi-depth histograms give marginal selectivities,
conjunctions multiply them (the attribute-value-independence
assumption), and foreign-key joins apply the containment assumption.
On correlated data the AVI product is badly wrong — which is precisely
the failure mode Experiments 1–3 are built around.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.catalog.types import ColumnType, coerce_scalar
from repro.core.estimate import CardinalityEstimate
from repro.core.estimator import CardinalityEstimator
from repro.core.magic import MagicNumbers
from repro.core.memo import EstimateCacheMixin
from repro.errors import EstimationError
from repro.expressions import Expr, classify_conjuncts, expr_key, split_conjuncts
from repro.expressions.analysis import as_range_condition, in_list_atoms
from repro.stats import StatisticsManager


class HistogramCardinalityEstimator(EstimateCacheMixin, CardinalityEstimator):
    """Point estimation from 1-D histograms + AVI + containment."""

    def __init__(
        self,
        statistics: StatisticsManager,
        magic: MagicNumbers | None = None,
    ) -> None:
        self.statistics = statistics
        self.magic = magic or MagicNumbers()
        # Same whole-estimate memoization as the robust estimator,
        # minus the threshold key (histograms ignore the hint). Keyed
        # on the statistics version so rebuilds invalidate the cache.
        self._init_estimate_cache()

    def estimate(
        self,
        tables: Iterable[str],
        predicate: Expr | None,
        hint: float | str | None = None,
    ) -> CardinalityEstimate:
        names = set(tables)
        if not names:
            raise EstimationError("estimate requires at least one table")
        return self._memoized(
            (frozenset(names), expr_key(predicate)),
            lambda: self._estimate_impl(names, predicate),
        )

    def estimate_many(
        self,
        tables: Iterable[str],
        predicate: Expr | None,
        thresholds: Sequence[float],
    ) -> tuple[CardinalityEstimate, ...]:
        """Histograms ignore the threshold: one estimate, repeated."""
        estimate = self.estimate(tables, predicate)
        return (estimate,) * len(thresholds)

    def _estimate_impl(
        self, names: set[str], predicate: Expr | None
    ) -> CardinalityEstimate:
        root = self.statistics.database.root_relation(names)
        total = self.statistics.table_rows(root)

        # classify_conjuncts (not predicates_by_table) so cross-table
        # join conditions are priced as joins via the CDF sketch rather
        # than magicked as unattributable leftover selections.
        classes = classify_conjuncts(predicate)

        selectivity = 1.0
        for name in sorted(names):
            table_predicate = classes.per_table.get(name)
            if table_predicate is not None:
                selectivity *= self._table_selectivity(name, table_predicate)
        for condition in classes.join_conditions:
            selectivity *= self.condition_selectivity(condition)
        for conjunct in classes.residual:
            selectivity *= self._avi_product(None, conjunct)

        if self.tracer is not None:
            from repro.obs.trace import EstimationSpan

            self.tracer.record_estimation(
                EstimationSpan(
                    tables=tuple(sorted(names)),
                    source="histogram",
                    quantile=selectivity,
                    point_estimate=selectivity * total,
                    predicate=None if predicate is None else str(predicate),
                )
            )

        return CardinalityEstimate(
            tables=frozenset(names),
            selectivity=selectivity,
            cardinality=selectivity * total,
            root_table=root,
            source="histogram",
        )

    # ------------------------------------------------------------------
    def _table_selectivity(self, table_name: str, predicate: Expr) -> float:
        """AVI product of per-conjunct histogram selectivities."""
        return self._avi_product(table_name, predicate)

    def _avi_product(self, table_name: str | None, predicate: Expr) -> float:
        selectivity = 1.0
        for conjunct in split_conjuncts(predicate):
            selectivity *= self._conjunct_selectivity(table_name, conjunct)
        return selectivity

    def _conjunct_selectivity(self, table_name: str | None, conjunct: Expr) -> float:
        condition = as_range_condition(conjunct)
        if condition is not None:
            owner = condition.table or table_name
            if owner is not None:
                estimate = self._range_selectivity(owner, condition)
                if estimate is not None:
                    return estimate
        in_list = in_list_atoms(conjunct)
        if in_list is not None:
            ref, values = in_list
            owner = ref.table or table_name
            histogram = (
                self.statistics.histogram(owner, ref.name) if owner else None
            )
            if histogram is not None:
                column_type = self._column_type(owner, ref.name)
                if column_type is not None:
                    sel = sum(
                        histogram.selectivity_eq(coerce_scalar(v, column_type))
                        for v in values
                    )
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

    def describe(self) -> str:
        return "histogram-avi"
