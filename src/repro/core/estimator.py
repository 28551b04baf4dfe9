"""The estimator interface and the exact (ground-truth) estimator.

An estimator answers one question, asked repeatedly by the optimizer
during plan search: *how many rows does this SPJ subexpression
produce?* For the foreign-key SPJ expressions the paper considers, a
subexpression is fully described by its set of tables (joins are
implied by the FK edges) plus the conjunction of predicates on them,
and its cardinality is ``selectivity × |root relation|`` because each
FK join preserves the child's cardinality.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.catalog import Database
from repro.core.estimate import CardinalityEstimate
from repro.errors import EstimationError
from repro.expressions import Expr
from repro.stats.join_synopsis import fk_join_frame


class CardinalityEstimator:
    """Abstract base for cardinality estimators.

    This is the module interface the paper's architecture hinges on
    (§3.1): the optimizer, session service, and experiment harness all
    speak exactly this protocol, so estimators are drop-in
    replacements for one another. The protocol is five methods with
    *identical keyword signatures* across every implementation
    (enforced by ``tests/test_estimator_contract.py``):

    - ``estimate(tables, predicate, hint=None)`` — one point estimate;
    - ``estimate_many(tables, predicate, thresholds)`` — one estimate
      per confidence threshold, in grid order, semantically equal to
      looping ``estimate`` with each threshold as the hint;
    - ``condition_selectivity(condition)`` — one cross-table join
      condition;
    - ``estimate_groups(tables, group_by, predicate, rows, hint=None)``
      — the number of GROUP BY groups;
    - ``describe()`` — a short label for reports.

    Subclasses must implement ``estimate`` and
    ``condition_selectivity``; the others have correct defaults. A
    decorator wrapping an estimator forwards all five.
    """

    #: Optional :class:`repro.obs.Tracer`. When set, estimators record
    #: one estimation-evidence span per synopsis/sample/histogram
    #: lookup; the default ``None`` keeps every hot path to a single
    #: attribute check, so disabled tracing costs nothing.
    tracer = None

    def estimate(
        self,
        tables: Iterable[str],
        predicate: Expr | None,
        hint: float | str | None = None,
    ) -> CardinalityEstimate:
        """Estimate the output cardinality of an SPJ expression.

        ``tables`` are the relations of the expression (FK joins
        implied); ``predicate`` is the conjunction of all selections,
        referencing qualified columns; ``hint`` is an optional
        per-query confidence-threshold override (ignored by
        point-estimate baselines).
        """
        raise NotImplementedError

    def estimate_many(
        self,
        tables: Iterable[str],
        predicate: Expr | None,
        thresholds: Sequence[float],
    ) -> tuple[CardinalityEstimate, ...]:
        """One estimate per confidence threshold, in grid order.

        The default simply loops :meth:`estimate` with each threshold
        as the hint. Threshold-aware estimators override this to share
        the evidence gathering (synopsis masks, sample counts) across
        the whole grid; threshold-blind estimators inherit a correct,
        if redundant, implementation.
        """
        names = list(tables)
        return tuple(
            self.estimate(names, predicate, hint=t) for t in thresholds
        )

    def describe(self) -> str:
        """Short label used in experiment reports."""
        return type(self).__name__

    def condition_selectivity(self, condition) -> float:
        """Point selectivity of one cross-table join condition.

        ``condition`` is a
        :class:`repro.expressions.analysis.JoinCondition` — a
        column-vs-column comparison joining two tables that need not
        share an FK edge, so it cannot be folded into the rooted-tree
        ``estimate`` protocol. The statistics-backed estimators answer
        from the CDF sketch over the per-table samples, else the magic
        number
        (:meth:`~repro.core.memo.EstimateCacheMixin.condition_selectivity`).
        """
        raise NotImplementedError

    def estimate_groups(
        self,
        tables: Iterable[str],
        group_by: Sequence[str],
        predicate: Expr | None,
        rows: float,
        hint: float | str | None = None,
    ) -> float:
        """Distinct combinations of the qualified ``group_by`` columns
        among ``rows`` rows. The default is the classical heuristic: the
        product of the columns' histogram distinct counts (10 without a
        histogram), capped at ``rows``."""
        if not group_by:
            raise EstimationError("group_by must name at least one column")
        statistics = getattr(self, "statistics", None)
        distinct = 1.0
        for column in group_by:
            table, _, name = column.partition(".")
            histogram = (
                statistics.histogram(table, name) if statistics is not None else None
            )
            distinct *= histogram.distinct_values if histogram is not None else 10.0
        return min(rows, distinct)


class ExactCardinalityEstimator(CardinalityEstimator):
    """Ground truth: evaluates the expression on the full data.

    Far too slow for a real optimizer — it materializes the complete
    foreign-key join — but invaluable for tests, calibration, and for
    measuring estimation error against a known answer.
    """

    def __init__(self, database: Database) -> None:
        self.database = database

    def estimate(
        self,
        tables: Iterable[str],
        predicate: Expr | None,
        hint: float | str | None = None,
    ) -> CardinalityEstimate:
        names = set(tables)
        if not names:
            raise EstimationError("estimate requires at least one table")
        root = self.database.root_relation(names)
        frame, covered = fk_join_frame(self.database, root, restrict_to=names)
        if not names <= covered:
            raise EstimationError(
                f"tables {sorted(names)} not FK-joinable from root {root!r}"
            )
        if predicate is None:
            satisfied = frame.num_rows
        else:
            satisfied = int(
                np.asarray(predicate.evaluate(frame), dtype=bool).sum()
            )
        total = self.database.table(root).num_rows
        selectivity = satisfied / total if total else 0.0
        return CardinalityEstimate(
            tables=frozenset(names),
            selectivity=selectivity,
            cardinality=float(satisfied),
            root_table=root,
            source="exact",
        )

    def condition_selectivity(self, condition) -> float:
        """Exact pair fraction over the two full base columns."""
        from repro.core.sketch import pair_fraction

        left = self.database.table(condition.left_table).column(
            condition.left_column
        )
        right = self.database.table(condition.right_table).column(
            condition.right_column
        )
        return pair_fraction(left, condition.op, right)
