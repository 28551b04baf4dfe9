"""GROUP BY result-size estimation from samples (paper Section 3.5).

Aggregation output size is the number of distinct grouping-attribute
combinations among the qualifying rows. We evaluate the predicate on
the join synopsis, form the distinct-value estimate of the surviving
sample rows with GEE, and scale by the estimated qualifying
population.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.robust import RobustCardinalityEstimator
from repro.errors import EstimationError
from repro.expressions import Expr
from repro.stats.distinct import gee_estimator


class GroupCountEstimator:
    """Estimates the number of groups a GROUP BY will produce."""

    def __init__(self, estimator: RobustCardinalityEstimator) -> None:
        self.estimator = estimator

    def estimate_groups(
        self,
        tables: Iterable[str],
        group_by: Sequence[str],
        predicate: Expr | None = None,
        hint: float | str | None = None,
    ) -> float:
        """Estimated distinct combinations of ``group_by`` columns.

        ``group_by`` columns are qualified names resolvable in the join
        synopsis covering ``tables``.
        """
        names = set(tables)
        if not group_by:
            raise EstimationError("group_by must name at least one column")
        statistics = self.estimator.statistics
        synopsis = statistics.synopsis_covering(names)
        if synopsis is None:
            raise EstimationError(
                f"no join synopsis covers tables {sorted(names)}"
            )
        frame = synopsis.frame
        if predicate is not None:
            mask = np.asarray(predicate.evaluate(frame), dtype=bool)
            frame = frame.mask(mask)

        keys = self._combined_keys(frame, group_by)
        # The qualifying population size comes from the robust
        # cardinality estimate, so the group count inherits the same
        # threshold semantics as row counts.
        cardinality = self.estimator.estimate(names, predicate, hint).cardinality
        population = max(1, int(round(cardinality)))
        return gee_estimator(keys, population)

    def _combined_keys(self, frame, group_by: Sequence[str]) -> np.ndarray:
        """Collapse multi-column group keys into one hashable array."""
        arrays = [frame.column(name) for name in group_by]
        if len(arrays) == 1:
            return arrays[0]
        as_strings = [array.astype(np.str_) for array in arrays]
        combined = as_strings[0]
        for array in as_strings[1:]:
            combined = np.char.add(np.char.add(combined, "\x1f"), array)
        return combined
