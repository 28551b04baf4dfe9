"""CDF-sketch selectivity for inequality join conditions.

Following Repas et al. ("Selectivity Estimation of Inequality Joins in
Databases", PAPERS.md): each join column is summarized by a small
sorted sample approximating its CDF, and ``P(l <op> r)`` for
independently drawn ``l``, ``r`` is an exact pair count over the two
sketches — one sort plus a vectorized binary search, O(n log n)
instead of the O(n²) pair walk. The per-table samples the statistics
manager already maintains double as the sketches, so no new statistic
needs building. The estimators memoize each condition's fraction in
their estimate memo (``core/memo.py``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import EstimationError
from repro.expressions.analysis import JoinCondition

#: searchsorted side computing, for each left value ``x``, how many
#: sorted right values satisfy ``x <op> y``.
_PAIR_SIDES = {"<", "<=", ">", ">=", "="}


def pair_fraction(left_values, op: str, right_values) -> float:
    """Fraction of ``(l, r)`` value pairs satisfying ``l <op> r``.

    Exact over the two given value sets (usually samples); the sketch
    estimate of the join condition's selectivity under independence.
    """
    if op not in _PAIR_SIDES:
        raise EstimationError(f"unsupported join-condition operator {op!r}")
    left = np.asarray(left_values)
    right = np.sort(np.asarray(right_values), kind="stable")
    n_left, n_right = len(left), len(right)
    if n_left == 0 or n_right == 0:
        raise EstimationError("pair_fraction requires non-empty value sets")
    if op == "<":
        hits = n_right - np.searchsorted(right, left, side="right")
    elif op == "<=":
        hits = n_right - np.searchsorted(right, left, side="left")
    elif op == ">":
        hits = np.searchsorted(right, left, side="left")
    elif op == ">=":
        hits = np.searchsorted(right, left, side="right")
    else:  # "="
        hits = np.searchsorted(right, left, side="right") - np.searchsorted(
            right, left, side="left"
        )
    return float(hits.sum()) / (n_left * n_right)


def sample_pair_fraction(statistics, condition: JoinCondition) -> float | None:
    """:func:`pair_fraction` of a join condition over the two sides'
    per-table samples, or ``None`` when either sample (or column) is
    missing, so the caller can fall back to magic numbers."""
    left = _sample_values(statistics, condition.left_table, condition.left_column)
    right = _sample_values(
        statistics, condition.right_table, condition.right_column
    )
    if left is None or right is None:
        return None
    return pair_fraction(left, condition.op, right)


def _sample_values(statistics, table: str, column: str) -> np.ndarray | None:
    sample = statistics.sample_for(table)
    if sample is None:
        return None
    qualified = f"{table}.{column}"
    if qualified not in sample.frame:
        return None
    return sample.frame.column(qualified)
