"""Distinct-value estimation from random samples.

Implements the extension sketched in paper Section 3.5 ("Incorporating
other operators"): the result size of GROUP BY aggregation depends on
the number of distinct attribute combinations, which can be estimated
from a sample using known estimators — we provide GEE (Charikar et al.)
plus the frequency-of-frequencies helper it is built on (Haas et al.,
VLDB 1995 lineage).
"""

from __future__ import annotations

import numpy as np

from repro.errors import StatisticsError
from repro.indexes.sorted_index import sorted_unique


def sample_distinct_counts(values: np.ndarray) -> dict[int, int]:
    """Frequency of frequencies: ``f[j]`` = #values seen exactly j times."""
    if values.ndim != 1:
        raise StatisticsError("expected a 1-D sample column")
    if len(values) == 0:
        return {}
    _, counts = sorted_unique(values, return_counts=True)
    frequencies, occurrences = sorted_unique(counts, return_counts=True)
    return {int(j): int(m) for j, m in zip(frequencies, occurrences)}


def gee_estimator(values: np.ndarray, population_size: int) -> float:
    """The Guaranteed-Error Estimator for distinct values.

    ``d_hat = sqrt(N/n) * f1 + sum_{j>=2} f_j`` — scale up the
    singletons (values plausibly much more frequent in the full data)
    and keep the repeated values as-is.
    """
    if population_size <= 0:
        raise StatisticsError("population_size must be positive")
    n = len(values)
    if n == 0:
        return 0.0
    freq = sample_distinct_counts(values)
    f1 = freq.get(1, 0)
    rest = sum(m for j, m in freq.items() if j >= 2)
    estimate = np.sqrt(population_size / n) * f1 + rest
    return float(min(estimate, population_size))

