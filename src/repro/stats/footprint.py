"""Statistics storage accounting (paper Section 6.1).

The paper argues 500-tuple samples reach "approximate parity with
pre-existing histogram-based estimation modules, in terms of storage
space": a histogram bucket stores an attribute value plus record and
distinct counters, while a sample stores only attribute values — so a
500-tuple sample of a relation uses about the space of 250-bucket
histograms on each of its attributes. These helpers compute both sides
for a concrete statistics manager so the claim can be checked.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.stats.manager import StatisticsManager

#: Bytes per stored attribute value (the paper assumes 8).
VALUE_BYTES = 8
#: Bytes per histogram counter (the paper assumes 4).
COUNTER_BYTES = 4


@dataclass(frozen=True)
class StatisticsFootprint:
    """Byte totals for one table's statistics."""

    table: str
    sample_bytes: int
    histogram_bytes: int

    @property
    def ratio(self) -> float:
        """sample / histogram size (1.0 = exact parity)."""
        if self.histogram_bytes == 0:
            return float("inf") if self.sample_bytes else 1.0
        return self.sample_bytes / self.histogram_bytes


def table_footprint(manager: StatisticsManager, table_name: str) -> StatisticsFootprint:
    """Compute the §6.1 accounting for one table.

    Sample side: ``sample_size × columns × VALUE_BYTES`` (values only,
    "no counters are necessary"). Histogram side: per built histogram,
    ``buckets × (VALUE_BYTES + 2 × COUNTER_BYTES)`` — the boundary
    value plus row and distinct counters per bucket.
    """
    table = manager.database.table(table_name)
    sample = manager.sample_for(table_name)
    sample_bytes = 0
    if sample is not None:
        sample_bytes = sample.size * len(table.schema) * VALUE_BYTES

    histogram_bytes = 0
    for column in table.schema.column_names:
        histogram = manager.histogram(table_name, column)
        if histogram is not None:
            histogram_bytes += histogram.num_buckets * (
                VALUE_BYTES + 2 * COUNTER_BYTES
            )
    return StatisticsFootprint(table_name, sample_bytes, histogram_bytes)


def database_footprint(manager: StatisticsManager) -> list[StatisticsFootprint]:
    """Per-table footprints for every table in the database."""
    return [
        table_footprint(manager, name)
        for name in manager.database.table_names
    ]
