"""Precomputed statistics: samples, join synopses, histograms.

The paper's estimation procedure (Section 3.2) runs in two phases: an
offline precomputation phase — the analogue of ``UPDATE STATISTICS`` —
that builds uniform random samples and join synopses, and an online
phase during optimization that merely counts satisfying sample tuples.
This package implements the offline phase plus the classical
histogram statistics used by the AVI baseline.
"""

from repro.stats.sample import TableSample
from repro.stats.join_synopsis import (
    JoinSynopsis,
    build_join_synopsis,
    rebuild_join_synopsis,
)
from repro.stats.histogram import EquiDepthHistogram
from repro.stats.distinct import gee_estimator, sample_distinct_counts
from repro.stats.manager import StatisticsManager
from repro.stats.persistence import load_statistics, save_statistics
from repro.stats.footprint import (
    StatisticsFootprint,
    database_footprint,
    table_footprint,
)

__all__ = [
    "EquiDepthHistogram",
    "StatisticsFootprint",
    "database_footprint",
    "table_footprint",
    "JoinSynopsis",
    "StatisticsManager",
    "TableSample",
    "build_join_synopsis",
    "gee_estimator",
    "load_statistics",
    "rebuild_join_synopsis",
    "sample_distinct_counts",
    "save_statistics",
]
