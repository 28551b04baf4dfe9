"""Physical execution engine.

Operators form a tree; ``execute(ctx)`` runs the tree over the database
and records *work counters* (pages scanned, random I/Os, rows hashed,
index entries touched). The cost model converts counters into a
deterministic simulated execution time using the same coefficients the
optimizer uses for cost estimates, so "actual" time is exactly the cost
function evaluated at actual cardinalities — the setting analyzed in
Section 5 of the paper.
"""

from repro.engine import kernels
from repro.engine.counters import WorkCounters
from repro.engine.context import ExecutionContext
from repro.engine.scancache import ScanCache
from repro.engine.base import PhysicalOperator
from repro.engine.scans import IndexIntersect, IndexSeek, IndexUnionSeek, SeqScan
from repro.engine.relops import Filter, Project
from repro.engine.joins import HashJoin, IndexedNLJoin, MergeJoin, NonEquiJoin
from repro.engine.sort import Limit, Sort
from repro.engine.star import StarSemiJoin
from repro.engine.aggregate import AggregateSpec, HashAggregate

__all__ = [
    "AggregateSpec",
    "ExecutionContext",
    "Filter",
    "HashAggregate",
    "HashJoin",
    "IndexIntersect",
    "IndexSeek",
    "IndexUnionSeek",
    "IndexedNLJoin",
    "Limit",
    "MergeJoin",
    "NonEquiJoin",
    "PhysicalOperator",
    "Project",
    "ScanCache",
    "SeqScan",
    "Sort",
    "StarSemiJoin",
    "WorkCounters",
    "kernels",
]
