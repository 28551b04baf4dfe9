"""Work counters recorded during plan execution.

Counters are the engine's unit of account: every operator charges the
physical work it performs, and the cost model maps the totals to a
simulated execution time. Keeping counters separate from timing makes
execution deterministic and lets tests assert on the work itself.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter, sub


@dataclass
class WorkCounters:
    """Accumulated physical work for one plan execution."""

    #: Pages read sequentially (table scans, clustered range scans).
    seq_pages: int = 0
    #: Random row fetches (RID lookups through nonclustered indexes).
    random_ios: int = 0
    #: Index leaf entries scanned (B-tree range/equality lookups).
    index_entries: int = 0
    #: Index probe operations (one per lookup call, e.g. per outer row).
    index_lookups: int = 0
    #: Rows passed through CPU-bound predicate/projection work.
    cpu_rows: int = 0
    #: Rows inserted into hash tables (join build sides, aggregation).
    hash_build_rows: int = 0
    #: Rows probed against hash tables.
    hash_probe_rows: int = 0
    #: Rows advanced through merge-join cursors.
    merge_rows: int = 0
    #: Sort comparisons (``n·log₂(n)`` per sort; may be fractional).
    sort_comparisons: float = 0.0
    #: Rows emitted by the plan root and intermediate operators.
    rows_output: int = 0
    #: Candidate row pairs expanded by interval (non-equi) joins.
    #: Declared last so existing counter sums keep their historical
    #: float accumulation order.
    interval_pairs: int = 0

    def add(self, other: "WorkCounters") -> None:
        """Accumulate ``other`` into this counter set, in place."""
        for name in _NAMES:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def __sub__(self, other: "WorkCounters") -> "WorkCounters":
        """The work charged since ``other`` was copied off this set."""
        return WorkCounters(*map(sub, _values(self), _values(other)))

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (for reports and tests)."""
        return {name: getattr(self, name) for name in _NAMES}

    def total_work(self) -> float:
        """Sum of all counters — raw work units, not seconds.

        Unitless by design (a page read and a hash probe each count
        1), so it orders operators by activity; the cost model's
        coefficients turn the same fields into simulated time.
        """
        return float(sum(getattr(self, name) for name in _NAMES))

    def copy(self) -> "WorkCounters":
        """An independent copy of the current totals."""
        return WorkCounters(*_values(self))


#: Field names in declaration order, and one getter of their values, made
#: once: an execution that records work copies and subtracts per operator.
_NAMES = tuple(f.name for f in fields(WorkCounters))
_values = attrgetter(*_NAMES)
