"""Cardinality auditing: estimated vs. actual rows per plan operator.

The paper's whole premise is that estimates are uncertain; this module
makes the error observable. :func:`audit_plan` executes a planned query
once and reports, per operator, the optimizer's estimate next to the
actual output cardinality and their q-error — the row columns of the
execution spans :func:`repro.obs.operator_spans` builds from that one
execution's record.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog import Database
from repro.engine import ExecutionContext
from repro.obs.execution import operator_spans
from repro.obs.summarize import operator_table
from repro.obs.trace import q_error
from repro.optimizer import PlannedQuery


@dataclass(frozen=True)
class AuditEntry:
    """One operator's estimated-vs-actual comparison."""

    label: str
    depth: int
    estimated_rows: float | None
    actual_rows: int

    @property
    def q_error(self) -> float | None:
        """Symmetric ratio error (≥ 1); ``None`` without an estimate."""
        return q_error(self.estimated_rows, self.actual_rows)


def audit_plan(planned: PlannedQuery, database: Database) -> list[AuditEntry]:
    """Execute ``planned`` once and collect one entry per operator.

    Entries are returned in pre-order, matching ``explain()`` layout.
    """
    ctx = ExecutionContext(database, operator_rows={}, operator_work={})
    planned.plan.execute(ctx)
    return [
        AuditEntry(
            label=span["operator"],
            depth=span["depth"],
            estimated_rows=span["estimated_rows"],
            actual_rows=span["actual_rows"],
        )
        for span in operator_spans(
            planned.plan, ctx.operator_record(planned.plan)
        )
    ]


def format_audit(entries: list[AuditEntry]) -> str:
    """Render audit entries as an EXPLAIN-ANALYZE-style text tree."""
    return "\n".join(
        operator_table(
            [
                {
                    "operator": entry.label,
                    "depth": entry.depth,
                    "estimated_rows": entry.estimated_rows,
                    "actual_rows": entry.actual_rows,
                    "q_error": entry.q_error,
                }
                for entry in entries
            ]
        )
    )
