"""Cardinality auditing: estimated vs. actual rows per plan operator.

The paper's whole premise is that estimates are uncertain; this module
makes the error observable. :func:`audit_plan` reports, per operator of
a prepared statement's plan, the optimizer's estimate next to the
actual output cardinality and their q-error — the row columns of the
execution spans :func:`repro.obs.operator_spans` builds from the record
its session keeps of the plan's one run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.execution import operator_spans
from repro.obs.summarize import operator_table
from repro.obs.trace import q_error
from repro.service import PreparedQuery


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


def audit_plan(prepared: PreparedQuery) -> list[AuditEntry]:
    """One entry per operator of ``prepared``'s plan, in pre-order
    (``explain()`` layout).

    The actuals are the record of the plan's tree in its session's
    execution memo: a tree the session already ran (an ``execute``,
    a trace or an earlier audit of the statement) is not run again.
    """
    plan = prepared.plan
    record = prepared.session._run(
        prepared.fingerprint, prepared.planned, served=False
    )[0]
    return [
        AuditEntry(
            label=span["operator"],
            depth=span["depth"],
            estimated_rows=span["estimated_rows"],
            actual_rows=span["actual_rows"],
        )
        for span in operator_spans(plan, record.operators)
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
