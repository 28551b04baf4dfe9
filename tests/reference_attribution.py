"""Per-operator attribution as it was before executions recorded it.

Kept as the reference the differential tests compare
``repro.obs.operator_spans`` against: every subtree is executed again in
a fresh context and its children's totals are subtracted. One execution
per operator instead of one per plan, and by construction the same
spans: whatever is read off a capturing execution's record must equal,
field for field, what this walker re-derives.
"""

from __future__ import annotations

from repro.engine import ExecutionContext
from repro.obs.execution import annotation_scalar, operator_tables
from repro.obs.trace import q_error


def reexecuted_spans(plan, database):
    """``(spans, root counters, root rows)`` by re-executing subtrees."""
    spans = []

    def visit(op, depth):
        ctx = ExecutionContext(database)
        rows = op.execute(ctx).num_rows
        estimated = annotation_scalar(op.est_rows)
        span = {
            "operator": op.label(),
            "depth": depth,
            "tables": sorted(operator_tables(op)),
            "estimated_rows": estimated,
            "actual_rows": rows,
            "q_error": q_error(estimated, rows),
        }
        spans.append(span)
        own = ctx.counters.copy()
        for child in op.children():
            child_total, _ = visit(child, depth + 1)
            for name, value in child_total.as_dict().items():
                setattr(own, name, getattr(own, name) - value)
        span["counters"] = own.as_dict()
        span["own_work"] = own.total_work()
        return ctx.counters, rows

    root_counters, root_rows = visit(plan, 0)
    return spans, root_counters, root_rows
