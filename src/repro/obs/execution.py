"""Execution provenance: per-operator work breakdown and accuracy.

The engine charges all work into one shared
:class:`~repro.engine.counters.WorkCounters`, which keeps execution
fast but loses attribution. An execution that was asked to
(``ExecutionContext(operator_rows={}, operator_work={})``) records, per
operator, its output rows and the work charged between its entry and
exit; counters are additive, so an operator's *own* work is its
subtree's minus its children's — an ``EXPLAIN ANALYZE`` with a
physical-work breakdown instead of just row counts. The functions here
are pure over ``(plan, that record)``: they execute nothing, so the
execution that produced the result is the only one that runs.
"""

from __future__ import annotations

from repro.engine import PhysicalOperator
from repro.engine.counters import WorkCounters
from repro.obs.trace import plan_shape, q_error


def annotation_scalar(value) -> float | None:
    """JSON-safe scalar from an operator annotation (``None`` if unset).

    The optimizer annotates every tree it builds at one lane, so an
    annotation is one number (a Python or numpy float).
    """
    return None if value is None else float(value)


def operator_tables(op: PhysicalOperator) -> frozenset[str]:
    """Base tables covered by an operator's subtree.

    Scans and seeks carry ``table_name``; an indexed nested-loop join
    contributes its ``inner_table`` (probed through the index, so not
    an operator of the tree); a star semi-join contributes its fact
    table and every dimension spec. This is the attribution the
    feedback harvester keys observed cardinalities on.
    """
    tables: set[str] = set()
    for node in op.walk():
        for attribute in ("table_name", "inner_table"):
            name = getattr(node, attribute, None)
            if name is not None:
                tables.add(name)
        fact = getattr(node, "fact_table", None)
        if fact is not None:
            tables.add(fact)
            for spec in list(getattr(node, "semi_dims", ())) + list(
                getattr(node, "hash_dims", ())
            ):
                tables.add(spec.dim_table)
    return frozenset(tables)


def operator_spans(
    plan: PhysicalOperator, record: list[tuple[int, WorkCounters]]
) -> list[dict]:
    """Per-operator provenance for one executed plan, in pre-order.

    ``record`` is :meth:`ExecutionContext.operator_record` of the
    execution — of ``plan`` or of any plan with the same signature; the
    estimates are read off ``plan``. Each span carries the operator's
    label, depth, the base tables its subtree covers, estimated vs.
    actual rows with per-operator Q-error, and its **own** work — the
    counters of its subtree minus its children's subtrees, so summing
    ``counters`` over all spans reproduces the plan's total work.
    """
    spans: list[dict] = []
    entries = iter(record)

    def visit(op: PhysicalOperator, depth: int) -> WorkCounters:
        rows, total = next(entries)
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
        own = total
        for child in op.children():
            own = own - visit(child, depth + 1)
        span["counters"] = own.as_dict()
        span["own_work"] = own.total_work()
        return total

    visit(plan, 0)
    return spans


def execution_span(
    plan: PhysicalOperator,
    record: list[tuple[int, WorkCounters]],
    cost_model,
    *,
    estimated_rows: float | None = None,
    estimated_cost: float | None = None,
    cache_hit: bool = False,
) -> dict:
    """The execution span of one query trace.

    The plan-level actuals are the root's entry of ``record`` — its
    work is the execution's whole accumulator. Joins the optimizer's
    estimates against the observed rows for the plan-level accuracy
    verdict: the Q-error ``max(est/actual, actual/est)`` plus explicit
    under/over flags (both ``False`` when the estimate was exact or
    absent).
    """
    actual_rows, counters = record[0]
    estimated_rows = annotation_scalar(estimated_rows)
    estimated_cost = annotation_scalar(estimated_cost)
    return {
        "plan_shape": plan_shape(plan),
        "signature": plan.signature(),
        "simulated_seconds": cost_model.time_from_counters(counters),
        "actual_rows": actual_rows,
        "estimated_rows": estimated_rows,
        "estimated_cost": estimated_cost,
        "q_error": q_error(estimated_rows, actual_rows),
        "underestimate": (
            estimated_rows is not None and estimated_rows < actual_rows
        ),
        "overestimate": (
            estimated_rows is not None and estimated_rows > actual_rows
        ),
        "cache_hit": bool(cache_hit),
        "counters": counters.as_dict(),
        "total_work": counters.total_work(),
        "time_breakdown": cost_model.time_breakdown(counters),
        "operators": operator_spans(plan, record),
    }
