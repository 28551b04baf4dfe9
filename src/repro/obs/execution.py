"""Execution provenance: per-operator work breakdown and accuracy.

The engine charges all work into one shared
:class:`~repro.engine.counters.WorkCounters`, which keeps execution
fast but loses attribution. When tracing is on we can afford to buy
the attribution back: the simulated engine is deterministic, so
executing each subtree in its own fresh context and subtracting the
children's totals yields each operator's *own* work exactly — an
``EXPLAIN ANALYZE`` with a physical-work breakdown instead of just
row counts. This re-execution only happens on the tracing path; the
measured run that produces the experiment's records is untouched.
"""

from __future__ import annotations

import numpy as np

from repro.catalog import Database
from repro.engine import ExecutionContext, PhysicalOperator
from repro.engine.counters import WorkCounters
from repro.obs.trace import plan_shape, q_error


def _scalar(value) -> float | None:
    """JSON-safe scalar from an operator annotation.

    The vector planning pass may leave numpy scalars (or, on shared
    subtrees, whole threshold-axis arrays) in ``est_rows``/``est_cost``;
    multi-lane arrays have no single scalar meaning, so they serialize
    as ``None``.
    """
    if value is None:
        return None
    if isinstance(value, np.ndarray):
        flat = value.reshape(-1)
        return float(flat[0]) if flat.size == 1 else None
    return float(value)


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
    plan: PhysicalOperator, database: Database
) -> tuple[list[dict], WorkCounters, int]:
    """Per-operator provenance for one plan, in pre-order.

    Returns ``(spans, root_counters, root_rows)``. Each span carries
    the operator's label, depth, the base tables its subtree covers,
    estimated vs. actual rows with per-operator Q-error, and its
    **own** work — the counters of its subtree minus its children's
    subtrees, so summing ``counters`` over all spans reproduces the
    plan's total work.
    """
    spans: list[dict] = []

    def visit(op: PhysicalOperator, depth: int) -> tuple[WorkCounters, int]:
        ctx = ExecutionContext(database)
        rows = op.execute(ctx).num_rows
        total = ctx.counters
        estimated = _scalar(op.est_rows)
        span = {
            "operator": op.label(),
            "depth": depth,
            "tables": sorted(operator_tables(op)),
            "estimated_rows": estimated,
            "actual_rows": rows,
            "q_error": q_error(estimated, rows),
        }
        spans.append(span)
        own = total.copy()
        for child in op.children():
            child_total, _ = visit(child, depth + 1)
            for name, value in child_total.as_dict().items():
                setattr(own, name, getattr(own, name) - value)
        span["counters"] = own.as_dict()
        span["own_work"] = own.total_work()
        return total, rows

    root_counters, root_rows = visit(plan, 0)
    return spans, root_counters, root_rows


def execution_span(
    plan: PhysicalOperator,
    database: Database,
    cost_model,
    *,
    simulated_seconds: float,
    actual_rows: int,
    estimated_rows: float | None = None,
    estimated_cost: float | None = None,
    cache_hit: bool = False,
    wall_seconds: float | None = None,
) -> dict:
    """The execution span of one query trace.

    Joins the optimizer's estimates against the observed
    ``actual_rows`` for the plan-level accuracy verdict: the Q-error
    ``max(est/actual, actual/est)`` plus explicit under/over flags
    (both ``False`` when the estimate was exact or absent).
    """
    spans, counters, _ = operator_spans(plan, database)
    estimated_rows = _scalar(estimated_rows)
    estimated_cost = _scalar(estimated_cost)
    error = q_error(estimated_rows, actual_rows)
    span = {
        "plan_shape": plan_shape(plan),
        "signature": plan.signature(),
        "simulated_seconds": simulated_seconds,
        "actual_rows": actual_rows,
        "estimated_rows": estimated_rows,
        "estimated_cost": estimated_cost,
        "q_error": error,
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
        "operators": spans,
    }
    if wall_seconds is not None:
        span["timing"] = {"wall_seconds": wall_seconds}
    return span
