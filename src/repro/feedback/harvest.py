"""Harvesting: executed plans and trace records → feedback records.

The whole trick of the feedback loop is that a stored observation only
helps if its key matches a key the optimizer will ask about. The
optimizer estimates ``card(tables, pred_for(tables))`` where
``pred_for`` conjoins the per-table selection conjuncts of ``tables``
in sorted-table order, and — once, at the root when cross-table
conjuncts exist — ``card(all tables, query.predicate)``. The
harvester mirrors that construction exactly (see
:func:`predicate_for_tables`), so the ``(tables, expr_key)`` pairs it
records are byte-identical to the lookups the next prepare performs.

Two entry points:

* :func:`harvest_plan` — records the output cardinality of the topmost
  relational operator per distinct table set of an executed plan. The
  cardinalities are not computed here: they are the ``{operator: output
  rows}`` mapping an execution fills when its
  :class:`~repro.engine.ExecutionContext` was given one
  (``operator_rows``). ``Session`` passes the rows its execution memo
  recorded on the first run of the plan's tree, so harvesting executes
  nothing;
* :func:`harvest_traces` — replays archived trace records (the
  experiment runner's output) through the per-operator execution
  spans, which carry their covered ``tables``. Aggregation in the store
  is commutative, so harvesting the same records in any order — from
  any worker count — produces byte-identical store contents.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.engine import (
    HashAggregate,
    Limit,
    PhysicalOperator,
    Sort,
)
from repro.expressions import Expr, conjunction, expr_key, predicates_by_table
from repro.feedback.store import FeedbackStore
from repro.obs.execution import annotation_scalar, operator_tables
from repro.optimizer import SPJQuery

#: Operators whose output cardinality is not the SPJ result over their
#: covered tables (aggregation collapses, limit truncates); their
#: children carry the observable cardinalities. ``Sort`` preserves
#: cardinality but is skipped too — dedup then lands on its child,
#: which covers the identical table set.
_NON_RELATIONAL = (HashAggregate, Limit, Sort)


def predicate_for_tables(
    query: SPJQuery, tables: frozenset[str]
) -> Expr | None:
    """The predicate the optimizer pairs with this table set.

    Mirrors ``PlanningContext.pred_for`` — per-table conjuncts joined
    in sorted-table order — except at the full table set when
    cross-table conjuncts exist, where the optimizer's final filter
    estimate uses the whole query predicate.
    """
    return _predicate_for(query, predicates_by_table(query.predicate), tables)


def _predicate_for(
    query: SPJQuery, per_table: dict[str, Expr], tables: frozenset[str]
) -> Expr | None:
    """:func:`predicate_for_tables` over an already analysed predicate."""
    if "" in per_table and set(tables) == set(query.tables):
        return query.predicate
    return conjunction([per_table.get(name) for name in sorted(tables)])


def plan_observations(
    query: SPJQuery,
    plan: PhysicalOperator,
    operator_rows: Mapping[PhysicalOperator, int],
) -> list[dict]:
    """Observed cardinalities from one executed plan.

    Walks the plan pre-order and, for the *topmost* relational
    operator of each distinct table set, emits one observation dict:
    ``{"tables", "predicate_key", "observed_rows", "estimated_rows"}``.
    ``operator_rows`` maps each operator of ``plan`` to its output
    rows: what an execution given ``ExecutionContext(...,
    operator_rows={})`` captured, or a session record's
    ``operator_rows(plan)``. Nothing is executed here.
    """
    per_table = predicates_by_table(query.predicate)
    observations: list[dict] = []
    seen: set[frozenset[str]] = set()
    for op in plan.walk():
        if isinstance(op, _NON_RELATIONAL):
            continue
        tables = operator_tables(op)
        if not tables or tables in seen:
            continue
        seen.add(tables)
        observations.append(
            {
                "tables": tuple(sorted(tables)),
                "predicate_key": expr_key(_predicate_for(query, per_table, tables)),
                "observed_rows": float(operator_rows[op]),
                "estimated_rows": annotation_scalar(op.est_rows),
            }
        )
    return observations


def harvest_plan(
    store: FeedbackStore,
    namespace: str,
    query: SPJQuery,
    plan: PhysicalOperator,
    operator_rows: Mapping[PhysicalOperator, int],
) -> int:
    """Record every observation of one executed plan; returns count."""
    observations = plan_observations(query, plan, operator_rows)
    for obs in observations:
        store.record(
            namespace,
            tables=obs["tables"],
            predicate_key=obs["predicate_key"],
            observed_rows=obs["observed_rows"],
            estimated_rows=obs["estimated_rows"],
        )
    return len(observations)


#: Operator-label prefixes skipped when harvesting from trace records
#: (the trace analogue of ``_NON_RELATIONAL``).
_NON_RELATIONAL_LABELS = ("HashAggregate", "Limit", "Sort")


def harvest_traces(
    store: FeedbackStore,
    records: Iterable[dict],
    *,
    query_for: Callable[[dict], SPJQuery],
    namespace_for: Callable[[dict], str] | None = None,
) -> int:
    """Harvest archived trace records into the store.

    ``query_for(record)`` reconstructs the SPJ query a record executed
    (e.g. by re-instantiating its workload template at
    ``record["param"]``); ``namespace_for(record)`` picks the store
    namespace (default ``"<template>/seed=<seed>"`` — deterministic,
    so the store's bytes are independent of how the records were
    produced or ordered). Returns the number of observations recorded.
    """
    if namespace_for is None:
        namespace_for = (
            lambda record: f"{record['template']}/seed={record['seed']}"
        )
    recorded = 0
    for record in records:
        execution = record.get("execution")
        if not execution:
            continue
        operators = execution.get("operators")
        if not operators:
            continue
        query = query_for(record)
        namespace = namespace_for(record)
        seen: set[frozenset[str]] = set()
        for span in operators:
            label = span.get("operator", "")
            if label.startswith(_NON_RELATIONAL_LABELS):
                continue
            tables = frozenset(span.get("tables") or ())
            if not tables or tables in seen:
                continue
            seen.add(tables)
            predicate = predicate_for_tables(query, tables)
            store.record(
                namespace,
                tables=tables,
                predicate_key=expr_key(predicate),
                observed_rows=float(span["actual_rows"]),
                estimated_rows=span.get("estimated_rows"),
            )
            recorded += 1
    return recorded
