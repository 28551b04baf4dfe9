"""Join-candidate generation between two planned subsets."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.engine import HashJoin, IndexedNLJoin, MergeJoin, NonEquiJoin, Sort
from repro.expressions import conjunction
from repro.optimizer.candidates import PlanCandidate, both_active
from repro.optimizer.query import JoinEdge

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optimizer.optimizer import PlanningContext


def join_candidates(
    ctx: "PlanningContext",
    lefts: list[PlanCandidate],
    rights: list[PlanCandidate],
    edge: JoinEdge,
    out_rows: float,
) -> list[PlanCandidate]:
    """All join methods over one partition, along ``edge``.

    ``lefts`` and ``rights`` are the surviving candidates of the two
    halves. Every candidate of a half carries that half's ``rows``, so
    the keys, the cost-model terms and the INL facts are worked out
    once here; only input costs, orders and ``active`` lanes vary per
    pair (a join is active where both its inputs are). Hash and
    merge joins are emitted per pair, an INL join once per *outer*
    candidate (of the inner it reads only the table), each where a
    pair-at-a-time walk would first meet it — pruning is first-wins, so
    the order is part of the result.
    """
    left_set, right_set = lefts[0].tables, rights[0].tables
    left_rows, right_rows = lefts[0].rows, rights[0].rows
    tables = left_set | right_set
    if edge.child in left_set:
        left_key, right_key = edge.child_column, edge.parent_column
    else:
        left_key, right_key = edge.parent_column, edge.child_column
    model = ctx.model

    hash_sides = _hash_sides(
        model, left_rows, right_rows, left_key, right_key, out_rows
    )
    merge_term = model.merge_join(left_rows, right_rows, out_rows)
    left_sorted = _sorted_inputs(model, lefts, left_key)
    right_sorted = _sorted_inputs(model, rights, right_key)
    # Indexed nested-loop joins: either side can be the inner base
    # table if it has an index on its join column.
    inl_left_outer = _indexed_nl(
        ctx, left_set, left_rows, left_key, right_set, right_key, out_rows
    )
    inl_right_outer = _indexed_nl(
        ctx, right_set, right_rows, right_key, left_set, left_key, out_rows
    )

    candidates: list[PlanCandidate] = []
    for left, (left_op, left_sort) in zip(lefts, left_sorted):
        for right, (right_op, right_sort) in zip(rights, right_sorted):
            active = both_active(left.active, right.active)
            for left_builds, build_key, probe_key, term, side_active in hash_sides:
                build, probe = (left, right) if left_builds else (right, left)
                cost = build.cost + probe.cost + term
                operator = HashJoin(
                    build.operator, probe.operator, build_key, probe_key
                )
                candidates.append(
                    PlanCandidate(
                        operator,
                        tables,
                        out_rows,
                        cost,
                        None,
                        both_active(active, side_active),
                    ).annotated()
                )

            # Merge join over inputs ordered on their join keys (adding
            # an ordered side's 0.0 sort cost is exact).
            cost = left.cost + right.cost + left_sort + right_sort + merge_term
            operator = MergeJoin(left_op, right_op, left_key, right_key)
            candidates.append(
                PlanCandidate(
                    operator, tables, out_rows, cost, left_key, active
                ).annotated()
            )

            if inl_left_outer is not None and right is rights[0]:
                candidates.append(inl_left_outer(left))
            if inl_right_outer is not None and left is lefts[0]:
                candidates.append(inl_right_outer(right))
    return candidates


def nonequi_candidates(
    ctx: "PlanningContext",
    left: PlanCandidate,
    right: PlanCandidate,
    conditions: list,
    out_rows: float,
) -> list[PlanCandidate]:
    """NonEquiJoin candidates combining two condition-connected subsets.

    The first condition (conjunct order) drives the interval search;
    any further conditions crossing the same partition (band joins)
    ride along as the operator's residual. Both orientations are
    emitted — sorting the right side and probing per left row is
    asymmetric work — and pruning keeps the cheaper one.
    """
    primary = conditions[0]
    residual = conjunction([c.expr for c in conditions[1:]])
    selectivity = ctx.condition_selectivity(primary)
    candidates: list[PlanCandidate] = []
    for outer, inner in ((left, right), (right, left)):
        left_column, op, right_column = primary.oriented(outer.tables)
        pairs = outer.rows * inner.rows * selectivity
        cost = (
            outer.cost
            + inner.cost
            + ctx.model.nonequi_join(
                outer.rows, inner.rows, pairs, out_rows, residual is not None
            )
        )
        operator = NonEquiJoin(
            outer.operator, inner.operator, left_column, op, right_column, residual
        )
        candidates.append(
            PlanCandidate(
                operator,
                outer.tables | inner.tables,
                out_rows,
                cost,
                outer.order,
                both_active(outer.active, inner.active),
            ).annotated()
        )
    return candidates


def _hash_sides(model, left_rows, right_rows, left_key, right_key, out_rows):
    """``(left builds?, build key, probe key, model term, active lanes)``
    per hash-join orientation of a partition.

    Build on the smaller estimated input. On the threshold-vectorized
    path the smaller side can differ per threshold, so both
    orientations are emitted, each ``active`` only at the thresholds
    where the scalar rule would pick it. The term itself is priced at
    every lane: an orientation costs what it costs wherever it runs.
    """
    def side(left_builds: bool, active):
        if left_builds:
            term = model.hash_join(left_rows, right_rows, out_rows)
            return True, left_key, right_key, term, active
        term = model.hash_join(right_rows, left_rows, out_rows)
        return False, right_key, left_key, term, active

    left_smaller = np.asarray(left_rows <= right_rows)
    if left_smaller.all():
        return [side(True, None)]
    if not left_smaller.any():
        return [side(False, None)]
    return [side(True, left_smaller), side(False, ~left_smaller)]


def _sorted_inputs(model, sides: list[PlanCandidate], key: str) -> list[tuple]:
    """Each candidate's operator ordered on ``key`` and what that costs:
    itself at 0.0 when already ordered, else wrapped in a Sort."""
    sort_cost = None
    inputs = []
    for side in sides:
        if side.order == key:
            inputs.append((side.operator, 0.0))
        else:
            if sort_cost is None:
                sort_cost = model.sort(side.rows)
            inputs.append((Sort(side.operator, key), sort_cost))
    return inputs


def _indexed_nl(
    ctx: "PlanningContext",
    outer_set: frozenset,
    outer_rows,
    outer_key: str,
    inner_set: frozenset,
    inner_key: str,
    out_rows,
):
    """Maker of the indexed NL join of one outer candidate, probing the
    base table ``inner_set`` holds; ``None`` when that cannot be done."""
    if len(inner_set) != 1:
        return None
    (inner_table,) = inner_set
    inner_column = inner_key.split(".", 1)[1]
    if not ctx.database.has_index(inner_table, inner_column):
        return None

    # Rows fetched through the index: the join of the outer result with
    # the raw inner table — the inner predicate has not yet applied.
    tables = outer_set | inner_set
    matched = ctx.rows(tables, filtered=outer_set)
    residual = ctx.pred_for(inner_set)
    term = ctx.model.indexed_nl_join(
        outer_rows,
        matched,
        out_rows,
        ctx.database.clustering_column(inner_table) == inner_column,
        ctx.database.table(inner_table).rows_per_page,
        residual is not None,
    )

    def candidate(outer: PlanCandidate) -> PlanCandidate:
        operator = IndexedNLJoin(
            outer.operator, inner_table, outer_key, inner_column, residual
        )
        return PlanCandidate(
            operator, tables, out_rows, outer.cost + term, outer.order, outer.active
        ).annotated()

    return candidate
