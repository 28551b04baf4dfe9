"""Re-costing of existing physical plans under a cardinality oracle.

The DP optimizer costs plans while it builds them. This module does the
reverse, from the finished tree alone: given a plan, what does it cost
under these cardinalities? It lived in ``src/`` as
``repro.optimizer.costing`` while the multi-invocation
least-expected-cost optimizer needed it; both are now references —
this one is what the differential tests hold the lattice's incremental
costing to (``test_optimizer_costing.py``,
``test_every_alternative_recosts_to_its_dp_cost``) and what
``tests/reference_lec.py`` prices its pooled candidates with.

The re-coster reconstructs each operator's *logical footprint* — the
tables it covers and the predicates applied within it — and prices the
operator with the same :class:`~repro.cost.CostModel` formulas used at
construction time, so re-costing a plan under the estimates it was
built with reproduces its original cost. It shares no code with the
lattice: a drift between the two is a finding, not a maintenance chore.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.catalog import Database
from repro.cost import CostModel
from repro.engine import (
    Filter,
    HashAggregate,
    HashJoin,
    IndexIntersect,
    IndexSeek,
    IndexUnionSeek,
    IndexedNLJoin,
    MergeJoin,
    NonEquiJoin,
    PhysicalOperator,
    Project,
    Limit,
    SeqScan,
    Sort,
    StarSemiJoin,
)
from repro.engine.scans import IndexCondition
from repro.errors import OptimizationError
from repro.expressions import (
    Expr,
    as_join_condition,
    col,
    conjunction,
    split_conjuncts,
)
from repro.expressions.expr import Comparison
from repro.optimizer.query import SPJQuery, fk_components

#: Cardinality oracle: (tables, predicate) -> estimated rows.
CardFn = Callable[[frozenset, Expr | None], float]
#: Join-condition oracle: JoinCondition -> point selectivity.
ConditionFn = Callable[[object], float]


def _minimum(a, b):
    """``min`` that maps over threshold-axis row vectors."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return min(a, b)


def _maximum(a, b):
    """``max`` that maps over threshold-axis row vectors."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


def condition_to_expr(table_name: str, condition: IndexCondition) -> Expr:
    """Rebuild the predicate an :class:`IndexCondition` resolves."""
    reference = col(f"{table_name}.{condition.column}")
    parts = []
    if condition.low is not None and condition.low == condition.high:
        if condition.low_inclusive and condition.high_inclusive:
            return reference == condition.low
    if condition.low is not None:
        parts.append(
            reference >= condition.low
            if condition.low_inclusive
            else reference > condition.low
        )
    if condition.high is not None:
        parts.append(
            reference <= condition.high
            if condition.high_inclusive
            else reference < condition.high
        )
    combined = conjunction(parts)
    if combined is None:
        raise OptimizationError("unbounded index condition has no predicate")
    return combined


class PlanCoster:
    """Prices a physical plan tree under a cardinality oracle.

    ``condition_selectivity`` is needed only by plans that join FK
    components through conditions (band joins); it is clamped at 1e-9
    as the planner clamps it.
    """

    def __init__(
        self,
        database: Database,
        model: CostModel,
        card: CardFn,
        condition_selectivity: ConditionFn | None = None,
    ) -> None:
        self.database = database
        self.model = model
        self.card = card
        self._condition_selectivity = condition_selectivity

    def cost(self, plan: PhysicalOperator) -> tuple[float, float]:
        """Return ``(cumulative cost seconds, estimated output rows)``."""
        cost, rows, _, _ = self._visit(plan)
        return cost, rows

    # ------------------------------------------------------------------
    def _visit(
        self, op: PhysicalOperator
    ) -> tuple[float, float, frozenset, Expr | None]:
        """Returns (cost, rows, tables, applied predicate)."""
        if isinstance(op, SeqScan):
            return self._seq_scan(op)
        if isinstance(op, IndexSeek):
            return self._index_seek(op)
        if isinstance(op, IndexIntersect):
            return self._index_intersect(op)
        if isinstance(op, IndexUnionSeek):
            return self._index_union(op)
        if isinstance(op, Filter):
            return self._filter(op)
        if isinstance(op, Project):
            return self._visit(op.child)
        if isinstance(op, Sort):
            cost, rows, tables, predicate = self._visit(op.child)
            return cost + self.model.sort(rows), rows, tables, predicate
        if isinstance(op, Limit):
            cost, rows, tables, predicate = self._visit(op.child)
            return cost, _minimum(rows, float(op.count)), tables, predicate
        if isinstance(op, HashJoin):
            return self._hash_join(op)
        if isinstance(op, MergeJoin):
            return self._merge_join(op)
        if isinstance(op, IndexedNLJoin):
            return self._indexed_nl(op)
        if isinstance(op, NonEquiJoin):
            return self._nonequi_join(op)
        if isinstance(op, StarSemiJoin):
            return self._star(op)
        if isinstance(op, HashAggregate):
            return self._aggregate(op)
        raise OptimizationError(f"cannot re-cost operator {type(op).__name__}")

    # ------------------------------------------------------------------
    def condition_selectivity(self, conjunct: Expr) -> float:
        """Selectivity of a conjunct joining two FK components."""
        condition = as_join_condition(conjunct)
        if condition is None or self._condition_selectivity is None:
            raise OptimizationError(
                f"cannot price {conjunct!r} across FK components"
            )
        return max(float(self._condition_selectivity(condition)), 1e-9)

    def _rows(self, tables: frozenset, predicate: Expr | None):
        """Output rows of ``tables`` under ``predicate``.

        One FK component: the oracle's answer. Several (no synopsis
        spans them): the product of the components' rows and of the
        selectivity of every applied conjunct that joins two of them.
        """
        edges = SPJQuery(sorted(tables)).join_edges(self.database)
        components = fk_components(tables, edges)
        if len(components) == 1:
            return self.card(tables, predicate)
        within: dict[frozenset, list[Expr]] = {c: [] for c in components}
        across: list[Expr] = []
        for conjunct in split_conjuncts(predicate):
            referenced = conjunct.tables()
            home = [c for c in components if referenced <= c]
            (within[home[0]] if home else across).append(conjunct)
        rows = 1.0
        for component in components:
            rows = rows * self.card(component, conjunction(within[component]))
        for conjunct in across:
            rows = rows * self.condition_selectivity(conjunct)
        return rows

    def _seq_scan(self, op: SeqScan):
        table = self.database.table(op.table_name)
        tables = frozenset([op.table_name])
        rows = self.card(tables, op.predicate)
        cost = self.model.seq_scan(table.num_rows, table.num_pages, rows)
        return cost, rows, tables, op.predicate

    def _index_seek(self, op: IndexSeek):
        table = self.database.table(op.table_name)
        tables = frozenset([op.table_name])
        condition_expr = condition_to_expr(op.table_name, op.condition)
        entries = self.card(tables, condition_expr)
        predicate = conjunction([condition_expr, op.residual])
        rows = self.card(tables, predicate)
        clustered = (
            self.database.clustering_column(op.table_name) == op.condition.column
        )
        cost = self.model.index_seek(
            entries, rows, clustered, table.rows_per_page, op.residual is not None
        )
        return cost, rows, tables, predicate

    def _index_union(self, op: IndexUnionSeek):
        table = self.database.table(op.table_name)
        tables = frozenset([op.table_name])
        in_expr = col(f"{op.table_name}.{op.column}").isin(op.values)
        entries = self.card(tables, in_expr)
        predicate = conjunction([in_expr, op.residual])
        rows = self.card(tables, predicate)
        clustered = self.database.clustering_column(op.table_name) == op.column
        cost = self.model.index_union(
            len(op.values),
            entries,
            rows,
            clustered,
            table.rows_per_page,
            op.residual is not None,
        )
        return cost, rows, tables, predicate

    def _index_intersect(self, op: IndexIntersect):
        tables = frozenset([op.table_name])
        condition_exprs = [
            condition_to_expr(op.table_name, c) for c in op.conditions
        ]
        entries = [self.card(tables, expr) for expr in condition_exprs]
        fetched = self.card(tables, conjunction(condition_exprs))
        predicate = conjunction(condition_exprs + ([op.residual] if op.residual is not None else []))
        rows = self.card(tables, predicate)
        cost = self.model.index_intersect(
            entries, fetched, rows, op.residual is not None
        )
        return cost, rows, tables, predicate

    def _filter(self, op: Filter):
        child_cost, child_rows, tables, applied = self._visit(op.child)
        predicate = conjunction([applied, op.predicate])
        rows = self._rows(tables, predicate)
        cost = child_cost + self.model.filter(child_rows, rows)
        return cost, rows, tables, predicate

    def _hash_join(self, op: HashJoin):
        build_cost, build_rows, build_tables, build_pred = self._visit(op.build)
        probe_cost, probe_rows, probe_tables, probe_pred = self._visit(op.probe)
        tables = build_tables | probe_tables
        predicate = conjunction([build_pred, probe_pred])
        rows = self._rows(tables, predicate)
        cost = (
            build_cost
            + probe_cost
            + self.model.hash_join(build_rows, probe_rows, rows)
        )
        return cost, rows, tables, predicate

    def _merge_join(self, op: MergeJoin):
        left_cost, left_rows, left_tables, left_pred = self._visit(op.left)
        right_cost, right_rows, right_tables, right_pred = self._visit(op.right)
        tables = left_tables | right_tables
        predicate = conjunction([left_pred, right_pred])
        rows = self._rows(tables, predicate)
        cost = (
            left_cost
            + right_cost
            + self.model.merge_join(left_rows, right_rows, rows)
        )
        return cost, rows, tables, predicate

    def _nonequi_join(self, op: NonEquiJoin):
        """Sort the right input, probe it per left row on the primary
        condition, filter the pairs by the residual (band joins)."""
        left_cost, left_rows, left_tables, left_pred = self._visit(op.left)
        right_cost, right_rows, right_tables, right_pred = self._visit(op.right)
        tables = left_tables | right_tables
        primary = Comparison(col(op.left_column), col(op.right_column), op.op)
        predicate = conjunction([left_pred, right_pred, primary, op.residual])
        rows = self._rows(tables, predicate)
        pairs = left_rows * right_rows * self.condition_selectivity(primary)
        cost = (
            left_cost
            + right_cost
            + self.model.nonequi_join(
                left_rows, right_rows, pairs, rows, op.residual is not None
            )
        )
        return cost, rows, tables, predicate

    def _indexed_nl(self, op: IndexedNLJoin):
        outer_cost, outer_rows, outer_tables, outer_pred = self._visit(op.outer)
        tables = outer_tables | {op.inner_table}
        matched = self._rows(tables, outer_pred)
        predicate = conjunction([outer_pred, op.residual])
        rows = self._rows(tables, predicate)
        inner = self.database.table(op.inner_table)
        clustered = (
            self.database.clustering_column(op.inner_table) == op.inner_column
        )
        cost = outer_cost + self.model.indexed_nl_join(
            outer_rows,
            matched,
            rows,
            clustered,
            inner.rows_per_page,
            op.residual is not None,
        )
        return cost, rows, tables, predicate

    def _star(self, op: StarSemiJoin):
        fact = op.fact_table
        dim_scan_cost = 0.0
        probe_keys = 0.0
        matched_entries = 0.0
        attach_build = 0.0
        for spec in op.semi_dims + op.hash_dims:
            dim = self.database.table(spec.dim_table)
            dim_scan_cost += self.model.seq_scan(dim.num_rows, dim.num_pages, 0.0)
            attach_build += self.card(
                frozenset([spec.dim_table]), spec.predicate
            )
        for spec in op.semi_dims:
            probe_keys += self.card(frozenset([spec.dim_table]), spec.predicate)
            matched_entries += self.card(
                frozenset([fact, spec.dim_table]), spec.predicate
            )

        semi_tables = frozenset([fact] + [s.dim_table for s in op.semi_dims])
        semi_pred = conjunction([s.predicate for s in op.semi_dims])
        fetched = self.card(semi_tables, semi_pred)
        after_fact = self.card(
            semi_tables, conjunction([semi_pred, op.fact_predicate])
        )

        attach_probe = after_fact * len(op.semi_dims)
        running_tables = set(semi_tables)
        running_pred = conjunction([semi_pred, op.fact_predicate])
        running_rows = after_fact
        for spec in op.hash_dims:
            attach_probe += running_rows
            running_tables.add(spec.dim_table)
            running_pred = conjunction([running_pred, spec.predicate])
            running_rows = self.card(frozenset(running_tables), running_pred)

        cost = self.model.star_semijoin(
            dim_scan_cost,
            probe_keys,
            matched_entries,
            fetched,
            attach_build,
            attach_probe,
            running_rows,
        )
        if op.fact_predicate is not None:
            cost += fetched * self.model.cpu_tuple_cost
        tables = frozenset(running_tables)
        return cost, running_rows, tables, running_pred

    def _aggregate(self, op: HashAggregate):
        child_cost, child_rows, tables, predicate = self._visit(op.child)
        if op.group_by:
            groups = _minimum(child_rows, _maximum(1.0, child_rows ** 0.8))
        else:
            groups = 1.0
        cost = child_cost + self.model.aggregate(
            child_rows, groups, bool(op.group_by)
        )
        return cost, groups, tables, predicate
