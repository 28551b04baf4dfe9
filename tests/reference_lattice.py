"""The join lattice as it was before it priced each partition once.

Kept as the reference the differential tests compare the optimizer's
lattice against: every (left, right) *pair* is joined on its own, and a
pruned mapping is walked slot by slot, so a winner filed under its
order slot and under ``None`` is met — and joined — twice. Slower, and
by construction the same plans: whatever the optimizer's lattice prunes
to must equal, slot for slot, what this one does.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations

import numpy as np

from repro.core import RobustCardinalityEstimator
from repro.cost import CostModel
from repro.engine import HashJoin, IndexedNLJoin, MergeJoin, Sort
from repro.engine.relops import Filter
from repro.errors import OptimizationError
from repro.expressions import conjunction, expr_key
from repro.optimizer import Optimizer
from repro.optimizer.access import access_paths
from repro.optimizer.candidates import (
    PlanCandidate,
    both_active,
    keep_best,
    keep_best_vector,
)
from repro.optimizer.joins import nonequi_candidates
from repro.optimizer.optimizer import PlanningContext
from repro.optimizer.query import fk_components


def walk_slots(best):
    """Every value of a pruned-slot mapping, aliases included."""
    for value in best.values():
        if isinstance(value, list):
            yield from value
        else:
            yield value


def pair_join_candidates(ctx, left, right, edge, out_rows):
    """All join methods combining ``left`` and ``right`` along ``edge``."""
    tables = left.tables | right.tables
    if edge.child in left.tables:
        left_key, right_key = edge.child_column, edge.parent_column
    else:
        left_key, right_key = edge.parent_column, edge.child_column
    candidates = []
    model = ctx.model
    pair_active = both_active(left.active, right.active)

    vector_rows = isinstance(left.rows, np.ndarray) or isinstance(
        right.rows, np.ndarray
    )
    if vector_rows:
        left_builds = np.asarray(left.rows <= right.rows)
        if left_builds.all():
            orientations = [(left, right, left_key, right_key, None)]
        elif not left_builds.any():
            orientations = [(right, left, right_key, left_key, None)]
        else:
            orientations = [
                (left, right, left_key, right_key, left_builds),
                (right, left, right_key, left_key, ~left_builds),
            ]
        for build, probe, build_key, probe_key, active in orientations:
            cost = (
                build.cost
                + probe.cost
                + model.hash_join(build.rows, probe.rows, out_rows)
            )
            operator = HashJoin(
                build.operator, probe.operator, build_key, probe_key
            )
            candidates.append(
                PlanCandidate(
                    operator, tables, out_rows, cost, None,
                    both_active(pair_active, active),
                ).annotated()
            )
    else:
        if left.rows <= right.rows:
            build, probe, build_key, probe_key = left, right, left_key, right_key
        else:
            build, probe, build_key, probe_key = right, left, right_key, left_key
        cost = (
            build.cost
            + probe.cost
            + model.hash_join(build.rows, probe.rows, out_rows)
        )
        operator = HashJoin(build.operator, probe.operator, build_key, probe_key)
        candidates.append(
            PlanCandidate(operator, tables, out_rows, cost, None).annotated()
        )

    if left.order == left_key and right.order == right_key:
        cost = left.cost + right.cost + model.merge_join(left.rows, right.rows, out_rows)
        operator = MergeJoin(left.operator, right.operator, left_key, right_key)
    else:
        left_op, left_sort_cost = _sorted_input(model, left, left_key)
        right_op, right_sort_cost = _sorted_input(model, right, right_key)
        cost = (
            left.cost
            + right.cost
            + left_sort_cost
            + right_sort_cost
            + model.merge_join(left.rows, right.rows, out_rows)
        )
        operator = MergeJoin(left_op, right_op, left_key, right_key)
    candidates.append(
        PlanCandidate(
            operator, tables, out_rows, cost, left_key, pair_active
        ).annotated()
    )

    candidates.extend(_indexed_nl(ctx, left, right, left_key, right_key, out_rows))
    candidates.extend(_indexed_nl(ctx, right, left, right_key, left_key, out_rows))
    return candidates


def _sorted_input(model, side, key):
    if side.order == key:
        return side.operator, 0.0
    return Sort(side.operator, key), model.sort(side.rows)


def _indexed_nl(ctx, outer, inner, outer_key, inner_key, out_rows):
    if len(inner.tables) != 1:
        return []
    inner_table = next(iter(inner.tables))
    inner_column = inner_key.split(".", 1)[1]
    if not ctx.database.has_index(inner_table, inner_column):
        return []
    matched = _fetched_rows(ctx, outer.tables | inner.tables, outer.tables)
    residual = ctx.pred_for(frozenset([inner_table]))
    table = ctx.database.table(inner_table)
    clustered = ctx.database.clustering_column(inner_table) == inner_column
    cost = outer.cost + ctx.model.indexed_nl_join(
        outer.rows,
        matched,
        out_rows,
        clustered,
        table.rows_per_page,
        residual is not None,
    )
    operator = IndexedNLJoin(
        outer.operator, inner_table, outer_key, inner_column, residual
    )
    return [
        PlanCandidate(
            operator, outer.tables | inner.tables, out_rows, cost, outer.order,
            outer.active,
        ).annotated()
    ]


def _fetched_rows(ctx, tables, outer_tables):
    """Rows an INL join fetches: ``tables`` joined with only the outer
    side's per-table predicates applied. One FK component: the
    estimator's answer. Several: the product of each component's rows
    under the outer predicates inside it, times the selectivity of every
    condition joining two outer tables."""
    components = fk_components(tables, ctx.query.join_edges(ctx.database))
    if len(components) == 1:
        return ctx.card(tables, ctx.pred_for(outer_tables)).cardinality
    rows = 1.0
    for component in components:
        predicate = ctx.pred_for(component & outer_tables)
        rows = rows * ctx.card(component, predicate).cardinality
    for condition in ctx.dp_conditions:
        if {condition.left_table, condition.right_table} <= outer_tables:
            rows = rows * ctx.condition_selectivity(condition)
    return rows


class PairwiseOptimizer(Optimizer):
    """An :class:`Optimizer` whose lattice is the pair-at-a-time one.

    Everything but :meth:`_enumerate_joins` is inherited, so two
    planners differing only in the lattice can be compared end to end.
    ``handed_to_prune`` records the length of every list pruned.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.handed_to_prune: dict[frozenset, int] = {}

    def _enumerate_joins(self, ctx, query, prune=keep_best, dp_stats=None):
        tables = list(query.tables)
        edges = query.join_edges(self.database)
        conditions = ctx.dp_conditions
        adjacency = {name: set() for name in tables}
        for edge in edges:
            adjacency[edge.child].add(edge.parent)
            adjacency[edge.parent].add(edge.child)
        for condition in conditions:
            adjacency[condition.left_table].add(condition.right_table)
            adjacency[condition.right_table].add(condition.left_table)

        plans = {}
        for name in tables:
            singleton = frozenset([name])
            candidates = access_paths(
                self.database, self.cost_model, ctx.card, name,
                ctx.pred_for(singleton),
            )
            self.handed_to_prune[singleton] = len(candidates)
            plans[singleton] = prune(candidates)

        for size in range(2, len(tables) + 1):
            for subset_tuple in combinations(tables, size):
                subset = frozenset(subset_tuple)
                if not self._connected(subset, adjacency):
                    continue
                out_rows = ctx.rows(subset)
                candidates = []
                for left_set, right_set in self._partitions(subset):
                    if left_set not in plans or right_set not in plans:
                        continue
                    crossing = [
                        e
                        for e in edges
                        if (e.child in left_set and e.parent in right_set)
                        or (e.child in right_set and e.parent in left_set)
                    ]
                    crossing_conditions = [
                        c for c in conditions if c.crosses(left_set, right_set)
                    ]
                    if len(crossing) > 1:
                        continue
                    if not crossing and not crossing_conditions:
                        continue
                    if not crossing:
                        for left in walk_slots(plans[left_set]):
                            for right in walk_slots(plans[right_set]):
                                candidates.extend(
                                    nonequi_candidates(
                                        ctx, left, right, crossing_conditions,
                                        out_rows,
                                    )
                                )
                        continue
                    edge = crossing[0]
                    if crossing_conditions:
                        selectivity = 1.0
                        for c in crossing_conditions:
                            selectivity *= ctx.condition_selectivity(c)
                        pre_rows = out_rows / selectivity
                        residual = conjunction(
                            [c.expr for c in crossing_conditions]
                        )
                        filter_cost = self.cost_model.filter(pre_rows, out_rows)
                        for left in walk_slots(plans[left_set]):
                            for right in walk_slots(plans[right_set]):
                                for cand in pair_join_candidates(
                                    ctx, left, right, edge, pre_rows
                                ):
                                    candidates.append(
                                        PlanCandidate(
                                            Filter(cand.operator, residual),
                                            subset,
                                            out_rows,
                                            cand.cost + filter_cost,
                                            cand.order,
                                            cand.active,
                                        ).annotated()
                                    )
                        continue
                    for left in walk_slots(plans[left_set]):
                        for right in walk_slots(plans[right_set]):
                            candidates.extend(
                                pair_join_candidates(
                                    ctx, left, right, edge, out_rows
                                )
                            )
                if candidates:
                    self.handed_to_prune[subset] = len(candidates)
                    plans[subset] = prune(candidates)

        full_set = frozenset(tables)
        if full_set not in plans:
            raise OptimizationError(
                f"could not connect tables {sorted(full_set)} by FK joins"
            )
        return plans


# ----------------------------------------------------------------------
# Comparing two lattices
# ----------------------------------------------------------------------
class RecordingEstimator(RobustCardinalityEstimator):
    """A robust estimator that logs what it is asked, in order."""

    def __init__(self, statistics) -> None:
        super().__init__(statistics)
        self.asked: list[tuple] = []

    def estimate(self, tables, predicate, hint=None):
        self.asked.append(("one", frozenset(tables), expr_key(predicate)))
        return super().estimate(tables, predicate, hint=hint)

    def estimate_many(self, tables, predicate, thresholds):
        self.asked.append(("many", frozenset(tables), expr_key(predicate)))
        return super().estimate_many(tables, predicate, thresholds)

    def condition_selectivity(self, condition):
        self.asked.append(("condition", expr_key(condition.expr)))
        return super().condition_selectivity(condition)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def fingerprint(candidate: PlanCandidate) -> tuple:
    """What pruning and selection can tell two candidates apart by."""
    return (
        candidate.operator.signature(),
        candidate.order,
        _bits(candidate.cost),
        _bits(candidate.rows),
        None if candidate.active is None else candidate.active.tobytes(),
    )


def enumerate_with(optimizer_class, database, statistics, query, grid):
    """One lattice's ``{subset: pruned mapping}`` and its estimator log,
    on floats (``grid`` is ``None``) or on vectors over ``grid``."""
    estimator = RecordingEstimator(statistics)
    optimizer = optimizer_class(database, estimator)
    ctx = PlanningContext(database, CostModel(), estimator, query, grid)
    prune = keep_best
    if grid is not None:
        prune = partial(keep_best_vector, width=len(grid))
    return optimizer._enumerate_joins(ctx, query, prune=prune), estimator.asked


def assert_lattices_agree(database, statistics, query, grid) -> None:
    """Every subset prunes to the same mapping, slot for slot (plan,
    cost bits, order), and the estimator is asked the same questions in
    the same order."""
    ours, our_log = enumerate_with(Optimizer, database, statistics, query, grid)
    theirs, their_log = enumerate_with(
        PairwiseOptimizer, database, statistics, query, grid
    )
    assert list(ours) == list(theirs)  # subsets, in lattice order
    for subset in theirs:
        assert list(ours[subset]) == list(theirs[subset])  # slot order
        for slot, expected in theirs[subset].items():
            got = ours[subset][slot]
            if grid is None:
                assert got.operator.explain() == expected.operator.explain()
                got, expected = [got], [expected]
            assert [fingerprint(c) for c in got] == [
                fingerprint(c) for c in expected
            ], (sorted(subset), slot)
    assert our_log == their_log


def assert_plans_agree(database, statistics, query, plan) -> None:
    """``plan(optimizer, query) -> [PlannedQuery]`` gives equal plans,
    alternatives and estimates, lane for lane, on both lattices."""
    outcomes = []
    for optimizer_class in (Optimizer, PairwiseOptimizer):
        estimator = RecordingEstimator(statistics)
        planned = plan(optimizer_class(database, estimator), query)
        outcomes.append((planned, estimator.asked))
    (ours, our_log), (theirs, their_log) = outcomes
    assert len(ours) == len(theirs)
    for got, expected in zip(ours, theirs):
        assert got.plan.explain() == expected.plan.explain()
        assert _bits(got.estimated_cost) == _bits(expected.estimated_cost)
        assert _bits(got.estimated_rows) == _bits(expected.estimated_rows)
        assert [fingerprint(c) for c in got.alternatives] == [
            fingerprint(c) for c in expected.alternatives
        ]
        assert list(got.estimates) == list(expected.estimates)
        for key, estimate in expected.estimates.items():
            for name in (
                "tables", "selectivity", "cardinality", "root_table",
                "source", "threshold",
            ):
                assert getattr(got.estimates[key], name) == getattr(estimate, name)
        assert got.estimation_calls == expected.estimation_calls
        assert got.selection == expected.selection
    assert our_log == their_log
