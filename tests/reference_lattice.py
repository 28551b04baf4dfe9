"""The join lattice as it was before it priced each partition once.

Kept as the reference the differential tests compare the optimizer's
lattice against: every (left, right) *pair* is joined on its own, into
a :class:`Candidate` that carries its operator tree from the start (the
earlier ``PlanCandidate``, with threshold-axis arrays annotated on the
shared nodes), and a pruned mapping is walked slot by slot, so a winner
filed under its order slot and under ``None`` is met — and joined —
twice. Slower, and by construction the same plans: whatever the
optimizer's lattice prunes to must equal, slot for slot, what this one
does. This module keeps its own copies of the earlier candidate type
and pruners; of ``src`` it reuses only the access-path pricing (each
path built and annotated here) and ``Optimizer``'s finalization.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.core import RobustCardinalityEstimator
from repro.cost import CostModel
from repro.engine import (
    HashJoin,
    IndexedNLJoin,
    MergeJoin,
    NonEquiJoin,
    PhysicalOperator,
    Sort,
)
from repro.engine.relops import Filter
from repro.errors import OptimizationError
from repro.expressions import conjunction, expr_key
from repro.optimizer import Optimizer
from repro.optimizer.access import access_paths
from repro.optimizer.candidates import PricedPlans
from repro.optimizer.optimizer import PlanningContext
from repro.optimizer.query import fk_components


@dataclass(frozen=True)
class Candidate:
    """The earlier ``PlanCandidate``: a costed plan built eagerly."""

    operator: PhysicalOperator
    tables: frozenset
    rows: object
    cost: object
    order: str | None = None
    active: np.ndarray | None = None

    def annotated(self) -> "Candidate":
        self.operator.est_rows = self.rows
        self.operator.est_cost = self.cost
        return self


def both_active(first, second):
    """Lanes where two ``Candidate.active`` masks both hold."""
    if first is None:
        return second
    if second is None:
        return first
    return first & second


def keep_best(candidates):
    """The earlier scalar pruner: ``{slot: cheapest}``, first wins."""
    best = {}
    for candidate in candidates:
        slot = candidate.order
        if slot not in best or candidate.cost < best[slot].cost:
            best[slot] = candidate
        if None not in best or candidate.cost < best[None].cost:
            best[None] = candidate
    return best


def keep_best_vector(candidates, width):
    """The earlier vector pruner: per slot, every per-lane argmin
    winner among the candidates active there."""
    if not candidates:
        return {}
    costs = np.stack(
        [np.broadcast_to(np.asarray(c.cost, float), (width,)) for c in candidates]
    ).copy()
    for row, candidate in enumerate(candidates):
        if candidate.active is not None:
            costs[row] = np.where(candidate.active, costs[row], np.inf)
    slot_members, key_order = {}, []
    for i, candidate in enumerate(candidates):
        if candidate.order not in slot_members:
            slot_members[candidate.order] = []
            key_order.append(candidate.order)
        slot_members[candidate.order].append(i)
        if None not in slot_members:
            slot_members[None] = []
            key_order.append(None)
    best = {}
    for slot in key_order:
        if slot is None:
            members = list(range(len(candidates)))
        else:
            members = slot_members[slot]
        winners = {members[w] for w in np.argmin(costs[members], axis=0).tolist()}
        best[slot] = [candidates[i] for i in sorted(winners)]
    return best


def walk_slots(best):
    """Every value of a pruned-slot mapping, aliases included."""
    for value in best.values():
        if isinstance(value, list):
            yield from value
        else:
            yield value


def reference_access_paths(ctx, name):
    """``src``'s priced access paths of ``name``, each built and
    annotated as a :class:`Candidate`."""
    singleton = frozenset([name])
    plans = access_paths(
        ctx.database, ctx.model, ctx.card, name, ctx.pred_for(singleton)
    )
    return [
        Candidate(
            plans.make(k, None), singleton, plans.rows, plans.cost[k], plans.orders[k]
        ).annotated()
        for k in range(len(plans))
    ]


def pair_nonequi_candidates(ctx, left, right, conditions, out_rows):
    """NonEquiJoin candidates of one (left, right) pair, both ways."""
    primary = conditions[0]
    residual = conjunction([c.expr for c in conditions[1:]])
    selectivity = ctx.condition_selectivity(primary)
    candidates = []
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
            Candidate(
                operator,
                outer.tables | inner.tables,
                out_rows,
                cost,
                outer.order,
                both_active(outer.active, inner.active),
            ).annotated()
        )
    return candidates


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
                Candidate(
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
            Candidate(operator, tables, out_rows, cost, None).annotated()
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
        Candidate(
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
        Candidate(
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
    planners differing only in the lattice can be compared end to end:
    it hands finalization each subset's :meth:`pairwise_lattice`
    mapping as :class:`PricedPlans` (:func:`as_priced`).
    ``handed_to_prune`` records the length of every list pruned.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.handed_to_prune: dict[frozenset, int] = {}

    def _enumerate_joins(self, ctx, query, dp_stats=None):
        return {
            subset: as_priced(mapping, ctx.grid)
            for subset, mapping in self.pairwise_lattice(ctx, query).items()
        }

    def pairwise_lattice(self, ctx, query):
        """``{subset: {slot: winner(s)}}`` of :class:`Candidate`s, pruned
        by :func:`keep_best` (no grid) or :func:`keep_best_vector`."""
        if ctx.grid is None:
            prune = keep_best
        else:
            def prune(candidates):
                return keep_best_vector(candidates, len(ctx.grid))
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
            candidates = reference_access_paths(ctx, name)
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
                                    pair_nonequi_candidates(
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
                                        Candidate(
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


def at_lane(node: PhysicalOperator, lane: int | None) -> PhysicalOperator:
    """``node``'s tree with every annotation read at ``lane``: a copy
    (the threshold-axis arrays sit on nodes shared between candidates),
    or ``node`` itself on the scalar pass."""
    if lane is None:
        return node
    twin = copy.copy(node)
    for name, value in vars(node).items():
        if isinstance(value, PhysicalOperator):
            setattr(twin, name, at_lane(value, lane))
        elif name in ("est_rows", "est_cost") and value is not None:
            lanes = np.asarray(value, dtype=float).reshape(-1)
            setattr(twin, name, float(lanes[0 if lanes.size == 1 else lane]))
    return twin


def as_priced(mapping, grid) -> PricedPlans:
    """A pruned :class:`Candidate` mapping as the survivors
    ``Optimizer._finalists`` reads: each survivor once, in
    first-occurrence order, built at a lane by :func:`at_lane`."""
    walked = list({id(c): c for c in walk_slots(mapping)}.values())
    position = {id(c): p for p, c in enumerate(walked)}
    first = walked[0]
    if grid is None:
        cost = [c.cost for c in walked]
        active = None
    else:
        cost = np.array([_lanes(c.cost, len(grid)) for c in walked])
        active = None
        if any(c.active is not None for c in walked):
            active = np.array([_mask(c.active, len(grid)) for c in walked])

    def make(k, lane):
        return at_lane(walked[k].operator, lane)

    plans = PricedPlans(
        first.tables, first.rows, cost, [c.order for c in walked], active, make
    )
    plans.slots = {
        slot: [position[id(c)] for c in value]
        if isinstance(value, list)
        else position[id(value)]
        for slot, value in mapping.items()
    }
    return plans


def _lanes(value, width: int) -> np.ndarray:
    return np.broadcast_to(np.asarray(value, dtype=float), (width,))


def _mask(active, width: int) -> np.ndarray:
    return np.ones(width, bool) if active is None else np.asarray(active, bool)


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


def fingerprint(candidate) -> tuple:
    """What pruning and selection can tell two candidates apart by."""
    return (
        candidate.operator.signature(),
        candidate.order,
        _bits(candidate.cost),
        _bits(candidate.rows),
        None if candidate.active is None else candidate.active.tobytes(),
    )


def _lane_range(grid):
    return [None] if grid is None else range(len(grid))


def survivor_print(plans: PricedPlans, p: int, grid) -> tuple:
    """Survivor ``p`` of one subset of the optimizer's lattice: its tree
    at every lane (``explain()``: shape, labels and that lane's
    annotations on every node), order, cost and rows bits over the
    lanes, and the lanes it is active at (a full mask for "every")."""
    width = None if grid is None else len(grid)
    return (
        tuple(plans.tree(p, lane).explain() for lane in _lane_range(grid)),
        plans.orders[p],
        _bits(plans.cost[p]),
        _bits(plans.rows if grid is None else _lanes(plans.rows, width)),
        None if grid is None
        else _mask(None if plans.active is None else plans.active[p], width).tobytes(),
    )


def candidate_print(candidate: Candidate, grid) -> tuple:
    """:func:`survivor_print` of one reference :class:`Candidate`."""
    if grid is None:
        return (
            (candidate.operator.explain(),),
            candidate.order,
            _bits(candidate.cost),
            _bits(candidate.rows),
            None if candidate.active is None else candidate.active.tobytes(),
        )
    width = len(grid)
    return (
        tuple(at_lane(candidate.operator, lane).explain() for lane in range(width)),
        candidate.order,
        _bits(_lanes(candidate.cost, width)),
        _bits(_lanes(candidate.rows, width)),
        _mask(candidate.active, width).tobytes(),
    )


def enumerate_with(optimizer_class, database, statistics, query, grid):
    """One lattice's per-subset result and its estimator log, on floats
    (``grid`` is ``None``) or on vectors over ``grid``: the optimizer's
    ``{subset: survivors}``, or the reference's ``{subset: mapping}``."""
    estimator = RecordingEstimator(statistics)
    optimizer = optimizer_class(database, estimator)
    ctx = PlanningContext(database, CostModel(), estimator, query, grid)
    if optimizer_class is PairwiseOptimizer:
        return optimizer.pairwise_lattice(ctx, query), estimator.asked
    return optimizer._enumerate_joins(ctx, query), estimator.asked


def assert_lattices_agree(database, statistics, query, grid) -> None:
    """Every subset prunes to the same mapping, slot for slot (the
    trees with their annotations at every lane, order, cost and rows
    bits, active lanes), and the estimator is asked the same questions
    in the same order."""
    ours, our_log = enumerate_with(Optimizer, database, statistics, query, grid)
    theirs, their_log = enumerate_with(
        PairwiseOptimizer, database, statistics, query, grid
    )
    assert list(ours) == list(theirs)  # subsets, in lattice order
    for subset, mapping in theirs.items():
        plans = ours[subset]
        assert list(plans.slots) == list(mapping)  # slot order
        for slot, expected in mapping.items():
            got = plans.slots[slot]
            if grid is None:
                got, expected = [got], [expected]
            assert [survivor_print(plans, p, grid) for p in got] == [
                candidate_print(c, grid) for c in expected
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
        assert [c.operator.explain() for c in got.alternatives] == [
            c.operator.explain() for c in expected.alternatives
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
