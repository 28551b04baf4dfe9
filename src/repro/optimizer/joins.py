"""Join pricing: one partition's candidates at once, built only on demand.

A partition's static facts (:class:`JoinFacts`, :class:`NonEquiFacts`)
are derived once per statement by the lattice shape; pricing reads
them, asks the estimator its questions and does the arithmetic.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from repro.engine import HashJoin, IndexedNLJoin, MergeJoin, NonEquiJoin, Sort
from repro.engine.relops import Filter
from repro.expressions import Expr, conjunction
from repro.optimizer.candidates import PricedPlans, annotate
from repro.optimizer.query import JoinEdge

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optimizer.optimizer import PlanningContext
    from repro.optimizer.shape import LatticeShape


class IndexedNLFacts(NamedTuple):
    """An indexed NL join's static part: the table sets whose rows the
    index fetches (the join with only the outer side filtered), the
    cost-model arguments, and the ``IndexedNLJoin`` arguments after the
    outer."""

    joined: frozenset
    outer: frozenset
    clustered: bool
    rows_per_page: float
    has_residual: bool
    args: tuple


class JoinFacts(NamedTuple):
    """One partition along an FK edge: each side's join key, the DP
    conditions crossing it too (and their conjunction), and the indexed
    NL join with the left (``inl_left``) or the right side outer."""

    left_key: str
    right_key: str
    conditions: tuple
    residual: Expr | None
    inl_left: IndexedNLFacts | None
    inl_right: IndexedNLFacts | None


class NonEquiFacts(NamedTuple):
    """One partition joined by conditions alone: the condition driving
    the interval search and the conjunction of the rest."""

    primary: object
    residual: Expr | None


def join_facts(
    shape: "LatticeShape",
    left_set: frozenset,
    right_set: frozenset,
    edge: JoinEdge,
    conditions: Sequence = (),
) -> JoinFacts:
    """The static facts of joining ``left_set`` and ``right_set`` along
    ``edge``, ``conditions`` crossing the partition too."""
    if edge.child in left_set:
        left_key, right_key = edge.child_column, edge.parent_column
    else:
        left_key, right_key = edge.parent_column, edge.child_column
    return JoinFacts(
        left_key,
        right_key,
        tuple(conditions),
        conjunction([c.expr for c in conditions]),
        _indexed_nl_facts(shape, left_set, left_key, right_set, right_key),
        _indexed_nl_facts(shape, right_set, right_key, left_set, left_key),
    )


def nonequi_facts(conditions: Sequence) -> NonEquiFacts:
    """The static facts of a partition joined by ``conditions`` alone
    (conjunct order: the first drives the search, band joins ride along
    as the operator's residual)."""
    return NonEquiFacts(
        conditions[0], conjunction([c.expr for c in conditions[1:]])
    )


def join_candidates(
    ctx: "PlanningContext",
    lefts: PricedPlans,
    rights: PricedPlans,
    facts: JoinFacts,
    out_rows,
) -> PricedPlans:
    """Every join method over one partition, along its FK edge, priced.

    ``lefts`` and ``rights`` are the survivors of the two halves. Every
    plan of a half carries that half's ``rows``, so the keys, the
    cost-model terms and the INL facts are partition constants; only
    input costs, orders and ``active`` lanes vary per pair. The
    candidates come in the order a pair-at-a-time walk first meets
    them — for each left, for each right: the hash join(s), the merge
    join, the left-outer INL join on the first right, the right-outer
    INL join on the first left (of the inner it reads only the table)
    — because pruning is first-wins. Without a grid the costs are
    Python floats added in a loop; under one every kind is one
    broadcast over the survivors' cost matrices.

    When DP join conditions cross the partition too, each join is
    priced at its own output — ``out_rows`` with the conditions undone
    — and runs under a Filter applying them.
    """
    left_set, right_set = lefts.tables, rights.tables
    left_rows, right_rows = lefts.rows, rights.rows
    left_key, right_key = facts.left_key, facts.right_key
    model = ctx.model
    filtered_rows = out_rows
    if facts.conditions:
        selectivity = 1.0
        for condition in facts.conditions:
            selectivity *= ctx.condition_selectivity(condition)
        out_rows = filtered_rows / selectivity

    hash_sides = _hash_sides(model, left_rows, right_rows, out_rows)
    merge_term = model.merge_join(left_rows, right_rows, out_rows)
    left_sort = _sort_costs(ctx, lefts, left_key)
    right_sort = _sort_costs(ctx, rights, right_key)
    # Indexed nested-loop joins: either side can be the inner base
    # table if it has an index on its join column.
    inl_left = _indexed_nl(ctx, facts.inl_left, left_rows, out_rows)
    inl_right = _indexed_nl(ctx, facts.inl_right, right_rows, out_rows)

    n_left, n_right, n_hash = len(lefts), len(rights), len(hash_sides)
    flat, width = _layout(
        n_left, n_right, n_hash, inl_left is not None, inl_right is not None
    )
    orders = _join_orders(lefts, rights, inl_left, inl_right, n_hash, left_key)
    if not isinstance(lefts.cost, np.ndarray):
        costs = _scalar_joins(
            lefts, rights, hash_sides, left_sort, right_sort, merge_term,
            inl_left, inl_right,
        )
        active = None
    else:
        costs, active = _vector_joins(
            lefts, rights, hash_sides, left_sort, right_sort, merge_term,
            inl_left, inl_right, flat, width,
        )

    under = None
    if facts.conditions:
        under = (facts.residual, out_rows, costs)
        filter_cost = model.filter(out_rows, filtered_rows)
        if isinstance(costs, np.ndarray):
            costs = costs + filter_cost
        else:
            costs = [cost + filter_cost for cost in costs]
    make = partial(
        _make_join,
        lefts,
        rights,
        flat,
        n_right * width,
        width,
        tuple(side[0] for side in hash_sides),
        left_key,
        right_key,
        inl_left and inl_left[1],
        inl_right and inl_right[1],
        under,
    )
    return PricedPlans(
        left_set | right_set, filtered_rows, costs, orders, active, make
    )


def _scalar_joins(
    lefts, rights, hash_sides, left_sort, right_sort, merge_term,
    inl_left, inl_right,
):
    """A partition's costs on Python floats, pair by pair in emission
    order (in the pair-at-a-time association order: ``build + probe +
    term``; ``left + right + left_sort + right_sort + merge``)."""
    costs: list = []
    terms = [side[1] for side in hash_sides]
    for i, left in enumerate(lefts.cost):
        for j, right in enumerate(rights.cost):
            base = left + right
            for term in terms:
                costs.append(base + term)
            costs.append(base + left_sort[i] + right_sort[j] + merge_term)
            if inl_left is not None and j == 0:
                costs.append(left + inl_left[0])
            if inl_right is not None and i == 0:
                costs.append(right + inl_right[0])
    return costs


def _join_orders(lefts, rights, inl_left, inl_right, n_hash, left_key) -> list:
    """Each candidate's interesting order, in emission order: a hash
    join has none, a merge join the left key's, an INL join its outer
    side's."""
    pattern = [None] * n_hash + [left_key]
    if inl_left is None and inl_right is None:
        return pattern * (len(lefts) * len(rights))
    orders: list = []
    for i in range(len(lefts)):
        for j in range(len(rights)):
            orders += pattern
            if inl_left is not None and j == 0:
                orders.append(lefts.orders[i])
            if inl_right is not None and i == 0:
                orders.append(rights.orders[j])
    return orders


def _vector_joins(
    lefts, rights, hash_sides, left_sort, right_sort, merge_term,
    inl_left, inl_right, flat, width,
):
    """``(costs, active)`` of a partition over the grid: each kind one
    broadcast over the two survivor cost matrices into a pair x kind
    grid, gathered in emission order (elementwise the scalar pass's
    additions, in its order; an ordered side's exact ``0.0`` is
    skipped)."""
    n_left, n_right, n_hash = len(lefts), len(rights), len(hash_sides)
    lanes = lefts.cost.shape[1]
    padded = np.empty((n_left, n_right, width, lanes))
    base = lefts.cost[:, None] + rights.cost[None]
    for s, side in enumerate(hash_sides):
        np.add(base, side[1], out=padded[:, :, s])
    merge = base
    if left_sort is not None:
        merge = merge + (left_sort[:, None] if np.ndim(left_sort) == 2 else left_sort)
    if right_sort is not None:
        merge = merge + (right_sort[None] if np.ndim(right_sort) == 2 else right_sort)
    np.add(merge, merge_term, out=padded[:, :, n_hash])
    slot = n_hash + 1
    if inl_left is not None:
        np.add(lefts.cost, inl_left[0], out=padded[:, 0, slot])
        slot += 1
    if inl_right is not None:
        np.add(rights.cost, inl_right[0], out=padded[0, :, slot])
    costs = padded.reshape(-1, lanes)
    if len(flat) < len(costs):
        costs = costs[flat]

    masks = [side[2] for side in hash_sides]
    if lefts.active is None and rights.active is None and all(
        mask is None for mask in masks
    ):
        return costs, None
    both = _both(lefts.active, rights.active, n_left, n_right, lanes)
    grid = np.empty((n_left, n_right, width, lanes), bool)
    for s, mask in enumerate(masks):
        grid[:, :, s] = both if mask is None else both & mask
    grid[:, :, n_hash] = both
    slot = n_hash + 1
    if inl_left is not None:
        grid[:, 0, slot] = True if lefts.active is None else lefts.active
        slot += 1
    if inl_right is not None:
        grid[0, :, slot] = True if rights.active is None else rights.active
    return costs, grid.reshape(-1, lanes)[flat]


def _make_join(
    lefts, rights, flat, per_left, width, builds, left_key, right_key,
    inl_left, inl_right, under, k, lane,
):
    """Candidate ``k`` of a :func:`join_candidates` partition, built —
    under its Filter when ``under`` is ``(residual, unfiltered rows,
    unfiltered costs)``, the join annotated with the latter two."""
    join = _join_operator(
        lefts, rights, flat, per_left, width, builds, left_key,
        right_key, inl_left, inl_right, k, lane,
    )
    if under is None:
        return join
    residual, rows, costs = under
    annotate(join, rows, costs, k, lane)
    return Filter(join, residual)


def _join_operator(
    lefts, rights, flat, per_left, width, builds, left_key, right_key,
    inl_left, inl_right, k, lane,
):
    """``builds`` holds, per hash orientation, whether the left side
    builds."""
    i, rest = divmod(int(flat[k]), per_left)
    j, s = divmod(rest, width)
    if s < len(builds):
        left, right = lefts.tree(i, lane), rights.tree(j, lane)
        if builds[s]:
            return HashJoin(left, right, left_key, right_key)
        return HashJoin(right, left, right_key, left_key)
    if s == len(builds):
        left = lefts.tree(i, lane)
        if lefts.orders[i] != left_key:
            left = Sort(left, left_key)
        right = rights.tree(j, lane)
        if rights.orders[j] != right_key:
            right = Sort(right, right_key)
        return MergeJoin(left, right, left_key, right_key)
    if s == len(builds) + 1 and inl_left is not None:
        return IndexedNLJoin(lefts.tree(i, lane), *inl_left)
    return IndexedNLJoin(rights.tree(j, lane), *inl_right)


@lru_cache(maxsize=256)
def _layout(n_left, n_right, n_hash, inl_left, inl_right):
    """``(flat, width)``: a partition's candidates as positions in an
    ``(n_left, n_right, width)`` pair x kind grid, in emission order —
    every pair has its hash and merge kinds, the INL kinds exist only
    on the first right (left-outer) and the first left (right-outer)."""
    width = n_hash + 1 + inl_left + inl_right
    valid = np.zeros((n_left, n_right, width), bool)
    valid[:, :, : n_hash + 1] = True
    slot = n_hash + 1
    if inl_left:
        valid[:, 0, slot] = True
        slot += 1
    if inl_right:
        valid[0, :, slot] = True
    flat = np.flatnonzero(valid)
    flat.flags.writeable = False
    return flat, width


def _both(left_active, right_active, n_left, n_right, lanes):
    """``(n_left, n_right, lanes)`` lanes where both inputs are active."""
    if left_active is None:
        left_active = np.ones((n_left, lanes), bool)
    if right_active is None:
        right_active = np.ones((n_right, lanes), bool)
    return left_active[:, None, :] & right_active[None, :, :]


def nonequi_candidates(
    ctx: "PlanningContext",
    lefts: PricedPlans,
    rights: PricedPlans,
    facts: NonEquiFacts,
    out_rows,
) -> PricedPlans:
    """NonEquiJoin candidates combining two condition-connected subsets.

    The primary condition drives the interval search; any further
    conditions crossing the same partition (band joins) ride along as
    the operator's residual. Per pair both orientations are emitted —
    sorting the right side and probing per left row is asymmetric work
    — and pruning keeps the cheaper one.
    """
    primary, residual = facts.primary, facts.residual
    selectivity = ctx.condition_selectivity(primary)
    terms = []
    for outer, inner in ((lefts, rights), (rights, lefts)):
        pairs = outer.rows * inner.rows * selectivity
        terms.append(
            ctx.model.nonequi_join(
                outer.rows, inner.rows, pairs, out_rows, residual is not None
            )
        )
    n_left, n_right = len(lefts), len(rights)
    orders: list = []
    costs: list = []
    scalar = not isinstance(lefts.cost, np.ndarray)
    for i in range(n_left):
        for j in range(n_right):
            orders += (lefts.orders[i], rights.orders[j])
            if scalar:
                base = lefts.cost[i] + rights.cost[j]
                costs += (base + terms[0], base + terms[1])
    active = None
    if not scalar:
        lanes = lefts.cost.shape[1]
        base = lefts.cost[:, None, :] + rights.cost[None, :, :]
        padded = np.empty((n_left, n_right, 2, lanes))
        for flipped, term in enumerate(terms):
            np.add(base, term, out=padded[:, :, flipped])
        costs = padded.reshape(-1, lanes)
        if lefts.active is not None or rights.active is not None:
            both = _both(lefts.active, rights.active, n_left, n_right, lanes)
            active = np.repeat(both.reshape(-1, lanes), 2, axis=0)
    make = partial(_make_nonequi, lefts, rights, primary, residual)
    return PricedPlans(
        lefts.tables | rights.tables, out_rows, costs, orders, active, make
    )


def _make_nonequi(lefts, rights, primary, residual, k, lane):
    """Candidate ``k`` of a :func:`nonequi_candidates` partition, built."""
    pair, flipped = divmod(k, 2)
    i, j = divmod(pair, len(rights))
    outer, inner = lefts.tree(i, lane), rights.tree(j, lane)
    outer_tables = lefts.tables
    if flipped:
        outer, inner, outer_tables = inner, outer, rights.tables
    left_column, op, right_column = primary.oriented(outer_tables)
    return NonEquiJoin(outer, inner, left_column, op, right_column, residual)


def _hash_sides(model, left_rows, right_rows, out_rows):
    """``(left builds?, model term, active lanes)`` per hash-join
    orientation of a partition.

    Build on the smaller estimated input. On the threshold-vectorized
    path the smaller side can differ per threshold, so both
    orientations are emitted, each ``active`` only at the thresholds
    where the scalar rule would pick it. The term itself is priced at
    every lane: an orientation costs what it costs wherever it runs.
    """
    def side(left_builds: bool, active):
        if left_builds:
            return True, model.hash_join(left_rows, right_rows, out_rows), active
        return False, model.hash_join(right_rows, left_rows, out_rows), active

    left_smaller = np.asarray(left_rows <= right_rows)
    if left_smaller.all():
        return [side(True, None)]
    if not left_smaller.any():
        return [side(False, None)]
    return [side(True, left_smaller), side(False, ~left_smaller)]


def _sort_costs(ctx: "PlanningContext", side: PricedPlans, key: str):
    """What ordering each of ``side``'s plans on ``key`` costs: an exact
    ``0.0`` when already ordered, else one Sort of the side's rows. A
    list without a grid; under one ``None`` when every plan is ordered,
    the sort cost itself when none is, else an ``(n, width)`` matrix."""
    ordered = [order == key for order in side.orders]
    if all(ordered):
        return None if isinstance(side.cost, np.ndarray) else [0.0] * len(ordered)
    sort_cost = ctx.sort_cost(side.tables, side.rows)
    if not isinstance(side.cost, np.ndarray):
        return [0.0 if done else sort_cost for done in ordered]
    if not any(ordered):
        return sort_cost
    return np.where(np.asarray(ordered)[:, None], 0.0, sort_cost)


def _indexed_nl_facts(
    shape: "LatticeShape",
    outer_set: frozenset,
    outer_key: str,
    inner_set: frozenset,
    inner_key: str,
) -> IndexedNLFacts | None:
    """The indexed NL join whose outer side is ``outer_set``, probing
    the base table ``inner_set`` holds, or ``None`` when that cannot be
    done."""
    if len(inner_set) != 1:
        return None
    (inner_table,) = inner_set
    inner_column = inner_key.split(".", 1)[1]
    database = shape.database
    if not database.has_index(inner_table, inner_column):
        return None
    # Rows fetched through the index: the join of the outer result with
    # the raw inner table — the inner predicate has not yet applied.
    joined = outer_set | inner_set
    shape.rows_question(joined, outer_set)  # filed with the shape
    residual = shape.pred_for(inner_set)
    return IndexedNLFacts(
        joined,
        outer_set,
        database.clustering_column(inner_table) == inner_column,
        database.table(inner_table).rows_per_page,
        residual is not None,
        (inner_table, outer_key, inner_column, residual),
    )


def _indexed_nl(
    ctx: "PlanningContext", facts: IndexedNLFacts | None, outer_rows, out_rows
):
    """``(term, IndexedNLJoin arguments after the outer)`` of ``facts``'
    join, or ``None`` when there is none."""
    if facts is None:
        return None
    term = ctx.model.indexed_nl_join(
        outer_rows,
        ctx.rows(facts.joined, facts.outer),
        out_rows,
        facts.clustered,
        facts.rows_per_page,
        facts.has_residual,
    )
    return term, facts.args
