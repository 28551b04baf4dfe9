"""Priced plans: the lattice's cost rows, and the trees built from them.

The lattice prices every candidate, prunes, and builds a physical
operator tree only for a plan it finalizes. A table set's candidates
are one :class:`PricedPlans` — a cost per candidate (Python floats
without a grid, one ``(n, width)`` matrix over the threshold grid),
its interesting order, the lanes at which the scalar pass would have
built it, and a recipe that builds its operator on demand.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from itertools import chain
from typing import Callable

import numpy as np

from repro.engine import PhysicalOperator

#: ``make(k, lane)``: candidate ``k``'s operator, its inputs built
#: (and annotated) at ``lane``; the operator itself is left bare.
Make = Callable[[int, "int | None"], PhysicalOperator]


class PlanCandidate:
    """A costed full-coverage plan, as ``PlannedQuery.alternatives``
    lists them: row ``row`` of the finalists, read at ``lane``.

    Attributes
    ----------
    rows:
        Estimated output cardinality (at ``lane``).
    cost:
        Estimated cumulative cost, in simulated seconds (at ``lane``).
    order:
        Qualified column the output is sorted on (``None`` when the
        order is unknown/uninteresting) — the System-R "interesting
        order" used to admit merge joins without a sort operator.
    operator:
        The executable plan tree, annotated at ``lane``; built the first
        time it is read (of any candidate of that lane), then the same.
    """

    __slots__ = ("_plans", "_row", "_lane")

    #: Lanes a candidate is eligible at: every one, once it is finalized.
    active = None

    def __init__(self, plans: "PricedPlans", row: int, lane: int | None) -> None:
        self._plans, self._row, self._lane = plans, row, lane

    @property
    def rows(self) -> float:
        rows = self._plans.rows
        if self._lane is None:
            return rows
        return float(rows[self._lane] if np.ndim(rows) else rows)

    @property
    def cost(self) -> float:
        if self._lane is None:
            return self._plans.cost[self._row]
        return float(self._plans.cost[self._row, self._lane])

    @property
    def order(self) -> str | None:
        return self._plans.orders[self._row]

    @property
    def operator(self) -> PhysicalOperator:
        return self._plans.tree(self._row, self._lane)

    def __repr__(self) -> str:
        return f"PlanCandidate(cost={self.cost!r}, order={self.order!r})"


class PricedPlans:
    """Candidate plans over one table set, priced but not built.

    ``cost`` is a sequence of floats (no grid) or an ``(n, width)`` matrix
    over the grid — what each plan costs at every lane, always finite.
    ``orders`` holds each plan's interesting order and ``rows`` the
    table set's estimated output (a float, or a vector over the grid),
    which every plan shares. ``active`` is an ``(n, width)`` bool
    matrix of the lanes at which the scalar pass would have built each
    plan — a hash join builds on the smaller input, which can differ per
    lane — or ``None`` for every lane (always, without a grid); only the
    per-lane argmins read it. ``slots`` is set on a pruned set: the
    survivor(s) filed under each interesting-order slot.
    """

    __slots__ = (
        "tables", "rows", "cost", "orders", "active", "make", "slots",
        "_trees",
    )

    def __init__(
        self,
        tables: frozenset,
        rows,
        cost,
        orders: list,
        active: np.ndarray | None,
        make: Make,
    ) -> None:
        self.tables = tables
        self.rows = rows
        self.cost = cost
        self.orders = orders
        self.active = active
        self.make = make
        self.slots: dict | None = None
        self._trees: dict | None = None

    @classmethod
    def of(
        cls,
        tables: frozenset,
        rows,
        costs: list,
        orders: list,
        makers: list[Callable[[], PhysicalOperator]],
    ) -> "PricedPlans":
        """Leaf plans priced one by one (access paths, star joins):
        under a grid (``rows`` a vector) each cost fills one matrix row,
        a threshold-independent float broadcasting across the lanes."""
        if np.ndim(rows) == 0:
            cost = tuple(costs)
        else:
            cost = np.empty((len(costs), len(rows)))
            for row, value in enumerate(costs):
                cost[row] = value
        return cls(
            tables, rows, cost, tuple(orders), None, partial(_leaf, tuple(makers))
        )

    def __len__(self) -> int:
        return len(self.orders)

    def tree(self, k: int, lane: int | None) -> PhysicalOperator:
        """Plan ``k``'s operator tree, every node annotated with its own
        estimates at ``lane`` (``None``: the scalar pass). Built once per
        lane: the trees of one lane share the subtrees they have in
        common, and no tree carries another lane's numbers."""
        if self._trees is None:
            self._trees = {}
        operator = self._trees.get((k, lane))
        if operator is None:
            operator = self._trees[k, lane] = self.make(k, lane)
            annotate(operator, self.rows, self.cost, k, lane)
        return operator

    def take(self, kept: list[int]) -> "PricedPlans":
        """The plans at positions ``kept``, in that order (kept in
        tuples: a pruned set outlives its pricing)."""
        if isinstance(self.cost, np.ndarray):
            cost = self.cost[kept]
        else:
            cost = tuple([self.cost[k] for k in kept])
        return PricedPlans(
            self.tables,
            self.rows,
            cost,
            tuple([self.orders[k] for k in kept]),
            None if self.active is None else self.active[kept],
            partial(_remapped, self.make, tuple(kept)),
        )

    @staticmethod
    def concat(parts: list["PricedPlans"]) -> "PricedPlans":
        """One set of the plans of ``parts`` (one table set, one
        ``rows``), in part order."""
        if len(parts) == 1:
            return parts[0]
        first = parts[0]
        if isinstance(first.cost, np.ndarray):
            cost = np.concatenate([part.cost for part in parts])
        else:
            cost = tuple(chain.from_iterable(part.cost for part in parts))
        active = None
        if any(part.active is not None for part in parts):
            active = np.concatenate(
                [
                    np.ones(part.cost.shape, bool) if part.active is None
                    else part.active
                    for part in parts
                ]
            )
        starts = [0]
        for part in parts[:-1]:
            starts.append(starts[-1] + len(part))
        starts = tuple(starts)
        return PricedPlans(
            first.tables,
            first.rows,
            cost,
            tuple(chain.from_iterable(part.orders for part in parts)),
            active,
            partial(_concatenated, tuple(part.make for part in parts), starts),
        )


def annotate(operator: PhysicalOperator, rows, cost, k: int, lane) -> None:
    """Annotate ``operator`` with the ``rows`` of its table set and row
    ``k`` of ``cost`` — as they are without a grid (``lane`` is
    ``None``), else their floats at ``lane``."""
    if lane is None:
        operator.est_rows, operator.est_cost = rows, cost[k]
    else:
        operator.est_rows = float(rows[lane] if np.ndim(rows) else rows)
        operator.est_cost = float(cost[k, lane])


def _leaf(makers, k, lane):
    return makers[k]()


def _remapped(make, kept, k, lane):
    return make(kept[k], lane)


def _concatenated(makes, starts, k, lane):
    part = bisect_right(starts, k) - 1
    return makes[part](k - starts[part], lane)


def keep_best(costs: list[float], orders: list) -> dict:
    """Prune to the cheapest plan per interesting order.

    Returns ``{slot: position}``: a plan with order ``o`` survives only
    if it is the cheapest among plans with that order, and the orderless
    slot additionally holds the globally cheapest plan. Ties keep the
    first (strict ``<``).
    """
    best: dict = {}
    for k, (cost, slot) in enumerate(zip(costs, orders)):
        if slot not in best or cost < costs[best[slot]]:
            best[slot] = k
        if None not in best or cost < costs[best[None]]:
            best[None] = k
    return best


def keep_best_vector(
    costs: np.ndarray, orders: list, active: np.ndarray | None = None
) -> dict:
    """Threshold-vectorized :func:`keep_best` over an ``(n, width)``
    cost matrix.

    Returns ``{slot: [positions]}``: per interesting-order slot, every
    plan that is the per-threshold minimum, among those ``active``
    there, for at least one grid point — exactly the union of the
    scalar ``keep_best`` winners across thresholds. ``np.argmin`` takes
    the first index on ties, matching the scalar strict-``<`` rule, and
    the ``None`` slot holds the per-threshold global winners.
    """
    if not orders:
        return {}
    eligible = costs if active is None else np.where(active, costs, np.inf)
    members: dict = {}
    for k, slot in enumerate(orders):
        rows = members.get(slot)
        if rows is None:
            members[slot] = [k]
        else:
            rows.append(k)
    # slot order as the scalar loop files them: the first plan's slot,
    # then ``None``, then every other slot where first met
    best: dict = {orders[0]: None, None: sorted(set(eligible.argmin(0).tolist()))}
    for slot, rows in members.items():
        if slot is not None:
            if len(rows) == len(orders):
                best[slot] = list(best[None])
            else:
                winners = set(eligible[rows].argmin(0).tolist())
                best[slot] = [rows[w] for w in sorted(winners)]
    return best


def prune(plans: PricedPlans) -> PricedPlans:
    """The survivors of ``plans``, each once, in first-occurrence order
    over the slots; ``slots`` maps each slot to its survivor(s).

    Both pruners file a winner under its own order slot *and* under
    ``None``; a survivor is kept (and later joined) once.
    """
    if not isinstance(plans.cost, np.ndarray):
        best = keep_best(plans.cost, plans.orders)
        if len(plans) == 1:  # (a lone plan survives as it is)
            plans.slots = best
            return plans
        kept = list(dict.fromkeys(best.values()))
        position = {k: p for p, k in enumerate(kept)}
        slots = {slot: position[k] for slot, k in best.items()}
    else:
        best = keep_best_vector(plans.cost, plans.orders, plans.active)
        kept = list(dict.fromkeys(chain.from_iterable(best.values())))
        position = {k: p for p, k in enumerate(kept)}
        slots = {slot: [position[k] for k in ks] for slot, ks in best.items()}
    survivors = plans.take(kept)
    survivors.slots = slots
    return survivors
