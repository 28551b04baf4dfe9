"""Plan candidates tracked during dynamic-programming enumeration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.engine import PhysicalOperator


@dataclass(frozen=True)
class PlanCandidate:
    """A costed physical plan for some subset of the query's tables.

    Attributes
    ----------
    operator:
        The executable plan subtree.
    tables:
        Relations covered by the subtree.
    rows:
        Estimated output cardinality.
    cost:
        Estimated cumulative cost, in simulated seconds — what this
        physical plan costs, at every lane of a threshold grid.
    order:
        Qualified column the output is sorted on (``None`` when the
        order is unknown/uninteresting) — the System-R "interesting
        order" used to admit merge joins without a sort operator.
    active:
        Threshold-grid lanes at which the scalar pass would have built
        this plan (``None``: every lane; the scalar pass never sets
        it). A hash join builds on the smaller input, which can differ
        per lane; the mask keeps that rule without touching ``cost``.
        Only the per-lane argmins read it (:func:`eligible_costs`).
    """

    operator: PhysicalOperator
    tables: frozenset[str]
    rows: float
    cost: float
    order: str | None = None
    active: np.ndarray | None = None

    def annotated(self) -> "PlanCandidate":
        """Copy estimates onto the operator tree for ``explain`` output."""
        self.operator.est_rows = self.rows
        self.operator.est_cost = self.cost
        return self


def keep_best(candidates: list[PlanCandidate]) -> dict[str | None, PlanCandidate]:
    """Prune to the cheapest candidate per interesting order.

    A candidate with order ``o`` survives only if it is the cheapest
    among candidates with that order, and additionally the orderless
    slot holds the globally cheapest plan.
    """
    best: dict[str | None, PlanCandidate] = {}
    for candidate in candidates:
        slot = candidate.order
        if slot not in best or candidate.cost < best[slot].cost:
            best[slot] = candidate
        if None not in best or candidate.cost < best[None].cost:
            best[None] = candidate
    return best


def both_active(first, second):
    """Lanes where two ``PlanCandidate.active`` masks both hold."""
    if first is None:
        return second
    if second is None:
        return first
    return first & second


def lane_matrix(values, width: int) -> np.ndarray:
    """Stack per-candidate values into an ``(n, width)`` matrix.

    Scalar values (from threshold-independent formulas) broadcast
    across the threshold axis so mixed scalar/vector candidate pools
    compare lane by lane.
    """
    rows = []
    for value in values:
        if isinstance(value, np.ndarray) and value.shape == (width,):
            rows.append(value)
        else:
            rows.append(
                np.broadcast_to(
                    np.asarray(value, dtype=float).reshape(-1), (width,)
                )
            )
    return np.stack(rows)


def lane_costs(candidates: list[PlanCandidate], width: int) -> np.ndarray:
    """Candidate costs as a ``(len(candidates), width)`` matrix."""
    return lane_matrix((candidate.cost for candidate in candidates), width)


def eligible_costs(candidates: list[PlanCandidate], width: int) -> np.ndarray:
    """:func:`lane_costs` with ``inf`` where a candidate is not
    ``active``, so a per-lane argmin over it picks what the scalar pass
    would have picked at that lane. For choosing only — an ``inf`` here
    is not a cost."""
    costs = lane_costs(candidates, width)
    for row, candidate in enumerate(candidates):
        if candidate.active is not None:
            costs[row] = np.where(candidate.active, costs[row], np.inf)
    return costs


def keep_best_vector(
    candidates: list[PlanCandidate], width: int
) -> dict[str | None, list[PlanCandidate]]:
    """Threshold-vectorized :func:`keep_best`.

    Candidate costs are vectors over the ``width``-point threshold
    grid. Per interesting-order slot we keep every candidate that is
    the per-threshold minimum, among those ``active`` there, for at
    least one grid point, so the surviving set is exactly the union of
    the scalar ``keep_best`` winners across thresholds. ``np.argmin``
    takes the first index on ties, matching the scalar loop's
    strict-``<`` first-wins rule, and the ``None`` slot holds the
    per-threshold global winners just as the scalar version holds the
    globally cheapest plan.
    """
    if not candidates:
        return {}
    costs = eligible_costs(candidates, width)

    slot_members: dict[str | None, list[int]] = {}
    key_order: list[str | None] = []
    for i, candidate in enumerate(candidates):
        slot = candidate.order
        if slot not in slot_members:
            slot_members[slot] = []
            key_order.append(slot)
        slot_members[slot].append(i)
        if None not in slot_members:
            slot_members[None] = []
            key_order.append(None)

    best: dict[str | None, list[PlanCandidate]] = {}
    for slot in key_order:
        if slot is None:
            members = list(range(len(candidates)))
        else:
            members = slot_members[slot]
        winners = np.argmin(costs[members], axis=0)
        kept = sorted({members[w] for w in winners.tolist()})
        best[slot] = [candidates[i] for i in kept]
    return best


def iter_candidates(
    best: "dict[str | None, PlanCandidate | list[PlanCandidate]]",
) -> Iterator[PlanCandidate]:
    """Each survivor of a pruned-slot mapping from either ``keep_best``
    flavor, once, in first-occurrence order.

    Both flavors file a winner under its own order slot *and* under
    ``None``; joining that alias again would only add exact twins (same
    inputs, same cost, same slot) that first-wins pruning can never keep.
    """
    seen: set[int] = set()
    for value in best.values():
        for candidate in value if isinstance(value, list) else (value,):
            if id(candidate) not in seen:
                seen.add(id(candidate))
                yield candidate
