"""A statement's lattice shape: its plan space before any estimate.

The shape is everything the DP lattice derives from (database, query)
alone, the query's confidence hint ignored: validation, the per-table
and cross predicates, the DP join conditions and the FK adjacency, one
predicate object per table set, the connected subsets in lattice order
with each one's viable partitions and their join facts, every table's
access paths and the star splits. Pricing (:class:`PlanningContext`
and ``Optimizer._enumerate_joins``) walks a shape, asks the estimator
exactly the questions it lists, in its order, and does the cost
arithmetic, pruning and selection.

Nothing in a shape depends on statistics, feedback, the threshold or
the estimator, so one shape serves every lane, policy, statistics
version and feedback generation a statement is planned under. A shape
is never changed once built (``QueryServer`` workers may price one at
once): the build files a predicate per table set it derives (and,
for a query with DP join conditions, a rows question per table-set
pair), and a finished shape derives any other afresh without filing
it.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from repro.catalog import Database
from repro.errors import OptimizationError
from repro.expressions import (
    Expr,
    as_join_condition,
    classify_conjuncts,
    conjunction,
    split_conjuncts,
)
from repro.optimizer.access import access_shape
from repro.optimizer.joins import (
    join_candidates,
    join_facts,
    nonequi_candidates,
    nonequi_facts,
)
from repro.optimizer.query import SPJQuery, fk_components
from repro.optimizer.star import detect_star, star_shape


#: ``pred_for``'s mark for a table set not filed yet (``None`` is a
#: filed "no predicate").
_UNSEEN = object()


class SubsetShape(NamedTuple):
    """A connected subset of two or more tables and its viable
    partitions, each ``(left set, right set, pricer, facts)`` with
    ``pricer(ctx, lefts, rights, facts, out_rows)`` (none when no
    partition joins: the subset's rows are then asked and it is
    skipped)."""

    tables: frozenset
    partitions: tuple


def connected(subset: frozenset, adjacency: dict[str, set[str]]) -> bool:
    """Whether ``adjacency`` connects every table of ``subset``."""
    seen: set[str] = set()
    frontier = [next(iter(subset))]
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        frontier.extend((adjacency[name] & subset) - seen)
    return seen == subset


def partitions(subset: frozenset):
    """Unordered two-way partitions of ``subset``, the half holding its
    first table first."""
    items = sorted(subset)
    anchor = items[0]
    rest = items[1:]
    for size in range(0, len(rest)):
        for extra in combinations(rest, size):
            left = frozenset((anchor,) + extra)
            right = subset - left
            if right:
                yield left, right


class LatticeShape:
    """The plan space of ``query`` over ``database``, unpriced.

    Raises what ``query.validate`` raises, and ``OptimizationError``
    when no partition chain connects the tables. A caller that has
    validated ``query`` against ``database`` already passes
    ``validated=True``.
    """

    __slots__ = (
        "database", "tables", "per_table",
        "cross_predicate", "cross_factors", "dp_conditions", "levels",
        "star", "_fk_adjacency", "_predicates", "_questions", "_built",
    )

    def __init__(
        self, database: Database, query: SPJQuery, *, validated: bool = False
    ) -> None:
        if not validated:
            query.validate(database)
        self.database = database
        self.tables = query.tables
        per_table = query.predicates_per_table()
        cross_predicate = per_table.pop("", None)
        self.per_table = per_table
        self._predicates: dict[frozenset, Expr | None] = {}
        self._questions: dict[tuple, tuple] = {}
        self._built = False

        # Join-condition support. Conditions between tables of one FK
        # component stay inside ``cross_predicate`` (the estimator can
        # price them as part of the whole predicate and the top-level
        # Filter applies them); conditions *between* FK components
        # become DP join edges driving NonEquiJoin plans. When the
        # query has no cross-component conditions every path reduces
        # exactly to the single-component one.
        edges = query.join_edges(database)
        self._fk_adjacency: dict[str, set[str]] = {
            name: set() for name in query.tables
        }
        for edge in edges:
            self._fk_adjacency[edge.child].add(edge.parent)
            self._fk_adjacency[edge.parent].add(edge.child)
        components = fk_components(query.tables, edges)
        component_of = {
            name: index
            for index, component in enumerate(components)
            for name in component
        }
        self.dp_conditions = tuple(
            condition
            for condition in classify_conjuncts(query.predicate).join_conditions
            if component_of[condition.left_table]
            != component_of[condition.right_table]
        )
        self.cross_factors: tuple = ()
        if self.dp_conditions:
            # Rebuild the cross predicate without the DP conditions —
            # they are executed by the join operators, not the final
            # Filter — preserving the original conjunct order.
            dp_exprs = {id(c.expr) for c in self.dp_conditions}
            leftover = [
                conjunct
                for conjunct in split_conjuncts(query.predicate)
                if len(conjunct.tables()) != 1 and id(conjunct) not in dp_exprs
            ]
            cross_predicate = conjunction(leftover)
            # What ``PlanningContext.cross_filtered_rows`` multiplies:
            # each residual conjunct, as a join condition when it is one.
            self.cross_factors = tuple(
                (conjunct, as_join_condition(conjunct))
                for conjunct in split_conjuncts(cross_predicate)
            )
        self.cross_predicate = cross_predicate

        self.levels = self._lattice(query.tables, edges)
        self.star = None
        if not self.dp_conditions:
            # (star detection assumes one FK component rooted at a fact
            # table; condition-connected components are not star-shaped)
            specs = detect_star(self, query)
            if specs is not None:
                self.star = star_shape(self, query, specs)
        self._built = True

    # ------------------------------------------------------------------
    def pred_for(self, tables: frozenset) -> Expr | None:
        """Conjunction of the per-table predicates of ``tables``."""
        predicate = self._predicates.get(tables, _UNSEEN)
        if predicate is _UNSEEN:
            predicate = conjunction(
                [self.per_table.get(name) for name in sorted(tables)]
            )
            if not self._built:
                self._predicates[tables] = predicate
        return predicate

    def rows_question(
        self, tables: frozenset, filtered: frozenset | None = None
    ) -> tuple:
        """What estimating the output rows of the joins covering
        ``tables`` asks, with the per-table predicates and conditions of
        ``filtered`` (default: all of ``tables``) applied:
        ``(card questions, conditions)`` as :meth:`PlanningContext.rows`
        reads it.

        Single FK component: one question, ``tables`` under the
        predicates of ``filtered``. Several: the estimators' rooted-tree
        protocol cannot span them, so one question per FK component
        (smallest member first) and every condition internal to
        ``filtered`` — the independence assumption for condition joins.
        """
        if filtered is None:
            filtered = tables
        if not self.dp_conditions:
            return (((tables, self.pred_for(filtered)),), ())
        question = self._questions.get((tables, filtered))
        if question is not None:
            return question
        components = self._components_within(tables)
        if len(components) > 1:
            question = (
                tuple(
                    (component, self.pred_for(component & filtered))
                    for component in components
                ),
                tuple(
                    condition
                    for condition in self.dp_conditions
                    if condition.left_table in filtered
                    and condition.right_table in filtered
                ),
            )
        else:
            question = (((tables, self.pred_for(filtered)),), ())
        if not self._built:
            self._questions[tables, filtered] = question
        return question

    # ------------------------------------------------------------------
    def _lattice(self, tables: tuple[str, ...], edges: list) -> tuple:
        """Per DP level, every table's access paths (level 1) or every
        connected subset's :class:`SubsetShape`, in lattice order."""
        adjacency: dict[str, set[str]] = {name: set() for name in tables}
        for edge in edges:
            adjacency[edge.child].add(edge.parent)
            adjacency[edge.parent].add(edge.child)
        for condition in self.dp_conditions:
            adjacency[condition.left_table].add(condition.right_table)
            adjacency[condition.right_table].add(condition.left_table)

        planned: set[frozenset] = set()
        levels = []
        for size in range(1, len(tables) + 1):
            level = []
            for subset_tuple in combinations(tables, size):
                subset = frozenset(subset_tuple)
                if size == 1:
                    level.append(
                        access_shape(
                            self.database, subset_tuple[0], self.pred_for(subset)
                        )
                    )
                    planned.add(subset)
                elif connected(subset, adjacency):
                    self.rows_question(subset)  # filed for the pricing
                    joins = tuple(self._joins(subset, planned, edges))
                    level.append(SubsetShape(subset, joins))
                    if joins:
                        planned.add(subset)
            levels.append(tuple(level))
        if frozenset(tables) not in planned:
            raise OptimizationError(
                f"could not connect tables {sorted(tables)} by FK joins"
            )
        return tuple(levels)

    def _joins(self, subset: frozenset, planned: set, edges: list):
        """Every partition joining two planned halves into ``subset``,
        in partition order."""
        for left_set, right_set in partitions(subset):
            if left_set not in planned or right_set not in planned:
                continue
            crossing = [
                e
                for e in edges
                if (e.child in left_set and e.parent in right_set)
                or (e.child in right_set and e.parent in left_set)
            ]
            crossing_conditions = [
                c for c in self.dp_conditions if c.crosses(left_set, right_set)
            ]
            if len(crossing) > 1:
                continue  # tree partitions cross at most one FK edge
            if not crossing and not crossing_conditions:
                continue  # nothing joins the halves
            if not crossing:
                # Pure condition join across FK components.
                yield (
                    left_set,
                    right_set,
                    nonequi_candidates,
                    nonequi_facts(crossing_conditions),
                )
            else:
                # Along the one FK edge; conditions crossing the
                # partition too filter each join's output.
                yield (
                    left_set,
                    right_set,
                    join_candidates,
                    join_facts(
                        self, left_set, right_set, crossing[0],
                        crossing_conditions,
                    ),
                )

    def _components_within(self, tables: frozenset) -> list[frozenset]:
        """FK-connected components of ``tables``, smallest member first."""
        components: list[frozenset] = []
        seen: set[str] = set()
        for seed in sorted(tables):
            if seed in seen:
                continue
            component: set[str] = set()
            frontier = [seed]
            while frontier:
                name = frontier.pop()
                if name in component:
                    continue
                component.add(name)
                frontier.extend((self._fk_adjacency[name] & tables) - component)
            seen |= component
            components.append(frozenset(component))
        return components
