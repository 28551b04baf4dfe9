"""The optimizer driver: bottom-up dynamic programming over table subsets.

This is a miniature System-R optimizer. The one departure from the
classical design is intentional and is the paper's point: cardinality
estimation is behind an interface, so the robust Bayesian estimator
drops in without touching enumeration, costing, or search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Sequence

import numpy as np

from repro.catalog import Database
from repro.core import (
    CardinalityEstimate,
    CardinalityEstimator,
    VectorCardinalityEstimate,
)
from repro.cost import CostModel
from repro.core.magic import MagicNumbers
from repro.engine import HashAggregate, Limit, PhysicalOperator, Project, Sort
from repro.engine.relops import Filter
from repro.errors import OptimizationError
from repro.expressions import Expr, expr_key
from repro.obs.trace import plan_shape
from repro.optimizer.access import access_paths
from repro.optimizer.candidates import PlanCandidate, PricedPlans, prune
from repro.optimizer.query import SPJQuery
from repro.optimizer.shape import LatticeShape, connected, partitions
from repro.optimizer.star import star_candidates
from repro.selection.penalty import (
    penalty_matrix,
    penalty_summary,
    risk_scores,
    select_index,
)


class PlanningContext:
    """Per-plan state shared by the candidate generators.

    Wraps the estimator behind a memoizing ``card`` oracle (the paper's
    "subroutine calls to the cardinality estimation module", Section
    3.4) over the statement's :class:`LatticeShape` — ``shape`` when
    given (a session's stored one), else built here — which routes
    per-table predicates.

    Without a ``grid`` every estimate is a scalar
    :class:`CardinalityEstimate` at the query's hint. With one, each
    estimate is a :class:`VectorCardinalityEstimate` whose
    ``cardinality`` is a vector over the grid, produced by one
    ``estimate_many`` call — the synopsis mask and sample counts are
    gathered once and inverted at every threshold via the quantile
    lookup table.
    """

    def __init__(
        self,
        database: Database,
        model: CostModel,
        estimator: CardinalityEstimator,
        query: SPJQuery,
        grid: Sequence[float] | None = None,
        shape: LatticeShape | None = None,
    ) -> None:
        self.database = database
        self.model = model
        self.estimator = estimator
        self.query = query
        self.grid = None if grid is None else tuple(grid)
        self.shape = shape if shape is not None else LatticeShape(database, query)
        self.cross_predicate = self.shape.cross_predicate
        self.dp_conditions = self.shape.dp_conditions
        self.pred_for = self.shape.pred_for
        self._cache: dict[tuple[frozenset, str], CardinalityEstimate] = {}
        self.estimation_calls = 0
        self._condition_sels: dict[str, float] = {}
        self._sort_costs: dict[frozenset, object] = {}

    def card(self, tables: frozenset, predicate: Expr | None) -> CardinalityEstimate:
        """Memoized cardinality estimate for an SPJ subexpression."""
        key = (tables, expr_key(predicate))
        estimate = self._cache.get(key)
        if estimate is None:
            self.estimation_calls += 1
            if self.grid is None:
                estimate = self.estimator.estimate(
                    tables, predicate, hint=self.query.hint
                )
            else:
                estimate = VectorCardinalityEstimate.from_estimates(
                    self.estimator.estimate_many(tables, predicate, self.grid)
                )
            self._cache[key] = estimate
        return estimate

    def estimates(self, lane: int | None = None) -> dict:
        """Every estimate made so far (under a grid: lane ``lane`` of each)."""
        if self.grid is None:
            return dict(self._cache)
        return {key: value.at(lane) for key, value in self._cache.items()}

    def sort_cost(self, tables: frozenset, rows):
        """What sorting the ``rows`` of ``tables`` costs, priced once
        however many partitions have ``tables`` as a half."""
        cost = self._sort_costs.get(tables)
        if cost is None:
            cost = self._sort_costs[tables] = self.model.sort(rows)
        return cost

    def condition_selectivity(self, condition) -> float:
        """Memoized point selectivity of one join condition.

        Clamped away from zero so dividing estimated rows by a
        condition's selectivity (the FK-edge-plus-conditions partition
        case) never produces infinities.
        """
        key = expr_key(condition.expr)
        if key not in self._condition_sels:
            self.estimation_calls += 1
            self._condition_sels[key] = max(
                float(self.estimator.condition_selectivity(condition)), 1e-9
            )
        return self._condition_sels[key]

    def rows(self, tables: frozenset, filtered: frozenset | None = None):
        """Estimated output rows of the joins covering ``tables``, with
        the per-table predicates and conditions of ``filtered`` (default:
        all of ``tables``) applied — an indexed NL join fetches its inner
        rows before the inner predicate, so it asks with its outer side:
        the one estimate's cardinality, or the product of per-component
        cardinalities and condition selectivities
        (:meth:`LatticeShape.rows_question` says which; a query without
        DP join conditions is one FK component, so one estimate)."""
        if not self.dp_conditions:
            return self.card(tables, self.pred_for(filtered or tables)).cardinality
        cards, conditions = self.shape.rows_question(tables, filtered)
        if len(cards) == 1:
            return self.card(*cards[0]).cardinality
        rows = 1.0
        for component, predicate in cards:
            rows = rows * self.card(component, predicate).cardinality
        for condition in conditions:
            rows = rows * self.condition_selectivity(condition)
        return rows

    def cross_filtered_rows(self, rows):
        """Rows surviving the final cross-table Filter, multi-component
        queries only (no synopsis spans condition-connected components,
        so the whole-query estimate is assembled per conjunct)."""
        selectivity = 1.0
        for conjunct, condition in self.shape.cross_factors:
            if condition is not None:
                selectivity *= self.condition_selectivity(condition)
            else:
                selectivity *= _MAGIC.for_predicate(conjunct)
        return rows * selectivity


#: The §3.5 constants a multi-component query's residual conjuncts
#: price at.
_MAGIC = MagicNumbers()


class _ThresholdSlice:
    """Scalar (single-lane) view over a grid planning context.

    Lets the unchanged scalar finalization code run against estimates
    computed by the vectorized DP pass: ``card`` answers with the
    per-threshold estimate at one grid index. Carries only what
    :meth:`Optimizer.finalize_candidate` reads.
    """

    def __init__(self, ctx: PlanningContext, index: int) -> None:
        self._ctx = ctx
        self._index = index
        self.cross_predicate = ctx.cross_predicate
        self.dp_conditions = ctx.dp_conditions
        self.cross_filtered_rows = ctx.cross_filtered_rows

    def card(self, tables: frozenset, predicate: Expr | None) -> CardinalityEstimate:
        return self._ctx.card(tables, predicate).at(self._index)


@dataclass(eq=False)
class PlannedQuery:
    """The optimizer's output: an executable plan plus its estimates."""

    query: SPJQuery
    plan: PhysicalOperator
    estimated_cost: float
    estimated_rows: float
    #: Every full-coverage candidate considered, cheapest first (from
    #: ``optimize_many``: those the scalar pass would have built at this
    #: lane cheapest first, then the rest); a tree is built when read.
    alternatives: list[PlanCandidate]
    #: Number of estimator invocations during planning.
    estimation_calls: int
    #: Every cardinality estimate produced during planning, keyed by
    #: (table set, predicate repr) — exposes posteriors for diagnostics.
    estimates: dict = None
    #: Optimizer span (DP level counts, pruning, winner provenance)
    #: recorded when the optimizer was built with a tracer; ``None``
    #: otherwise. JSON-ready for :class:`repro.obs.QueryTrace`.
    trace: dict | None = None
    #: Penalty-selection provenance (risk functional, sampled
    #: quantiles, per-plan penalty distributions) when the plan was
    #: chosen by :meth:`Optimizer.optimize_penalty`; ``None`` for
    #: threshold and histogram selection. Always populated by the
    #: penalty path — unlike ``trace`` it does not require a tracer.
    selection: dict | None = None

    def explain(self) -> str:
        """Human-readable plan tree with estimates."""
        return self.plan.explain()


@dataclass
class _Selection:
    """One selector decision over the finalists x lanes cost matrix."""

    #: Trace label of the policy family that decided.
    strategy: str
    #: Grid lane the plan is finalized and annotated at (``None``
    #: when there is no grid).
    lane: int | None
    #: Row of the winning finalist.
    winner: int
    #: Every row, best first: the order of ``PlannedQuery.alternatives``.
    ranking: list[int]
    #: Extra keys of the optimizer span's ``winner`` entry.
    winner_fields: dict = field(default_factory=dict)
    #: Per-row risk score, for selectors that rank by one.
    scores: np.ndarray | None = None
    #: ``PlannedQuery.selection`` provenance.
    provenance: dict | None = None


# A selector reads the finalists (their cost a list of floats without a
# grid: the scalar pass stays on Python floats, which is what keeps it
# ahead of a width-1 vector pass; an ``(n, len(grid))`` matrix with one)
# and yields one _Selection per plan to finalize.
def _select_cheapest(finalists: PricedPlans, grid):
    """No grid: the cheapest finalist at the query's own threshold."""
    ranking = sorted(range(len(finalists)), key=finalists.cost.__getitem__)
    yield _Selection("scalar", None, ranking[0], ranking)


def _select_per_lane(finalists: PricedPlans, grid):
    """Threshold grid: each lane's argmin, one plan per lane — among
    the finalists the scalar pass would have built at that lane, so lane
    ``i`` is what ``optimize(hint=grid[i])`` returns; the rest rank last."""
    eligible = finalists.cost
    if finalists.active is not None:
        eligible = np.where(finalists.active, eligible, np.inf)
    winners = np.argmin(eligible, axis=0)
    for lane in range(len(grid)):
        # Stable argsort == Python's stable sorted(key=cost), so the
        # alternatives ranking matches the scalar path per lane.
        ranking = np.argsort(eligible[:, lane], kind="stable").tolist()
        yield _Selection(
            "vectorized",
            lane,
            int(winners[lane]),
            ranking,
            {"lane": lane, "grid": [float(t) for t in grid]},
        )


def _select_by_risk(finalists: PricedPlans, grid, *, risk: str, alpha: float):
    """Posterior samples: the plan minimizing a risk functional of its
    regret against the per-sample optimum, ties broken by signature.

    Column 0 is the reference lane: it never votes, but the plan is
    finalized and annotated there; penalties live on the samples. Every
    finalist's tree is built once, at that lane, for its signature.
    """
    costs = finalists.cost
    penalties = penalty_matrix(costs[:, 1:])
    scores = risk_scores(penalties, risk=risk, alpha=alpha)
    trees = [finalists.tree(row, 0) for row in range(len(finalists))]
    winner = select_index(scores, [tree.signature() for tree in trees])
    ranking = np.argsort(scores, kind="stable").tolist()
    summaries = penalty_summary(penalties)
    provenance = {
        "strategy": "penalty",
        "risk": risk,
        "alpha": float(alpha),
        "samples": len(grid) - 1,
        "reference_quantile": grid[0],
        "quantiles": list(grid[1:]),
        "winner_index": int(winner),
        "winner_score": float(scores[winner]),
        "plans": [
            {
                "plan_shape": plan_shape(trees[i]),
                "score": float(scores[i]),
                "penalty": summaries[i],
                "reference_cost": float(costs[i, 0]),
            }
            for i in ranking
        ],
    }
    yield _Selection(
        "penalty",
        0,
        winner,
        ranking,
        {"score": float(scores[winner])},
        scores,
        provenance,
    )


class Optimizer:
    """Cost-based SPJ optimizer with a pluggable cardinality estimator.

    Parameters
    ----------
    database:
        The catalog to plan against.
    estimator:
        Any :class:`~repro.core.CardinalityEstimator`.
    cost_model:
        Cost coefficients; defaults mirror the paper's analytical model.
    """

    def __init__(
        self,
        database: Database,
        estimator: CardinalityEstimator,
        cost_model: CostModel | None = None,
        tracer=None,
    ) -> None:
        self.database = database
        self.estimator = estimator
        self.cost_model = cost_model or CostModel()
        #: Optional :class:`repro.obs.Tracer`; when set, every planned
        #: query carries an optimizer span in ``PlannedQuery.trace``.
        self.tracer = tracer
        #: Where a plan's :class:`LatticeShape` comes from: ``None``
        #: builds it per plan; a session lends its store (a callable
        #: ``query -> LatticeShape``).
        self._shapes = None

    # ------------------------------------------------------------------
    def optimize(self, query: SPJQuery) -> PlannedQuery:
        """Choose the cheapest physical plan for ``query``."""
        return self._plan(query, None, _select_cheapest)[0]

    def optimize_many(
        self, query: SPJQuery, thresholds: Sequence[float]
    ) -> list[PlannedQuery]:
        """Plan ``query`` at every confidence threshold in one DP pass.

        Estimates, costs, and the DP lattice all carry vectors over the
        threshold grid; a final per-threshold argmin picks each grid
        point's winner, which is then finalized by the unchanged scalar
        code against a single-threshold slice of the vector estimates.
        The per-threshold plans (each lane's tree built for that lane,
        every node annotated with its numbers) and estimates match what
        ``optimize`` produces with ``hint=t``, one threshold at a time.
        """
        grid = tuple(thresholds)
        if not grid:
            raise OptimizationError("optimize_many needs at least one threshold")
        return self._plan(query, grid, _select_per_lane)

    def optimize_penalty(
        self,
        query: SPJQuery,
        quantiles: Sequence[float],
        *,
        risk: str = "expected",
        alpha: float = 1.0,
        reference: float = 0.5,
    ) -> PlannedQuery:
        """Pick the plan minimizing penalty over posterior samples.

        ``quantiles`` are uniforms in (0, 1) — typically drawn by
        :func:`repro.selection.sample_quantiles` — and each one is a
        joint posterior sample via inverse-transform: planning at
        confidence threshold ``u`` prices every predicate at its
        posterior's ``u``-quantile. One vectorized DP pass over the
        grid therefore costs every candidate plan at every sample; the
        winner minimizes the ``risk`` functional (``"expected"`` mean
        penalty, or ``"cvar"`` α-tail mean) of its regret against the
        per-sample optimum, with ties broken by plan signature.

        Lane 0 of the grid is a *reference* lane at the posterior
        median (``reference=0.5``): it never votes, but supplies the
        scalar estimates the finished plan is annotated and finalized
        with, so explain output and cached estimates stay meaningful.

        With ``risk="expected"`` this is least-expected-cost selection
        (Chu et al.): each sample's optimum is subtracted from every
        plan alike, so mean penalty is mean cost minus a constant.
        ``(np.arange(q) + 0.5) / q`` is the midpoint grid the
        multi-invocation recipe of that literature averages over.

        The candidate pool is the union of per-lane DP winners (the
        same Bellman pruning ``optimize_many`` uses). Every per-sample
        optimum (what ``optimize(hint=u)`` returns) survives pruning
        and every finalist's cost is its own
        at every sample — where the scalar pass would have built a
        plan is ``PricedPlans.active``, which no risk functional
        reads — so penalties are exact; a "hedge" plan that is optimal
        at *no* sample could in principle be pruned before scoring —
        the standard price of reusing the threshold-vectorized lattice.
        """
        samples = tuple(float(u) for u in quantiles)
        if not samples:
            raise OptimizationError(
                "optimize_penalty needs at least one sample quantile"
            )
        grid = (float(reference),) + samples
        select = partial(_select_by_risk, risk=risk, alpha=alpha)
        return self._plan(query, grid, select)[0]

    # ------------------------------------------------------------------
    def _plan(
        self, query: SPJQuery, grid: tuple[float, ...] | None, select
    ) -> list[PlannedQuery]:
        """The one lattice-to-plan pass behind the three entry points.

        Price and prune the lattice (on floats when ``grid`` is
        ``None``, on cost matrices over ``grid`` otherwise), hand the
        finalists to ``select``, and finish every selection the same
        way: build the winner's tree at the chosen lane, finalize it
        against that lane's scalar estimates, rank the alternatives
        (their trees are built when read), assemble the span.
        """
        ctx = PlanningContext(
            self.database,
            self.cost_model,
            self.estimator,
            query,
            grid,
            None if self._shapes is None else self._shapes(query),
        )
        tracing = self.tracer is not None
        dp_stats: list[dict] | None = [] if tracing else None
        started = time.perf_counter() if tracing else 0.0

        finalists = self._finalists(ctx, query, dp_stats)
        planned: list[PlannedQuery] = []
        for choice in select(finalists, grid):
            lane = choice.lane
            view, query_at = ctx, query
            if grid is not None:
                view = _ThresholdSlice(ctx, lane)
                query_at = replace(query, hint=grid[lane])
            best = PlanCandidate(finalists, choice.winner, lane)
            plan, cost, rows = self.finalize_candidate(view, query_at, best)
            alternatives = [
                PlanCandidate(finalists, row, lane) for row in choice.ranking
            ]
            span = None
            if tracing:
                winner = {
                    "plan_shape": plan_shape(plan),
                    "cost": float(cost),
                    "rows": float(rows),
                    "order": best.order,
                    **choice.winner_fields,
                }
                if grid is not None:
                    winner["cost_vector"] = [
                        float(c) for c in finalists.cost[choice.winner]
                    ]
                span = self._optimizer_span(
                    strategy=choice.strategy,
                    threshold=query.hint if grid is None else float(grid[lane]),
                    estimation_calls=ctx.estimation_calls,
                    dp_stats=dp_stats,
                    finalists=finalists,
                    winner=winner,
                    alternatives=[
                        {
                            "plan_shape": plan_shape(candidate.operator),
                            **(
                                {}
                                if choice.scores is None
                                else {"score": float(choice.scores[row])}
                            ),
                            "cost": float(candidate.cost),
                        }
                        for row, candidate in zip(
                            choice.ranking[:5], alternatives
                        )
                    ],
                    optimize_seconds=time.perf_counter() - started,
                )
                if choice.provenance is not None:
                    span["selection"] = choice.provenance
            planned.append(
                PlannedQuery(
                    query=query_at,
                    plan=plan,
                    estimated_cost=cost,
                    estimated_rows=rows,
                    alternatives=alternatives,
                    estimation_calls=ctx.estimation_calls,
                    estimates=ctx.estimates(lane),
                    trace=span,
                    selection=choice.provenance,
                )
            )
        return planned

    def _finalists(
        self, ctx: PlanningContext, query: SPJQuery, dp_stats: list[dict] | None
    ) -> PricedPlans:
        """Full-coverage plans from one pass over the lattice.

        The full set's survivors of Bellman enumeration (pruned per lane
        under a grid), then the star plans.
        """
        full_set = frozenset(query.tables)
        finalists = self._enumerate_joins(ctx, query, dp_stats)[full_set]
        star = ctx.shape.star
        if star is not None:
            out_rows = ctx.card(star.tables, star.predicate).cardinality
            finalists = PricedPlans.concat(
                [finalists, star_candidates(ctx, star, out_rows)]
            )
        return finalists

    # ------------------------------------------------------------------
    @staticmethod
    def _optimizer_span(
        *,
        strategy: str,
        threshold,
        estimation_calls: int,
        dp_stats: list[dict],
        finalists: PricedPlans,
        winner: dict,
        alternatives: list[dict],
        optimize_seconds: float,
    ) -> dict:
        """Assemble the JSON-ready optimizer span for one planned query.

        Deterministic counts live at the top level; the per-level DP
        wall times sit under ``timing`` so determinism checks can strip
        them.
        """
        considered = sum(level["generated"] for level in dp_stats)
        kept = sum(level["kept"] for level in dp_stats)
        return {
            "strategy": strategy,
            "threshold": threshold,
            "estimation_calls": estimation_calls,
            "dp_levels": [
                {key: value for key, value in level.items() if key != "seconds"}
                for level in dp_stats
            ],
            "candidates_considered": considered,
            "candidates_pruned": considered - kept,
            "finalists": len(finalists),
            "winner": winner,
            "alternatives": alternatives,
            "timing": {
                "optimize_seconds": optimize_seconds,
                "dp_level_seconds": [level["seconds"] for level in dp_stats],
            },
        }

    # ------------------------------------------------------------------
    # Dynamic programming
    # ------------------------------------------------------------------
    def _enumerate_joins(
        self,
        ctx: PlanningContext,
        query: SPJQuery,
        dp_stats: list[dict] | None = None,
    ) -> dict[frozenset, PricedPlans]:
        """Bottom-up DP over ``ctx.shape``: every connected subset's
        candidates priced, then pruned to its survivors (``{subset:
        survivors}``, in lattice order); no operator is built. When
        ``dp_stats`` is a list, one entry per DP level is appended
        recording subsets evaluated, candidates priced vs. kept after
        pruning, and the level's wall time (tracing only — the
        enumeration itself is unchanged)."""
        survivors: dict[frozenset, PricedPlans] = {}
        for size, level in enumerate(ctx.shape.levels, 1):
            level_started = time.perf_counter() if dp_stats is not None else 0.0
            generated = kept = subsets = 0
            for node in level:
                if size == 1:
                    candidates = access_paths(
                        self.database, self.cost_model, ctx.card, node.table,
                        node.predicate, node,
                    )
                else:
                    out_rows = ctx.rows(node.tables)
                    if not node.partitions:
                        continue
                    candidates = PricedPlans.concat(
                        [
                            price(
                                ctx, survivors[left], survivors[right], facts,
                                out_rows,
                            )
                            for left, right, price, facts in node.partitions
                        ]
                    )
                survivors[node.tables] = prune(candidates)
                subsets += 1
                generated += len(candidates)
                kept += len(survivors[node.tables])
            if dp_stats is not None:
                dp_stats.append(
                    {
                        "level": size,
                        "subsets": subsets,
                        "generated": generated,
                        "kept": kept,
                        "seconds": time.perf_counter() - level_started,
                    }
                )
        return survivors

    #: The lattice's partition and connectivity rules (the shape's).
    _partitions = staticmethod(partitions)
    _connected = staticmethod(connected)

    # ------------------------------------------------------------------
    # Finalization: cross-table filters, aggregation, projection
    # ------------------------------------------------------------------
    def finalize_candidate(
        self, ctx: PlanningContext, query: SPJQuery, best: PlanCandidate
    ) -> tuple[PhysicalOperator, float, float]:
        """Wrap a full-coverage candidate with the query's cross-table
        filter, aggregation, and projection, returning the finished
        plan with its cumulative cost and output rows."""
        plan = best.operator
        cost = best.cost
        rows = best.rows
        full_set = frozenset(query.tables)

        if ctx.cross_predicate is not None:
            if ctx.dp_conditions:
                # Multi-component query: no estimator protocol spans the
                # condition-connected components, so price the residual
                # cross predicate conjunct by conjunct.
                filtered = ctx.cross_filtered_rows(rows)
            else:
                filtered = ctx.card(full_set, query.predicate).cardinality
            cost += self.cost_model.filter(rows, filtered)
            plan = Filter(plan, ctx.cross_predicate)
            rows = filtered
            plan.est_rows, plan.est_cost = rows, cost

        if query.aggregates or query.group_by:
            groups = 1.0  # a scalar aggregate: one group
            if query.group_by:
                groups = self.estimator.estimate_groups(
                    query.tables, query.group_by, query.predicate, rows, hint=query.hint
                )
            cost += self.cost_model.aggregate(rows, groups, bool(query.group_by))
            plan = HashAggregate(plan, list(query.aggregates), list(query.group_by))
            rows = groups
            plan.est_rows, plan.est_cost = rows, cost
        elif query.projection is not None:
            plan = Project(plan, list(query.projection))
            plan.est_rows, plan.est_cost = rows, cost

        if query.order_by:
            # Skip the sort when the join result already carries the
            # requested leading order (an interesting-orders payoff) —
            # only valid when no aggregation reshuffled the rows.
            already_ordered = (
                not query.aggregates
                and not query.group_by
                and len(query.order_by) == 1
                and best.order == query.order_by[0]
            )
            if not already_ordered:
                cost += self.cost_model.sort(rows)
                plan = Sort(plan, list(query.order_by))
                plan.est_rows, plan.est_cost = rows, cost

        if query.limit is not None:
            rows = min(rows, float(query.limit))
            plan = Limit(plan, query.limit)
            plan.est_rows, plan.est_cost = rows, cost

        return plan, cost, rows
