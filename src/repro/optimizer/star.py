"""Star-join plan generation (Experiment 3's plan space).

When a query is a star — one fact table with foreign keys to several
leaf dimension tables, each FK column indexed — the optimizer adds the
semijoin strategies of Section 6.2.3: compute the semijoin of the fact
table with each dimension through the FK indexes, intersect the RID
sets, fetch, and hash-join any remaining ("hybrid") dimensions.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from typing import TYPE_CHECKING

from repro.engine.star import DimensionSpec, StarSemiJoin
from repro.expressions import conjunction
from repro.optimizer.candidates import PricedPlans
from repro.optimizer.query import SPJQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optimizer.optimizer import PlanningContext


def detect_star(ctx: "PlanningContext", query: SPJQuery) -> list[DimensionSpec] | None:
    """Return the dimension specs when the query is a semijoinable star.

    Requirements: ≥ 2 dimensions, every non-fact table is a direct FK
    parent of the fact table and a leaf within the query, and every
    fact FK column involved has a sorted index.
    """
    names = frozenset(query.tables)
    if len(names) < 3:
        return None
    fact = ctx.database.root_relation(names)
    specs: list[DimensionSpec] = []
    for dim in sorted(names - {fact}):
        edge = ctx.database.foreign_key_edge(fact, dim)
        if edge is None:
            return None
        parents_of_dim = {
            fk.parent_table
            for fk in ctx.database.foreign_keys_of(dim)
            if fk.parent_table in names
        }
        if parents_of_dim:
            return None  # not a leaf: snowflake shapes go to the DP
        if not ctx.database.has_index(fact, edge.column):
            return None
        specs.append(
            DimensionSpec(dim, edge.column, ctx.pred_for(frozenset([dim])))
        )
    return specs


def star_candidates(
    ctx: "PlanningContext",
    query: SPJQuery,
    specs: list[DimensionSpec],
    out_rows: float,
) -> PricedPlans:
    """StarSemiJoin plans for every semi/hash dimension split, priced."""
    names = frozenset(query.tables)
    fact = ctx.database.root_relation(names)
    fact_predicate = ctx.pred_for(frozenset([fact]))
    model = ctx.model

    costs: list = []
    makers: list = []
    indices = range(len(specs))
    for semi_width in range(1, len(specs) + 1):
        for semi_ids in combinations(indices, semi_width):
            semi = [specs[i] for i in semi_ids]
            hybrid = [specs[i] for i in indices if i not in semi_ids]

            dim_scan_cost = 0.0
            probe_keys = 0.0
            matched_entries = 0.0
            attach_build = 0.0
            for spec in semi + hybrid:
                dim = ctx.database.table(spec.dim_table)
                dim_scan_cost += model.seq_scan(dim.num_rows, dim.num_pages, 0.0)
                selected = ctx.card(
                    frozenset([spec.dim_table]), spec.predicate
                ).cardinality
                attach_build += selected
            for spec in semi:
                selected = ctx.card(
                    frozenset([spec.dim_table]), spec.predicate
                ).cardinality
                probe_keys += selected
                # Fact rows whose FK hits this dimension's filtered keys
                # — the index is probed before any fact predicate runs.
                matched_entries += ctx.card(
                    frozenset([fact, spec.dim_table]), spec.predicate
                ).cardinality

            # Fact rows surviving the RID intersection (fetched at one
            # random I/O each), before the fact predicate applies...
            semi_tables = frozenset([fact] + [s.dim_table for s in semi])
            semi_only_pred = conjunction([s.predicate for s in semi])
            fetched = ctx.card(semi_tables, semi_only_pred).cardinality
            # ...and after it, which is what the attach joins probe.
            after_fact = ctx.card(semi_tables, ctx.pred_for(semi_tables)).cardinality

            attach_probe = after_fact * len(semi)
            running_tables = set(semi_tables)
            running_rows = after_fact
            for spec in hybrid:
                attach_probe += running_rows
                running_tables.add(spec.dim_table)
                running_rows = ctx.card(
                    frozenset(running_tables),
                    ctx.pred_for(frozenset(running_tables)),
                ).cardinality

            cost = model.star_semijoin(
                dim_scan_cost,
                probe_keys,
                matched_entries,
                fetched,
                attach_build,
                attach_probe,
                out_rows,
            )
            if fact_predicate is not None:
                cost += fetched * model.cpu_tuple_cost
            costs.append(cost)
            makers.append(partial(StarSemiJoin, fact, semi, hybrid, fact_predicate))
    return PricedPlans.of(names, out_rows, costs, [None] * len(costs), makers)
