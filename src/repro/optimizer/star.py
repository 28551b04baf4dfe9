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
from typing import TYPE_CHECKING, NamedTuple

from repro.engine.star import DimensionSpec, StarSemiJoin
from repro.expressions import conjunction
from repro.optimizer.candidates import PricedPlans
from repro.optimizer.query import SPJQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optimizer.optimizer import PlanningContext
    from repro.optimizer.shape import LatticeShape


def detect_star(
    ctx: "PlanningContext | LatticeShape", query: SPJQuery
) -> list[DimensionSpec] | None:
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


class StarSplit(NamedTuple):
    """One semi/hash dimension split of a star, unpriced: per dimension
    ``(its table set, predicate, rows, pages)`` (``dims``: the semi
    dimensions, then the hybrid ones), per semi dimension ``(its table
    set, predicate, the fact table with it)`` (``probes``), the semi
    tables with their dimension predicates (``fetched``) and with the
    fact predicate too (``after``), then the table set and predicate of
    each attach join (``attaches``)."""

    dims: tuple
    probes: tuple
    fetched: tuple
    after: tuple
    attaches: tuple


class StarShape(NamedTuple):
    """A star query's semijoin plan space: its table set and predicate
    (the plans' output rows), whether the fact table is filtered, and
    every split with its plan's maker."""

    tables: frozenset
    predicate: object
    fact_filtered: bool
    splits: tuple
    makers: tuple


def star_shape(
    ctx: "PlanningContext | LatticeShape",
    query: SPJQuery,
    specs: list[DimensionSpec],
) -> StarShape:
    """Every semi/hash dimension split of a detected star, unpriced."""
    names = frozenset(query.tables)
    database = ctx.database
    fact = database.root_relation(names)
    fact_predicate = ctx.pred_for(frozenset([fact]))

    splits: list = []
    makers: list = []
    indices = range(len(specs))
    for semi_width in range(1, len(specs) + 1):
        for semi_ids in combinations(indices, semi_width):
            semi = [specs[i] for i in semi_ids]
            hybrid = [specs[i] for i in indices if i not in semi_ids]
            dims = []
            for spec in semi + hybrid:
                dim = database.table(spec.dim_table)
                dims.append(
                    (
                        frozenset([spec.dim_table]),
                        spec.predicate,
                        dim.num_rows,
                        dim.num_pages,
                    )
                )
            probes = tuple(
                (
                    frozenset([spec.dim_table]),
                    spec.predicate,
                    frozenset([fact, spec.dim_table]),
                )
                for spec in semi
            )
            semi_tables = frozenset([fact] + [s.dim_table for s in semi])
            running_tables = set(semi_tables)
            attaches = []
            for spec in hybrid:
                running_tables.add(spec.dim_table)
                joined = frozenset(running_tables)
                attaches.append((joined, ctx.pred_for(joined)))
            splits.append(
                StarSplit(
                    tuple(dims),
                    probes,
                    (semi_tables, conjunction([s.predicate for s in semi])),
                    (semi_tables, ctx.pred_for(semi_tables)),
                    tuple(attaches),
                )
            )
            makers.append(
                partial(StarSemiJoin, fact, tuple(semi), tuple(hybrid), fact_predicate)
            )
    return StarShape(
        names,
        ctx.pred_for(names),
        fact_predicate is not None,
        tuple(splits),
        tuple(makers),
    )


def star_candidates(
    ctx: "PlanningContext", star: StarShape, out_rows: float
) -> PricedPlans:
    """StarSemiJoin plans for every split of ``star``, priced."""
    model = ctx.model
    card = ctx.card
    costs: list = []
    for split in star.splits:
        dim_scan_cost = 0.0
        probe_keys = 0.0
        matched_entries = 0.0
        attach_build = 0.0
        for tables, predicate, num_rows, num_pages in split.dims:
            dim_scan_cost += model.seq_scan(num_rows, num_pages, 0.0)
            selected = card(tables, predicate).cardinality
            attach_build += selected
        for tables, predicate, with_fact in split.probes:
            selected = card(tables, predicate).cardinality
            probe_keys += selected
            # Fact rows whose FK hits this dimension's filtered keys
            # — the index is probed before any fact predicate runs.
            matched_entries += card(with_fact, predicate).cardinality

        # Fact rows surviving the RID intersection (fetched at one
        # random I/O each), before the fact predicate applies...
        fetched = card(*split.fetched).cardinality
        # ...and after it, which is what the attach joins probe.
        after_fact = card(*split.after).cardinality

        attach_probe = after_fact * len(split.probes)
        running_rows = after_fact
        for tables, predicate in split.attaches:
            attach_probe += running_rows
            running_rows = card(tables, predicate).cardinality

        cost = model.star_semijoin(
            dim_scan_cost,
            probe_keys,
            matched_entries,
            fetched,
            attach_build,
            attach_probe,
            out_rows,
        )
        if star.fact_filtered:
            cost += fetched * model.cpu_tuple_cost
        costs.append(cost)
    return PricedPlans.of(
        star.tables, out_rows, costs, [None] * len(costs), star.makers
    )
