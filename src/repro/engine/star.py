"""Star-join operators: the semijoin strategy of Experiment 3.

The paper's star scenario (Section 6.2.3) has two pure strategies and a
hybrid: (a) a cascade of hash joins from the fact table, (b) a semijoin
per dimension through the fact table's foreign-key indexes, with the
resulting RID sets intersected before fetching any fact row, and (c) a
hybrid that semijoins some dimensions and hash-joins the rest.
:class:`StarSemiJoin` implements (b) and (c); (a) is an ordinary
composition of :class:`~repro.engine.joins.HashJoin` nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.engine.base import PhysicalOperator
from repro.engine.context import ExecutionContext
from repro.engine.joinutil import match_frames
from repro.engine.scans import scan_table
from repro.errors import ExecutionError
from repro.expressions import Expr, Frame, expr_key
from repro.indexes import intersect_rid_sets


@dataclass(frozen=True, eq=False)
class DimensionSpec:
    """One dimension's role in a star join.

    ``fact_fk_column`` is the fact table's foreign-key column pointing
    at the dimension's primary key; ``predicate`` is the filter applied
    to the dimension (``None`` keeps every dimension row).
    """

    dim_table: str
    fact_fk_column: str
    predicate: Expr | None = None


class StarSemiJoin(PhysicalOperator):
    """Semijoin-then-intersect star join with an optional hash hybrid.

    For every dimension in ``semi_dims``: filter the dimension, probe
    the fact table's FK index with the surviving keys, and collect the
    matching fact RIDs. The per-dimension RID sets are intersected and
    only the survivors are fetched (one random I/O each). Dimensions in
    ``hash_dims`` are instead hash-joined after the fetch, which both
    filters and attaches their columns.
    """

    def __init__(
        self,
        fact_table: str,
        semi_dims: Sequence[DimensionSpec],
        hash_dims: Sequence[DimensionSpec] = (),
        fact_predicate: Expr | None = None,
    ) -> None:
        if not semi_dims:
            raise ExecutionError("StarSemiJoin requires at least one semijoin dim")
        self.fact_table = fact_table
        self.semi_dims = list(semi_dims)
        self.hash_dims = list(hash_dims)
        self.fact_predicate = fact_predicate

    def execute(self, ctx: ExecutionContext) -> Frame:
        database = ctx.database
        fact = database.table(self.fact_table)

        # Phase 1: semijoin each dimension through the fact FK index.
        rid_sets: list[np.ndarray] = []
        semi_frames: list[tuple[DimensionSpec, Frame]] = []
        for spec in self.semi_dims:
            dim_frame = scan_table(ctx, spec.dim_table, spec.predicate)
            semi_frames.append((spec, dim_frame))
            index = database.sorted_index(self.fact_table, spec.fact_fk_column)
            if index is None:
                raise ExecutionError(
                    f"no index on {self.fact_table}.{spec.fact_fk_column}"
                )
            dim_table = database.table(spec.dim_table)
            keys = dim_frame.column(
                f"{spec.dim_table}.{dim_table.schema.primary_key}"
            )
            ctx.counters.index_lookups += len(keys)
            rids = ctx.scan_memo(
                (
                    "star-semi",
                    self.fact_table,
                    spec.fact_fk_column,
                    spec.dim_table,
                    expr_key(spec.predicate),
                ),
                lambda: index.lookup_many_eq(keys),
            )
            ctx.counters.index_entries += len(rids)
            rid_sets.append(rids)

        # Phase 2: intersect RID sets, fetch surviving fact rows.
        final_rids = intersect_rid_sets(rid_sets)
        ctx.counters.random_ios += len(final_rids)
        result = Frame.from_table_rows(fact, final_rids)
        if self.fact_predicate is not None:
            ctx.counters.cpu_rows += result.num_rows
            result = result.mask(self.fact_predicate.evaluate(result))

        # Phase 3: attach semijoin-dimension columns (cheap hash joins
        # against the already-filtered dimensions).
        for spec, dim_frame in semi_frames:
            result = self._attach_dimension(ctx, result, spec, dim_frame)

        # Phase 4: hybrid — hash join the remaining dimensions, which
        # filters as well as attaches columns.
        for spec in self.hash_dims:
            dim_frame = scan_table(ctx, spec.dim_table, spec.predicate)
            result = self._attach_dimension(ctx, result, spec, dim_frame)

        ctx.counters.rows_output += result.num_rows
        return result

    def _attach_dimension(
        self,
        ctx: ExecutionContext,
        result: Frame,
        spec: DimensionSpec,
        dim_frame: Frame,
    ) -> Frame:
        dim = ctx.database.table(spec.dim_table)
        pk = f"{spec.dim_table}.{dim.schema.primary_key}"
        fk = f"{self.fact_table}.{spec.fact_fk_column}"
        ctx.counters.hash_build_rows += dim_frame.num_rows
        ctx.counters.hash_probe_rows += result.num_rows
        dim_idx, fact_idx = match_frames(ctx.database, dim_frame, pk, result, fk)
        return dim_frame.take(dim_idx).merged_with(result.take(fact_idx))

    def label(self) -> str:
        semi = ", ".join(spec.dim_table for spec in self.semi_dims)
        hybrid = (
            f"; hash: {', '.join(s.dim_table for s in self.hash_dims)}"
            if self.hash_dims
            else ""
        )
        return f"StarSemiJoin({self.fact_table} ⋉ [{semi}]{hybrid})"
