"""Tracing and chaos regressions over the zero-copy execution path.

The zero-copy refactor changed how operators build their output frames
(selection vectors instead of copies) and added a shared scan cache.
Neither may disturb the observability layer:

1. ``operator_spans`` re-executes each subtree in a fresh context to
   attribute work per operator; with lazy frames the subtraction
   arithmetic must still be exact — own-work non-negative everywhere
   and the spans summing to the root totals — and the attribution must
   be identical whether the *measured* run used a scan cache or not.
2. The ``ChaosHarness`` invariants (executable-plan, fallback-envelope,
   cache-versioning, degradation-attributed) must keep passing with
   zero-copy operators as the engine default.
"""

import numpy as np
import pytest

from repro.cost import CostModel
from repro.engine import (
    ExecOptions,
    ExecutionContext,
    HashAggregate,
    HashJoin,
    IndexSeek,
    IndexedNLJoin,
    MergeJoin,
    ScanCache,
    SeqScan,
)
from repro.engine import kernels
from repro.engine.aggregate import AggregateSpec
from repro.engine.scans import IndexCondition
from repro.expressions import col
from repro.faults import ChaosHarness, generate_fault_plans
from repro.obs import execution_span, operator_spans
from repro.workloads import TpchConfig, build_tpch_database

from tests.conftest import make_two_table_db

QUERY = "SELECT COUNT(*) FROM lineitem WHERE lineitem.l_quantity > 45"
JOIN_QUERY = (
    "SELECT COUNT(*) FROM lineitem, part "
    "WHERE part.p_size <= 10 AND lineitem.l_quantity > 30"
)


@pytest.fixture(scope="module")
def db():
    return make_two_table_db(n_part=80, n_lineitem=4000)


@pytest.fixture(scope="module")
def tpch_10x():
    return build_tpch_database(TpchConfig(num_lineitem=600_000, seed=1))


def make_plans(db):
    """Hand-built plans covering scans, joins, and aggregation."""
    scan_part = SeqScan("part", col("part.p_size") <= 20)
    scan_lineitem = SeqScan("lineitem", col("lineitem.l_quantity") > 10)
    seek = IndexSeek(
        "lineitem",
        IndexCondition("l_partkey", 0, 30),
        residual=col("lineitem.l_quantity") > 5,
    )
    return {
        "seqscan": scan_part,
        "hashjoin": HashJoin(
            scan_part, scan_lineitem, "part.p_partkey", "lineitem.l_partkey"
        ),
        "mergejoin": MergeJoin(
            scan_part, scan_lineitem, "part.p_partkey", "lineitem.l_partkey"
        ),
        "indexednl": IndexedNLJoin(
            scan_part,
            "lineitem",
            "part.p_partkey",
            "l_partkey",
            residual=col("lineitem.l_quantity") > 5,
        ),
        "seek-agg": HashAggregate(
            seek,
            group_by=["lineitem.l_partkey"],
            aggregates=[
                AggregateSpec("sum", "lineitem.l_quantity", "total_qty"),
                AggregateSpec("count", "lineitem.l_id", "n"),
            ],
        ),
    }


class TestOperatorSpanAttribution:
    @pytest.mark.parametrize("name", ["seqscan", "hashjoin", "mergejoin",
                                      "indexednl", "seek-agg"])
    def test_spans_sum_to_root_and_own_work_nonnegative(self, db, name):
        plan = make_plans(db)[name]
        spans, root_counters, root_rows = operator_spans(plan, db)
        assert root_rows == plan.execute(ExecutionContext(db)).num_rows
        totals = {k: 0 for k in root_counters.as_dict()}
        for span in spans:
            assert span["own_work"] >= 0, span["operator"]
            for key, value in span["counters"].items():
                assert value >= 0, f"{span['operator']}: {key}"
                totals[key] += value
        assert totals == root_counters.as_dict()

    @pytest.mark.parametrize("name", ["hashjoin", "seek-agg"])
    def test_attribution_independent_of_scan_cache(self, db, name):
        plan = make_plans(db)[name]
        # Measured run with a warm scan cache: execute twice so the
        # second pass is served from the cache, then trace.
        cache = ScanCache()
        options = ExecOptions(scan_cache=cache)
        plan.execute(ExecutionContext(db, options))
        warm_ctx = ExecutionContext(db, options)
        plan.execute(warm_ctx)
        assert cache.hits > 0
        cold_ctx = ExecutionContext(db)
        plan.execute(cold_ctx)
        # Unit of account: cached and uncached runs charge identically.
        assert warm_ctx.counters.as_dict() == cold_ctx.counters.as_dict()
        # And the traced attribution reproduces those same totals.
        spans, root_counters, _ = operator_spans(plan, db)
        assert root_counters.as_dict() == cold_ctx.counters.as_dict()

    def test_execution_span_over_lazy_plan(self, db):
        plan = make_plans(db)["hashjoin"]
        cost_model = CostModel()
        ctx = ExecutionContext(db)
        frame = plan.execute(ctx)
        span = execution_span(
            plan,
            db,
            cost_model,
            simulated_seconds=cost_model.time_from_counters(ctx.counters),
            actual_rows=frame.num_rows,
        )
        assert span["actual_rows"] == frame.num_rows
        assert span["counters"] == ctx.counters.as_dict()
        assert span["total_work"] == ctx.counters.total_work()
        assert len(span["operators"]) == 3  # join + two scans
        assert span["time_breakdown"]


class TestIndexedNLJoinProbesTheIndex:
    """The INL join is costed as a few index probes; it must not pay
    for a sort of the inner table. Counted, not timed: the longest array
    handed to ``stable_order`` stays below the inner table's rows."""

    @pytest.mark.parametrize(
        "outer, outer_key, inner_column",
        [
            (SeqScan("part", col("part.p_size") <= 2), "part.p_partkey", "l_partkey"),
            (
                SeqScan("orders", col("orders.o_totalprice") <= 5000.0),
                "orders.o_orderkey",
                "l_orderkey",
            ),
        ],
        ids=["nonclustered", "clustered"],
    )
    def test_no_sort_of_the_inner_table_at_10x(
        self, monkeypatch, tpch_10x, outer, outer_key, inner_column
    ):
        database = tpch_10x
        inner_rows = database.table("lineitem").num_rows
        sorted_lengths = [0]
        stable_order = kernels.stable_order

        def recording(keys):
            sorted_lengths.append(len(keys))
            return stable_order(keys)

        monkeypatch.setattr(kernels, "stable_order", recording)
        plan = IndexedNLJoin(outer, "lineitem", outer_key, inner_column)
        ctx = ExecutionContext(database)
        frame = plan.execute(ctx)
        assert 0 < frame.num_rows == ctx.counters.index_entries < inner_rows
        assert max(sorted_lengths) < inner_rows


class TestChaosOverZeroCopyOperators:
    def test_chaos_sweep_green(self, db, tmp_path):
        harness = ChaosHarness(
            db,
            [QUERY, JOIN_QUERY],
            sample_size=64,
            statistics_seed=5,
            workdir=tmp_path,
        )
        plans = generate_fault_plans(8, seed=0, tables=("part", "lineitem"))
        report = harness.run(plans)
        assert report.passed, report.format_summary()
        assert len(report.outcomes) == 8
