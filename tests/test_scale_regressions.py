"""Tracing and chaos regressions over the zero-copy execution path.

The zero-copy refactor changed how operators build their output frames
(selection vectors instead of copies) and added a shared scan cache.
Neither may disturb the observability layer:

1. ``operator_spans`` attributes work per operator by subtracting
   each child's recorded subtree total from its parent's; with lazy
   frames the subtraction arithmetic must still be exact — own-work
   non-negative everywhere and the spans summing to the root totals —
   and the attribution must be identical whether the recorded run used
   a scan cache or not.
2. The ``ChaosHarness`` invariants (executable-plan, fallback-envelope,
   cache-versioning, degradation-attributed) must keep passing with
   zero-copy operators as the engine default.

And the joins must do the work the cost model charges them for, at the
scale where it shows (600 k-row ``lineitem``). Counted, not timed:

3. No equi-join sorts an input side — the longest array handed to
   ``stable_order`` is bounded by the matched pairs (hash, merge) or
   stays below the inner table (indexed NL), a batch of index probes is
   at most one ``searchsorted`` (none on a compact integer index), and a
   hash join whose right side is the whole indexed ``lineitem`` probes
   its index rather than reading the column — while every plan the optimizer
   considered returns the same columns and ``WorkCounters`` as under the
   sort-based reference matchers.
4. A sequential scan of a narrow range over an indexed integer column
   hands no ``lineitem``-long array to the BETWEEN kernel or the mask
   compaction; one past the crossover still compares every row.
"""

import numpy as np
import pytest

from repro.catalog import date_ordinal
from repro.core import ExactCardinalityEstimator
from repro.cost import CostModel
from repro.engine import (
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
from repro.indexes import SortedIndex, sorted_index
from repro.indexes.sorted_index import expand_runs
from repro.obs import execution_span, operator_spans
from repro.optimizer import Optimizer
from repro.workloads import TpchConfig, build_tpch_database

from tests.conftest import execute_recorded, make_two_table_db, parse_battery

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
        _, record = execute_recorded(plan, db)
        spans = operator_spans(plan, record)
        root_rows, root_counters = record[0]
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
        # Recorded run with a warm scan cache: execute three times so
        # the third pass is served from the cache (a leaf is kept on its
        # second sight).
        cache = ScanCache()
        for _ in range(2):
            plan.execute(ExecutionContext(db, scan_cache=cache))
        warm_ctx, warm_record = execute_recorded(plan, db, cache)
        assert cache.hits > 0
        cold_ctx, cold_record = execute_recorded(plan, db)
        # Unit of account: cached and uncached runs charge identically.
        assert warm_ctx.counters.as_dict() == cold_ctx.counters.as_dict()
        # And the attribution reproduces those same totals either way.
        assert warm_record[0][1].as_dict() == cold_ctx.counters.as_dict()
        assert operator_spans(plan, warm_record) == operator_spans(
            plan, cold_record
        )

    def test_execution_span_over_lazy_plan(self, db):
        plan = make_plans(db)["hashjoin"]
        cost_model = CostModel()
        ctx = ExecutionContext(db)
        frame = plan.execute(ctx)
        span = execution_span(plan, execute_recorded(plan, db)[1], cost_model)
        assert span["actual_rows"] == frame.num_rows
        assert span["simulated_seconds"] == cost_model.time_from_counters(
            ctx.counters
        )
        assert span["counters"] == ctx.counters.as_dict()
        assert span["total_work"] == ctx.counters.total_work()
        assert len(span["operators"]) == 3  # join + two scans
        assert span["time_breakdown"]


@pytest.fixture
def sorted_lengths(monkeypatch):
    """The length of every array handed to ``kernels.stable_order``
    while the test runs (seeded with 0 so ``max`` is always defined)."""
    lengths = [0]
    stable_order = kernels.stable_order

    def recording(keys):
        lengths.append(len(keys))
        return stable_order(keys)

    monkeypatch.setattr(kernels, "stable_order", recording)
    return lengths


class TestIndexedNLJoinProbesTheIndex:
    """The INL join is costed as a few index probes; it must not pay
    for a sort of the inner table. Counted, not timed: the longest array
    handed to ``stable_order`` stays below the inner table's rows, and
    a batch of probes is at most one ``searchsorted`` into the index —
    none where the index holds a position table."""

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
        self, sorted_lengths, tpch_10x, outer, outer_key, inner_column
    ):
        database = tpch_10x
        inner_rows = database.table("lineitem").num_rows
        plan = IndexedNLJoin(outer, "lineitem", outer_key, inner_column)
        ctx = ExecutionContext(database)
        frame = plan.execute(ctx)
        assert 0 < frame.num_rows == ctx.counters.index_entries < inner_rows
        assert max(sorted_lengths) < inner_rows

    @pytest.mark.parametrize(
        "table, column, spread, descents",
        [
            ("orders", "o_orderkey", 1, 0),
            ("lineitem", "l_partkey", 1, 0),
            ("orders", "o_totalprice", 1, 1),
            ("orders", "o_orderkey", 8, 1),
        ],
        ids=["unique-keys", "duplicated-keys", "float-keys", "sparse-keys"],
    )
    def test_match_many_searches_the_index_once(
        self, monkeypatch, tpch_10x, table, column, spread, descents
    ):
        """At most one descent per probe: compact integer keys (both join
        key indexes) are looked up in the index's position table and not
        searched at all; float keys, and integer keys spread over eight
        times their count, are searched once — the run a probe lands on
        is read from the index, not found by a second search. On the
        first batch, which builds the run lengths and the table, as on
        every later one."""
        values = tpch_10x.table(table).column(column) * spread
        index = SortedIndex(values)
        probes = np.concatenate((values[::97], [values.max() + 1, values.min() - 1]))
        calls = []
        searchsorted = np.searchsorted

        def counting(*args, **kwargs):
            calls.append(kwargs.get("side", "left"))
            return searchsorted(*args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", counting)
        for batch in range(1, 4):
            probe_idx, rids = index.match_many(probes)
            assert calls == ["left"] * batch * descents
            np.testing.assert_array_equal(values[rids], probes[probe_idx])


class TestEquiJoinsSortNoInputSide:
    """Hash and merge joins are costed linear in their inputs, so the
    matcher may order the pairs it found but never an input side.
    Counted, not timed: nothing longer than the join's output reaches
    ``stable_order`` (on the sort-the-probe-side path it was the whole
    600 k-row ``lineitem`` / 150 k-row ``orders`` side)."""

    @pytest.mark.parametrize(
        "plan",
        [
            # A filtered PK side building against its whole FK side: the
            # build keys are unique but sparse over their own range.
            HashJoin(
                SeqScan("part", col("part.p_size") <= 2),
                SeqScan("lineitem"),
                "part.p_partkey",
                "lineitem.l_partkey",
            ),
            # The clustered merge join: filtered FK side, unique PK side.
            MergeJoin(
                SeqScan("lineitem", col("lineitem.l_quantity") > 45),
                SeqScan("orders"),
                "lineitem.l_orderkey",
                "orders.o_orderkey",
            ),
        ],
        ids=["hashjoin-filtered-build", "mergejoin-clustered"],
    )
    def test_longest_sort_is_the_matched_pairs_at_10x(
        self, sorted_lengths, tpch_10x, plan
    ):
        frame = plan.execute(ExecutionContext(tpch_10x))
        larger_side = max(
            child.execute(ExecutionContext(tpch_10x)).num_rows
            for child in plan.children()
        )
        assert 0 < frame.num_rows < larger_side
        assert max(sorted_lengths) <= frame.num_rows


def record_lengths(monkeypatch, targets) -> list[int]:
    """The length of every array handed to one of ``targets`` —
    ``(module, function name)`` pairs — while the test runs (seeded
    with 0 so ``max`` is always defined)."""
    lengths = [0]

    def recording(function):
        def wrapper(*args, **kwargs):
            lengths.extend(len(a) for a in args if isinstance(a, np.ndarray))
            return function(*args, **kwargs)

        return wrapper

    for module, name in targets:
        monkeypatch.setattr(module, name, recording(getattr(module, name)))
    return lengths


@pytest.fixture
def matcher_lengths(monkeypatch):
    """The length of every array handed to a key-matching primitive —
    the dense key tables' build and probe, ``stable_order``,
    ``np.searchsorted``."""
    return record_lengths(
        monkeypatch,
        [
            (kernels, "_unique_key_table"),
            (kernels, "_probe_key_table"),
            (sorted_index, "_probe_key_table"),
            (kernels, "stable_order"),
            (np, "searchsorted"),
        ],
    )


class TestEquiJoinsProbeTheBaseSidesIndex:
    """A hash join whose right side is the whole indexed ``lineitem``
    (an unfiltered scan) looks the left side's keys up in that index.
    Counted, not timed: no array as long as ``lineitem`` reaches a dense
    key table, ``stable_order`` or ``searchsorted`` (on the kernel path
    the whole key column was gathered through the other side's table)."""

    @pytest.mark.parametrize(
        "plan",
        [
            # The base side probes: a filtered PK side builds.
            HashJoin(
                SeqScan("part", col("part.p_size") <= 2),
                SeqScan("lineitem"),
                "part.p_partkey",
                "lineitem.l_partkey",
            ),
        ],
        ids=["hashjoin-base-probe"],
    )
    def test_no_lineitem_long_array_is_matched_at_10x(
        self, matcher_lengths, tpch_10x, plan
    ):
        frame = plan.execute(ExecutionContext(tpch_10x))
        lineitem_rows = tpch_10x.table("lineitem").num_rows
        assert 0 < frame.num_rows < lineitem_rows
        assert max(matcher_lengths) < lineitem_rows


@pytest.fixture
def compared_lengths(monkeypatch):
    """The length of every array handed to ``kernels.eval_between`` or
    ``np.flatnonzero``."""
    return record_lengths(
        monkeypatch, [(kernels, "eval_between"), (np, "flatnonzero")]
    )


class TestNarrowScansReadTheIndex:
    """A sequential scan is charged every page whatever it keeps, so how
    it finds its rows is free: a range over an indexed integer column
    holding at most an eighth of the table is read as the index's RIDs,
    the other conjuncts evaluated on those rows. Counted, not timed: a
    narrow ``l_shipdate`` scan hands no array as long as ``lineitem`` to
    the BETWEEN kernel or the mask compaction; one past the crossover
    still compares every row."""

    @pytest.mark.parametrize(
        "days, narrow",
        [(30, True), (900, False)],
        ids=["a-month", "past-the-crossover"],
    )
    def test_lineitem_long_arrays_at_10x(
        self, compared_lengths, tpch_10x, days, narrow
    ):
        start = date_ordinal("1995-01-01")
        predicate = col("lineitem.l_shipdate").between(
            start, start + days
        ) & col("lineitem.l_receiptdate").between(start, start + days + 60)
        lineitem_rows = tpch_10x.table("lineitem").num_rows
        frame = SeqScan("lineitem", predicate).execute(ExecutionContext(tpch_10x))
        assert 0 < frame.num_rows < lineitem_rows
        assert (max(compared_lengths) < lineitem_rows) == narrow


def _two_search_match_many(index, values):
    """``match_many`` as it was before the index knew its run lengths:
    both ends of each probe's run found by binary search."""
    lo = np.searchsorted(index._keys, values, side="left")
    counts = np.searchsorted(index._keys, values, side="right") - lo
    probe_idx = np.repeat(np.arange(len(values), dtype=np.int64), counts)
    return probe_idx, index._rids[expand_runs(lo, counts)]


class TestJoinMatchersAreWallClockOnly:
    """Plan-level identity: which formulation matches the keys is
    invisible above the kernels. Every plan the optimizer considered for
    the TPC-H battery returns the same columns and charges the same
    ``WorkCounters`` with the sort-based reference matcher and the
    two-search index probe swapped in."""

    @staticmethod
    def _run(plan, database):
        ctx = ExecutionContext(database)
        frame = plan.execute(ctx)
        return {c: frame.column(c) for c in frame.column_names}, ctx.counters

    def test_battery_alternatives_identical_under_reference_matchers(
        self, monkeypatch, tpch_10x
    ):
        optimizer = Optimizer(tpch_10x, ExactCardinalityEstimator(tpch_10x))
        joins = 0
        for query in parse_battery(tpch_10x).values():
            for candidate in optimizer.optimize(query).alternatives:
                plan = candidate.operator
                columns, counters = self._run(plan, tpch_10x)
                with monkeypatch.context() as patched:
                    patched.setattr(kernels, "match_keys", kernels.match_keys_numpy)
                    patched.setattr(SortedIndex, "match_many", _two_search_match_many)
                    expected, expected_counters = self._run(plan, tpch_10x)
                label = plan.explain()
                assert list(columns) == list(expected), label
                for name, values in columns.items():
                    assert values.dtype == expected[name].dtype, (label, name)
                    np.testing.assert_array_equal(
                        values, expected[name], err_msg=f"{label}: {name}"
                    )
                assert counters.as_dict() == expected_counters.as_dict(), label
                joins += "Join" in label
        assert joins >= 8  # the battery's join queries were really in there


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
