"""One record of what each operator did, read by everyone who asks.

An execution given ``operator_rows`` / ``operator_work`` mappings fills
them from the wrapper every operator's ``execute`` carries, and
``operator_spans`` / ``execution_span`` / ``audit_plan`` / the traced
experiment runner read that record instead of executing each subtree
again; a session keeps it in its execution memo. Two kinds of check:

* differential — spans built from the record equal, field for field,
  the spans of ``tests/reference_attribution.py`` (the walker that was
  deleted: a fresh context per subtree, children subtracted) over every
  alternative of the TPC-H / star / snowflake battery
  (``test_feedback_capture`` asserts that battery reaches every
  operator class), cold, through a scan cache on its fill and on its
  hits, and on a session execution-memo hit served to a second plan
  object. Integer counters admit no tolerance. ``sort_comparisons`` is
  a float: an operator entered after another one has sorted sees its
  charge through a non-zero accumulator, and that one case is pinned to
  an ulp of the root's total;
* counting — a traced statement, an audit and a traced experiment build
  one ``ExecutionContext`` per plan they execute and run each operator
  once, and ``src/`` builds one in a single place, ``Session._run``.
"""

from __future__ import annotations

import copy
import math
import pathlib
import tokenize

import pytest

from repro.cost import CostModel
from repro.engine import MergeJoin, ScanCache, SeqScan, Sort
from repro.experiments import (
    ExperimentRunner,
    audit_plan,
    default_configs,
)
from repro.expressions import col
from repro.obs import canonical_json, operator_spans, strip_timing
from repro.service import Session
from repro.workloads import QUERY_BATTERY, PartCorrelationTemplate

from tests.conftest import EXTRA_TPCH, as_planned, execute_recorded
from tests.reference_attribution import reexecuted_spans

FAMILIES = ["tpch", "star", "snowflake"]


@pytest.fixture(scope="module")
def reference(families, planned_trees):
    """``family -> [reexecuted_spans(plan)]``, aligned with the trees."""
    return {
        family: [
            reexecuted_spans(plan, families[family][0])
            for _, plan in planned_trees[family]
        ]
        for family in FAMILIES
    }


def assert_record_matches(plan, record, expected):
    spans, root_counters, root_rows = expected
    assert record[0][0] == root_rows
    assert record[0][1].as_dict() == root_counters.as_dict()
    assert operator_spans(plan, record) == spans


class TestRecordedSpansEqualReexecutedSpans:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_cold(self, family, families, planned_trees, reference):
        database = families[family][0]
        for (_, plan), expected in zip(planned_trees[family], reference[family]):
            ctx, record = execute_recorded(plan, database)
            assert set(ctx.operator_work) == set(plan.walk())
            assert_record_matches(plan, record, expected)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_filling_and_hitting_a_scan_cache(
        self, family, families, planned_trees, reference
    ):
        database = families[family][0]
        for (_, plan), expected in zip(planned_trees[family], reference[family]):
            cache = ScanCache()
            _, filling = execute_recorded(plan, database, cache)
            assert cache.hits == 0 and cache.misses > 0
            _, hitting = execute_recorded(plan, database, cache)
            assert cache.hits > 0
            assert_record_matches(plan, filling, expected)
            assert_record_matches(plan, hitting, expected)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_execution_cache_hit_served_to_another_plan_object(
        self, family, families, planned_trees
    ):
        database = families[family][0]
        cost_model = CostModel()
        session = Session(database, cost_model=cost_model)
        for key, (query, plan) in enumerate(planned_trees[family][::3]):
            # a key per tree: the battery's trees of one statement at
            # different thresholds may share a signature
            fingerprint = f"statement {key}"
            executed, _, _, hit = session._run(
                fingerprint, as_planned(query, plan), served=False
            )
            assert not hit
            twin = copy.deepcopy(plan)
            for op in twin.walk():
                if op.est_rows is not None:
                    op.est_rows = op.est_rows * 3 + 1
            assert twin.signature() == plan.signature()
            served, _, simulated, hit = session._run(
                fingerprint, as_planned(query, twin), served=False
            )
            assert hit
            assert served is executed
            # actuals from the record, estimates from the plan in hand
            expected = reexecuted_spans(twin, database)
            assert_record_matches(twin, served.operators, expected)
            assert (simulated, served.num_rows) == (
                cost_model.time_from_counters(expected[1]),
                expected[2],
            )


class TestSortComparisonsThroughASharedAccumulator:
    """``MergeJoin(Sort(orders), Sort(lineitem))``: the second sort adds
    its ``n·log2(n)`` to an accumulator the first already moved, so its
    recorded charge is ``fl(fl(a + b) - a)``, not the ``b`` a fresh
    context would hold."""

    @pytest.fixture(scope="class")
    def both(self, tpch_db):
        plan = MergeJoin(
            Sort(
                SeqScan("orders", col("orders.o_totalprice") > 13_000.0),
                ["orders.o_orderkey"],
            ),
            Sort(
                SeqScan("lineitem", col("lineitem.l_quantity") > 13),
                ["lineitem.l_orderkey"],
            ),
            "orders.o_orderkey",
            "lineitem.l_orderkey",
        )
        ctx, record = execute_recorded(plan, tpch_db)
        return ctx, operator_spans(plan, record), reexecuted_spans(plan, tpch_db)

    def test_root_is_the_real_accumulator(self, both):
        ctx, spans, (_, root_counters, _) = both
        assert ctx.counters.as_dict() == root_counters.as_dict()

    def test_everything_but_the_float_is_exact(self, both):
        _, spans, (reference, _, _) = both

        def without_the_float(span):
            counters = dict(span["counters"], sort_comparisons=None)
            return dict(span, counters=counters, own_work=None)

        assert [without_the_float(span) for span in spans] == [
            without_the_float(span) for span in reference
        ]

    def test_the_float_is_within_an_ulp_of_the_root_total(self, both):
        ctx, spans, (reference, _, _) = both
        ulp = math.ulp(ctx.counters.sort_comparisons)
        merge, first, _, second, _ = (
            (span["counters"]["sort_comparisons"], span["own_work"])
            for span in spans
        )
        ref_merge, ref_first, _, ref_second, _ = (
            (span["counters"]["sort_comparisons"], span["own_work"])
            for span in reference
        )
        assert first == ref_first
        # the case is real: the second sort's two readings differ ...
        assert second != ref_second
        # ... by no more than an ulp of the accumulator they went through
        assert abs(second[0] - ref_second[0]) <= ulp
        assert abs(second[1] - ref_second[1]) <= ulp
        # and the merge join, which sorts nothing, is charged exactly
        # nothing by the record (the re-executing walker leaves it the
        # rounding residue of total - a - b)
        assert merge[0] == 0.0
        assert 0.0 < abs(ref_merge[0]) <= ulp
        assert abs(merge[1] - ref_merge[1]) <= ulp


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def execution_context_calls() -> list[str]:
    """``path:line`` of each ``ExecutionContext(`` in ``src/`` code.
    Docstrings and comments are STRING and COMMENT tokens, so what
    they say does not count."""
    skipped = {
        tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
        tokenize.INDENT, tokenize.DEDENT,
    }
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        with tokenize.open(path) as source:
            tokens = [
                token for token in tokenize.generate_tokens(source.readline)
                if token.type not in skipped
            ]
        for name, after in zip(tokens, tokens[1:]):
            if (
                name.type == tokenize.NAME
                and name.string == "ExecutionContext"
                and after.string == "("
            ):
                sites.append(f"{path.relative_to(SRC)}:{name.start[0]}")
    return sites


class TestOneExecution:
    STATEMENTS = (
        QUERY_BATTERY["shipping_priority"],
        QUERY_BATTERY["promo_parts"],
        QUERY_BATTERY["top_customers"],
        EXTRA_TPCH[1],
    )

    def test_src_builds_an_execution_context_in_one_place(self):
        sites = execution_context_calls()
        assert len(sites) == 1, sites
        assert sites[0].startswith("repro/service/session.py:")

    def test_traced_statement_builds_one_context_and_runs_each_operator_once(
        self, tpch_db, built_contexts, execute_calls
    ):
        with Session(tpch_db, sample_size=300, statistics_seed=3) as session:
            for sql in self.STATEMENTS:
                built_contexts.clear()
                execute_calls.clear()
                record = session.trace_query(sql, execute=True)
                operators = record["execution"]["operators"]
                assert len(operators) > 1
                assert len(built_contexts) == 1
                assert sorted(execute_calls.values()) == [1] * len(operators)

    def test_audit_builds_one_context(
        self, tpch_db, tpch_stats, built_contexts, execute_calls
    ):
        with Session(tpch_db, statistics=tpch_stats) as session:
            prepared = session.prepare(QUERY_BATTERY["shipping_priority"])
            entries = audit_plan(prepared)
        assert len(entries) == len(list(prepared.plan.walk())) > 1
        assert len(built_contexts) == 1
        assert execute_calls == {op: 1 for op in prepared.plan.walk()}


def run_part_correlation(tpch_db, *, trace, workers=1):
    template = PartCorrelationTemplate()
    low, high = template.param_range()
    params = [
        (p, template.true_selectivity(tpch_db, p))
        for p in (low, (low + high) // 2, high)
    ]
    runner = ExperimentRunner(
        tpch_db,
        template,
        sample_size=200,
        seeds=(0, 1),
        workers=workers,
        trace=trace,
    )
    return runner.run(params, default_configs(thresholds=(0.05, 0.5, 0.95)))


def deterministic_lines(traces):
    """The traces without their clocks."""
    return [canonical_json(strip_timing(trace)) for trace in traces]


class TestTracedExperimentExecutesWhatTheUntracedOneDoes:
    def test_one_context_per_exec_cache_miss(self, tpch_db, built_contexts):
        untraced = run_part_correlation(tpch_db, trace=False)
        built_untraced = len(built_contexts)
        built_contexts.clear()
        traced = run_part_correlation(tpch_db, trace=True)
        assert traced.records == untraced.records
        assert len(traced.traces) == len(traced.records)
        assert len(built_contexts) == built_untraced
        assert len(built_contexts) == traced.perf.exec_cache_misses
        assert 0 < traced.perf.exec_cache_misses < len(traced.records)
        assert any(t["execution"]["cache_hit"] for t in traced.traces)

    def test_traces_independent_of_workers(self, tpch_db):
        serial, parallel = (
            run_part_correlation(tpch_db, trace=True, workers=workers)
            for workers in (1, 2)
        )
        assert parallel.records == serial.records
        assert deterministic_lines(parallel.traces) == deterministic_lines(
            serial.traces
        )
