"""Tests of the benchmark harness itself, at ``--scale smoke``.

Run with ``PYTHONPATH=src python -m pytest bench -q``; outside tier-1's
``testpaths`` on purpose (they test the ruler, not the program).
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

from bench import history, run
from bench.catalogue import (
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
    benchmark_json,
)
from bench.layers import Span, Tracer, check_tree, self_seconds
from bench.reference import same
from bench.statements import stream_sha
from bench.traced import run_traced
from bench.workloads import SCALES, build_workloads, request_count

BENCH = pathlib.Path(__file__).resolve().parent
SMOKE = SCALES["smoke"]
SECONDS = 3.0


@pytest.fixture(scope="module")
def workloads():
    return build_workloads()


def _requests(workload, seed=7):
    return workload.requests(seed, request_count(workload, SMOKE, SECONDS))


# ----------------------------------------------------------------------
# The declaration
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_catalogue():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert declared == benchmark_json()


def test_declaration_is_well_formed():
    declared = benchmark_json()
    assert len(declared["workloads"]) == 4
    assert len(declared["end_to_end"]) == len(END_TO_END) <= 16
    assert len(declared["per_layer"]) <= 128
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in declared["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])


def test_every_layer_metric_names_a_target_that_exists():
    metrics = {m.name for m in END_TO_END}
    for metric in PER_LAYER:
        moved, workload = metric.moves
        assert moved in metrics, metric
        assert workload in WORKLOADS, metric


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_streams_are_a_function_of_the_seed(workloads, name):
    workload = workloads[name]
    assert stream_sha(_requests(workload, 7)) == stream_sha(_requests(workload, 7))
    assert stream_sha(_requests(workload, 7)) != stream_sha(_requests(workload, 8))


@pytest.mark.parametrize("name", ["plan_cold", "exec_scale"])
def test_cold_streams_never_repeat_a_statement(workloads, name):
    workload = workloads[name]
    requests = workload.requests(7, request_count(workload, SCALES["full"], 20))
    texts = [request.statement.sql for request in requests]
    assert len(texts) == len(set(texts))


# ----------------------------------------------------------------------
# The passes emit what is declared, and answers are checked
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_pass_emits_every_end_to_end_metric(workloads, name):
    workload = workloads[name]
    metrics, checks, failed = run.run_untraced(
        workload, SMOKE, _requests(workload), seed=7
    )
    assert metrics.keys() == {m.name for m in END_TO_END}
    assert all(value > 0 for value in metrics.values()), metrics
    assert failed == 0
    assert set(checks) == {
        "stream_sha", "plan_digest", "result_digest", "machine_factor",
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_pass_emits_every_layer_metric_over_a_sound_tree(workloads, name):
    workload = workloads[name]
    metrics, problems = run_traced(workload, SMOKE, _requests(workload), seed=7)
    assert metrics.keys() == {m.name for m in PER_LAYER}
    assert problems == []
    assert metrics["obs.missing_spans"] == 0
    assert metrics["obs.bench_trace_overhead_ratio"] > 0
    # The tracer put every callable back.
    from repro.service import Session

    assert not hasattr(Session.prepare, "__wrapped__")


def test_a_wrong_answer_is_counted(workloads):
    workload = workloads["feedback_churn"]
    requests = _requests(workload)
    target = workload.set_up(SMOKE, requests)
    log = workload.run(target, requests)
    assert workload.wrong_answers(target, requests, log, seed=7) == 0
    for result in log.results:
        first = next(iter(result))
        result[first] = [value + 1 for value in result[first]]
    assert workload.wrong_answers(target, requests, log, seed=7) > 0
    workload.close(target)


def test_reference_comparison_tolerates_only_rounding():
    assert same({"n": [3.0], "s": [1e9]}, {"n": [3.0], "s": [1e9 * (1 + 1e-12)]})
    assert not same({"n": [3.0]}, {"n": [4.0]})
    assert not same({"n": [3.0]}, {"n": [3.0, 3.0]})
    assert same({"a": [float("nan")]}, {"a": [float("nan")]})


def test_driver_mode_prints_the_result_object_last():
    done = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"), "--workload", "served_hot",
            "--seed", "3", "--seconds", "2", "--trace", "0", "--scale", "smoke",
        ],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m.name for m in END_TO_END}
    assert all(set(v) == {"value", "unit"} for v in result["metrics"].values())


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def _span(id, parent, name, start, end, request=0):
    return Span(id, parent, name, start, end, request, thread=1)


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        _span(0, -1, "bench.request", 0.0, 10.0),
        _span(1, 0, "service.prepare", 1.0, 6.0),
        _span(2, 1, "optimizer.optimize", 2.0, 5.0),
        _span(3, 0, "service.execute", 6.0, 9.0),
    ]
    own = self_seconds(spans)
    assert own == {0: 2.0, 1: 2.0, 2: 3.0, 3: 3.0}
    assert check_tree(spans) == []


def test_a_child_outside_its_parent_is_reported():
    spans = [
        _span(0, -1, "bench.request", 0.0, 1.0),
        _span(1, 0, "service.prepare", 0.5, 2.0),
    ]
    assert any("escapes" in problem for problem in check_tree(spans))


def test_a_vanished_callable_is_missing_not_fatal():
    tracer = Tracer()
    tracer._replace("sql.gone", "repro.sql", "no_such_function", lambda f: f)
    tracer._replace("gone.module", "repro.no_such_module", "f", lambda f: f)
    assert tracer.missing == ["sql.gone", "gone.module"]
    tracer.uninstall()


# ----------------------------------------------------------------------
# History
# ----------------------------------------------------------------------
def test_worsening_follows_the_metric_direction():
    by_name = {m.name: m for m in END_TO_END}
    assert history.worsening(by_name["request_ms_p50"], 10.0, 12.0) == pytest.approx(0.2)
    assert history.worsening(by_name["throughput_qps"], 100.0, 80.0) == pytest.approx(0.2)
    assert history.worsening(by_name["throughput_qps"], 100.0, 120.0) < 0


def test_repeats_must_match_on_digests_and_exact_counters():
    record = {
        "end_to_end": {m.name: 1.0 for m in END_TO_END},
        "per_layer": {m.name: 1.0 for m in PER_LAYER},
        "checks": {"stream_sha": "a", "plan_digest": "b", "result_digest": "c"},
    }
    assert history.disagreements(record, record)[1] == []
    other = json.loads(json.dumps(record))
    other["checks"]["plan_digest"] = "z"
    other["per_layer"]["engine.seq_pages"] = 2.0
    other["end_to_end"]["throughput_qps"] = 2.0
    problems = history.disagreements(record, other)[1]
    assert any("plan_digest" in p for p in problems)
    assert any("engine.seq_pages" in p for p in problems)
    assert any("throughput_qps" in p for p in problems)


# ----------------------------------------------------------------------
def test_the_harness_never_sleeps():
    for path in BENCH.glob("*.py"):
        if path.name != pathlib.Path(__file__).name:
            assert "sleep" not in path.read_text(), path
