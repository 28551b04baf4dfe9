"""The traced pass: per-layer metrics from the benchmark's own spans.

Replays the first quarter of a workload's stream twice on fresh
set-ups — once untraced (the baseline of the tracing-overhead ratio),
once with :class:`bench.layers.Tracer` installed — then reads the span
tree and the program's public counters. No end-to-end metric is taken
from here.
"""

from __future__ import annotations

import pathlib
import shutil
import time
import warnings
from collections import defaultdict

import numpy as np

import repro.stats
from repro.obs import MetricsRegistry

from bench.catalogue import LAYERS, PER_LAYER
from bench.statements import draw
from bench.layers import (
    REQUEST,
    Tracer,
    adopt_worker_spans,
    check_tree,
    self_seconds,
    write_jsonl,
)

OUT = pathlib.Path(__file__).resolve().parent / "out"

#: Operator class -> the ``engine.<x>_ms`` metric its self time lands in.
_OPERATOR_METRIC = {
    "SeqScan": "seqscan", "IndexSeek": "indexseek",
    "IndexIntersect": "indexseek", "IndexUnionSeek": "indexseek",
    "Filter": "relops", "Project": "relops", "HashJoin": "hashjoin",
    "MergeJoin": "mergejoin", "IndexedNLJoin": "inljoin",
    "NonEquiJoin": "nonequijoin", "StarSemiJoin": "starsemijoin",
    "HashAggregate": "aggregate", "Sort": "sort", "Limit": "sort",
}
_PREPARES = ("service.prepare", "service.prepare_many")
_WORK_COUNTERS = (
    "seq_pages", "random_ios", "hash_build_rows", "hash_probe_rows",
    "rows_output",
)


def _p(values, q=50.0, scale=1.0) -> float:
    return float(np.percentile(values, q)) * scale if len(values) else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _counter_total(registry, name: str) -> float:
    return float(sum(registry.counter(name).snapshot().values()))


def traced_prefix(requests):
    return requests[: max(len(requests) // 4, min(len(requests), 100))]


def run_traced(workload, scale, requests, seed: int) -> tuple[dict, list[str]]:
    """Per-layer metrics for ``workload`` and any tree violations."""
    prefix = traced_prefix(requests)

    target = workload.set_up(scale, prefix)
    untraced = workload.run(target, prefix)
    untraced_plans = workload.plan_digest(target, prefix, untraced)
    extras = _served_extras(workload, scale, target, prefix, untraced)
    workload.close(target)

    tracer = Tracer()
    with tracer, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        target = workload.set_up(scale, prefix, tracer.estimator_decorator)
        sessions = workload.sessions(target)
        # Counters are cumulative; the loop's share is after - before.
        before = _cumulative(tracer, sessions)
        loop_started = time.perf_counter()
        traced = workload.run(target, prefix, tracer)
        loop_ended = time.perf_counter()
        during = {
            key: value - before[key]
            for key, value in _cumulative(tracer, sessions).items()
        }
        traced_plans = workload.plan_digest(target, prefix, traced)
        _save_and_load(sessions[0])
        counters = _program_counters(workload, target, sessions)
        trace_query_ratio = _trace_query_ratio(workload, sessions, seed)
    workload.close(target)

    spans = tracer.spans()
    if workload.clients > 1:
        tenants = {id(s): name for s, name in zip(sessions, ("a", "b"))}
        spans = adopt_worker_spans(spans, tenants)
    OUT.mkdir(exist_ok=True)
    write_jsonl(spans, OUT / f"trace-{workload.name}.jsonl")

    own = self_seconds(spans)
    metrics = _span_metrics(spans, own, loop_started, loop_ended)
    metrics["obs.metrics_inc_us_p50"] = _metrics_inc_us()
    # Span times are raw: bring each pass's timings to nominal machine
    # speed with that pass's median factor (see bench.calibrate).
    _to_nominal(metrics, traced.calibrator.median())
    _to_nominal(extras, untraced.calibrator.median())
    metrics.update(counters)
    metrics.update(extras)
    metrics["service.plan_cache_hit_rate"] = _ratio(
        during["plan_hits"], during["plan_hits"] + during["plan_misses"]
    )
    metrics["service.plan_cache_evictions"] = during["plan_evictions"]
    metrics["core.memo_hit_rate"] = _ratio(
        during["memo_hits"], during["memo_hits"] + during["memo_misses"]
    )
    # numpy raises them from its own files, so they cannot be told apart
    # by origin; on the seed commit all come from selection/penalty.py.
    metrics["selection.runtime_warnings"] = float(len(caught))
    metrics["engine.scan_cache_hit_rate"] = 1.0 - _ratio(
        during["scan_misses"], during["scan_lookups"]
    )
    metrics["engine.scan_cache_entries"] = float(tracer.scan_misses.value)
    metrics["service.rss_mib_per_1k_requests"] = (
        (traced.rss_mib[-1] - traced.rss_mib[0])
        / (len(prefix) * (1 - 1 / len(traced.rss_mib)))
        * 1000.0
    )
    metrics["optimizer.alternatives_per_plan"] = (
        float(np.mean(traced.alternatives)) if traced.alternatives else 0.0
    )
    metrics["obs.trace_query_overhead_ratio"] = trace_query_ratio
    metrics["obs.missing_spans"] = float(len(tracer.missing))
    metrics["obs.bench_trace_overhead_ratio"] = _ratio(
        float(np.median(traced.normalized_latencies())),
        float(np.median(untraced.normalized_latencies())),
    )
    declared = {m.name for m in PER_LAYER}
    if metrics.keys() != declared:
        raise RuntimeError(f"metrics out of step: {sorted(metrics.keys() ^ declared)}")
    problems = check_tree(spans, own)
    if traced_plans != untraced_plans:
        problems.append("the traced pass chose different plans")
    return metrics, problems


_UNITS = {metric.name: metric.unit for metric in PER_LAYER}


def _to_nominal(metrics: dict, factor: float) -> None:
    for name in metrics:
        if _UNITS[name] in ("us", "ms"):
            metrics[name] /= factor
        elif _UNITS[name] == "1/s":
            metrics[name] *= factor


# ----------------------------------------------------------------------
def _span_metrics(spans, own, loop_started, loop_ended) -> dict:
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    def in_loop(span) -> bool:
        return span.start >= loop_started and span.end <= loop_ended

    loop = [s for s in spans if in_loop(s)]
    seconds = defaultdict(list)  # span name -> durations
    for span in spans:
        # Statistics are built during set-up on three of the four
        # workloads; every other layer counts inside the loop only.
        if in_loop(span) or span.layer == "stats":
            seconds[span.name].append(span.seconds)
    roots = [s for s in loop if s.parent == -1]
    busy = sum(s.seconds for s in roots)
    requests = [s for s in roots if s.name == REQUEST]
    layer_self = defaultdict(float)
    request_service_self = defaultdict(float)
    operator_self = defaultdict(float)
    for span in loop:
        layer_self[span.layer] += own[span.id]
        if span.layer == "service" and span.request != -1:
            request_service_self[span.request] += own[span.id]
        if span.layer == "engine":
            operator_self[_OPERATOR_METRIC[span.name.partition(".")[2]]] += own[
                span.id
            ]

    def child_names(span):
        return {c.name for c in children[span.id]}

    def parent_name(span) -> str:
        return by_id[span.parent].name if span.parent in by_id else ""

    top_prepares = [
        s for s in loop
        if s.name in _PREPARES
        and parent_name(s) in (REQUEST, "serving.serve")
    ]
    prepare_seconds = sum(s.seconds for s in top_prepares)
    hits = [
        s.seconds for s in top_prepares
        if not any(n.startswith("optimizer.") for n in child_names(s))
    ]
    penalty_prepares = [
        s.seconds for s in top_prepares
        if "optimizer.optimize_penalty" in child_names(s)
    ]
    core = [s for s in loop if s.layer == "core"]
    optimizes = [s for s in loop if s.layer == "optimizer"]
    executes = [
        s for s in loop
        if s.layer == "engine" and not parent_name(s).startswith("engine.")
    ]
    work = defaultdict(float)
    for span in loop:
        if span.name == "cost.time_from_counters" and span.tag:
            for name, value in span.tag[0].as_dict().items():
                work[name] += value
    per_1k = 1000.0 / max(len(requests), 1)

    metrics = {
        f"{layer}.self_share": _ratio(layer_self[layer], busy)
        for layer in LAYERS
        if layer != "obs"
    }
    metrics.update(
        {
            "sql.parse_us_p50": _p(seconds["sql.parse_query"], scale=1e6),
            "sql.parse_cache_hit_rate": 1.0
            - _ratio(
                sum(s.name == "sql.parse_query" for s in loop), len(top_prepares)
            ),
            "expressions.classify_us_p50": _p(
                seconds["expressions.classify_conjuncts"]
                + seconds["expressions.split_sargable"],
                scale=1e6,
            ),
            "expressions.expr_key_us_p50": _p(
                seconds["expressions.expr_key"], scale=1e6
            ),
            "service.prepare_hit_us_p50": _p(hits, scale=1e6),
            "service.fingerprint_us_p50": _p(
                seconds["service.query_fingerprint"], scale=1e6
            ),
            "service.self_ms_p50": _p(
                list(request_service_self.values()), scale=1e3
            ),
            "service.prepare_share": _ratio(prepare_seconds, busy),
            "core.estimate_us_p50": _p(seconds["core.estimate"], scale=1e6),
            "core.estimate_many_us_p50": _p(
                seconds["core.estimate_many"], scale=1e6
            ),
            "core.estimate_calls_per_plan": _ratio(len(core), len(optimizes)),
            "core.estimate_busy_share": _ratio(
                sum(s.seconds for s in core), prepare_seconds
            ),
            "selection.sample_quantiles_us_p50": _p(
                seconds["selection.sample_quantiles"], scale=1e6
            ),
            "selection.penalty_prepare_ms_p50": _p(penalty_prepares, scale=1e3),
            "optimizer.optimize_ms_p50": _p(
                seconds["optimizer.optimize"], scale=1e3
            ),
            "optimizer.optimize_many_ms_p50": _p(
                seconds["optimizer.optimize_many"], scale=1e3
            ),
            "optimizer.optimize_penalty_ms_p50": _p(
                seconds["optimizer.optimize_penalty"], scale=1e3
            ),
            "optimizer.self_ms_p50": _p([own[s.id] for s in optimizes], scale=1e3),
            "cost.time_from_counters_us_p50": _p(
                seconds["cost.time_from_counters"], scale=1e6
            ),
            "engine.execute_ms_p50": _p([s.seconds for s in executes], scale=1e3),
            "engine.execute_ms_p95": _p(
                [s.seconds for s in executes], 95, scale=1e3
            ),
            "engine.rows_per_s": _ratio(
                work["cpu_rows"], sum(s.seconds for s in executes)
            ),
            "feedback.observe_us_p50": _p(seconds["feedback.observe"], scale=1e6),
            "stats.update_ms_p50": _p(
                seconds["stats.update_statistics"], scale=1e3
            ),
            "stats.save_ms_p50": _p(seconds["stats.save_statistics"], scale=1e3),
            "stats.load_ms_p50": _p(seconds["stats.load_statistics"], scale=1e3),
            "serving.admit_us_p50": _p(seconds["serving.try_admit"], scale=1e6)
            + _p(seconds["serving.release"], scale=1e6),
        }
    )
    for metric in set(_OPERATOR_METRIC.values()):
        metrics[f"engine.{metric}_ms"] = operator_self[metric] * 1e3 * per_1k
    for name in _WORK_COUNTERS:
        metrics[f"engine.{name}"] = float(work[name])
    return metrics


def _cumulative(tracer, sessions) -> dict:
    """Counters that only ever grow, summed over sessions."""
    cache = [s.cache_stats() for s in sessions]
    estimators = tracer.estimators
    return {
        "plan_hits": float(sum(c["hits"] for c in cache)),
        "plan_misses": float(sum(c["misses"] for c in cache)),
        "plan_evictions": float(sum(c["evictions"] for c in cache)),
        "memo_hits": float(
            sum(getattr(e, "estimate_cache_hits", 0) for e in estimators)
        ),
        "memo_misses": float(
            sum(getattr(e, "estimate_cache_misses", 0) for e in estimators)
        ),
        "scan_lookups": float(tracer.scan_lookups.value),
        "scan_misses": float(tracer.scan_misses.value),
    }


def _program_counters(workload, target, sessions) -> dict:
    """What the program itself counts, read through public accessors."""
    feedbacks = [s.feedback for s in sessions if s.feedback is not None]
    out = {
        "service.replans": sum(
            _counter_total(s.metrics, "repro_session_replans_total")
            for s in sessions
        ),
        "core.fallback_estimates": sum(
            _counter_total(s.metrics, "repro_session_fallback_estimates_total")
            for s in sessions
        ),
        "feedback.store_keys": float(sum(f.store.size() for f in feedbacks)),
        "feedback.generation_bumps": float(sum(f.generation for f in feedbacks)),
        "feedback.stale_hits": float(sum(f.stale_hits() for f in feedbacks)),
        "stats.footprint_bytes": float(
            sum(
                f.sample_bytes + f.histogram_bytes
                for s in sessions
                for f in repro.stats.database_footprint(s.statistics)
            )
        ),
        "serving.shed_total": 0.0,
        "serving.retries_total": 0.0,
        "serving.stale_served_total": 0.0,
    }
    if workload.clients > 1:
        stats = target.stats()
        out["serving.shed_total"] = float(stats["admission"]["shed"])
        out["serving.stale_served_total"] = float(stats["stale_served"])
        out["serving.retries_total"] = _counter_total(
            target.metrics, "repro_serving_retries_total"
        )
    return out


def _save_and_load(session, repeats: int = 3) -> None:
    """Exercise statistics persistence (not on any request path) so its
    spans exist; the archive goes under ``bench/out`` and is removed."""
    directory = OUT / "statistics-archive"
    for _ in range(repeats):
        # Looked up on the module at call time, where the tracer put its
        # wrappers.
        repro.stats.save_statistics(session.statistics, directory)
        repro.stats.load_statistics(session.database, directory)
    shutil.rmtree(directory, ignore_errors=True)


def _trace_query_ratio(workload, sessions, seed: int, count: int = 40) -> float:
    """``Session.trace_query`` (the program's own tracing) over plain
    prepare + execute, on fresh statements neither has planned."""
    statements = draw(workload.families, count, np.random.default_rng([seed, 2]))
    plain = traced = 0.0
    for statement in statements:
        session = next(
            s for s in sessions if statement.spec.root in s.database.table_names
        )
        started = time.perf_counter()
        session.prepare(statement.sql).execute()
        plain += time.perf_counter() - started
        started = time.perf_counter()
        session.trace_query(statement.sql, execute=True)
        traced += time.perf_counter() - started
    return _ratio(traced, plain)


def _metrics_inc_us(batches: int = 200, batch: int = 100) -> float:
    counter = MetricsRegistry().counter("bench_probe_total", "probe")
    samples = []
    for _ in range(batches):
        started = time.perf_counter()
        for _ in range(batch):
            counter.inc(result="hit")
        samples.append((time.perf_counter() - started) / batch)
    return _p(samples, scale=1e6)


def _served_extras(workload, scale, server, prefix, log) -> dict:
    """Serving-layer metrics that need the live server of the untraced
    pass: hand-off, overhead against a direct replay, 1 -> 2 scaling."""
    out = {
        "serving.overhead_us_p50": 0.0,
        "serving.handoff_us_p50": 0.0,
        "serving.scaling_1to2": 0.0,
    }
    if workload.clients == 1:
        return out
    handoffs, overheads = [], []
    for index, (request, reply) in enumerate(zip(prefix, log.replies)):
        if reply is None:
            continue
        handoffs.append(log.latencies[index] - reply.latency_seconds)
        if index % 10 == 0:
            session = server.session(request.tenant)
            started = time.perf_counter()
            prepared = session.prepare(request.statement.sql)
            if request.execute:
                prepared.execute()
            direct = time.perf_counter() - started
            overheads.append(reply.latency_seconds - direct)
    out["serving.handoff_us_p50"] = _p(handoffs, scale=1e6)
    out["serving.overhead_us_p50"] = _p(overheads, scale=1e6)

    # Same stream, fresh server, one worker and one client; the base of
    # the ratio is that configuration's throughput.
    single = workload.set_up(scale, prefix, worker_threads=1)
    base = workload.run(single, prefix, clients=1)
    workload.close(single)
    out["serving.scaling_1to2"] = _ratio(
        float(np.median(log.throughputs())), float(np.median(base.throughputs()))
    )
    return out
