"""Every workload and metric the benchmark declares.

``BENCHMARK.json`` carries the same names, units and bounds in the
driver's schema; ``test_bench.py`` checks the two agree. What the
driver's schema has no room for lives only here: what each metric is,
and for each per-layer metric which end-to-end metric on which workload
it is expected to move (``moves``); everywhere else the prediction is
*no change*. Every timed value is reported at nominal machine speed
(``bench.calibrate``).
"""

from __future__ import annotations

from dataclasses import dataclass

RUN_SECONDS = 20

WORKLOADS = {
    "plan_cold": (
        "never-repeated statements over TPC-H/star/snowflake under three "
        "policies: planning (sql, expressions, core, selection, optimizer) "
        "does the work and every cache misses"
    ),
    "exec_scale": (
        "distinct statements on 600k-row TPC-H: the engine does the work, "
        "planning is a few percent, scan-cache memory grows"
    ),
    "served_hot": (
        "2 tenants, 2 workers, 2 clients over a Zipf hot set: plan and scan "
        "caches hit, so serving hand-off, locks and cached paths do the work"
    ),
    "feedback_churn": (
        "hot set with feedback harvest and a statistics refresh every 50 "
        "requests: the same caches on their write and invalidation path"
    ),
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which it may worsen.
    bound: float
    what: str


END_TO_END = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "database build + statistics + session/server construction + "
        "warm-up pass (median of 3 set-ups in the run)",
    ),
    EndToEnd(
        "throughput_qps", "1/s", "higher", 0.25,
        "completed requests per second of timed wall (median over the "
        "run's 20 equal segments)",
    ),
    EndToEnd(
        "request_ms_p50", "ms", "lower", 0.25,
        "client-observed latency of one request (prepare + execute, or serve)",
    ),
    EndToEnd(
        "request_ms_p95", "ms", "lower", 0.25,
        "95th percentile of the same, pooled over the run (every run has "
        "at least 25 samples beyond it)",
    ),
    EndToEnd(
        "cpu_ms_per_request", "ms", "lower", 0.25,
        "process CPU time of the timed segments / completed requests",
    ),
    EndToEnd(
        "peak_rss_mib", "MiB", "lower", 0.10,
        "ru_maxrss when the timed loop ends (one workload per process)",
    ),
    EndToEnd(
        "sim_seconds_mean", "sim_s", "lower", 0.10,
        "mean simulated seconds of executed plans: the paper's average "
        "execution time; exact for one seed",
    ),
    EndToEnd(
        "sim_seconds_std", "sim_s", "lower", 0.15,
        "its standard deviation: the paper's variability axis; exact for "
        "one seed",
    ),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: (end-to-end metric, workload) this metric is expected to move.
    moves: tuple
    #: True when the value must repeat exactly for one seed.
    exact: bool = False

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]


def _layer(prefix, moves, *metrics):
    out = []
    for metric in metrics:
        name, unit, better, *flags = metric
        out.append(
            PerLayer(f"{prefix}.{name}", unit, better, moves, "exact" in flags)
        )
    return out


_COLD_P50 = ("request_ms_p50", "plan_cold")

PER_LAYER = tuple(
    _layer(
        "sql", _COLD_P50,
        ("parse_us_p50", "us", "lower"),
        ("parse_cache_hit_rate", "ratio", "higher", "exact"),
        ("self_share", "ratio", "lower"),
    )
    + _layer(
        "expressions", _COLD_P50,
        ("classify_us_p50", "us", "lower"),
        ("expr_key_us_p50", "us", "lower"),
        ("self_share", "ratio", "lower"),
    )
    + _layer(
        "service", ("throughput_qps", "served_hot"),
        ("prepare_hit_us_p50", "us", "lower"),
        ("fingerprint_us_p50", "us", "lower"),
        ("self_ms_p50", "ms", "lower"),
        ("plan_cache_hit_rate", "ratio", "higher", "exact"),
        ("plan_cache_evictions", "count", "lower", "exact"),
        ("replans", "count", "lower", "exact"),
        ("prepare_share", "ratio", "lower"),
        ("self_share", "ratio", "lower"),
        ("rss_mib_per_1k_requests", "MiB", "lower"),
    )
    + _layer(
        "core", _COLD_P50,
        ("estimate_us_p50", "us", "lower"),
        ("estimate_many_us_p50", "us", "lower"),
        ("estimate_calls_per_plan", "count", "lower", "exact"),
        ("estimate_busy_share", "ratio", "lower"),
        ("memo_hit_rate", "ratio", "higher", "exact"),
        ("fallback_estimates", "count", "lower", "exact"),
        ("self_share", "ratio", "lower"),
    )
    + _layer(
        "selection", ("request_ms_p95", "plan_cold"),
        ("sample_quantiles_us_p50", "us", "lower"),
        ("penalty_prepare_ms_p50", "ms", "lower"),
        ("runtime_warnings", "count", "lower", "exact"),
        ("self_share", "ratio", "lower"),
    )
    + _layer(
        "optimizer", ("throughput_qps", "plan_cold"),
        ("optimize_ms_p50", "ms", "lower"),
        ("optimize_many_ms_p50", "ms", "lower"),
        ("optimize_penalty_ms_p50", "ms", "lower"),
        ("self_ms_p50", "ms", "lower"),
        ("alternatives_per_plan", "count", "lower", "exact"),
        ("self_share", "ratio", "lower"),
    )
    + _layer(
        "cost", _COLD_P50,
        ("time_from_counters_us_p50", "us", "lower"),
        ("self_share", "ratio", "lower"),
    )
    + _layer(
        "engine", ("throughput_qps", "exec_scale"),
        ("execute_ms_p50", "ms", "lower"),
        ("execute_ms_p95", "ms", "lower"),
        ("rows_per_s", "1/s", "higher"),
        ("scan_cache_hit_rate", "ratio", "higher"),
        ("scan_cache_entries", "count", "lower"),
        ("seqscan_ms", "ms", "lower"),
        ("indexseek_ms", "ms", "lower"),
        ("relops_ms", "ms", "lower"),
        ("hashjoin_ms", "ms", "lower"),
        ("mergejoin_ms", "ms", "lower"),
        ("inljoin_ms", "ms", "lower"),
        ("nonequijoin_ms", "ms", "lower"),
        ("starsemijoin_ms", "ms", "lower"),
        ("aggregate_ms", "ms", "lower"),
        ("sort_ms", "ms", "lower"),
        ("seq_pages", "count", "lower", "exact"),
        ("random_ios", "count", "lower", "exact"),
        ("hash_build_rows", "count", "lower", "exact"),
        ("hash_probe_rows", "count", "lower", "exact"),
        ("rows_output", "count", "lower", "exact"),
        ("self_share", "ratio", "lower"),
    )
    + _layer(
        "feedback", ("request_ms_p50", "feedback_churn"),
        ("observe_us_p50", "us", "lower"),
        ("store_keys", "count", "lower", "exact"),
        ("generation_bumps", "count", "lower", "exact"),
        ("stale_hits", "count", "lower", "exact"),
        ("self_share", "ratio", "lower"),
    )
    + _layer(
        "stats", ("throughput_qps", "feedback_churn"),
        ("update_ms_p50", "ms", "lower"),
        ("footprint_bytes", "bytes", "lower"),
        ("save_ms_p50", "ms", "lower"),
        ("load_ms_p50", "ms", "lower"),
        ("self_share", "ratio", "lower"),
    )
    + _layer(
        "serving", ("throughput_qps", "served_hot"),
        ("overhead_us_p50", "us", "lower"),
        ("handoff_us_p50", "us", "lower"),
        ("admit_us_p50", "us", "lower"),
        ("shed_total", "count", "lower"),
        ("retries_total", "count", "lower"),
        ("stale_served_total", "count", "lower", "exact"),
        ("scaling_1to2", "ratio", "higher"),
        ("self_share", "ratio", "lower"),
    )
    + _layer(
        "obs", ("throughput_qps", "served_hot"),
        ("metrics_inc_us_p50", "us", "lower"),
        ("trace_query_overhead_ratio", "ratio", "lower"),
        ("bench_trace_overhead_ratio", "ratio", "lower"),
        ("missing_spans", "count", "lower", "exact"),
    )
)

#: Layers of ``src/repro`` on the request path, in request order.
LAYERS = tuple(dict.fromkeys(metric.layer for metric in PER_LAYER))


def benchmark_json() -> dict:
    """The declaration in the driver's schema."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
