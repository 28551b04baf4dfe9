"""Performance instrumentation for the experiment harness.

The paper's prototype "lacks even basic optimizations such as
memoizing" and pays a 30–40 % estimation overhead (§6.1); the harness
claws that back at experiment scale, and :class:`PerfStats` shows what
each layer bought: cache hit/miss counters and per-phase wall-clock
timers (``stats_build``, ``optimize``, ``execute``), merged across
seeds/workers and exposed on ``ExperimentResult`` so benchmarks can
track the perf trajectory over time. The execution counters are the
seed session's: its execution memo (a hit is a plan whose tree an
earlier arm already ran, answered from that run's record) and its
scan cache (a miss in the memo still shares base-table scans).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PerfStats:
    """Counters and timers for one experiment run.

    Counters and phase timers are summed across seeds (and worker
    processes); ``wall_seconds`` is the end-to-end time observed by the
    coordinating process, so with ``workers > 1`` it is smaller than
    the sum of the phase timers.
    """

    workers: int = 1
    exec_cache_hits: int = 0
    exec_cache_misses: int = 0
    estimate_cache_hits: int = 0
    estimate_cache_misses: int = 0
    #: Base-table scans answered from the shared scan cache instead of
    #: re-filtering (execution-memo *misses* still share leaves).
    scan_cache_hits: int = 0
    scan_cache_misses: int = 0
    #: Posterior inversions answered from a quantile-table row instead
    #: of per-threshold ``betaincinv`` calls.
    lut_hits: int = 0
    #: Multi-threshold ``optimize_many`` passes (each replaces one
    #: ``optimize`` per grouped threshold).
    vector_passes: int = 0
    stats_build_seconds: float = 0.0
    optimize_seconds: float = 0.0
    execute_seconds: float = 0.0
    wall_seconds: float = 0.0

    @property
    def exec_cache_hit_rate(self) -> float:
        total = self.exec_cache_hits + self.exec_cache_misses
        return self.exec_cache_hits / total if total else 0.0

    @property
    def estimate_cache_hit_rate(self) -> float:
        total = self.estimate_cache_hits + self.estimate_cache_misses
        return self.estimate_cache_hits / total if total else 0.0

    @property
    def scan_cache_hit_rate(self) -> float:
        total = self.scan_cache_hits + self.scan_cache_misses
        return self.scan_cache_hits / total if total else 0.0

    def merge(self, other: "PerfStats") -> None:
        """Fold one seed's counters and phase timers into this total."""
        self.exec_cache_hits += other.exec_cache_hits
        self.exec_cache_misses += other.exec_cache_misses
        self.estimate_cache_hits += other.estimate_cache_hits
        self.estimate_cache_misses += other.estimate_cache_misses
        self.scan_cache_hits += other.scan_cache_hits
        self.scan_cache_misses += other.scan_cache_misses
        self.lut_hits += other.lut_hits
        self.vector_passes += other.vector_passes
        self.stats_build_seconds += other.stats_build_seconds
        self.optimize_seconds += other.optimize_seconds
        self.execute_seconds += other.execute_seconds

    def format_summary(self) -> str:
        """Human-readable summary with the derived rates spelled out.

        The raw-counter dump (``as_dict``) kept the hit *rates* and
        LUT counters effectively invisible in ``--perf`` output; this
        is the reporting-side fix for that asymmetry. All ratios guard
        division by zero (a run with no cacheable work prints 0 %).
        """
        exec_total = self.exec_cache_hits + self.exec_cache_misses
        est_total = self.estimate_cache_hits + self.estimate_cache_misses
        lines = [
            "perf summary:",
            f"  workers: {self.workers}",
            f"  execution cache: {self.exec_cache_hits} hits / "
            f"{self.exec_cache_misses} misses over {exec_total} lookups "
            f"({self.exec_cache_hit_rate:.1%} hit rate)",
            f"  estimate cache: {self.estimate_cache_hits} hits / "
            f"{self.estimate_cache_misses} misses over {est_total} lookups "
            f"({self.estimate_cache_hit_rate:.1%} hit rate)",
            f"  scan cache: {self.scan_cache_hits} hits / "
            f"{self.scan_cache_misses} misses "
            f"({self.scan_cache_hit_rate:.1%} hit rate)",
            f"  quantile-table hits: {self.lut_hits}  "
            f"vectorized planning passes: {self.vector_passes}",
            f"  phases: stats {self.stats_build_seconds:.3f}s | "
            f"optimize {self.optimize_seconds:.3f}s | "
            f"execute {self.execute_seconds:.3f}s | "
            f"wall {self.wall_seconds:.3f}s",
        ]
        return "\n".join(lines)

    def publish(self, registry) -> None:
        """Absorb these counters into a
        :class:`~repro.obs.MetricsRegistry` (counters for monotonic
        totals, gauges for the phase timers and derived hit rates)."""
        counts = registry.counter(
            "repro_perf_events_total", "Harness cache/vectorization events."
        )
        counts.inc(self.exec_cache_hits, event="exec_cache_hit")
        counts.inc(self.exec_cache_misses, event="exec_cache_miss")
        counts.inc(self.estimate_cache_hits, event="estimate_cache_hit")
        counts.inc(self.estimate_cache_misses, event="estimate_cache_miss")
        counts.inc(self.scan_cache_hits, event="scan_cache_hit")
        counts.inc(self.scan_cache_misses, event="scan_cache_miss")
        counts.inc(self.lut_hits, event="lut_hit")
        counts.inc(self.vector_passes, event="vector_pass")
        seconds = registry.gauge(
            "repro_phase_seconds", "Summed wall time per harness phase."
        )
        seconds.set(self.stats_build_seconds, phase="stats_build")
        seconds.set(self.optimize_seconds, phase="optimize")
        seconds.set(self.execute_seconds, phase="execute")
        seconds.set(self.wall_seconds, phase="wall")
        rates = registry.gauge(
            "repro_cache_hit_rate", "Cache hit rates (0..1), by cache."
        )
        rates.set(self.exec_cache_hit_rate, cache="execution")
        rates.set(self.estimate_cache_hit_rate, cache="estimate")
        rates.set(self.scan_cache_hit_rate, cache="scan")
        registry.gauge("repro_workers", "Worker processes used.").set(
            self.workers
        )

    def as_dict(self) -> dict:
        """JSON-ready snapshot (used by ``BENCH_runner.json``)."""
        return {
            "workers": self.workers,
            "exec_cache_hits": self.exec_cache_hits,
            "exec_cache_misses": self.exec_cache_misses,
            "exec_cache_hit_rate": round(self.exec_cache_hit_rate, 4),
            "estimate_cache_hits": self.estimate_cache_hits,
            "estimate_cache_misses": self.estimate_cache_misses,
            "estimate_cache_hit_rate": round(self.estimate_cache_hit_rate, 4),
            "scan_cache_hits": self.scan_cache_hits,
            "scan_cache_misses": self.scan_cache_misses,
            "scan_cache_hit_rate": round(self.scan_cache_hit_rate, 4),
            "lut_hits": self.lut_hits,
            "vector_passes": self.vector_passes,
            "stats_build_seconds": round(self.stats_build_seconds, 4),
            "optimize_seconds": round(self.optimize_seconds, 4),
            "execute_seconds": round(self.execute_seconds, 4),
            "wall_seconds": round(self.wall_seconds, 4),
        }
