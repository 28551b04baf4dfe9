"""Tests for the metrics registry (counters, gauges, histograms)."""

import sys
import threading
from contextlib import contextmanager

import pytest

from repro.experiments.perf import PerfStats
from repro.obs import MetricsRegistry
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("requests_total")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labeled_series_are_independent(self):
        c = Counter("lookups_total")
        c.inc(config="T=5%")
        c.inc(3, config="T=95%")
        assert c.value(config="T=5%") == 1
        assert c.value(config="T=95%") == 3
        assert c.value(config="other") == 0

    def test_cannot_decrease(self):
        c = Counter("x")
        with pytest.raises(MetricsError):
            c.inc(-1)

    def test_prometheus_lines_sorted_and_labeled(self):
        c = Counter("hits_total")
        c.inc(2, kind="b")
        c.inc(1, kind="a")
        assert c.prometheus_lines() == [
            'hits_total{kind="a"} 1',
            'hits_total{kind="b"} 2',
        ]


class TestGauge:
    def test_nan_and_infinities_use_the_exposition_spelling(self):
        g = Gauge("g")
        g.set(float("nan"), a="x")
        g.set(float("-inf"), a="y")
        g.set(float("inf"), a="z")
        assert g.prometheus_lines() == [
            'g{a="x"} NaN',
            'g{a="y"} -Inf',
            'g{a="z"} +Inf',
        ]

    def test_set_moves_both_ways(self):
        g = Gauge("pool_size")
        g.set(5)
        g.set(2)
        assert g.value() == 2

    def test_inc_allows_negative(self):
        g = Gauge("delta")
        g.inc(-1.5)
        assert g.value() == -1.5


class TestHistogram:
    def test_cumulative_buckets(self):
        h = Histogram("latency", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        snap = h.snapshot()[""]
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(5.55)
        assert snap["buckets"] == {"0.1": 1, "1": 2, "10": 3}

    def test_needs_buckets(self):
        with pytest.raises(MetricsError):
            Histogram("empty", buckets=())

    def test_prometheus_includes_inf_sum_count(self):
        h = Histogram("t", buckets=(1.0,))
        h.observe(0.5)
        h.observe(2.0)
        lines = h.prometheus_lines()
        assert 't_bucket{le="1"} 1' in lines
        assert 't_bucket{le="+Inf"} 2' in lines
        assert "t_sum 2.5" in lines
        assert "t_count 2" in lines


class TestRegistry:
    def test_get_or_create_returns_same_metric(self):
        reg = MetricsRegistry()
        a = reg.counter("c", "help text")
        b = reg.counter("c")
        assert a is b

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(MetricsError):
            reg.gauge("m")

    def test_to_json_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("c", "things").inc(4, lane="1")
        snap = reg.to_json()
        assert snap["c"]["kind"] == "counter"
        assert snap["c"]["help"] == "things"
        assert snap["c"]["series"] == {'{lane="1"}': 4}

    def test_to_prometheus_has_help_and_type(self):
        reg = MetricsRegistry()
        reg.gauge("g", "a gauge").set(1.5)
        text = reg.to_prometheus()
        assert "# HELP g a gauge\n" in text
        assert "# TYPE g gauge\n" in text
        assert "g 1.5" in text
        assert text.endswith("\n")

    def test_empty_registry_exports_empty(self):
        reg = MetricsRegistry()
        assert reg.to_prometheus() == ""
        assert reg.to_json() == {}


@contextmanager
def _aggressive_preemption():
    """Force thread switches between adjacent bytecodes.

    The pre-fix registry mutated series dicts with unguarded
    read-modify-write sequences; shrinking the switch interval makes
    the interleaving that loses updates near-certain within a few
    thousand iterations instead of one-in-a-million.
    """
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def _hammer(n_threads: int, fn) -> None:
    barrier = threading.Barrier(n_threads)

    def run(idx: int) -> None:
        barrier.wait()
        fn(idx)

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestConcurrency:
    """Regression tests: these fail on the pre-fix unguarded registry."""

    ITERS = 4000
    THREADS = 4

    def test_counter_increments_are_not_lost(self):
        c = Counter("contended_total")
        with _aggressive_preemption():
            _hammer(
                self.THREADS,
                lambda idx: [c.inc() for _ in range(self.ITERS)],
            )
        assert c.value() == self.THREADS * self.ITERS

    def test_labeled_child_creation_is_not_lost(self):
        # Every thread touches a mix of shared and private label sets,
        # half of them spelled in the other keyword order; pre-fix,
        # racing first-touch creations dropped whole series.
        c = Counter("labeled_total")

        def spelled(idx: int, i: int) -> dict:
            labels = {"shard": str(i % 8), "side": "x"}
            return labels if idx % 2 else dict(reversed(labels.items()))

        with _aggressive_preemption():
            _hammer(
                self.THREADS,
                lambda idx: [
                    c.inc(**spelled(idx, i)) for i in range(self.ITERS)
                ],
            )
        total = sum(c.value(shard=str(s), side="x") for s in range(8))
        assert total == self.THREADS * self.ITERS
        assert len(c.snapshot()) == 8

    def test_histogram_observations_are_not_lost(self):
        h = Histogram("contended_latency", buckets=(0.5, 1.0))
        with _aggressive_preemption():
            _hammer(
                self.THREADS,
                lambda idx: [h.observe(0.25) for _ in range(self.ITERS)],
            )
        snap = h.snapshot()[""]
        assert snap["count"] == self.THREADS * self.ITERS
        assert snap["buckets"]["0.5"] == self.THREADS * self.ITERS

    def test_gauge_inc_is_not_lost(self):
        g = Gauge("contended_gauge")
        with _aggressive_preemption():
            _hammer(
                self.THREADS,
                lambda idx: [g.inc(1.0) for _ in range(self.ITERS)],
            )
        assert g.value() == self.THREADS * self.ITERS

    def test_registry_registration_race_yields_one_metric(self):
        reg = MetricsRegistry()
        seen = []
        with _aggressive_preemption():
            _hammer(
                8,
                lambda idx: seen.append(reg.counter("raced_total")),
            )
        assert all(m is seen[0] for m in seen)
        seen[0].inc()
        assert reg.to_json()["raced_total"]["series"] == {"": 1}

    def test_export_is_consistent_under_concurrent_writes(self):
        # A snapshot taken mid-traffic parses cleanly and never shows
        # a torn histogram slot (count behind the +Inf bucket line).
        reg = MetricsRegistry()
        h = reg.histogram("live_latency", buckets=(1.0,))
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                h.observe(0.5, tenant="a")
                reg.counter("live_total").inc(tenant="a")

        t = threading.Thread(target=writer)
        t.start()
        try:
            for _ in range(200):
                text = reg.to_prometheus()
                assert text.endswith("\n")
                snap = reg.to_json()
                for series in snap["live_latency"]["series"].values():
                    assert series["buckets"]["1"] == series["count"]
        finally:
            stop.set()
            t.join()


class TestPerfStatsReporting:
    def test_format_summary_shows_rates_and_lut(self):
        p = PerfStats(
            exec_cache_hits=3,
            exec_cache_misses=1,
            estimate_cache_hits=1,
            estimate_cache_misses=3,
            lut_hits=42,
        )
        text = p.format_summary()
        assert "75.0% hit rate" in text
        assert "25.0% hit rate" in text
        assert "quantile-table hits: 42" in text

    def test_format_summary_guards_zero_division(self):
        text = PerfStats().format_summary()
        assert "0.0% hit rate" in text

    def test_publish_into_registry(self):
        p = PerfStats(
            workers=2,
            exec_cache_hits=6,
            exec_cache_misses=2,
            lut_hits=9,
            wall_seconds=1.5,
        )
        reg = MetricsRegistry()
        p.publish(reg)
        events = reg.counter("repro_perf_events_total")
        assert events.value(event="exec_cache_hit") == 6
        assert events.value(event="lut_hit") == 9
        rates = reg.gauge("repro_cache_hit_rate")
        assert rates.value(cache="execution") == pytest.approx(0.75)
        assert reg.gauge("repro_phase_seconds").value(phase="wall") == 1.5
        assert reg.gauge("repro_workers").value() == 2


class TestLabelEscaping:
    """Adversarial label values must stay one valid exposition line."""

    def test_backslash_quote_and_newline_escaped(self):
        c = Counter("adversarial_total")
        c.inc(path='C:\\tmp\\"x"\nend')
        (line,) = c.prometheus_lines()
        assert "\n" not in line
        assert 'path="C:\\\\tmp\\\\\\"x\\"\\nend"' in line

    def test_newline_value_cannot_forge_extra_series(self):
        # A hostile value that would inject a whole fake series if the
        # newline survived; the exposition must stay line-per-series.
        registry = MetricsRegistry()
        registry.counter("forgery_total", "help").inc(
            q='a"} 999\nforged_total{q="b'
        )
        lines = registry.to_prometheus().strip().split("\n")
        series = [line for line in lines if not line.startswith("#")]
        assert len(series) == 1
        assert "\\n" in series[0]
        assert not any(line.startswith("forged_total") for line in lines)

    def test_plain_values_unchanged(self):
        c = Counter("plain_total")
        c.inc(config="T=95%")
        (line,) = c.prometheus_lines()
        assert 'config="T=95%"' in line

    def test_escaped_labels_roundtrip_value_lookup(self):
        g = Gauge("adversarial_gauge")
        hostile = 'multi\nline"quoted"\\backslash'
        g.set(4.2, name=hostile)
        assert g.value(name=hostile) == 4.2
