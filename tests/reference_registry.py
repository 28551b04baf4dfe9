"""The metrics registry as it was before label keys were resolved once.

Kept as the reference the differential test
(``tests/test_reference_registry.py``) drives beside
``repro.obs.registry``: every call sorts and stringifies its labels,
and a histogram observe walks every bucket, bumping each bound the
value is at or under, so its counts are cumulative as stored. Slower,
and by construction the same exports: ``to_json()`` and
``to_prometheus()`` of the two must match for any script of calls,
except that this one spells a NaN and a negative infinity in
Prometheus text as ``nan`` and ``-inf``.
"""

from __future__ import annotations

import threading

from repro.obs.registry import DEFAULT_BUCKETS, MetricsError


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition spec.

    Backslash, double quote, and newline are the three characters the
    format reserves inside quoted label values.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(key: tuple) -> str:
    if not key:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in key
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing value, one series per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._series: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise MetricsError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        key = _label_key(labels)
        with self._lock:
            return self._series.get(key, 0.0)

    def _copy_series(self) -> list[tuple[tuple, float]]:
        with self._lock:
            return sorted(self._series.items())

    def snapshot(self) -> dict:
        return {
            _format_labels(key) or "": value
            for key, value in self._copy_series()
        }

    def prometheus_lines(self) -> list[str]:
        return [
            f"{self.name}{_format_labels(key)} {_format_value(value)}"
            for key, value in self._copy_series()
        ]


class Gauge(Counter):
    """A value that can move both ways (timers, pool sizes, ratios)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount


class Histogram:
    """Cumulative-bucket histogram with sum and count, per label set."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise MetricsError(f"histogram {name} needs at least one bucket")
        self._lock = threading.Lock()
        self._series: dict[tuple, dict] = {}

    def _slot(self, key: tuple) -> dict:
        # Callers must hold self._lock: slot creation is a check-then-
        # insert that would otherwise drop a racing thread's slot.
        slot = self._series.get(key)
        if slot is None:
            slot = {
                "buckets": [0] * len(self.buckets),
                "sum": 0.0,
                "count": 0,
            }
            self._series[key] = slot
        return slot

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            slot = self._slot(key)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    slot["buckets"][i] += 1
            slot["sum"] += float(value)
            slot["count"] += 1

    def _copy_series(self) -> list[tuple[tuple, dict]]:
        with self._lock:
            return [
                (
                    key,
                    {
                        "buckets": list(slot["buckets"]),
                        "sum": slot["sum"],
                        "count": slot["count"],
                    },
                )
                for key, slot in sorted(self._series.items())
            ]

    def snapshot(self) -> dict:
        out = {}
        for key, slot in self._copy_series():
            out[_format_labels(key) or ""] = {
                "buckets": {
                    _format_value(bound): slot["buckets"][i]
                    for i, bound in enumerate(self.buckets)
                },
                "sum": slot["sum"],
                "count": slot["count"],
            }
        return out

    def prometheus_lines(self) -> list[str]:
        lines = []
        for key, slot in self._copy_series():
            for i, bound in enumerate(self.buckets):
                labels = dict(key)
                labels["le"] = _format_value(bound)
                lines.append(
                    f"{self.name}_bucket{_format_labels(_label_key(labels))}"
                    f" {slot['buckets'][i]}"
                )
            inf_labels = dict(key)
            inf_labels["le"] = "+Inf"
            lines.append(
                f"{self.name}_bucket{_format_labels(_label_key(inf_labels))}"
                f" {slot['count']}"
            )
            lines.append(
                f"{self.name}_sum{_format_labels(key)}"
                f" {_format_value(slot['sum'])}"
            )
            lines.append(
                f"{self.name}_count{_format_labels(key)} {slot['count']}"
            )
        return lines


class MetricsRegistry:
    """Get-or-create home for every metric the pipeline reports."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, cls, name: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise MetricsError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, requested {cls.kind}"
                    )
                return existing
            metric = cls(name, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help=help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help=help, buckets=buckets)

    def _metrics_snapshot(self) -> list[tuple[str, Counter | Gauge | Histogram]]:
        with self._lock:
            return list(self._metrics.items())

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """A nested snapshot: ``{name: {kind, help, series}}``."""
        return {
            name: {
                "kind": metric.kind,
                "help": metric.help,
                "series": metric.snapshot(),
            }
            for name, metric in self._metrics_snapshot()
        }

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (one block per metric)."""
        lines: list[str] = []
        for name, metric in self._metrics_snapshot():
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric.prometheus_lines())
        return "\n".join(lines) + ("\n" if lines else "")
