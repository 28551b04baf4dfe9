"""Accuracy ledger: per-class q-error time series and drift detection.

The tracing layer records how wrong every estimate was; this module
keeps that evidence *alive*. An :class:`AccuracyLedger` ingests one
q-error observation per executed query, groups them by query class
(for the session layer: the sorted table set of the query — one class
per join template), and maintains:

* a bounded recent window of :data:`WINDOW` observations — the
  "q-error time series" behind the feedback report;
* severity classification of the window's p90 against
  :data:`SEVERITY_BANDS`;
* a drift score — the log10 shift of the recent window's geometric
  mean q-error against the class's first :data:`BASELINE`
  observations — exported as ``repro_feedback_drift_score{class=...}``;
* a :class:`~repro.obs.health.DegradationEvent` (reason
  ``"estimation-drift"``) whenever a class's observed severity crosses
  into a *worse* band, which is statistics-staleness detection for
  free: stale statistics show up as accurate classes drifting toward
  catastrophic.

Quantile gauges export as ``repro_feedback_qerror{class,quantile}``
with quantile labels ``p50`` / ``p90`` / ``max`` over the recent
window. The ledger reports; it does not steer planning.
"""

from __future__ import annotations

import math
import threading
from collections import deque

from repro.obs.health import DegradationEvent
from repro.obs.trace import QERROR_FLOOR

#: Severity decision matrix: ``(band name, exclusive upper q-error
#: bound)`` in increasing severity. A q-error below 2 means the
#: estimate was within 2x of the truth; beyond 1000x it is
#: catastrophic and only a conservative plan is safe.
SEVERITY_BANDS = (
    ("accurate", 2.0),
    ("moderate", 10.0),
    ("major", 1000.0),
    ("catastrophic", float("inf")),
)

#: Band name → rank (higher is worse).
SEVERITY_ORDER = {name: rank for rank, (name, _) in enumerate(SEVERITY_BANDS)}

#: Quantiles exported per class through the metrics registry.
QERROR_QUANTILES = ("p50", "p90", "max")

#: Recent-window length per class: severity and quantiles are computed
#: over it, so the ledger adapts when the workload shifts.
WINDOW = 64

#: Initial observations frozen as each class's drift baseline.
BASELINE = 16


def classify_q_error(value: float) -> str:
    """Map one q-error value onto its severity band name."""
    q = max(float(value), 1.0)
    for name, bound in SEVERITY_BANDS:
        if q < bound:
            return name
    return SEVERITY_BANDS[-1][0]


def _window_quantile(values: list[float], fraction: float) -> float:
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(math.ceil(fraction * len(ordered))) - 1)
    return ordered[max(rank, 0)]


class _ClassSeries:
    """Mutable per-class state: recent window, baseline, running sums."""

    __slots__ = ("window", "baseline", "count", "log_sum", "max_q", "severity")

    def __init__(self) -> None:
        self.window: deque[float] = deque(maxlen=WINDOW)
        self.baseline: list[float] = []
        self.count = 0
        self.log_sum = 0.0
        self.max_q = 1.0
        self.severity: str | None = None


class AccuracyLedger:
    """Per-query-class q-error bookkeeping with drift detection.

    Parameters
    ----------
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; when
        given, quantile and drift gauges are kept current on every
        ingest.
    on_degradation:
        Callback invoked with each :class:`DegradationEvent` the
        ledger raises (the session wires its degradation log here).
    """

    def __init__(
        self,
        *,
        registry=None,
        on_degradation=None,
    ) -> None:
        self._lock = threading.Lock()
        self._classes: dict[str, _ClassSeries] = {}
        self._on_degradation = on_degradation
        self.events: list[DegradationEvent] = []
        self._qerror_gauge = None
        self._drift_gauge = None
        if registry is not None:
            self._qerror_gauge = registry.gauge(
                "repro_feedback_qerror",
                "Observed q-error quantiles per query class "
                "(recent window)",
            )
            self._drift_gauge = registry.gauge(
                "repro_feedback_drift_score",
                "log10 shift of recent geometric-mean q-error vs the "
                "class baseline",
            )

    # ------------------------------------------------------------------
    def ingest(
        self,
        query_class: str,
        q_error: float,
        *,
        statistics_version: int = 0,
    ) -> DegradationEvent | None:
        """Record one observed q-error for ``query_class``.

        Returns the :class:`DegradationEvent` raised if this
        observation pushed the class's severity into a worse band,
        else ``None``.
        """
        q = max(float(q_error), 1.0)
        with self._lock:
            series = self._classes.get(query_class)
            if series is None:
                series = _ClassSeries()
                self._classes[query_class] = series
            series.window.append(q)
            if len(series.baseline) < BASELINE:
                series.baseline.append(q)
            series.count += 1
            series.log_sum += math.log10(q)
            series.max_q = max(series.max_q, q)

            severity = classify_q_error(
                _window_quantile(list(series.window), 0.9)
            )
            previous = series.severity
            series.severity = severity
            event = None
            if (
                previous is not None
                and SEVERITY_ORDER[severity] > SEVERITY_ORDER[previous]
            ):
                event = DegradationEvent(
                    reason="estimation-drift",
                    detail=(
                        f"query class {query_class!r} drifted "
                        f"{previous} -> {severity} "
                        f"(window p90 q-error "
                        f"{_window_quantile(list(series.window), 0.9):.1f})"
                    ),
                    component="estimator",
                    statistics_version=statistics_version,
                )
                self.events.append(event)
            self._publish_locked(query_class, series)
        if event is not None and self._on_degradation is not None:
            self._on_degradation(event)
        return event

    # ------------------------------------------------------------------
    def _drift_locked(self, series: _ClassSeries) -> float:
        recent = sum(math.log10(q) for q in series.window) / len(series.window)
        base = sum(math.log10(q) for q in series.baseline) / len(
            series.baseline
        )
        return recent - base

    def _publish_locked(self, query_class: str, series: _ClassSeries) -> None:
        if self._qerror_gauge is None:
            return
        window = list(series.window)
        self._qerror_gauge.set(
            _window_quantile(window, 0.5), **{
                "class": query_class, "quantile": "p50",
            }
        )
        self._qerror_gauge.set(
            _window_quantile(window, 0.9), **{
                "class": query_class, "quantile": "p90",
            }
        )
        self._qerror_gauge.set(
            max(window), **{"class": query_class, "quantile": "max"}
        )
        self._drift_gauge.set(
            self._drift_locked(series), **{"class": query_class}
        )

    # ------------------------------------------------------------------
    def report(self) -> dict:
        """JSON-ready summary: per-class stats over the whole run and
        the recent window."""
        with self._lock:
            out: dict = {}
            for name in sorted(self._classes):
                series = self._classes[name]
                window = list(series.window)
                out[name] = {
                    "count": series.count,
                    "severity": series.severity,
                    "drift_score": self._drift_locked(series),
                    "geomean_q": 10 ** (series.log_sum / series.count),
                    "max_q": series.max_q,
                    "window_p50": _window_quantile(window, 0.5),
                    "window_p90": _window_quantile(window, 0.9),
                }
            return out


# Re-exported here so ledger consumers see the same floor the q-error
# arithmetic uses.
__all__ = [
    "BASELINE",
    "WINDOW",
    "AccuracyLedger",
    "QERROR_FLOOR",
    "QERROR_QUANTILES",
    "SEVERITY_BANDS",
    "SEVERITY_ORDER",
    "classify_q_error",
]
