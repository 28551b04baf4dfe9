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


def _nearest_rank(ordered: list[float], fraction: float) -> float:
    """Nearest-rank quantile of a non-empty sorted list."""
    rank = min(len(ordered) - 1, int(math.ceil(fraction * len(ordered))) - 1)
    return ordered[max(rank, 0)]


class _ClassSeries:
    """Mutable per-class state: recent window (and its log10s, in
    window order), baseline, running sums."""

    __slots__ = (
        "window", "window_logs", "baseline", "baseline_mean", "count",
        "log_sum", "max_q", "severity",
    )

    def __init__(self) -> None:
        self.window: deque[float] = deque(maxlen=WINDOW)
        self.window_logs: deque[float] = deque(maxlen=WINDOW)
        self.baseline: list[float] = []
        #: The baseline's log10 mean, once it holds BASELINE entries.
        self.baseline_mean: float | None = None
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
            log_q = math.log10(q)
            series.window.append(q)
            series.window_logs.append(log_q)
            if len(series.baseline) < BASELINE:
                series.baseline.append(q)
                if len(series.baseline) == BASELINE:
                    series.baseline_mean = _log_mean(series.baseline)
            series.count += 1
            series.log_sum += log_q
            series.max_q = max(series.max_q, q)

            ordered = sorted(series.window)
            p90 = _nearest_rank(ordered, 0.9)
            severity = classify_q_error(p90)
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
                        f"(window p90 q-error {p90:.1f})"
                    ),
                    component="estimator",
                    statistics_version=statistics_version,
                )
                self.events.append(event)
            self._publish_locked(query_class, series, ordered, p90)
        if event is not None and self._on_degradation is not None:
            self._on_degradation(event)
        return event

    # ------------------------------------------------------------------
    def _drift_locked(self, series: _ClassSeries) -> float:
        recent = sum(series.window_logs) / len(series.window_logs)
        base = series.baseline_mean
        if base is None:
            base = _log_mean(series.baseline)
        return recent - base

    def _publish_locked(
        self, query_class: str, series: _ClassSeries, ordered: list, p90: float
    ) -> None:
        """Refresh ``query_class``'s gauges from its sorted window."""
        if self._qerror_gauge is None:
            return
        self._qerror_gauge.set(
            _nearest_rank(ordered, 0.5), **{
                "class": query_class, "quantile": "p50",
            }
        )
        self._qerror_gauge.set(
            p90, **{"class": query_class, "quantile": "p90"}
        )
        self._qerror_gauge.set(
            ordered[-1], **{"class": query_class, "quantile": "max"}
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
                ordered = sorted(series.window)
                out[name] = {
                    "count": series.count,
                    "severity": series.severity,
                    "drift_score": self._drift_locked(series),
                    "geomean_q": 10 ** (series.log_sum / series.count),
                    "max_q": series.max_q,
                    "window_p50": _nearest_rank(ordered, 0.5),
                    "window_p90": _nearest_rank(ordered, 0.9),
                }
            return out


def _log_mean(values: list[float]) -> float:
    """Mean log10 of ``values``, summed in order."""
    return sum(math.log10(q) for q in values) / len(values)


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
