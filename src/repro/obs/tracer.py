"""The tracer the estimators and optimizer record spans into.

A :class:`Tracer` is a lightweight append buffer plus an optional
:class:`~repro.obs.registry.MetricsRegistry`. Components hold a
``tracer`` attribute that is ``None`` by default — the tracing hooks
are a single ``is not None`` check on hot paths, so disabled tracing
is free — and the harness drains the buffer after each pipeline stage
to attach the spans to the owning :class:`~repro.obs.trace.QueryTrace`.

The tracer is deliberately *not* process-global: each worker of a
parallel experiment builds its own, and the coordinator merges the
resulting trace records in seed order, keeping the merged JSONL
deterministic for any worker count.
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import EstimationSpan


class Tracer:
    """Collects spans for the query currently moving through the pipe."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry
        self._estimations: list[dict] = []

    # ------------------------------------------------------------------
    def record_estimation(self, span: EstimationSpan) -> None:
        """Buffer one estimation-evidence span."""
        self._estimations.append(span.as_dict())
        if self.registry is not None:
            self.registry.counter(
                "repro_estimation_spans_total",
                "Estimation evidence lookups recorded by source.",
            ).inc(source=span.source)

    def drain_estimations(self) -> list[dict]:
        """Return buffered estimation spans and reset the buffer."""
        spans = self._estimations
        self._estimations = []
        return spans
