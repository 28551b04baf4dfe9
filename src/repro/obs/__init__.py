"""Observability: query tracing, execution provenance, and metrics.

The paper's argument is about *why* a plan was chosen — which Beta
posterior, which threshold quantile, how far the estimate landed from
the true cardinality — so this package makes every estimate and plan
decision a first-class, inspectable artifact:

* :mod:`repro.obs.trace` — span types (estimation / optimizer /
  execution) and the versioned, deterministic JSONL trace schema;
* :mod:`repro.obs.tracer` — the per-pipeline :class:`Tracer` the
  estimators and optimizer record into (``None`` everywhere by
  default, so tracing costs nothing when off);
* :mod:`repro.obs.sink` — :class:`TraceSink` implementations
  (null / in-memory / JSONL file) plus strict readback validation;
* :mod:`repro.obs.execution` — execution provenance read off the
  record an execution kept of itself: the per-operator
  :class:`~repro.engine.counters.WorkCounters` breakdown and the
  plan-level Q-error accounting;
* :mod:`repro.obs.registry` — a :class:`MetricsRegistry`
  (counter / gauge / histogram with Prometheus-text and JSON export)
  that the harness, estimators, and engine all report through;
* :mod:`repro.obs.summarize` — the ``repro trace summarize`` renderer
  (per-phase latency, Q-error distributions, "why this plan").
"""

from repro.obs.trace import (
    QERROR_FLOOR,
    TRACE_SCHEMA_VERSION,
    EstimationSpan,
    QueryTrace,
    canonical_json,
    plan_shape,
    q_error,
    strip_timing,
)
from repro.obs.tracer import Tracer
from repro.obs.sink import (
    InMemoryTraceSink,
    JsonlTraceSink,
    NullTraceSink,
    TraceError,
    TraceSink,
    iter_traces,
    read_traces,
    write_traces,
)
from repro.obs.execution import execution_span, operator_spans, operator_tables
from repro.obs.health import DEGRADATION_REASONS, DegradationEvent
from repro.obs.ledger import (
    SEVERITY_BANDS,
    AccuracyLedger,
    classify_q_error,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.summarize import explain_trace, summarize_traces

__all__ = [
    "AccuracyLedger",
    "DEGRADATION_REASONS",
    "DegradationEvent",
    "QERROR_FLOOR",
    "SEVERITY_BANDS",
    "TRACE_SCHEMA_VERSION",
    "EstimationSpan",
    "InMemoryTraceSink",
    "JsonlTraceSink",
    "MetricsRegistry",
    "NullTraceSink",
    "QueryTrace",
    "TraceError",
    "TraceSink",
    "Tracer",
    "canonical_json",
    "classify_q_error",
    "execution_span",
    "explain_trace",
    "iter_traces",
    "operator_spans",
    "operator_tables",
    "plan_shape",
    "q_error",
    "read_traces",
    "strip_timing",
    "summarize_traces",
    "write_traces",
]
