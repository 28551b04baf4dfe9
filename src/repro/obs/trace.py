"""Trace schema: span types, the per-query trace record, serialization.

One executed query produces one :class:`QueryTrace` holding three
linked span groups, mirroring the pipeline the paper describes:

* **estimation spans** — one per synopsis/sample/histogram lookup,
  recording the evidence behind an estimate: ``(k, n)`` counts, the
  prior, the confidence threshold(s), the posterior quantile(s), the
  resulting point estimate, and whether the inversion came from the
  precomputed quantile table (``lut_hit``);
* **an optimizer span** — DP level counts, candidates considered vs.
  pruned, finalists, and the winner's provenance (shape, cost, order,
  and for vectorized passes the full per-threshold cost vector);
* **an execution span** — the chosen plan's signature, simulated
  time, the full :class:`~repro.engine.counters.WorkCounters`
  breakdown per operator, and post-hoc accuracy (Q-error and
  under/over-estimation flags against ``actual_rows``).

Traces serialize deterministically: canonical JSON with sorted keys,
and **no wall-clock values outside keys named** ``"timing"`` — so the
same seed and configuration produce byte-identical JSONL once
:func:`strip_timing` removes the timing subtrees, regardless of worker
count or machine speed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

#: Version stamped on (and required of) every trace record.
TRACE_SCHEMA_VERSION = 1

#: Row floor applied to both sides of a Q-error ratio.  Shared with
#: :mod:`repro.experiments.audit` and the feedback accuracy ledger so
#: the "how wrong was the estimate" arithmetic cannot drift between
#: the audit, tracing, and feedback paths.
QERROR_FLOOR = 0.5


def canonical_json(record: dict) -> str:
    """The canonical single-line serialization of one trace record.

    Sorted keys and minimal separators make the byte representation a
    pure function of the record's contents — the property the
    determinism tests (and cross-worker merges) rely on.
    """
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def strip_timing(value: Any) -> Any:
    """A deep copy of ``value`` with every ``"timing"`` subtree removed.

    Wall-clock measurements are the only non-deterministic fields in a
    trace, and the schema confines them to keys named ``timing`` at
    any depth; stripping them yields the deterministic core.
    """
    if isinstance(value, dict):
        return {
            key: strip_timing(inner)
            for key, inner in value.items()
            if key != "timing"
        }
    if isinstance(value, list):
        return [strip_timing(inner) for inner in value]
    return value


def q_error(estimated: float | None, actual: float) -> float | None:
    """Symmetric ratio error ``max(est/actual, actual/est)`` (≥ 1).

    Both sides are floored at :data:`QERROR_FLOOR` rows so empty
    results don't divide by zero; ``None`` estimates yield ``None``.
    """
    if estimated is None:
        return None
    est = max(float(estimated), QERROR_FLOOR)
    act = max(float(actual), QERROR_FLOOR)
    return max(est / act, act / est)


def plan_shape(plan) -> str:
    """A compact ``Op>Op>...`` signature of a plan's operator tree."""
    return ">".join(type(op).__name__ for op in plan.walk())


def _threshold_field(value):
    """Normalize a threshold (scalar or grid) for serialization."""
    if value is None:
        return None
    if isinstance(value, (tuple, list)):
        return [float(v) for v in value]
    return float(value)


@dataclass(frozen=True)
class EstimationSpan:
    """One piece of estimation evidence: a synopsis/sample/magic lookup.

    ``threshold``/``quantile``/``point_estimate`` are scalars on the
    scalar estimation path and aligned lists on the vectorized
    (``estimate_many``) path, where one evidence pass prices a whole
    threshold grid through the quantile lookup table.
    """

    #: Relations of the subexpression the lookup was evidence for.
    tables: tuple[str, ...]
    #: Which statistic answered: ``synopsis``/``sample``/``magic``/
    #: ``histogram``.
    source: str
    #: Satisfying tuples in the sample/synopsis (``None`` for
    #: distribution-free sources).
    k: int | None = None
    #: Sample/synopsis size.
    n: int | None = None
    #: Name of the Beta prior behind the posterior, if any.
    prior: str | None = None
    #: Confidence threshold(s) the posterior was inverted at.
    threshold: float | tuple | list | None = None
    #: Posterior quantile(s): the selectivity at each threshold.
    quantile: float | tuple | list | None = None
    #: Resulting cardinality estimate(s) (``quantile × |root|``).
    point_estimate: float | tuple | list | None = None
    #: Whether the inversion was served by the precomputed
    #: beta-quantile table instead of per-threshold ``betaincinv``.
    lut_hit: bool = False
    #: Rendered predicate the evidence was counted against.
    predicate: str | None = None
    #: Feedback attribution when stored observations were folded into
    #: the posterior as pseudo-counts: the unadjusted prior quantile,
    #: the pseudo-count mass, and the observed selectivity behind it.
    feedback: dict | None = None

    def as_dict(self) -> dict:
        return {
            "tables": sorted(self.tables),
            "source": self.source,
            "k": self.k,
            "n": self.n,
            "prior": self.prior,
            "threshold": _threshold_field(self.threshold),
            "quantile": _threshold_field(self.quantile),
            "point_estimate": _threshold_field(self.point_estimate),
            "lut_hit": bool(self.lut_hit),
            "predicate": self.predicate,
            "feedback": dict(self.feedback) if self.feedback else None,
        }


@dataclass
class QueryTrace:
    """All spans of one optimized-and-executed query, JSONL-ready.

    ``timing`` is the only top-level home for wall-clock values; span
    dictionaries may carry their own nested ``timing`` keys, which
    :func:`strip_timing` removes wherever they appear.
    """

    template: str
    config: str
    seed: int
    param: int | None = None
    selectivity: float | None = None
    estimation: list[dict] = field(default_factory=list)
    optimizer: dict | None = None
    execution: dict | None = None
    timing: dict = field(default_factory=dict)

    @property
    def trace_id(self) -> str:
        """Deterministic identity: template/seed/config/param."""
        return (
            f"{self.template}/seed={self.seed}"
            f"/config={self.config}/param={self.param}"
        )

    def as_dict(self) -> dict:
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "kind": "query",
            "trace_id": self.trace_id,
            "template": self.template,
            "config": self.config,
            "seed": self.seed,
            "param": self.param,
            "selectivity": self.selectivity,
            "estimation": list(self.estimation),
            "optimizer": self.optimizer,
            "execution": self.execution,
            "timing": dict(self.timing),
        }
